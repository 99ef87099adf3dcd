// Newsfeed: a targeted news service — the paper's motivating application.
// Many readers subscribe to a few broad topics; publishers post stories;
// readers only receive what matches their interests; late subscribers
// catch up on the full archive of a topic.
package main

import (
	"fmt"
	"log"
	"sort"
	"sync"
	"time"

	"sspubsub"
)

var topics = []string{"world", "tech", "sports"}

func main() {
	sys := sspubsub.NewSystem(sspubsub.Options{Interval: 5 * time.Millisecond, Seed: 2})
	defer sys.Close()

	// Three newsrooms, each publishing on its own desk.
	desks := map[string]*sspubsub.Client{}
	for _, tp := range topics {
		desk := sys.MustClient("desk-" + tp)
		desk.Subscribe(tp)
		desks[tp] = desk
	}

	// Twelve readers with mixed interests (reader i subscribes to the
	// topics whose index divides i).
	type readerSub struct {
		name string
		sub  *sspubsub.Subscription
	}
	var subs []readerSub
	received := map[string][]string{}
	interests := map[string]map[string]bool{}
	var mu sync.Mutex
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("reader-%02d", i)
		r := sys.MustClient(name)
		interests[name] = map[string]bool{}
		for j, tp := range topics {
			if i%(j+1) == 0 {
				subs = append(subs, readerSub{name, r.Subscribe(tp)})
				interests[name][tp] = true
			}
		}
	}
	for _, tp := range topics {
		// Count the members from the subscriptions made, not from Members:
		// a JoinTopic still in flight is not a member yet.
		want := 1 // the desk
		for _, in := range interests {
			if in[tp] {
				want++
			}
		}
		if !sys.WaitStable(tp, want, 15*time.Second) {
			log.Fatalf("topic %s did not stabilize", tp)
		}
		fmt.Printf("topic %-6s: %2d subscribers, overlay stable\n", tp, want)
	}

	// Fan-in all deliveries.
	var wg sync.WaitGroup
	var misdelivered int
	for _, rs := range subs {
		wg.Add(1)
		go func(rs readerSub) {
			defer wg.Done()
			for {
				select {
				case p, ok := <-rs.sub.Events():
					if !ok {
						return
					}
					mu.Lock()
					received[rs.name] = append(received[rs.name], p.Topic+": "+p.Payload)
					if !interests[rs.name][p.Topic] {
						misdelivered++
					}
					mu.Unlock()
				case <-time.After(3 * time.Second):
					return
				}
			}
		}(rs)
	}

	stories := map[string][]string{
		"world":  {"summit concludes", "markets steady"},
		"tech":   {"new language release", "chip shortage easing"},
		"sports": {"cup final tonight"},
	}
	for tp, items := range stories {
		for _, s := range items {
			if err := desks[tp].Publish(tp, s); err != nil {
				log.Fatal(err)
			}
		}
	}
	wg.Wait()

	names := make([]string, 0, len(received))
	for n := range received {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		sort.Strings(received[n])
		fmt.Printf("%-10s got %d stories: %v\n", n, len(received[n]), received[n])
	}

	if misdelivered > 0 {
		log.Fatalf("targeting violated: %d stories delivered outside their topic", misdelivered)
	}
	fmt.Println("newsfeed done — every reader received exactly its topics' stories")
}
