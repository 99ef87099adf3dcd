package main

import (
	"flag"
	"fmt"
	"time"

	"sspubsub"
	"sspubsub/internal/runtime/nettransport"
)

// netFlags are the options shared by the serve and join subcommands.
type netFlags struct {
	topic    string
	local    int
	pubs     int
	waitpubs int
	interval time.Duration
	timeout  time.Duration
	seed     int64
	verbose  bool
}

func addNetFlags(fs *flag.FlagSet) *netFlags {
	nf := &netFlags{}
	fs.StringVar(&nf.topic, "topic", "demo", "topic name")
	fs.IntVar(&nf.local, "local", 2, "subscriber clients hosted by this process")
	fs.IntVar(&nf.pubs, "pubs", 2, "publications this process contributes")
	fs.IntVar(&nf.waitpubs, "waitpubs", 0, "total publications (all processes) to wait for; 0 = just this process's")
	fs.DurationVar(&nf.interval, "interval", 5*time.Millisecond, "protocol timeout interval")
	fs.DurationVar(&nf.timeout, "timeout", 60*time.Second, "overall deadline")
	fs.Int64Var(&nf.seed, "seed", 1, "random seed for protocol coin flips")
	fs.BoolVar(&nf.verbose, "v", false, "log connection lifecycle events")
	return nf
}

func (nf *netFlags) validate() {
	if nf.local < 0 {
		fail("-local must be ≥ 0, got %d", nf.local)
	}
	if nf.pubs < 0 {
		fail("-pubs must be ≥ 0, got %d", nf.pubs)
	}
	if nf.waitpubs == 0 {
		nf.waitpubs = nf.pubs
	}
	if nf.local == 0 && nf.pubs > 0 {
		fail("-pubs %d requires -local ≥ 1 (publishers are subscribers; pass -pubs 0 to run a relay-only process)", nf.pubs)
	}
	if nf.local == 0 && nf.waitpubs > 0 {
		fail("-waitpubs %d requires -local ≥ 1 (no local subscriber can observe publications)", nf.waitpubs)
	}
}

func (nf *netFlags) logf() func(string, ...any) {
	if !nf.verbose {
		return nil
	}
	return func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
	}
}

// runServe hosts the supervisor process of a networked deployment: it
// listens for join processes, runs -local subscribers of its own, waits
// until -expect subscribers (across all processes) are registered, then
// publishes and waits for full dissemination.
func runServe(args []string) {
	fs := flag.NewFlagSet("srsim serve", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:7411", "TCP address to listen on")
	expect := fs.Int("expect", 0, "total subscribers (all processes) to wait for; 0 = only local ones")
	linger := fs.Duration("linger", 5*time.Second, "keep serving this long after local success, so join processes can finish their anti-entropy through the hub")
	nf := addNetFlags(fs)
	fs.Parse(args)
	nf.validate()
	if *expect == 0 {
		*expect = nf.local
	}
	if *expect < nf.local {
		fail("-expect %d is smaller than -local %d", *expect, nf.local)
	}

	hub, err := nettransport.NewHub(nettransport.Options{
		Listen: *listen, Interval: nf.interval, Seed: nf.seed, Logf: nf.logf(),
	})
	if err != nil {
		fatalf("%v", err)
	}
	sys := sspubsub.NewSystem(sspubsub.Options{
		Transport: hub, Interval: nf.interval, Seed: nf.seed,
	})
	defer sys.Close()
	fmt.Printf("serve: supervisor up on %s, hosting %d local subscribers of topic %q\n",
		hub.Addr(), nf.local, nf.topic)

	subs := makeClients(sys, "serve", nf)

	// Wait for the whole deployment: the supervisor's database counts
	// subscribers from every process.
	deadline := time.Now().Add(nf.timeout)
	last := -1
	for sys.TopicSize(nf.topic) < *expect {
		if n := sys.TopicSize(nf.topic); n != last {
			fmt.Printf("serve: %d/%d subscribers registered\n", n, *expect)
			last = n
		}
		if time.Now().After(deadline) {
			fatalf("only %d/%d subscribers registered within %s", sys.TopicSize(nf.topic), *expect, nf.timeout)
		}
		time.Sleep(nf.interval)
	}
	fmt.Printf("serve: all %d subscribers registered\n", *expect)

	publishAndReport(sys, "serve", nf, subs, hub.GarbageFrames, hub.LostFrames)
	if *linger > 0 {
		fmt.Printf("serve: lingering %s for join processes to finish…\n", *linger)
		time.Sleep(*linger)
	}
}

// runJoin attaches a subscriber process to a running serve process: it
// receives a node-ID block, joins the topic, publishes its share and
// waits for everyone else's publications to arrive.
func runJoin(args []string) {
	fs := flag.NewFlagSet("srsim join", flag.ExitOnError)
	hubAddr := fs.String("hub", "127.0.0.1:7411", "address of the serve process")
	nf := addNetFlags(fs)
	fs.Parse(args)
	nf.validate()
	if nf.local == 0 {
		fail("-local must be ≥ 1 on join (a joiner with no subscribers does nothing)")
	}

	nt, err := nettransport.NewJoiner(nettransport.Options{
		Hub: *hubAddr, Interval: nf.interval, Seed: nf.seed, Logf: nf.logf(),
	})
	if err != nil {
		fatalf("%v", err)
	}
	sys := sspubsub.NewSystem(sspubsub.Options{
		Transport: nt, Attach: true, FirstClientID: nt.BaseID(),
		Interval: nf.interval, Seed: nf.seed,
	})
	defer sys.Close()
	prefix := fmt.Sprintf("join%d", nt.BaseID())
	fmt.Printf("join: granted node IDs [%d, %d); hosting %d subscribers of topic %q\n",
		nt.BaseID(), int64(nt.BaseID())+int64(nt.Slots()), nf.local, nf.topic)

	subs := makeClients(sys, prefix, nf)
	if !sys.WaitJoined(nf.topic, nf.local, nf.timeout) {
		fatalf("subscribers not integrated by the remote supervisor within %s", nf.timeout)
	}
	fmt.Printf("join: all %d local subscribers hold labels\n", nf.local)

	publishAndReport(sys, prefix, nf, subs, nt.GarbageFrames, nt.LostFrames)
}

// procClients is one process's set of clients and their subscriptions.
type procClients struct {
	clients []*sspubsub.Client
	subs    []*sspubsub.Subscription
}

// makeClients creates the local clients and subscribes each to the topic.
func makeClients(sys *sspubsub.System, prefix string, nf *netFlags) *procClients {
	pc := &procClients{
		clients: make([]*sspubsub.Client, nf.local),
		subs:    make([]*sspubsub.Subscription, nf.local),
	}
	for i := range pc.clients {
		pc.clients[i] = sys.MustClient(fmt.Sprintf("%s-%d", prefix, i))
		pc.subs[i] = pc.clients[i].Subscribe(nf.topic)
	}
	return pc
}

// publishAndReport is the shared tail of serve and join: publish this
// process's share, wait until every local subscriber knows all -waitpubs
// publications, then report deliveries — including the Dropped counter,
// so a lagging consumer is visible instead of silent.
func publishAndReport(sys *sspubsub.System, prefix string, nf *netFlags,
	pc *procClients, garbage, lost func() int64) {

	subs := pc.subs
	if len(subs) == 0 {
		// Relay-only process (-local 0): nothing to publish or observe.
		fmt.Printf("%s: no local subscribers; relaying only\n", prefix)
		return
	}
	for i := 0; i < nf.pubs; i++ {
		c := pc.clients[i%len(pc.clients)]
		if err := c.Publish(nf.topic, fmt.Sprintf("%s-pub-%d", prefix, i)); err != nil {
			fatalf("publish: %v", err)
		}
	}
	if nf.pubs > 0 {
		fmt.Printf("%s: published %d items\n", prefix, nf.pubs)
	}

	deadline := time.Now().Add(nf.timeout)
	for {
		done := true
		for _, sub := range subs {
			if len(sub.History()) < nf.waitpubs {
				done = false
				break
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			fatalf("only %d/%d publications arrived within %s", len(subs[0].History()), nf.waitpubs, nf.timeout)
		}
		time.Sleep(nf.interval)
	}

	consumed := 0
	for _, sub := range subs {
	drain:
		for {
			select {
			case _, ok := <-sub.Events():
				if !ok {
					break drain
				}
				consumed++
			default:
				break drain
			}
		}
	}
	var droppedTotal int64
	for _, sub := range subs {
		droppedTotal += sub.Dropped()
	}
	fmt.Printf("%s: %d publications known to every local subscriber\n", prefix, nf.waitpubs)
	fmt.Printf("%s: events consumed %d, dropped %d (lagging-consumer overflow)\n", prefix, consumed, droppedTotal)
	fmt.Printf("%s: wire frames — garbage %d, lost %d\n", prefix, garbage(), lost())
	for i, sub := range subs {
		fmt.Printf("  %s-%d: %d publications in history\n", prefix, i, len(sub.History()))
	}
}
