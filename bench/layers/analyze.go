package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"sspubsub/bench/load"
)

// typeStat aggregates the handler spans of one (layer, message type).
type typeStat struct {
	layer  string // "sub" or "sup"
	typ    string
	selfNs []float64
	total  float64
}

// layerTimes is what the handler and send records of one traced pass add up
// to.
type layerTimes struct {
	types        []*typeStat // sorted by total self time, descending
	subSelfUs    float64     // mean self time of a subscriber message handler
	supSelfUs    float64     // same on the supervisor
	sendUs       float64     // mean duration of one Send from a handler
	sendsPerHand float64     // mean sends per message handler that sent at all
	messages     int         // message handler invocations (timeouts excluded)
	publishNew   int         // PublishNew messages received
	busyNs       float64     // all handler self time, timeouts included
}

func (t *tracer) logsOnce() []*nodeLog {
	seen := make(map[*nodeLog]bool)
	var out []*nodeLog
	for _, l := range t.logs {
		if l != nil && !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	return out
}

func (t *tracer) times() layerTimes {
	var lt layerTimes
	byKey := make(map[string]*typeStat)
	var subSum, supSum, sendSum float64
	var subN, supN, sendN, senders, senderSends int
	for _, l := range t.logsOnce() {
		layer := "sub"
		if l.sup {
			layer = "sup"
		}
		for _, h := range l.handlers {
			typ := l.types[h.typ]
			self := float64(h.durNs - h.sendNs)
			st := byKey[layer+"/"+typ]
			if st == nil {
				st = &typeStat{layer: layer, typ: typ}
				byKey[layer+"/"+typ] = st
			}
			st.selfNs = append(st.selfNs, self)
			st.total += self
			lt.busyNs += self
			if typ == "timeout" {
				continue
			}
			lt.messages++
			if typ == "proto.PublishNew" {
				lt.publishNew++
			}
			if h.sends > 0 {
				senders++
				senderSends += int(h.sends)
			}
			if l.sup {
				supSum += self
				supN++
			} else {
				subSum += self
				subN++
			}
		}
		for _, d := range l.sendDur {
			sendSum += float64(d)
		}
		sendN += len(l.sendDur)
	}
	for _, st := range byKey {
		sort.Float64s(st.selfNs)
		lt.types = append(lt.types, st)
	}
	sort.Slice(lt.types, func(i, j int) bool {
		if lt.types[i].total != lt.types[j].total {
			return lt.types[i].total > lt.types[j].total
		}
		return lt.types[i].layer+lt.types[i].typ < lt.types[j].layer+lt.types[j].typ
	})
	lt.subSelfUs = ratio(subSum, float64(subN)) / 1e3
	lt.supSelfUs = ratio(supSum, float64(supN)) / 1e3
	lt.sendUs = ratio(sendSum, float64(sendN)) / 1e3
	lt.sendsPerHand = ratio(float64(senderSends), float64(senders))
	return lt
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (lt layerTimes) print() {
	fmt.Printf("   %-4s %-28s %9s %9s %9s %9s %10s %6s\n", "", "handler self time by type", "count", "mean_us", "p50_us", "p99_us", "total_ms", "busy%")
	for _, st := range lt.types {
		fmt.Printf("   %-4s %-28s %9d %9.2f %9.2f %9.2f %10.1f %5.1f%%\n", st.layer, st.typ, len(st.selfNs),
			st.total/float64(len(st.selfNs))/1e3, load.Percentile(st.selfNs, 0.5)/1e3, load.Percentile(st.selfNs, 0.99)/1e3,
			st.total/1e6, 100*ratio(st.total, lt.busyNs))
	}
}

type spanKey struct {
	trace    int64
	from, to int64
}

// spanIndex holds every full span of a traced pass, matched.
type spanIndex struct {
	sends    map[spanKey]span
	handlers []span // publication, publish-command and join handlers
	delivers []span
	transits []span
}

// index collects the spans and derives the transit spans: a send at A is
// matched to the handler at B that consumed it by (trace, from, to), which is
// unique because a node forwards a publication to a neighbour at most once
// and joins once.
func (t *tracer) index() *spanIndex {
	ix := &spanIndex{sends: make(map[spanKey]span)}
	logs := append(t.logsOnce(), &t.driver)
	for _, l := range logs {
		for _, s := range l.spans {
			switch s.Kind {
			case kindSend:
				ix.sends[spanKey{s.Trace, s.From, s.To}] = s
			case kindHandler:
				ix.handlers = append(ix.handlers, s)
			case kindDeliver:
				ix.delivers = append(ix.delivers, s)
			}
		}
	}
	for _, h := range ix.handlers {
		if s, ok := ix.sends[spanKey{h.Trace, h.From, h.To}]; ok {
			ix.transits = append(ix.transits, span{Trace: h.Trace, Kind: kindTransit, Node: h.Node,
				From: h.From, To: h.To, Type: h.Type, Start: s.End, End: h.Start})
		}
	}
	return ix
}

// transitUs is the median transit in microseconds (0 without samples).
func (ix *spanIndex) transitUs() (float64, int) {
	if len(ix.transits) == 0 {
		return 0, 0
	}
	d := make([]float64, len(ix.transits))
	for i, s := range ix.transits {
		d[i] = float64(s.End-s.Start) / 1e3
	}
	sort.Float64s(d)
	return load.Percentile(d, 0.5), len(d)
}

// write stores the spans, one JSON array ordered by trace then start time.
func (ix *spanIndex) write(dir, workload string) (string, error) {
	all := make([]span, 0, len(ix.sends)+len(ix.handlers)+len(ix.delivers)+len(ix.transits))
	for _, s := range ix.sends {
		all = append(all, s)
	}
	all = append(all, ix.handlers...)
	all = append(all, ix.delivers...)
	all = append(all, ix.transits...)
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Trace != b.Trace {
			return a.Trace < b.Trace
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.Kind+a.Type < b.Kind+b.Type
	})
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	b, err := json.Marshal(all)
	if err == nil {
		err = os.WriteFile(path, b, 0o644)
	}
	return path, err
}

// budget reconstructs, for every sampled publication, the path its slowest
// subscriber's first copy took — generator lateness, the driver's send, and
// per hop the time the forwarding handler ran before the send, the send, and
// the transit — and compares the sum with the measured delivery − due.
type budget struct {
	chains, within int // reconstructed chains; those within 10 % of measured
	missing        int // sampled publications whose chain has a gap
	hops           float64
	measuredUs     float64
	parts          [7]float64 // mean microseconds per chain, indexed by part*
}

const (
	partGenLate = iota
	partDriverSend
	partOriginTransit
	partHandlerPre
	partSend
	partTransit
	partDeliver
)

var partNames = [7]string{"generator late", "driver send", "transit to origin", "handler before send (all hops)",
	"send (all hops)", "transit (all hops)", "handler until delivery"}

func (ix *spanIndex) budget(rec *load.Recorder) budget {
	type nodeKey struct{ trace, node int64 }
	first := make(map[nodeKey]span) // earliest handler per (publication, node)
	for _, h := range ix.handlers {
		if h.Trace < 0 {
			continue
		}
		k := nodeKey{h.Trace, h.Node}
		if cur, ok := first[k]; !ok || h.Start < cur.Start {
			first[k] = h
		}
	}
	last := make(map[int64]span) // slowest delivery per publication
	for _, d := range ix.delivers {
		if cur, ok := last[d.Trace]; !ok || d.Start > cur.Start {
			last[d.Trace] = d
		}
	}
	var b budget
	for trace, d := range last {
		due := rec.Due(int(trace))
		var parts [7]float64
		h, ok := first[nodeKey{trace, d.Node}]
		parts[partDeliver] = float64(d.Start - h.Start)
		hops := 0
		for ok && h.Type != "core.PublishCmd" && hops < 64 {
			s, found := ix.sends[spanKey{trace, h.From, h.To}]
			up, foundUp := first[nodeKey{trace, h.From}]
			if !found || !foundUp {
				ok = false
				break
			}
			parts[partTransit] += float64(h.Start - s.End)
			parts[partSend] += float64(s.End - s.Start)
			parts[partHandlerPre] += float64(s.Start - up.Start)
			h = up
			hops++
		}
		drv, found := ix.sends[spanKey{trace, h.Node, h.Node}]
		if !ok || !found || h.Type != "core.PublishCmd" {
			b.missing++
			continue
		}
		parts[partOriginTransit] = float64(h.Start - drv.End)
		parts[partDriverSend] = float64(drv.End - drv.Start)
		parts[partGenLate] = float64(drv.Start - due)
		sum := 0.0
		for i, v := range parts {
			sum += v
			b.parts[i] += v / 1e3
		}
		measured := float64(d.Start - due)
		b.chains++
		b.hops += float64(hops)
		b.measuredUs += measured / 1e3
		if diff := sum - measured; diff <= 0.1*measured && -diff <= 0.1*measured {
			b.within++
		}
	}
	if b.chains > 0 {
		for i := range b.parts {
			b.parts[i] /= float64(b.chains)
		}
		b.hops /= float64(b.chains)
		b.measuredUs /= float64(b.chains)
	}
	return b
}

// reconstructedPct is the share of sampled publications whose rebuilt path
// lands within a tenth of the measured latency.
func (b budget) reconstructedPct() float64 {
	return 100 * ratio(float64(b.within), float64(b.chains+b.missing))
}

func (b budget) print(workload string) {
	fmt.Printf("   budget %s: %d sampled publications, slowest subscriber's path, mean %.1f hops, mean measured %.1f us; %d with a gap; %.1f%% rebuilt within 10%%\n",
		workload, b.chains+b.missing, b.hops, b.measuredUs, b.missing, b.reconstructedPct())
	for i, name := range partNames {
		fmt.Printf("     %-32s %10.1f us %5.1f%%\n", name, b.parts[i], 100*ratio(b.parts[i], b.measuredUs))
	}
}
