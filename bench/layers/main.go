// Command layers is the traced half of the repository's benchmark: it runs
// each workload's scenario twice — once plain, once with a sim.Transport
// decorator that times every handler invocation and every send from outside
// the program — and prints the per-layer metrics, a per-hop latency budget,
// and what the tracing itself cost. It also replays the traffic it recorded
// through the codec, the ring and the ordering buffer, times the parallel
// engine on empty handlers, and takes exact message counts from a seeded
// deterministic pass. See ../README.md.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"sspubsub/bench/load"
)

// perLayer names the metrics of the driver's --trace 1 line, in the order
// BENCHMARK.json lists them.
var perLayer = []string{
	"sub_handler_self_us", "sup_handler_self_us", "send_us", "transit_us", "transit_wait_us",
	"msgs_per_op", "flood_useful_ratio",
	"encode_ns_per_msg", "decode_ns_per_msg", "encode_ns_per_kib", "decode_ns_per_kib",
	"ring_handoff_ns", "arrive_ns", "null_events_per_s",
	"sup_msgs_per_join", "sup_msgs_per_timeout", "msgs_per_node_per_round", "sim_msgs_per_pub",
	"trace_overhead_pct", "budget_rebuilt_pct",
}

func main() {
	var (
		name    = flag.String("workload", "", "trace one workload and print the result line the benchmark driver reads (default: all five)")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 16, "measured seconds per workload, split between the plain and the traced pass")
		out     = flag.String("out", "", "write the machine-readable results to this file")
		dir     = flag.String("spans", "bench/out", "directory the span files are written to")
		trace   = flag.Int("trace", 1, "must be 1 here; untraced runs are the parent directory's binary")
	)
	flag.Parse()
	if *trace != 1 {
		fmt.Fprintln(os.Stderr, "layers: -trace 0 is the ./bench binary; use bench/run.sh")
		os.Exit(2)
	}
	var results []*load.Result
	ok := true
	for _, w := range load.Workloads {
		if *name != "" && w.Name != *name {
			continue
		}
		r := traceWorkload(w.Name, *seed, *seconds, *dir)
		r.Print(os.Stdout)
		results = append(results, r)
		ok = ok && r.Correct()
	}
	if len(results) == 0 {
		fmt.Fprintf(os.Stderr, "layers: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *out != "" {
		if err := load.WriteResults(*out, results); err != nil {
			fmt.Fprintf(os.Stderr, "layers: write %s: %v\n", *out, err)
			os.Exit(2)
		}
	}
	if *name != "" {
		fmt.Println(results[0].DriverLine(perLayer))
	}
	if !ok {
		os.Exit(1)
	}
}

// scenario runs one pass of the named workload for about dur.
func scenario(name string, seed int64, dur time.Duration, traced bool) pass {
	paced := func(rate float64) func(*load.Generator) load.Phase {
		return func(g *load.Generator) load.Phase { return g.Paced("paced", rate, dur) }
	}
	switch name {
	case "fanout.concurrent":
		return publishPass(false, seed, load.FanoutSubs, load.FanoutPayload, traced,
			int(load.FanoutConcurrentRate*dur.Seconds())+64, paced(load.FanoutConcurrentRate))
	case "fanout.net":
		return publishPass(true, seed, load.FanoutSubs, load.FanoutPayload, traced,
			int(load.FanoutNetRate*dur.Seconds())+64, paced(load.FanoutNetRate))
	case "bulk.net":
		return publishPass(true, seed, load.BulkSubs, load.BulkPayload, traced, int(20000*dur.Seconds())+64,
			func(g *load.Generator) load.Phase { return g.Closed("bulk", load.BulkWindow, dur) })
	case "recover.concurrent":
		return recoverPass(seed, dur, traced)
	case "scale.psim":
		return psimPass(seed<<8, load.PsimSubs, traced)
	}
	panic("layers: no scenario for " + name)
}

// traceWorkload produces every per-layer metric for one workload.
func traceWorkload(name string, seed int64, seconds float64, spanDir string) *load.Result {
	res := &load.Result{Workload: name, Seed: seed, Seconds: seconds, Env: load.Stamp(), Violations: []string{}}
	dur := time.Duration(seconds / 2 * float64(time.Second))
	plain := scenario(name, seed, dur, false)
	traced := scenario(name, seed, dur, true)
	res.Attempted = plain.attempted + traced.attempted
	res.Failed = plain.failed + traced.failed
	res.Violations = append(append(res.Violations, plain.violations...), traced.violations...)
	if traced.tr == nil {
		return res
	}

	lt := traced.tr.times()
	ix := traced.tr.index()
	transitUs, transits := ix.transitUs()
	cd := replayCodec(traced.tr)
	ringNs := replayRing(int(math.Round(lt.sendsPerHand)))
	arriveNs, arrivals := replayOrdering(traced.tr)
	counts := countsSim(seed)
	if !counts.converged || !counts.delivered {
		res.Violations = append(res.Violations, "counts.sim pass did not converge or deliver")
	}
	// On the net runtime a message in transit is encoded, handed through the
	// egress ring and decoded; what remains of the transit is waiting (router
	// queue, flush coalescing, socket, mailbox). The other runtimes put
	// neither codec nor ring on the path.
	onPathUs := 0.0
	if strings.HasSuffix(name, ".net") {
		onPathUs = (cd.encodeNsPerMsg + cd.decodeNsPerMsg + ringNs) / 1e3
	}
	useful := 0.0
	if lt.publishNew > 0 {
		useful = float64(traced.pubs*(traced.subs-1)) / float64(lt.publishNew)
	}
	var bud budget
	if traced.rec != nil {
		bud = ix.budget(traced.rec)
	}
	m := func(name, unit string, v float64, n int) load.Metric {
		return load.Metric{Name: name, Unit: unit, Value: v, Samples: n}
	}
	res.Metrics = []load.Metric{
		m("sub_handler_self_us", "us", lt.subSelfUs, lt.messages),
		m("sup_handler_self_us", "us", lt.supSelfUs, lt.messages),
		m("send_us", "us", lt.sendUs, lt.messages),
		m("transit_us", "us", transitUs, transits),
		m("transit_wait_us", "us", transitUs-onPathUs, transits),
		m("msgs_per_op", "count", ratio(float64(lt.messages), float64(traced.ops)), traced.ops),
		m("flood_useful_ratio", "ratio", useful, lt.publishNew),
		m("encode_ns_per_msg", "ns", cd.encodeNsPerMsg, cd.messages),
		m("decode_ns_per_msg", "ns", cd.decodeNsPerMsg, cd.messages),
		m("encode_ns_per_kib", "ns", cd.encodeNsPerKiB, cd.messages),
		m("decode_ns_per_kib", "ns", cd.decodeNsPerKiB, cd.messages),
		m("ring_handoff_ns", "ns", ringNs, 0),
		m("arrive_ns", "ns", arriveNs, arrivals),
		m("null_events_per_s", "1/s", nullEventsPerSec(seed), 0),
		m("sup_msgs_per_join", "count", counts.supMsgsPerJoin, 0),
		m("sup_msgs_per_timeout", "count", counts.supMsgsPerTimeout, 0),
		m("msgs_per_node_per_round", "count", counts.msgsPerNodePerRound, 0),
		m("sim_msgs_per_pub", "count", counts.msgsPerPub, 0),
		m("trace_overhead_pct", "%", 100*ratio(traced.headline-plain.headline, plain.headline), 0),
		m("budget_rebuilt_pct", "%", bud.reconstructedPct(), bud.chains+bud.missing),
	}
	res.Diagnostics = []load.Metric{
		m("headline_plain_ms", "ms", plain.headline, 0),
		m("headline_traced_ms", "ms", traced.headline, 0),
		m("sends_per_sending_handler", "count", lt.sendsPerHand, 0),
		m("replayed_bytes_per_msg", "B", cd.bytesPerMsg, cd.messages),
		m("sim_restabilize_rounds", "count", float64(counts.restabilizeRounds), 0),
	}
	if name == "scale.psim" {
		res.Diagnostics = append(res.Diagnostics,
			m("sim_join_wall_s", "s", traced.psimPhases[0], 0),
			m("sim_fanout_wall_s", "s", traced.psimPhases[1], 0),
			m("sim_stabilize_wall_s", "s", traced.psimPhases[2], 0))
	}
	fmt.Printf("-- %s: per-layer detail (traced pass)\n", name)
	lt.print()
	if traced.rec != nil {
		bud.print(name)
	}
	if path, err := ix.write(spanDir, name); err != nil {
		res.Violations = append(res.Violations, "span file: "+err.Error())
	} else {
		fmt.Printf("   spans of %d sampled operations written to %s\n", len(ix.handlers), path)
	}
	return res
}
