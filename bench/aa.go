package main

import (
	"fmt"
	"math"
	"os"

	"sspubsub/bench/load"
)

// runAA runs two sets of the same binary back to back: per set, `runs` runs
// of every workload, run i with seed p.seed+i, the second set in reverse
// workload order so that position in the sequence is not confounded with
// the set.
func runAA(p params, runs int) (a, b []*load.Result, ok bool) {
	ok = true
	for set := 0; set < 2; set++ {
		for i := 0; i < runs; i++ {
			for j := range load.Workloads {
				w := load.Workloads[j]
				if set == 1 {
					w = load.Workloads[len(load.Workloads)-1-j]
				}
				q := p
				q.seed += int64(i)
				r := run[w.Name](q)
				r.Print(os.Stdout)
				ok = ok && r.Correct()
				if set == 0 {
					a = append(a, r)
				} else {
					b = append(b, r)
				}
			}
		}
	}
	return a, b, ok
}

// agree applies the benchmark's acceptance rule to two sets of results, a
// the reference (parent) and b the candidate: for every workload and gated
// metric, b's median may not be worse than a's by more than the metric's
// bound, and with four or more runs a side the spread (interquartile range
// over median) of every metric but setup_s must stay within the bound too.
// Two sets of one binary (symmetric) may not differ by more than the bound in
// either direction. It prints median and spread per metric and side.
func agree(a, b []*load.Result, symmetric bool) bool {
	ok := true
	fmt.Printf("\n%-20s %-18s %12s %12s %8s %8s %8s  %s\n", "workload", "metric", "median(a)", "median(b)", "b vs a", "iqr(a)", "iqr(b)", "verdict")
	for _, w := range load.Workloads {
		for _, def := range endToEnd {
			va, vb := values(a, w.Name, def.Name), values(b, w.Name, def.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := load.Median(va), load.Median(vb)
			worse := (mb - ma) / ma
			if def.Better == "higher" {
				worse = (ma - mb) / ma
			}
			if symmetric {
				worse = math.Abs(worse)
			}
			sa, sb := spread(va), spread(vb)
			verdict := "ok"
			if worse > def.Bound {
				verdict = fmt.Sprintf("WORSE by more than %.0f%%", def.Bound*100)
			} else if def.Name != "setup_s" && (sa > def.Bound || sb > def.Bound) {
				verdict = fmt.Sprintf("UNRESOLVED: spread above %.0f%%", def.Bound*100)
			}
			if verdict != "ok" {
				ok = false
			}
			fmt.Printf("%-20s %-18s %12.4f %12.4f %+7.1f%% %7.1f%% %7.1f%%  %s\n",
				w.Name, def.Name, ma, mb, worse*100, sa*100, sb*100, verdict)
		}
	}
	return ok
}

func values(results []*load.Result, workload, metric string) []float64 {
	var out []float64
	for _, r := range results {
		if r.Workload != workload {
			continue
		}
		if v, found := r.Get(metric); found {
			out = append(out, v)
		}
	}
	return out
}

// spread is the interquartile range as a share of the median (0 when there
// are too few values for quartiles to mean anything).
func spread(xs []float64) float64 {
	if len(xs) < 4 {
		return 0
	}
	q1, q3 := load.Quartiles(xs)
	return math.Abs(q3-q1) / load.Median(xs)
}
