package main

import (
	"fmt"

	"numasim/internal/metrics"
	"numasim/internal/sim"
)

// implausible reports why a run's result cannot come from a real machine,
// or "" when it passes, together with the run's worst link-wait ratio.
//
// A FIFO link never makes a transfer wait longer than all the service
// booked on it; allowing one scheduling quantum for the skew between
// thread clocks, a link whose mean wait per transfer exceeds its total
// booked service plus one quantum is impossible. The ratio is that mean
// wait over that bound (0 on machines without contended links).
func implausible(res metrics.RunResult, quantum sim.Time) (string, float64) {
	reason, worst := "", 0.0
	for _, l := range res.Links {
		if l.Xfers == 0 {
			continue
		}
		mean := float64(l.Waited) / float64(l.Xfers)
		bound := float64(l.Service + quantum)
		ratio := mean / bound
		if ratio > worst {
			worst = ratio
		}
		if ratio > 1 && reason == "" {
			reason = fmt.Sprintf("implausible: link %s mean wait %.4gs per transfer > booked service %.4gs + quantum",
				l.Name, mean/float64(sim.Second), l.Service.Seconds())
		}
	}
	return reason, worst
}

// checkRow applies the plausibility check to the three ops of a Table 3
// row: each run's links, then γ ≥ 1 on the T_numa run (eq. 1: T_numa
// cannot beat the all-local run).
func checkRow(r row, ops []op) {
	if !r.ok {
		return
	}
	for i := range ops {
		ops[i].reason, _ = implausible(ops[i].res, ops[i].quantum)
	}
	if r.eval.Gamma < 1 && ops[0].reason == "" {
		ops[0].reason = fmt.Sprintf("implausible: gamma %.4f < 1 (T_numa %.4gs < T_local %.4gs)",
			r.eval.Gamma, float64(r.eval.Tnuma), float64(r.eval.Tlocal))
	}
}
