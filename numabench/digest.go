package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// digest hashes every simulated statistic of a pass — virtual times,
// reference, fault, NUMA, VM, MMU, scheduler and link counters, and each
// op's verdict — in op order. Host measurements are left out, so two
// passes of the same code and inputs give the same digest, traced or not.
// %#v prints sim.Time and sim.Ticks at full precision.
func (p pass) digest() string {
	h := sha256.New()
	for _, o := range p.ops {
		fmt.Fprintf(h, "%s|%s|", o.label, o.reason)
		if o.err == nil {
			r := o.res
			fmt.Fprintf(h, "%#v|%#v|%#v|%#v|%#v|%d|%d|%#v|%#v|%#v",
				r.UserSec, r.SysSec, r.Refs, r.NUMA, r.VM, r.Faults, r.MMUEnters, o.mmu, r.Links, r.Sched)
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
