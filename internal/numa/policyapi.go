// The policy API's one optional capability.
//
// numa.Policy stays a two-method core — CachePolicy plus Name — so the
// paper's fixed policies compile unchanged. A policy that can unpin
// implements ReconsideringPolicy (numa.go); the manager detects it once,
// when NewManager binds the policy, so the per-request hot path only
// nil-checks a field. A wrapper policy (policy.Pragma) has an
// Unwrap() Policy method, and the manager binds the capability of the
// policy it wraps.
//
// Binding the capability turns on two things: the defrost sweep that
// re-presents pinned pages, and the per-page decaying counters (heat,
// moveHeat, heatEpoch) that a policy deciding when to unpin reads. The
// counters live on the Page record and are pooled with it, so their
// upkeep allocates nothing; a policy without the capability pays
// neither, which keeps the default-policy hot path — and every ACE
// golden — byte-identical.
package numa

import "numasim/internal/sim"

// DefaultHeatEpoch is the decay period for the per-page access
// histograms and move-heat counters: every elapsed epoch halves every
// counter (a lazy right-shift applied on the page's next touch). 50ms
// matches the Reconsider policy's default sweep interval, so one epoch
// is roughly "one reconsideration window".
const DefaultHeatEpoch = 50 * sim.Millisecond

// heatCap saturates the decaying counters. With shift decay the
// counters cannot overflow in practice; the cap just bounds them
// defensively and keeps TotalHeat comfortably inside uint64.
const heatCap = 1 << 24

// TracksHeat reports whether the bound policy's capability turned the
// per-page heat counters on.
func (n *Manager) TracksHeat() bool { return n.trackHeat }

// bindCapabilities detects the policy's capability once, at manager
// construction, so the hot path never repeats the assertion. A wrapper
// is seen through to the policy it wraps. Every policy that reads heat
// can unpin, so the one capability turns on both the defrost sweep and
// the heat counters.
func (n *Manager) bindCapabilities(pol Policy) {
	if w, ok := pol.(interface{ Unwrap() Policy }); ok {
		pol = w.Unwrap()
	}
	n.reconsider, _ = pol.(ReconsideringPolicy)
	n.trackHeat = n.reconsider != nil
}

// bumpHeat maintains the decaying counters for one request. Called
// from Access only when trackHeat is set, before the policy is
// consulted, so the policy sees counters current through the present
// access. The decay clock is the manager's epoch, the latest any request
// has reached: threads run out of virtual-time order within a dispatch
// slice, and a request from a thread behind that epoch must neither
// turn the clock back nor skip the decay already due.
//
//numalint:hotpath
func (n *Manager) bumpHeat(pg *Page, node int, now sim.Time) {
	if e := uint32(now / n.heatEpoch); e > n.curEpoch {
		n.curEpoch = e
	}
	pg.decayTo(n.curEpoch)
	if pg.heat[node] < heatCap {
		pg.heat[node]++
	}
}

// decayTo applies the lazy shift decay: every epoch elapsed since the
// page was last touched halves every counter. An epoch at or before the
// page's own decays nothing.
//
//numalint:hotpath
func (p *Page) decayTo(epoch uint32) {
	if epoch <= p.heatEpoch {
		return
	}
	shift := epoch - p.heatEpoch
	p.heatEpoch = epoch
	if shift >= 32 {
		for i := range p.heat {
			p.heat[i] = 0
		}
		p.moveHeat = 0
		return
	}
	for i := range p.heat {
		p.heat[i] >>= shift
	}
	p.moveHeat >>= shift
}

// NodeHeat returns the page's decayed access count for node. Counters
// are maintained only when the bound policy is a ReconsideringPolicy;
// otherwise every node reads zero.
//
//numalint:hotpath
func (p *Page) NodeHeat(node int) uint32 { return p.heat[node] }

// MoveHeat returns the page's decayed ownership-transfer count: the
// adaptive analogue of Moves, which never decays.
//
//numalint:hotpath
func (p *Page) MoveHeat() uint32 { return p.moveHeat }

// TotalHeat sums the decayed access counts across all nodes.
//
//numalint:hotpath
func (p *Page) TotalHeat() uint64 {
	var t uint64
	for _, h := range p.heat {
		t += uint64(h)
	}
	return t
}

// HotNode returns the node with the highest decayed access count (ties
// to the lowest node id), or -1 when every counter is zero.
//
//numalint:hotpath
func (p *Page) HotNode() int {
	best, node := uint32(0), -1
	for i, h := range p.heat {
		if h > best {
			best, node = h, i
		}
	}
	return node
}
