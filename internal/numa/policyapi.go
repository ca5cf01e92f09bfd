// Capability interfaces: the redesigned policy API surface.
//
// numa.Policy stays a two-method core — CachePolicy plus Name — so the
// paper's fixed policies keep compiling unchanged. Everything richer is
// an optional capability detected once, by type assertion, when the
// manager binds the policy in NewManager:
//
//   - PageObserver: the policy wants per-access notifications, and the
//     manager maintains per-page decaying access histograms for it;
//   - Retirer: the policy wants a hook at every decay-epoch rollover.
//
// Binding once keeps the per-request hot path free of type assertions:
// Access consults plain nil-checked interface fields, exactly the price
// the pre-redesign ReconsideringPolicy assertions paid per call.
//
// The decaying counters themselves live on the Page record (heat,
// moveHeat, heatEpoch, pword) and are pooled with it, so the counter
// paths allocate nothing; they are maintained only when an observer or
// retirer capability is bound, which keeps the default-policy hot path
// — and every ACE golden — byte-identical to the pre-redesign manager.
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

// PageObserver is a Policy that wants to see every request the manager
// handles. Binding an observer also turns on the manager's per-page
// decaying access histograms (NodeHeat/MoveHeat/HotNode), which are
// updated before ObserveAccess runs, so the observer — and the
// CachePolicy call that follows it — sees counters current through the
// present access.
type PageObserver interface {
	Policy
	// ObserveAccess is called once per request, after the page's
	// decaying counters have been updated for it and before CachePolicy
	// is consulted. It runs on the protocol hot path: implementations
	// must not allocate.
	ObserveAccess(pg *Page, proc int, write bool, now sim.Time)
}

// Retirer is a Policy that wants a hook at every decay-epoch rollover
// — the moment the manager first handles a request in a new heat
// epoch. Adaptive policies use it to retire exploration state or
// re-seed deterministic exploration schedules.
type Retirer interface {
	Policy
	// RetireEpoch is called once per decay epoch, from the protocol hot
	// path: implementations must not allocate.
	RetireEpoch(now sim.Time)
}

// SetHeatEpoch overrides the decay period of the per-page heat
// counters (DefaultHeatEpoch otherwise). Install before the simulation
// runs; d must be positive.
func (n *Manager) SetHeatEpoch(d sim.Time) {
	if d <= 0 {
		panic(newViolation(nil, nil, "numa: non-positive heat epoch %v", d))
	}
	n.heatEpoch = d
}

// HeatEpoch returns the decay period of the per-page heat counters.
func (n *Manager) HeatEpoch() sim.Time { return n.heatEpoch }

// TracksHeat reports whether the bound policy's capabilities turned
// the per-page heat histograms on.
func (n *Manager) TracksHeat() bool { return n.trackHeat }

// bindCapabilities detects the policy's optional capabilities once, at
// manager construction, so the hot path never repeats the assertions.
func (n *Manager) bindCapabilities(pol Policy) {
	n.observer, _ = pol.(PageObserver)
	n.retirer, _ = pol.(Retirer)
	n.reconsider, _ = pol.(ReconsideringPolicy)
	// A retirer needs the epoch clock, which ticks with the counters.
	n.trackHeat = n.observer != nil || n.retirer != nil
}

// observeAccess maintains the decaying counters for one request and
// runs the observer capability. Called from Access only when trackHeat
// is set, after the request counters and timestamps are stamped and
// before the policy is consulted.
//
//numalint:hotpath
func (n *Manager) observeAccess(pg *Page, proc, node int, write bool, now sim.Time) {
	e := uint32(now / n.heatEpoch)
	if e != n.curEpoch {
		n.curEpoch = e
		if n.retirer != nil {
			n.retirer.RetireEpoch(now)
		}
	}
	pg.decayTo(e)
	if pg.heat[node] < heatCap {
		pg.heat[node]++
	}
	if n.observer != nil {
		n.observer.ObserveAccess(pg, proc, write, now)
	}
}

// decayTo applies the lazy shift decay: every epoch elapsed since the
// page was last touched halves every counter.
//
//numalint:hotpath
func (p *Page) decayTo(epoch uint32) {
	if epoch == p.heatEpoch {
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
// are maintained only when the bound policy has the PageObserver or
// Retirer capability; otherwise every node reads zero.
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

// PolicyWord returns the page's 64-bit policy scratch word: opaque
// per-page state for adaptive policies (the bandit packs its per-arm
// value estimates here), zeroed when the page record is created or
// recycled.
//
//numalint:hotpath
func (p *Page) PolicyWord() uint64 { return p.pword }

// SetPolicyWord stores the page's policy scratch word.
//
//numalint:hotpath
func (p *Page) SetPolicyWord(w uint64) { p.pword = w }
