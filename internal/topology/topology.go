// Package topology parameterizes the simulated machine's memory shape: N
// memory nodes, the processors homed on them, a SLIT-style node-distance
// matrix (the Linux ACPI formulation: 10 is local, larger is farther),
// per-processor access-latency matrices derived from the distances, and a
// deterministic bandwidth/queueing model on the interconnect links so
// heavy remote traffic contends instead of paying a fixed latency.
//
// The package splits immutable description from mutable run state:
//
//   - Spec is the immutable shape — node count, home map, distance and
//     latency matrices, links and routes. A Spec is safe to share between
//     machines running concurrently; the harness reuses one Spec across
//     every run of a sweep.
//   - Topology is the per-machine runtime — the per-link token-bucket
//     clocks and transfer counters. Each machine owns a fresh Topology,
//     so the parallel harness stays byte-identical at any -parallel.
//
// The ACE of the paper is the registered two-level special case: each
// processor is its own node, the latency matrix holds the paper's
// measured constants, and no link contends — so the published tables are
// byte-identical through this generalized path.
package topology

import (
	"fmt"
	"strings"

	"numasim/internal/sim"
)

// LocalDistance is the SLIT convention for a node's distance to itself.
const LocalDistance = 10

// MaxNodes bounds the node count (the fuzz suite draws 2..8; real SLITs
// go far higher, but the dense matrices are sized for simulation scale).
const MaxNodes = 64

// Link is one interconnect link. Links are unidirectionally modelled but
// carry traffic of both directions of their endpoint pair: the token
// bucket serializes all transfers routed over the link.
type Link struct {
	// Name identifies the link in reports ("node0-node1").
	Name string
	// A and B are the endpoint nodes (descriptive; routing is explicit).
	A, B int
	// PerByte is the link's service time per byte transferred: the
	// token-bucket drain rate. 12ns/byte ≈ the ACE's 80 MB/s IPC bus.
	PerByte sim.Time
}

// Spec is an immutable machine shape. Build one with Explicit, Custom or
// a named builder (ACE, FourSocket, Mesh8, ByName); the zero value is not
// a valid Spec.
type Spec struct {
	name   string
	nnodes int
	nprocs int

	// homeOf maps each processor to the node its local memory lives on;
	// nodeProcs is the inverse (node -> processors homed there), in
	// ascending processor order.
	homeOf    []int
	nodeProcs [][]int

	// dist is the flattened SLIT matrix, dist[a*nnodes+b]. ranked[a] is
	// every node ordered by ascending distance from a (ties by node id),
	// so ranked[a][0] == a.
	dist   []int
	ranked [][]int

	// fetch and store are the flattened per-processor access-latency
	// matrices, one row per processor, nnodes+1 columns: column n is node
	// n's memory, column nnodes is the interleaved ("global") memory.
	fetch []sim.Time
	store []sim.Time

	// links and routes describe the contended interconnect. routes is
	// flattened (src*nnodes+dst -> link indices along the path); a nil
	// route means the pair exchanges traffic without a modelled link.
	links     []Link
	routes    [][]int
	contended bool
}

// Name returns the spec's registered name.
func (s *Spec) Name() string { return s.name }

// NNodes reports the number of memory nodes.
//
//numalint:hotpath
func (s *Spec) NNodes() int { return s.nnodes }

// NProcs reports the number of processors.
//
//numalint:hotpath
func (s *Spec) NProcs() int { return s.nprocs }

// Home reports the node processor proc's local memory lives on.
//
//numalint:hotpath
func (s *Spec) Home(proc int) int { return s.homeOf[proc] }

// NodeProcs returns the processors homed on node, in ascending order.
// The returned slice is the spec's own and must not be mutated.
//
//numalint:hotpath
func (s *Spec) NodeProcs(node int) []int { return s.nodeProcs[node] }

// Col maps a frame's node to its latency-matrix column: node indices map
// to themselves, and any negative value (mem's convention for global
// frames) maps to the interleave column.
//
//numalint:hotpath
func (s *Spec) Col(node int) int {
	if node < 0 {
		return s.nnodes
	}
	return node
}

// FetchLatency returns the 32-bit fetch latency for processor proc
// against latency-matrix column col (a node index, or NNodes for the
// interleaved global memory).
//
//numalint:hotpath
func (s *Spec) FetchLatency(proc, col int) sim.Time {
	return s.fetch[proc*(s.nnodes+1)+col]
}

// StoreLatency returns the 32-bit store latency for processor proc
// against latency-matrix column col.
//
//numalint:hotpath
func (s *Spec) StoreLatency(proc, col int) sim.Time {
	return s.store[proc*(s.nnodes+1)+col]
}

// FetchRow returns processor proc's row of the fetch-latency matrix,
// indexed by column as FetchLatency is. The row is the spec's own
// storage, not a copy, and must not be mutated.
func (s *Spec) FetchRow(proc int) []sim.Time { return s.row(s.fetch, proc) }

// StoreRow returns processor proc's row of the store-latency matrix (see
// FetchRow).
func (s *Spec) StoreRow(proc int) []sim.Time { return s.row(s.store, proc) }

func (s *Spec) row(mat []sim.Time, proc int) []sim.Time {
	w := s.nnodes + 1
	return mat[proc*w : (proc+1)*w : (proc+1)*w]
}

// Contended reports whether the spec models interconnect contention.
//
//numalint:hotpath
func (s *Spec) Contended() bool { return s.contended }

// Dist returns the SLIT distance from node a to node b.
//
//numalint:hotpath
func (s *Spec) Dist(a, b int) int { return s.dist[a*s.nnodes+b] }

// Ranked returns every node ordered by ascending distance from node
// (ties broken by node id), so Ranked(n)[0] == n and the tail is the
// distance-ranked remotes a placement policy walks. The returned slice
// is the spec's own and must not be mutated.
func (s *Spec) Ranked(node int) []int { return s.ranked[node] }

// Links returns the spec's interconnect links (nil when uncontended).
// The returned slice is the spec's own and must not be mutated.
func (s *Spec) Links() []Link { return s.links }

// validate checks the derived spec for structural consistency.
func (s *Spec) validate() error {
	if s.nnodes < 1 || s.nnodes > MaxNodes {
		return fmt.Errorf("topology %s: %d nodes outside [1, %d]", s.name, s.nnodes, MaxNodes)
	}
	if s.nprocs < 1 {
		return fmt.Errorf("topology %s: %d processors < 1", s.name, s.nprocs)
	}
	if len(s.homeOf) != s.nprocs {
		return fmt.Errorf("topology %s: home map covers %d of %d processors", s.name, len(s.homeOf), s.nprocs)
	}
	for p, n := range s.homeOf {
		if n < 0 || n >= s.nnodes {
			return fmt.Errorf("topology %s: cpu%d homed on bad node %d", s.name, p, n)
		}
	}
	for a := 0; a < s.nnodes; a++ {
		for b := 0; b < s.nnodes; b++ {
			d := s.dist[a*s.nnodes+b]
			if a == b && d != LocalDistance {
				return fmt.Errorf("topology %s: dist[%d][%d] = %d, want the SLIT local distance %d", s.name, a, b, d, LocalDistance)
			}
			if a != b && d <= LocalDistance {
				return fmt.Errorf("topology %s: remote dist[%d][%d] = %d not above the local distance %d", s.name, a, b, d, LocalDistance)
			}
		}
	}
	for i := 0; i < len(s.fetch); i++ {
		if s.fetch[i] <= 0 || s.store[i] <= 0 {
			return fmt.Errorf("topology %s: non-positive latency in matrix entry %d", s.name, i)
		}
	}
	for i, l := range s.links {
		if l.PerByte <= 0 {
			return fmt.Errorf("topology %s: link %d (%s) has non-positive per-byte service time", s.name, i, l.Name)
		}
	}
	return nil
}

// finish derives the inverse home map and the distance ranking, then
// validates. Every constructor funnels through it.
func (s *Spec) finish() (*Spec, error) {
	s.nodeProcs = make([][]int, s.nnodes)
	for p, n := range s.homeOf {
		if n >= 0 && n < s.nnodes {
			s.nodeProcs[n] = append(s.nodeProcs[n], p)
		}
	}
	s.ranked = make([][]int, s.nnodes)
	for a := 0; a < s.nnodes; a++ {
		order := make([]int, s.nnodes)
		for b := range order {
			order[b] = b
		}
		// Insertion sort by (distance, id): deterministic and tiny.
		for i := 1; i < len(order); i++ {
			for j := i; j > 0; j-- {
				x, y := order[j-1], order[j]
				if s.dist[a*s.nnodes+x] > s.dist[a*s.nnodes+y] ||
					(s.dist[a*s.nnodes+x] == s.dist[a*s.nnodes+y] && x > y) {
					order[j-1], order[j] = y, x
				} else {
					break
				}
			}
		}
		s.ranked[a] = order
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Explicit builds a spec from fully explicit matrices: fetch and store
// are per-processor rows of nnodes+1 latencies (column nnodes is the
// interleaved global memory). homeOf may be nil for the default p %
// nnodes assignment. The ACE builder uses this to install the paper's
// measured constants verbatim.
func Explicit(name string, nnodes, nprocs int, homeOf []int, dist [][]int, fetch, store [][]sim.Time) (*Spec, error) {
	s := &Spec{name: name, nnodes: nnodes, nprocs: nprocs}
	if homeOf == nil {
		homeOf = defaultHomes(nnodes, nprocs)
	}
	s.homeOf = append([]int(nil), homeOf...)
	var err error
	if s.dist, err = flattenDist(name, nnodes, dist); err != nil {
		return nil, err
	}
	if s.fetch, err = flattenLat(name, "fetch", nnodes, nprocs, fetch); err != nil {
		return nil, err
	}
	if s.store, err = flattenLat(name, "store", nnodes, nprocs, store); err != nil {
		return nil, err
	}
	return s.finish()
}

// Custom builds a contention-capable spec from a SLIT distance matrix:
// latencies are derived as base × distance / 10 (integer nanosecond
// arithmetic), the interleave column is the integer mean of the node
// columns, and — when contended — a fully connected link set with direct
// single-link routes and the given per-byte service time is generated.
// The fuzz suite feeds this random matrices; FourSocket is one call.
func Custom(name string, nprocs int, dist [][]int, baseFetch, baseStore sim.Time, contended bool, perByte sim.Time) (*Spec, error) {
	nnodes := len(dist)
	s := &Spec{name: name, nnodes: nnodes, nprocs: nprocs, homeOf: defaultHomes(nnodes, nprocs)}
	var err error
	if s.dist, err = flattenDist(name, nnodes, dist); err != nil {
		return nil, err
	}
	s.fetch = deriveLatencies(s, baseFetch)
	s.store = deriveLatencies(s, baseStore)
	if contended {
		s.contended = true
		s.links, s.routes = fullyConnected(nnodes, perByte)
	}
	return s.finish()
}

// defaultHomes homes processor p on node p % nnodes.
func defaultHomes(nnodes, nprocs int) []int {
	h := make([]int, nprocs)
	for p := range h {
		h[p] = p % nnodes
	}
	return h
}

// flattenDist copies a square distance matrix into flat row-major form.
func flattenDist(name string, nnodes int, dist [][]int) ([]int, error) {
	if len(dist) != nnodes {
		return nil, fmt.Errorf("topology %s: distance matrix has %d rows, want %d", name, len(dist), nnodes)
	}
	flat := make([]int, nnodes*nnodes)
	for a, row := range dist {
		if len(row) != nnodes {
			return nil, fmt.Errorf("topology %s: distance row %d has %d entries, want %d", name, a, len(row), nnodes)
		}
		copy(flat[a*nnodes:], row)
	}
	return flat, nil
}

// flattenLat copies per-processor latency rows into flat form.
func flattenLat(name, what string, nnodes, nprocs int, rows [][]sim.Time) ([]sim.Time, error) {
	if len(rows) != nprocs {
		return nil, fmt.Errorf("topology %s: %s matrix has %d rows, want %d", name, what, len(rows), nprocs)
	}
	flat := make([]sim.Time, nprocs*(nnodes+1))
	for p, row := range rows {
		if len(row) != nnodes+1 {
			return nil, fmt.Errorf("topology %s: %s row %d has %d entries, want %d", name, what, p, len(row), nnodes+1)
		}
		copy(flat[p*(nnodes+1):], row)
	}
	return flat, nil
}

// deriveLatencies fills a latency matrix from the distance matrix: entry
// (p, n) is base × dist(home(p), n) / 10, and the interleave column is
// the integer mean over the node columns. All arithmetic is integer
// nanoseconds, so derived costs are exact and platform-independent.
func deriveLatencies(s *Spec, base sim.Time) []sim.Time {
	flat := make([]sim.Time, s.nprocs*(s.nnodes+1))
	for p := 0; p < s.nprocs; p++ {
		home := s.homeOf[p]
		var sum sim.Time
		for n := 0; n < s.nnodes; n++ {
			lat := base * sim.Time(s.dist[home*s.nnodes+n]) / LocalDistance
			flat[p*(s.nnodes+1)+n] = lat
			sum += lat
		}
		flat[p*(s.nnodes+1)+s.nnodes] = sum / sim.Time(s.nnodes)
	}
	return flat
}

// fullyConnected builds one link per unordered node pair with direct
// single-link routes.
func fullyConnected(nnodes int, perByte sim.Time) ([]Link, [][]int) {
	var links []Link
	idx := make([]int, nnodes*nnodes) // pair -> link index
	for a := 0; a < nnodes; a++ {
		for b := a + 1; b < nnodes; b++ {
			idx[a*nnodes+b] = len(links)
			idx[b*nnodes+a] = len(links)
			links = append(links, Link{Name: fmt.Sprintf("node%d-node%d", a, b), A: a, B: b, PerByte: perByte})
		}
	}
	routes := make([][]int, nnodes*nnodes)
	for a := 0; a < nnodes; a++ {
		for b := 0; b < nnodes; b++ {
			if a != b {
				routes[a*nnodes+b] = []int{idx[a*nnodes+b]}
			}
		}
	}
	return links, routes
}

// Describe renders the shape for Figure 1-style diagrams: nodes with
// their processors, the distance matrix, and the link set.
func (s *Spec) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s topology: %d nodes, %d processors\n\n", s.name, s.nnodes, s.nprocs)
	for n := 0; n < s.nnodes; n++ {
		fmt.Fprintf(&b, "  node%-2d cpus", n)
		for _, p := range s.nodeProcs[n] {
			fmt.Fprintf(&b, " %d", p)
		}
		if len(s.nodeProcs[n]) == 0 {
			b.WriteString(" (none)")
		}
		b.WriteString("\n")
	}
	b.WriteString("\n  distance matrix (SLIT, 10 = local):\n")
	for a := 0; a < s.nnodes; a++ {
		b.WriteString("   ")
		for bn := 0; bn < s.nnodes; bn++ {
			fmt.Fprintf(&b, " %3d", s.dist[a*s.nnodes+bn])
		}
		b.WriteString("\n")
	}
	if len(s.links) > 0 {
		fmt.Fprintf(&b, "\n  interconnect: %d links, contended (token-bucket per link)\n", len(s.links))
		for _, l := range s.links {
			fmt.Fprintf(&b, "    %-14s %v/byte\n", l.Name, l.PerByte)
		}
	} else {
		b.WriteString("\n  interconnect: uncontended (fixed latencies)\n")
	}
	return b.String()
}

// LinkStats is one link's accumulated traffic accounting.
type LinkStats struct {
	Name string
	// Xfers and Bytes count transfers routed over the link.
	Xfers uint64
	Bytes uint64
	// Service is the total token-bucket service time the transfers
	// consumed (Bytes × PerByte, conserved by construction); Waited is
	// the total queueing delay transfers paid because the link was busy.
	Service sim.Time
	Waited  sim.Time
	// MaxWait and MaxService are the largest single wait and the largest
	// single service booked on the link, the operands of CheckBound.
	MaxWait    sim.Time
	MaxService sim.Time
}

// linkState is one link's mutable token-bucket clock and counters.
// arrival is the latest hop-arrival time the link has booked, and
// backlog the wait that arrival found.
type linkState struct {
	busyUntil  sim.Time
	arrival    sim.Time
	backlog    sim.Time
	xfers      uint64
	bytes      uint64
	service    sim.Time
	waited     sim.Time
	maxWait    sim.Time
	maxService sim.Time
}

// Topology is the per-machine runtime over a Spec: the link token
// buckets, the interleave round-robin cursor and the runtime health
// (node mask, severed links, per-byte overrides and the routes around
// them). A Topology belongs to exactly one machine (the single-threaded
// simulation loop mutates it); build a fresh one per machine and share
// only the Spec.
type Topology struct {
	spec  *Spec
	links []linkState
	rr    int

	nodeDown []bool
	severed  []bool     // links explicitly severed
	linkDown []bool     // severed OR an endpoint node is down
	perByte  []sim.Time // runtime per-link service time (degrade override)
	routes   [][]int    // runtime routes, recomputed around dead links
}

// New builds the runtime state for spec: idle links, every node online
// and the spec's own routes and per-byte service times.
func New(spec *Spec) *Topology {
	t := &Topology{
		spec:     spec,
		links:    make([]linkState, len(spec.links)),
		nodeDown: make([]bool, spec.nnodes),
		severed:  make([]bool, len(spec.links)),
		linkDown: make([]bool, len(spec.links)),
		perByte:  make([]sim.Time, len(spec.links)),
		routes:   append([][]int(nil), spec.routes...),
	}
	for i, l := range spec.links {
		t.perByte[i] = l.PerByte
	}
	return t
}

// Spec returns the immutable shape.
//
//numalint:hotpath
func (t *Topology) Spec() *Spec { return t.spec }

// Contended reports whether transfers contend on links.
//
//numalint:hotpath
func (t *Topology) Contended() bool { return t.spec.contended }

// ChargeTransfer routes a transfer of bytes between processor proc's
// home node and latency-matrix column col, issued at virtual time now,
// and returns the queueing delay it waited on busy links, which the
// caller charges on top of the base latency (the base latency already
// covers the uncontended transfer). Local traffic, uncontended specs and
// unrouted pairs wait nothing. Column NNodes (the interleaved global
// memory) is resolved to an online node by a deterministic round-robin
// cursor.
//
// The transfer is stored and forwarded over the runtime route: it
// arrives at each hop when the hop before it finished. Threads run out
// of virtual-time order within a dispatch slice, so each link keeps its
// latest hop-arrival time. An arrival at or after it queues FIFO behind
// the link's bookings and books its own service. An earlier arrival
// waits only for the backlog that latest arrival found, and books
// nothing ahead of it: charging it the gap up to a booking made from a
// later clock would be waiting on the future.
//
//numalint:hotpath
func (t *Topology) ChargeTransfer(now sim.Time, proc, col, bytes int) sim.Time {
	s := t.spec
	if !s.contended {
		return 0
	}
	src, dst := s.homeOf[proc], col
	if dst == s.nnodes {
		dst = t.nextInterleave()
	}
	if dst == src {
		return 0
	}
	var wait sim.Time
	at := now
	for _, li := range t.routes[src*s.nnodes+dst] {
		ls := &t.links[li]
		service := sim.Time(bytes) * t.perByte[li]
		d := ls.backlog
		if at >= ls.arrival {
			d = 0
			if ls.busyUntil > at {
				d = ls.busyUntil - at
			}
			ls.arrival, ls.backlog = at, d
			ls.busyUntil = at + d + service
		}
		at += d + service
		wait += d
		ls.waited += d
		ls.xfers++
		ls.bytes += uint64(bytes)
		ls.service += service
		if d > ls.maxWait {
			ls.maxWait = d
		}
		if service > ls.maxService {
			ls.maxService = service
		}
	}
	return wait
}

// CheckBound checks the closed-system bound on every link. A charge is
// synchronous and the threads of one processor run one at a time, so
// each processor has at most one transfer in flight, and no hop can
// wait behind more than the other NProcs-1 processors' transfers: no
// single wait may exceed (NProcs-1) × the largest single service booked
// on its link. It returns an error naming the first link that breaks
// the bound, or nil.
func (t *Topology) CheckBound() error {
	others := sim.Time(t.spec.nprocs - 1)
	for i := range t.links {
		ls := &t.links[i]
		if ls.maxWait > others*ls.maxService {
			return fmt.Errorf("topology %s: link %s waited %v on one hop, above %d × its largest service %v",
				t.spec.name, t.spec.links[i].Name, ls.maxWait, others, ls.maxService)
		}
	}
	return nil
}

// LinkStats snapshots every link's traffic accounting, in link order.
// It returns nil for uncontended topologies, so reports can gate on it.
func (t *Topology) LinkStats() []LinkStats {
	if len(t.links) == 0 {
		return nil
	}
	out := make([]LinkStats, len(t.links))
	for i := range t.links {
		ls := &t.links[i]
		out[i] = LinkStats{
			Name: t.spec.links[i].Name, Xfers: ls.xfers, Bytes: ls.bytes,
			Service: ls.service, Waited: ls.waited,
			MaxWait: ls.maxWait, MaxService: ls.maxService,
		}
	}
	return out
}
