// Package netsim wraps a topology.Network with the dynamic aspects of the
// simulation: a virtual clock, RTT probing with measurement accounting,
// per-category message accounting, and latency perturbation models that
// let experiments churn network conditions over time.
//
// The paper's techniques are evaluated by how few RTT measurements and
// overlay messages they need; this package is where those costs are
// metered: per Env, and summed per run label across every Env that
// shares it (RunTotals). All latency perturbations preserve symmetry.
package netsim

import (
	"fmt"
	"maps"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"gsso/internal/topology"
)

// runTotal is what every Env under one run label has spent since the
// process started. The label exists because experiments execute in
// parallel: cmd/topobench brackets each run with RunTotals under its
// experiment ID, and without the label concurrent runs would charge each
// other's probes. Envs created with New land in run "main"; shared cache
// fills use run "shared" so their cost is attributed to no experiment in
// particular.
type runTotal struct {
	probes atomic.Int64

	mu       sync.Mutex
	messages map[string]int64
}

var (
	runsMu sync.Mutex
	runs   = map[string]*runTotal{}
)

// totalFor returns the running total of a label, creating it on first use.
func totalFor(run string) *runTotal {
	runsMu.Lock()
	defer runsMu.Unlock()
	t := runs[run]
	if t == nil {
		t = &runTotal{messages: map[string]int64{}}
		runs[run] = t
	}
	return t
}

// RunTotals returns the probes and the messages by category that every Env
// created under run has metered so far. Env.ResetProbes and
// Env.ResetMessages do not rewind them.
func RunTotals(run string) (probes int64, messages map[string]int64) {
	t := totalFor(run)
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.probes.Load(), maps.Clone(t.messages)
}

// Time is virtual simulation time in milliseconds.
type Time float64

// Clock is a virtual clock. The zero value starts at time 0.
type Clock struct {
	mu  sync.Mutex
	now Time
}

// Now returns the current virtual time.
func (c *Clock) Now() Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d. Negative advances are ignored:
// virtual time never runs backwards.
func (c *Clock) Advance(d Time) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

// Perturbation rescales a base latency between two hosts as a function of
// virtual time. Implementations must be symmetric in (a, b) and return a
// strictly positive value for positive base latencies.
type Perturbation interface {
	Apply(a, b topology.NodeID, base float64, now Time) float64
}

// Env couples a static topology with the simulation's dynamic state. All
// methods are safe for concurrent use.
type Env struct {
	net     *topology.Network
	total   *runTotal
	clock   *Clock
	perturb Perturbation
	plan    *FaultPlan

	probes int64 // atomic

	mu       sync.Mutex
	messages map[string]int64
	// Down hosts are tracked in a flat bitset indexed by the dense NodeID
	// space rather than a map: at 10^6 hosts the bitset is 128 KB, cheap
	// enough to size once and index without hashing on every probe.
	down []uint64
	// downCount is the number of set bits in down: written under mu, read
	// without it, so the probe path skips the lock while no host is down.
	downCount atomic.Int64
}

// New returns an Env over net with a fresh clock and no perturbation,
// metering under the default run label "main".
func New(net *topology.Network) *Env {
	return NewRun(net, "main")
}

// NewRun is New with an explicit run label for RunTotals. Experiment
// harnesses pass their experiment ID so parallel runs stay
// distinguishable; an empty run falls back to "main".
func NewRun(net *topology.Network, run string) *Env {
	if run == "" {
		run = "main"
	}
	return &Env{
		net:      net,
		total:    totalFor(run),
		clock:    &Clock{},
		messages: make(map[string]int64),
	}
}

// Net returns the underlying topology.
func (e *Env) Net() *topology.Network { return e.net }

// Clock returns the virtual clock.
func (e *Env) Clock() *Clock { return e.clock }

// SetPerturbation installs (or clears, with nil) the latency perturbation.
func (e *Env) SetPerturbation(p Perturbation) { e.perturb = p }

// SetFaultPlan installs (or clears, with nil) the failure schedule. Like
// SetPerturbation it must be called before concurrent probing starts; the
// plan itself is immutable and replayable.
func (e *Env) SetFaultPlan(p *FaultPlan) { e.plan = p }

// FaultPlan returns the installed failure schedule, or nil.
func (e *Env) FaultPlan() *FaultPlan { return e.plan }

// Latency returns the current (possibly perturbed) one-way latency between
// a and b. It does NOT count as a measurement; it is the simulator's
// ground truth used for routing costs and oracle comparisons.
func (e *Env) Latency(a, b topology.NodeID) float64 {
	base := e.net.Latency(a, b)
	if e.perturb == nil || a == b {
		return base
	}
	return e.perturb.Apply(a, b, base, e.clock.Now())
}

// ProbeRTT performs one round-trip measurement from a to b, incrementing
// the probe counter. This is what the paper's algorithms spend; every call
// is one unit on the "# RTT measurements" axes. Probing a crashed host
// returns +Inf (the probe times out) — and still costs a probe.
// The probe sequence number feeds the fault plan's loss stream: a fixed
// seed plus a fixed probe ordering replays an identical drop trace (note
// ResetProbes therefore also rewinds the loss stream).
func (e *Env) ProbeRTT(a, b topology.NodeID) float64 {
	seq := uint64(atomic.AddInt64(&e.probes, 1))
	e.total.probes.Add(1)
	if e.Crashed(a) || e.Crashed(b) {
		return math.Inf(1)
	}
	if p := e.plan; p != nil {
		now := e.clock.Now()
		if p.Severed(a, b, now) || p.DropProbe(a, b, seq) {
			return math.Inf(1)
		}
		return 2 * e.Latency(a, b) * p.SlowFactor(a, b, now)
	}
	return 2 * e.Latency(a, b)
}

// ProbeRTTs measures a against every target, dst[i] = the RTT to targets[i]:
// the same results and the same probe count as len(targets) ProbeRTT calls
// in order. dst must have length len(targets). With no fault plan the whole
// vector is metered with one add per counter, so callers measuring many
// vectors at once (proximity.BuildIndex) do not serialise on the probe
// counter; with a plan installed each probe's sequence number feeds the loss
// stream, and the vector falls back to the per-probe path. With no
// perturbation and no host down either, the row is the topology's own
// (topology.Network.RTTs).
func (e *Env) ProbeRTTs(a topology.NodeID, targets []topology.NodeID, dst []float64) {
	if len(dst) != len(targets) {
		panic(fmt.Sprintf("netsim: ProbeRTTs dst has %d slots for %d targets", len(dst), len(targets)))
	}
	if e.plan != nil {
		for i, b := range targets {
			dst[i] = e.ProbeRTT(a, b)
		}
		return
	}
	atomic.AddInt64(&e.probes, int64(len(targets)))
	e.total.probes.Add(int64(len(targets)))
	if e.perturb == nil && e.downCount.Load() == 0 {
		e.net.RTTs(a, targets, dst)
		return
	}
	aDown := e.IsDown(a)
	for i, b := range targets {
		if aDown || e.IsDown(b) {
			dst[i] = math.Inf(1)
		} else {
			dst[i] = 2 * e.Latency(a, b)
		}
	}
}

// Crashed reports whether a host is down, either manually (SetDown) or by
// the fault plan's churn schedule at the current virtual time.
func (e *Env) Crashed(host topology.NodeID) bool {
	if e.IsDown(host) {
		return true
	}
	return e.plan != nil && e.plan.DownAt(host, e.clock.Now())
}

// SetDown marks a host as crashed (true) or recovered (false). Crashed
// hosts time out probes; the simulator's Latency oracle is unaffected, so
// experiments can still compute ground truth.
func (e *Env) SetDown(host topology.NodeID, down bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.down == nil {
		e.down = make([]uint64, (e.net.Len()+63)/64)
	}
	w, bit := int(host)/64, uint64(1)<<(uint(host)%64)
	was := e.down[w]&bit != 0
	if down && !was {
		e.down[w] |= bit
		e.downCount.Add(1)
	} else if !down && was {
		e.down[w] &^= bit
		e.downCount.Add(-1)
	}
}

// IsDown reports whether a host is crashed. With no host down — every
// experiment without manual crashes, 1.5M probes per 10^5-host world — it
// is one atomic load; a call racing a SetDown may order itself before it.
func (e *Env) IsDown(host topology.NodeID) bool {
	if e.downCount.Load() == 0 {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.down[int(host)/64]&(uint64(1)<<(uint(host)%64)) != 0
}

// DownHosts returns the hosts currently marked down via SetDown, in
// ascending ID order. Plan-scheduled churn is time-dependent and not
// included; use Crashed per host for the union at the current instant.
func (e *Env) DownHosts() []topology.NodeID {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]topology.NodeID, 0, e.downCount.Load())
	for w, word := range e.down {
		for word != 0 {
			out = append(out, topology.NodeID(w*64+bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return out
}

// Probes returns the number of RTT measurements performed so far.
func (e *Env) Probes() int64 { return atomic.LoadInt64(&e.probes) }

// ResetProbes zeroes the probe counter and returns the previous value.
func (e *Env) ResetProbes() int64 { return atomic.SwapInt64(&e.probes, 0) }

// CountMessages adds n overlay messages to the named category (for
// example "publish", "lookup", "notify", "poll").
func (e *Env) CountMessages(category string, n int) {
	e.mu.Lock()
	e.messages[category] += int64(n)
	e.mu.Unlock()
	e.total.mu.Lock()
	e.total.messages[category] += int64(n)
	e.total.mu.Unlock()
}

// Messages returns the count in one category.
func (e *Env) Messages(category string) int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.messages[category]
}

// MessageTotals returns a copy of all message counters.
func (e *Env) MessageTotals() map[string]int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]int64, len(e.messages))
	for k, v := range e.messages {
		out[k] = v
	}
	return out
}

// ResetMessages clears all message counters.
func (e *Env) ResetMessages() {
	e.mu.Lock()
	e.messages = make(map[string]int64)
	e.mu.Unlock()
}

// pairHash produces a symmetric, deterministic 64-bit hash of an unordered
// host pair plus an epoch, seeded by seed (SplitMix64-style mixing; the
// stdlib maphash is process-seeded and would break reproducibility).
func pairHash(seed uint64, a, b topology.NodeID, epoch int64) uint64 {
	if a > b {
		a, b = b, a
	}
	x := seed
	mix := func(v uint64) {
		x ^= v + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
	}
	mix(uint64(a))
	mix(uint64(b))
	mix(uint64(epoch))
	return x
}

// unitFrom maps a hash to a float64 in [0, 1).
func unitFrom(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// StaticJitter perturbs every pair's latency by a fixed multiplicative
// factor in [1-Amplitude, 1+Amplitude], chosen deterministically per pair.
// It models persistent measurement noise / path inflation.
type StaticJitter struct {
	Seed      uint64
	Amplitude float64 // in [0, 1)
}

// Apply implements Perturbation.
func (j StaticJitter) Apply(a, b topology.NodeID, base float64, _ Time) float64 {
	u := unitFrom(pairHash(j.Seed, a, b, 0))
	return base * (1 + j.Amplitude*(2*u-1))
}

// NodeJitter models per-node access-link congestion: every Period, each
// node independently becomes congested with probability Fraction, and a
// congested node's latencies inflate by a factor drawn from
// [1, 1+Amplitude]. Unlike StaticJitter, this churn has structure
// an overlay can exploit — re-selecting away from a degraded neighbor
// helps every route through that entry — so it is the model the
// maintenance experiments use. Latency scales by the product of both
// endpoints' factors (symmetric by construction).
type NodeJitter struct {
	Seed      uint64
	Amplitude float64 // > 0; peak inflation is (1+Amplitude)
	Period    Time    // > 0
	Fraction  float64 // probability a node is congested per epoch; <=0 means 1
	// Exempt lists hosts that never congest — typically the landmark
	// infrastructure, whose congestion would uniformly distort every
	// node's coordinates rather than model edge churn.
	Exempt map[topology.NodeID]struct{}
}

// Apply implements Perturbation.
func (j NodeJitter) Apply(a, b topology.NodeID, base float64, now Time) float64 {
	epoch := int64(0)
	if j.Period > 0 {
		epoch = int64(now / j.Period)
	}
	// (fa * fb) first: multiplication is commutative, so the result is
	// exactly symmetric in a and b.
	return base * (j.factor(a, epoch) * j.factor(b, epoch))
}

// factor returns a node's congestion multiplier for an epoch.
func (j NodeJitter) factor(x topology.NodeID, epoch int64) float64 {
	if _, ok := j.Exempt[x]; ok {
		return 1
	}
	frac := j.Fraction
	if frac <= 0 || frac > 1 {
		frac = 1
	}
	pick := unitFrom(pairHash(j.Seed^0x5bd1e995, x, x, epoch))
	if pick >= frac {
		return 1
	}
	return 1 + j.Amplitude*unitFrom(pairHash(j.Seed, x, x, epoch))
}
