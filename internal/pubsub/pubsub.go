// Package pubsub adds the paper's publish/subscribe functionality to the
// global soft-state: a node subscribes to the maps its routing entries
// depend on and states the condition under which it wants to be notified —
// "more nodes have joined the zone", "a candidate closer than my current
// neighbor appeared", "my neighbor's load crossed 80% of its capacity".
// When a map mutation triggers a condition, the map owner disseminates
// notifications; the subscriber can then re-select neighbors on demand
// instead of polling.
package pubsub

import (
	"errors"
	"fmt"
	"math"

	"gsso/internal/can"
	"gsso/internal/landmark"
	"gsso/internal/netsim"
	"gsso/internal/softstate"
)

// CondKind enumerates subscription conditions.
type CondKind uint8

// Subscription condition kinds.
const (
	// NodeJoined fires when a new entry is published into the region.
	NodeJoined CondKind = iota
	// NodeLeft fires when an entry is removed or expires.
	NodeLeft
	// LoadAbove fires when a watched member's load/capacity ratio reaches
	// Threshold. If Member is nil, any member of the region qualifies.
	LoadAbove
	// CloserCandidate fires when a published entry's landmark-vector
	// distance to the subscriber is at least Margin closer than the
	// subscriber's current best (set via SetCurrentBest).
	CloserCandidate
	// NeighborDegraded fires when the watched member (Cond.Member,
	// required) republishes a landmark position at least Margin farther
	// from the subscriber than the current best — the subscriber's chosen
	// neighbor has drifted away and re-selection is warranted.
	NeighborDegraded
)

// String implements fmt.Stringer.
func (k CondKind) String() string {
	switch k {
	case NodeJoined:
		return "node-joined"
	case NodeLeft:
		return "node-left"
	case LoadAbove:
		return "load-above"
	case CloserCandidate:
		return "closer-candidate"
	case NeighborDegraded:
		return "neighbor-degraded"
	default:
		return fmt.Sprintf("CondKind(%d)", uint8(k))
	}
}

// Condition is a subscription predicate.
type Condition struct {
	Kind CondKind
	// Threshold applies to LoadAbove: fire at load/capacity >= Threshold.
	Threshold float64
	// Member restricts LoadAbove to one watched member (nil = any).
	Member *can.Member
	// Margin applies to CloserCandidate: required improvement over the
	// current best vector distance (in vector-space units).
	Margin float64
}

// Notification is delivered to subscribers.
type Notification struct {
	Sub   *Subscription
	Event softstate.Event
}

// Subscription is a registered interest in one region's map.
type Subscription struct {
	ID         int
	Subscriber *can.Member
	Region     can.Path
	Cond       Condition
	Notify     func(Notification)

	vector      landmark.Vector // for CloserCandidate
	currentBest float64
	canceled    bool
}

// SetCurrentBest records the subscriber's current best vector distance so
// CloserCandidate can compare against it.
func (s *Subscription) SetCurrentBest(d float64) { s.currentBest = d }

// Bus matches soft-state events against subscriptions and delivers
// notifications with message accounting. Install exactly one Bus per
// Store; the Bus chains to any previously installed event sink.
type Bus struct {
	store *softstate.Store
	env   *netsim.Env

	byRegion  map[can.Path][]*Subscription
	nextID    int
	delivered int
}

// NewBus attaches a bus to store.
func NewBus(store *softstate.Store, env *netsim.Env) (*Bus, error) {
	if store == nil || env == nil {
		return nil, errors.New("pubsub: nil store or env")
	}
	b := &Bus{
		store:    store,
		env:      env,
		byRegion: make(map[can.Path][]*Subscription),
	}
	store.AddEventSink(b.handle)
	return b, nil
}

// Subscribe registers interest of subscriber in region under cond. For
// CloserCandidate conditions the subscriber must have published (its
// landmark vector seeds the comparison); currentBest starts at +Inf.
func (b *Bus) Subscribe(subscriber *can.Member, region can.Path, cond Condition, notify func(Notification)) (*Subscription, error) {
	if subscriber == nil {
		return nil, errors.New("pubsub: nil subscriber")
	}
	if notify == nil {
		return nil, errors.New("pubsub: nil notify callback")
	}
	if cond.Kind == LoadAbove && (cond.Threshold <= 0 || math.IsNaN(cond.Threshold)) {
		return nil, fmt.Errorf("pubsub: LoadAbove threshold = %v, need > 0", cond.Threshold)
	}
	sub := &Subscription{
		ID:          b.nextID,
		Subscriber:  subscriber,
		Region:      region,
		Cond:        cond,
		Notify:      notify,
		currentBest: math.Inf(1),
	}
	if cond.Kind == CloserCandidate || cond.Kind == NeighborDegraded {
		vec := b.store.Vector(subscriber)
		if vec == nil {
			return nil, fmt.Errorf("pubsub: %v subscriber has not published a vector", cond.Kind)
		}
		sub.vector = vec
	}
	if cond.Kind == NeighborDegraded && cond.Member == nil {
		return nil, errors.New("pubsub: NeighborDegraded requires a watched member")
	}
	b.nextID++
	b.byRegion[region] = append(b.byRegion[region], sub)
	b.env.CountMessages("subscribe", 1)
	return sub, nil
}

// Unsubscribe cancels a subscription. Canceling twice is a no-op.
func (b *Bus) Unsubscribe(sub *Subscription) {
	if sub == nil || sub.canceled {
		return
	}
	sub.canceled = true
	subs := b.byRegion[sub.Region]
	for i, s := range subs {
		if s == sub {
			subs[i] = subs[len(subs)-1]
			b.byRegion[sub.Region] = subs[:len(subs)-1]
			break
		}
	}
	b.env.CountMessages("subscribe", 1) // the cancel message
}

// RemoveSubscriber cancels every subscription held BY member m (the
// departure/crash cleanup: a gone member must stop receiving
// notifications). Returns the number of subscriptions dropped. Unlike
// Unsubscribe, no cancel message is metered for crashes' sake — the
// caller meters the cleanup under its own category if it wants to.
func (b *Bus) RemoveSubscriber(m *can.Member) int {
	dropped := 0
	for region, subs := range b.byRegion {
		kept := subs[:0]
		for _, sub := range subs {
			if sub.Subscriber == m {
				sub.canceled = true
				dropped++
				continue
			}
			kept = append(kept, sub)
		}
		if len(kept) == 0 {
			delete(b.byRegion, region)
		} else {
			b.byRegion[region] = kept
		}
	}
	return dropped
}

// DropWatching cancels every subscription whose condition watches member
// m (LoadAbove/NeighborDegraded with Cond.Member == m): once m is gone
// the watched series can never fire again, so the subscriptions are dead
// weight. Returns the number dropped.
func (b *Bus) DropWatching(m *can.Member) int {
	dropped := 0
	for region, subs := range b.byRegion {
		kept := subs[:0]
		for _, sub := range subs {
			if sub.Cond.Member == m && m != nil {
				sub.canceled = true
				dropped++
				continue
			}
			kept = append(kept, sub)
		}
		if len(kept) == 0 {
			delete(b.byRegion, region)
		} else {
			b.byRegion[region] = kept
		}
	}
	return dropped
}

// RearmRegion resets the currentBest of every CloserCandidate
// subscription on region to +Inf, so the next publish or refresh into
// the region fires the condition and the subscriber re-selects. This is
// the demand-driven repair path after a takeover: subscribers whose
// chosen neighbor may have died do not poll — the first live candidate
// to (re)publish notifies them. Returns the number of re-armed
// subscriptions.
func (b *Bus) RearmRegion(region can.Path) int {
	rearmed := 0
	for _, sub := range b.byRegion[region] {
		if sub.Cond.Kind == CloserCandidate && !sub.canceled {
			sub.currentBest = math.Inf(1)
			rearmed++
		}
	}
	return rearmed
}

// SubscriptionCount returns the number of live subscriptions on region.
func (b *Bus) SubscriptionCount(region can.Path) int { return len(b.byRegion[region]) }

// Delivered returns the total notifications delivered so far.
func (b *Bus) Delivered() int { return b.delivered }

// handle is the store event sink.
func (b *Bus) handle(ev softstate.Event) {
	subs := b.byRegion[ev.Region]
	if len(subs) == 0 {
		return
	}
	for _, sub := range subs {
		if sub.canceled {
			continue
		}
		if !b.matches(sub, ev) {
			continue
		}
		b.delivered++
		b.env.CountMessages("notify", 1)
		sub.Notify(Notification{Sub: sub, Event: ev})
	}
}

// matches evaluates a subscription condition against an event.
func (b *Bus) matches(sub *Subscription, ev softstate.Event) bool {
	// Self-caused events never notify their own subscriber.
	if ev.Entry != nil && ev.Entry.Member == sub.Subscriber {
		return false
	}
	switch sub.Cond.Kind {
	case NodeJoined:
		return ev.Kind == softstate.EventPublished
	case NodeLeft:
		return ev.Kind == softstate.EventRemoved || ev.Kind == softstate.EventExpired
	case LoadAbove:
		if ev.Kind != softstate.EventLoadChanged {
			return false
		}
		if sub.Cond.Member != nil && ev.Entry.Member != sub.Cond.Member {
			return false
		}
		if ev.Entry.Capacity <= 0 {
			return false
		}
		return ev.Entry.Load/ev.Entry.Capacity >= sub.Cond.Threshold
	case CloserCandidate:
		if ev.Kind != softstate.EventPublished && ev.Kind != softstate.EventRefreshed {
			return false
		}
		d := landmark.Distance(ev.Entry.Vector, sub.vector)
		return d+sub.Cond.Margin < sub.currentBest
	case NeighborDegraded:
		if ev.Kind != softstate.EventPublished && ev.Kind != softstate.EventRefreshed {
			return false
		}
		if ev.Entry.Member != sub.Cond.Member {
			return false
		}
		d := landmark.Distance(ev.Entry.Vector, sub.vector)
		return d > sub.currentBest+sub.Cond.Margin
	default:
		return false
	}
}
