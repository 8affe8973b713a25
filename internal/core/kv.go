package core

import (
	"errors"
	"hash/fnv"

	"gsso/internal/can"
)

// The DHT face of the system: string keys hash to points in the CAN's
// Cartesian space, the point's zone owner stores the value, and reads
// route to the same owner. This is the "administration-free and
// fault-tolerant storage space that maps keys to values" the paper's
// first sentence promises — with the topology-aware routing underneath
// making each hop short.
//
// Keys follow their points through membership changes: a join, a
// graceful depart and a crash repair's zone moves hand each affected key
// to its point's new owner, one kv-handoff message per key. Nothing is
// replicated, so a confirmed crash loses the keys the dead member held.

// keyPoint hashes a key to a point in the unit cube, one independent
// hash per dimension. FNV-1a's high bits avalanche poorly on short keys,
// so a SplitMix64 finalizer spreads the digest before scaling.
func (s *System) keyPoint(key string) can.Point {
	dim := s.overlay.CAN().Dim()
	p := make(can.Point, dim)
	for d := 0; d < dim; d++ {
		h := fnv.New64a()
		h.Write([]byte{byte(d)})
		h.Write([]byte(key))
		x := h.Sum64()
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		p[d] = float64(x>>11) / (1 << 53)
	}
	return p
}

// PutResult reports where a Put landed and what the write cost.
type PutResult struct {
	Owner     *can.Member
	Hops      int
	LatencyMs float64
}

// Put stores value under key at the owner of the key's point, routing
// from the given member (any member can serve as the access point). The
// value is copied.
func (s *System) Put(from *can.Member, key string, value []byte) (PutResult, error) {
	if from == nil {
		return PutResult{}, errors.New("core: nil access member")
	}
	point := s.keyPoint(key)
	res, err := s.overlay.Route(from, point)
	if err != nil {
		return PutResult{}, err
	}
	owner := res.Members[len(res.Members)-1]
	s.shard(owner)[key] = append([]byte(nil), value...)
	s.env.CountMessages("kv-put", 1)
	return PutResult{Owner: owner, Hops: res.Hops(), LatencyMs: res.Latency(s.env)}, nil
}

// GetResult reports a Get and its cost.
type GetResult struct {
	Value     []byte
	Found     bool
	Owner     *can.Member
	Hops      int
	LatencyMs float64
}

// Get routes from the given member to the key's owner and returns the
// stored value (copied), if any.
func (s *System) Get(from *can.Member, key string) (GetResult, error) {
	if from == nil {
		return GetResult{}, errors.New("core: nil access member")
	}
	point := s.keyPoint(key)
	res, err := s.overlay.Route(from, point)
	if err != nil {
		return GetResult{}, err
	}
	owner := res.Members[len(res.Members)-1]
	s.env.CountMessages("kv-get", 1)
	out := GetResult{Owner: owner, Hops: res.Hops(), LatencyMs: res.Latency(s.env)}
	if v, ok := s.kv[owner][key]; ok {
		out.Value = append([]byte(nil), v...)
		out.Found = true
	}
	return out, nil
}

// KeysAt returns how many keys a member currently stores.
func (s *System) KeysAt(m *can.Member) int { return len(s.kv[m]) }

// shard returns m's KV shard, creating it on first use.
func (s *System) shard(m *can.Member) map[string][]byte {
	sh := s.kv[m]
	if sh == nil {
		sh = make(map[string][]byte)
		s.kv[m] = sh
	}
	return sh
}

// rehomeKeys hands every key a holder stores to the member that now owns
// the key's point, one kv-handoff message per key moved. A holder that
// has left the overlay owns no point, so its whole shard moves and is
// dropped.
func (s *System) rehomeKeys(holders []*can.Member) {
	for _, h := range holders {
		sh := s.kv[h]
		for key, v := range sh {
			if owner := s.Lookup(s.keyPoint(key)); owner != h {
				s.shard(owner)[key] = v
				delete(sh, key)
				s.env.CountMessages("kv-handoff", 1)
			}
		}
		if len(sh) == 0 {
			delete(s.kv, h)
		}
	}
}
