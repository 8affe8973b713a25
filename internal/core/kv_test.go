package core

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"gsso/internal/can"
)

func TestPutGetRoundTrip(t *testing.T) {
	sys := newSystem(t)
	members := sys.Members()
	put, err := sys.Put(members[0], "alpha", []byte("beta"))
	if err != nil {
		t.Fatal(err)
	}
	if put.Owner == nil {
		t.Fatal("no owner")
	}
	// Read from a different access point: same owner, same value.
	got, err := sys.Get(members[len(members)-1], "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Found || !bytes.Equal(got.Value, []byte("beta")) {
		t.Fatalf("Get = %+v", got)
	}
	if got.Owner != put.Owner {
		t.Fatal("reads and writes disagree on the owner")
	}
	if sys.KeysAt(put.Owner) != 1 {
		t.Fatalf("KeysAt = %d", sys.KeysAt(put.Owner))
	}
}

func TestGetMissing(t *testing.T) {
	sys := newSystem(t)
	got, err := sys.Get(sys.Members()[0], "nope")
	if err != nil {
		t.Fatal(err)
	}
	if got.Found || got.Value != nil {
		t.Fatalf("missing key found: %+v", got)
	}
}

func TestPutOverwrites(t *testing.T) {
	sys := newSystem(t)
	m := sys.Members()[0]
	if _, err := sys.Put(m, "k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Put(m, "k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, err := sys.Get(m, "k")
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Value) != "v2" {
		t.Fatalf("value = %q", got.Value)
	}
}

func TestPutGetValidation(t *testing.T) {
	sys := newSystem(t)
	if _, err := sys.Put(nil, "k", nil); err == nil {
		t.Fatal("nil access member accepted for Put")
	}
	if _, err := sys.Get(nil, "k"); err == nil {
		t.Fatal("nil access member accepted for Get")
	}
}

func TestValueIsCopied(t *testing.T) {
	sys := newSystem(t)
	m := sys.Members()[0]
	val := []byte("mutable")
	if _, err := sys.Put(m, "k", val); err != nil {
		t.Fatal(err)
	}
	val[0] = 'X'
	got, _ := sys.Get(m, "k")
	if string(got.Value) != "mutable" {
		t.Fatal("Put did not copy the value")
	}
	got.Value[0] = 'Y'
	again, _ := sys.Get(m, "k")
	if string(again.Value) != "mutable" {
		t.Fatal("Get did not copy the value")
	}
}

func TestKeysDistributeAcrossOwners(t *testing.T) {
	sys := newSystem(t)
	m := sys.Members()[0]
	owners := map[interface{}]int{}
	for i := 0; i < 200; i++ {
		res, err := sys.Put(m, fmt.Sprintf("key-%d", i), []byte("v"))
		if err != nil {
			t.Fatal(err)
		}
		owners[res.Owner]++
	}
	if len(owners) < 20 {
		t.Fatalf("200 keys landed on only %d owners", len(owners))
	}
	// Message accounting.
	if sys.Env().Messages("kv-put") != 200 {
		t.Fatalf("kv-put messages = %d", sys.Env().Messages("kv-put"))
	}
}

func TestPutGetCostIsTopologyAware(t *testing.T) {
	// With the soft-state selector installed, the average KV access path
	// should be cheap relative to random selection; sanity check the cost
	// fields are populated and consistent.
	sys := newSystem(t)
	m := sys.Members()[0]
	res, err := sys.Put(m, "expensive?", []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Hops > 0 && res.LatencyMs <= 0 {
		t.Fatalf("hops %d but latency %v", res.Hops, res.LatencyMs)
	}
}

// putKeys stores n keys from the first member and returns them.
func putKeys(t *testing.T, sys *System, n int) []string {
	t.Helper()
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		if _, err := sys.Put(sys.Members()[0], keys[i], []byte(keys[i])); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// found reports whether a Get finds key with its value.
func found(t *testing.T, sys *System, key string) bool {
	t.Helper()
	got, err := sys.Get(sys.Members()[0], key)
	if err != nil {
		t.Fatal(err)
	}
	return got.Found && string(got.Value) == key
}

// TestKeysFollowMembershipChanges: joins and graceful departs hand each
// key to its point's new owner, so every key stays findable and only
// members hold keys.
func TestKeysFollowMembershipChanges(t *testing.T) {
	sys := newSystem(t)
	keys := putKeys(t, sys, 400)
	check := func(stage string) {
		t.Helper()
		for _, k := range keys {
			if !found(t, sys, k) {
				t.Fatalf("%s: %q lost", stage, k)
			}
		}
		held := 0
		for _, m := range sys.Members() {
			held += sys.KeysAt(m)
		}
		if held != len(keys) {
			t.Fatalf("%s: members hold %d keys, want %d", stage, held, len(keys))
		}
	}
	for _, h := range spareHosts(sys, 20) {
		if _, _, err := sys.JoinHost(h); err != nil {
			t.Fatal(err)
		}
	}
	check("after joins")
	moved := sys.Env().Messages("kv-handoff")
	if moved == 0 {
		t.Fatal("joins handed over no key")
	}
	rng := sys.RNG("depart")
	for i := 0; i < 10; i++ {
		ms := sys.Members()
		if err := sys.DepartMember(ms[rng.Intn(len(ms))]); err != nil {
			t.Fatal(err)
		}
	}
	check("after departs")
	if sys.Env().Messages("kv-handoff") == moved {
		t.Fatal("departs handed over no key")
	}
}

// TestCrashLosesOnlyTheDeadMembersKeys: nothing replicates a key, so a
// confirmed crash loses what the dead member held; the keys of the
// members the takeover moved follow them.
func TestCrashLosesOnlyTheDeadMembersKeys(t *testing.T) {
	sys := healSystem(t)
	keys := putKeys(t, sys, 400)
	// A victim whose sibling zone is split: its takeover relocates a
	// member of the sibling subtree, not just merges a zone.
	paths := map[can.Path]bool{}
	for _, m := range sys.Members() {
		paths[m.Path()] = true
	}
	var victim *can.Member
	for _, m := range sys.Members() {
		p := m.Path()
		if !paths[can.Path{Bits: p.Bits ^ 1<<(64-p.Len), Len: p.Len}] {
			victim = m
			break
		}
	}
	var lost []string
	for _, k := range keys {
		if sys.Lookup(sys.keyPoint(k)) == victim {
			lost = append(lost, k)
		}
	}
	if err := sys.CrashMember(victim); err != nil {
		t.Fatal(err)
	}
	sys.Env().Clock().Advance(101)
	refreshLive(t, sys)
	sys.Store().SweepExpired()
	if rep, _ := sys.ConvergeRepairs(8); rep.Takeovers != 1 || rep.Relocated != 2 {
		t.Fatalf("report = %+v, want one takeover that relocates", rep)
	}
	if len(lost) == 0 || sys.Env().Messages("kv-handoff") == 0 {
		t.Fatalf("the victim held %d keys and %d moved; the test needs both",
			len(lost), sys.Env().Messages("kv-handoff"))
	}
	for _, k := range keys {
		if want := !slices.Contains(lost, k); found(t, sys, k) != want {
			t.Fatalf("%q found = %v, want %v", k, !want, want)
		}
	}
}
