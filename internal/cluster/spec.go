// Package cluster supervises a live overlayd cluster: it reserves
// localhost ports up front so peer lists can be baked before any
// process exists, launches one OS process per node from a declarative
// spec, gates bootstrap on liveness and readiness probes instead of
// sleeps, restarts crashed nodes under capped jittered backoff, and
// drains them gracefully on stop (SIGTERM → withdraw → SIGKILL
// escalation). With Proxied set, every node is fronted by a
// wire.FaultProxy and all inter-node traffic crosses it, so chaos
// harnesses (internal/e2e) can partition or degrade links on a running
// cluster without touching the processes.
package cluster

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Duration is a time.Duration that JSON-decodes from either a Go
// duration string ("500ms", "1m30s") or a bare number of nanoseconds,
// so cluster specs stay human-writable.
type Duration time.Duration

// D returns the wrapped time.Duration.
func (d Duration) D() time.Duration { return time.Duration(d) }

func (d Duration) String() string { return time.Duration(d).String() }

func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

func (d *Duration) UnmarshalJSON(b []byte) error {
	var raw any
	if err := json.Unmarshal(b, &raw); err != nil {
		return err
	}
	switch v := raw.(type) {
	case float64:
		*d = Duration(time.Duration(v))
		return nil
	case string:
		parsed, err := time.ParseDuration(v)
		if err != nil {
			return fmt.Errorf("duration %q: %w", v, err)
		}
		*d = Duration(parsed)
		return nil
	default:
		return fmt.Errorf("duration must be a string or nanosecond count, got %T", raw)
	}
}

// Spec declares a cluster: how many overlayd processes to run, how the
// overlay is parameterized, and how the supervisor should treat them.
// Zero values mean "use the default" (filled in by Normalize), so a
// minimal spec is just {"nodes": 5}.
type Spec struct {
	// Nodes is the cluster size; the first Landmarks of them double as
	// the landmark set every node measures against.
	Nodes     int `json:"nodes"`
	Landmarks int `json:"landmarks,omitempty"`

	// Overlay parameters passed straight to each overlayd.
	Replicas    int      `json:"replicas,omitempty"`
	TTL         Duration `json:"ttl,omitempty"`
	Refresh     Duration `json:"refresh,omitempty"` // 0 = overlayd's ttl/3 default
	Timeout     Duration `json:"timeout,omitempty"`
	TraceSample int      `json:"trace_sample,omitempty"`

	// Supervision knobs. JoinRetry is handed to overlayd so a node
	// restarted into a half-up cluster keeps retrying its initial
	// publish instead of exiting; DrainTimeout bounds the SIGTERM
	// withdraw before the supervisor escalates to SIGKILL.
	JoinRetry          Duration `json:"join_retry,omitempty"`
	DrainTimeout       Duration `json:"drain_timeout,omitempty"`
	RestartBackoffBase Duration `json:"restart_backoff_base,omitempty"`
	RestartBackoffMax  Duration `json:"restart_backoff_max,omitempty"`
	// BackoffResetAfter is the healthy-uptime window that earns a node
	// a clean slate: when an incarnation stays up at least this long
	// before exiting, its next restart waits only the base delay again
	// instead of the streak-inflated one. Lifetime restart counts (in
	// Status) are unaffected.
	BackoffResetAfter Duration `json:"backoff_reset_after,omitempty"`
	BootTimeout       Duration `json:"boot_timeout,omitempty"`

	// Proxied fronts every node with a wire.FaultProxy; peer and
	// landmark lists then carry the proxy addresses, so every
	// inter-node link is cuttable. Seed makes proxy behavior and
	// restart jitter reproducible.
	Proxied bool   `json:"proxied,omitempty"`
	Seed    uint64 `json:"seed,omitempty"`

	// Binary is the overlayd executable (default: resolved from PATH);
	// RunDir receives one append-mode log per node (default: a fresh
	// temp directory). ExtraArgs are appended verbatim to every node's
	// command line.
	Binary    string   `json:"binary,omitempty"`
	RunDir    string   `json:"run_dir,omitempty"`
	ExtraArgs []string `json:"extra_args,omitempty"`
}

// LoadSpec reads and normalizes a JSON cluster spec from disk.
func LoadSpec(path string) (Spec, error) {
	var spec Spec
	raw, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return spec, fmt.Errorf("spec %s: %w", path, err)
	}
	if err := spec.Normalize(); err != nil {
		return spec, fmt.Errorf("spec %s: %w", path, err)
	}
	return spec, nil
}

// Normalize fills defaults and validates the spec in place.
func (s *Spec) Normalize() error {
	if s.Nodes < 2 {
		return fmt.Errorf("cluster needs at least 2 nodes, got %d", s.Nodes)
	}
	if s.Landmarks <= 0 {
		s.Landmarks = 3
	}
	if s.Landmarks > s.Nodes {
		s.Landmarks = s.Nodes
	}
	if s.Replicas <= 0 {
		s.Replicas = 2
	}
	if s.TTL <= 0 {
		s.TTL = Duration(30 * time.Second)
	}
	if s.Timeout <= 0 {
		s.Timeout = Duration(2 * time.Second)
	}
	if s.TraceSample < 0 {
		s.TraceSample = 0
	}
	if s.JoinRetry <= 0 {
		s.JoinRetry = Duration(500 * time.Millisecond)
	}
	if s.DrainTimeout <= 0 {
		s.DrainTimeout = Duration(2 * time.Second)
	}
	if s.RestartBackoffBase <= 0 {
		s.RestartBackoffBase = Duration(200 * time.Millisecond)
	}
	if s.RestartBackoffMax <= 0 {
		s.RestartBackoffMax = Duration(5 * time.Second)
	}
	if s.RestartBackoffMax < s.RestartBackoffBase {
		s.RestartBackoffMax = s.RestartBackoffBase
	}
	if s.BackoffResetAfter <= 0 {
		s.BackoffResetAfter = Duration(30 * time.Second)
	}
	if s.BootTimeout <= 0 {
		s.BootTimeout = Duration(30 * time.Second)
	}
	if s.Binary == "" {
		s.Binary = "overlayd"
	}
	return nil
}
