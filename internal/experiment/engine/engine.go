// Package engine schedules experiment work units across a bounded worker
// pool and memoizes expensive shared artifacts (generated topologies,
// landmark-vector indexes) with single-flight semantics.
//
// The design invariant is determinism by construction: a unit's identity —
// its ordinal index in the sweep that emitted it — decides both where its
// result lands and which simrand streams it derives (via Split labels that
// encode the unit, never the worker). Scheduling therefore only changes
// wall-clock time; every table cell, probe count, and message count is
// byte-identical whether the pool has one worker or sixty-four.
//
// The pool is deadlock-free under nesting: Map never blocks waiting for a
// worker slot. If no slot is free the caller runs the unit inline, so a
// unit that itself calls Map (an experiment fanning out sweep points from
// inside topobench's experiment-level fan-out) always makes progress.
package engine

import (
	"os"
	"runtime"
	"strconv"
	"sync"
)

var (
	workersMu sync.Mutex
	// sem has capacity width-1 because the caller of Map is itself a
	// worker (width 1 means a nil channel: every unit runs inline, fully
	// sequential).
	sem chan struct{}
)

func init() {
	SetWorkers(defaultWorkers())
}

// defaultWorkers is GOMAXPROCS, overridable via GSSO_WORKERS (used by the
// Makefile's race gate to force parallelism past the core count).
func defaultWorkers() int {
	if s := os.Getenv("GSSO_WORKERS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// SetWorkers resizes the pool. n < 1 resets to the default width. Already
// running units keep their slots; the new width applies to future spawns.
func SetWorkers(n int) {
	if n < 1 {
		n = defaultWorkers()
	}
	workersMu.Lock()
	defer workersMu.Unlock()
	if n > 1 {
		sem = make(chan struct{}, n-1)
	} else {
		sem = nil
	}
}

// Map runs fn(0..n-1) across the pool and returns the results in ordinal
// order. Units whose spawn would exceed the pool width run inline in the
// caller, so nested Maps cannot deadlock. On failure Map returns the error
// of the lowest-indexed failing unit — deterministic regardless of which
// unit was observed to fail first — after all units finish.
func Map[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	workersMu.Lock()
	pool := sem
	workersMu.Unlock()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		spawned := false
		if pool != nil {
			select {
			case pool <- struct{}{}:
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					defer func() { <-pool }()
					out[i], errs[i] = fn(i)
				}(i)
				spawned = true
			default:
			}
		}
		if !spawned {
			out[i], errs[i] = fn(i)
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
