# Developer conveniences; everything is plain `go` underneath.

.PHONY: all build vet test race check fmt-check bench-module soak e2e bench bench-build mon-smoke results quick-results examples lines clean

# Worker-pool width for the experiment engine; override with `make J=8 results`.
J ?= $(shell nproc 2>/dev/null || echo 1)
SEED ?= 1

all: build test

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

race:
	go test -race ./...

# gofmt -l must print nothing.
fmt-check:
	@out="$$(gofmt -l *.go bench cmd examples internal)"; \
	  if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

# bench/ is its own module (gsso/bench, replace gsso => ../), so the root
# `go build ./... && go test ./...` never compiles it: an internal/...
# rename could break the gate's benchmark unnoticed. Vet and test it here.
bench-module:
	go -C bench vet ./...
	go -C bench test ./...

# The full pre-merge gate: compile, vet, every test under the race detector,
# the experiment engine hammered at a fixed pool width (GSSO_WORKERS sets
# the default width so nested fan-out runs genuinely parallel even on
# single-core CI boxes), and a short coverage-guided fuzz of the CAN
# membership machine (join/depart/crash interleavings must keep the split
# tree invariant-clean), and of the wire codec (arbitrary frames must
# never panic, hang, or round-trip lossily; every JSON-describable message
# must survive the binary layout). The wire node's cached landmark vector
# and its refresh loop are re-run five times under the race detector, the
# condition that shakes out timing-dependent tests. The examples run
# the documented public API from a main, the simulator ones diffed
# against their pinned stdout, examples/wirecluster a live node fleet. Performance is not gated here: bench/ (bash bench/run.sh) is the
# perf contract.
check: build vet fmt-check bench-module examples race
	GSSO_WORKERS=4 go test -race -count=1 ./internal/experiment/... ./internal/netsim/...
	go test -race -count=5 -run 'OwnVector|Refresh|Fallback' ./internal/wire
	go run ./cmd/topobench -run ext-scale -scale quick -seed $(SEED) > /dev/null
	go test -fuzz FuzzMembership -fuzztime 10s -run '^$$' ./internal/can
	go test -fuzz FuzzArena -fuzztime 10s -run '^$$' ./internal/arena
	go test -fuzz FuzzReadMessage -fuzztime 10s -run '^$$' ./internal/wire
	go test -fuzz FuzzCodecDifferential -fuzztime 10s -run '^$$' ./internal/wire
	go test -fuzz FuzzClusterSpec -fuzztime 10s -run '^$$' ./internal/cluster

# Soak gates, full scale: the ext-churn reconvergence bar (record recall
# back above 99% within three virtual refresh intervals of the last fault
# wave, deterministically) and the ext-selfheal repair bar (discoverability
# back within 5% of the pre-crash baseline after every crash wave with
# repair on; degraded with it off).
soak:
	SOAK=1 go test -run 'TestChurnReconvergence|TestSelfHealRecovery' -count=1 -v ./internal/experiment

# One testing.B benchmark per paper table/figure, plus package micro-benches.
bench:
	go test -bench=. -benchmem ./...

# The 10^5-host world build path layer by layer: CAN joins and topology
# generation, ns/op and allocs/op, five samples each.
bench-build:
	go test -run '^$$' -bench '^(BenchmarkJoinRandom100k|BenchmarkGenerateSizedWide100k)$$' \
	  -benchmem -count 5 ./internal/can ./internal/topology

# Live-process chaos gate: boot a real overlayd fleet under
# cmd/overlayctl's supervisor (internal/cluster), every inter-node link
# through a fault proxy, replay a seeded fault schedule — one kill -9
# wave plus one asymmetric partition — and require the cluster to heal
# by itself: every node ready again, full record recall with replicas
# on exactly the ring owners, zero orphans, within a bounded number of
# refresh intervals. The reconfiguration gate then scales a second
# fleet up by one node, down by one, and rolling-restarts every node,
# asserting the same invariants against the live (post-reconfig) ring
# at every quiesce point. Also runs the observability smoke (the Go
# descendant of scripts/mon_smoke.sh, now on ephemeral ports). On
# failure the per-node logs and an overlaymon -json snapshot are dumped
# from the run directory.
e2e:
	E2E=1 go test -run 'TestE2EChaosSelfHealing|TestE2EReconfiguration|TestMonSmoke' -count=1 -v -timeout 300s ./internal/e2e

# Observability smoke only: boot a 3-node traced overlayd cluster,
# scrape it with the overlaymon view, and assert the snapshot is
# well-formed (all nodes healthy and ready, records stored, a stitched
# publish trace with zero orphan spans).
mon-smoke:
	E2E=1 go test -run 'TestMonSmoke' -count=1 -v -timeout 120s ./internal/e2e

# Regenerate the paper's full evaluation with CSV series. The run lands in a
# temp directory and is renamed into place only on success, so an interrupted
# run never leaves a half-written results/full behind. The stamped header
# goes into full_output.txt (never topobench stdout: stdout stays
# byte-identical across -j for the determinism gate).
results:
	mkdir -p results
	rm -rf results/.full.tmp
	mkdir -p results/.full.tmp
	{ \
	  echo "# scale=full seed=$(SEED) j=$(J) rev=$$(git describe --always --dirty 2>/dev/null || echo unknown)"; \
	  go run ./cmd/topobench -run all -scale full -seed $(SEED) -j $(J) -csv results/.full.tmp; \
	} > results/.full.tmp/full_output.txt
	rm -rf results/full
	mv results/.full.tmp results/full
	mv results/full/full_output.txt results/full_output.txt
	cat results/full_output.txt

quick-results:
	go run ./cmd/topobench -run all -j $(J)

# The four simulator examples are deterministic in their seeds: their
# stdout must match the checked-in stdout.golden byte for byte.
# wirecluster runs real sockets, so it is only run.
examples:
	@for e in quickstart nearestpeer cdn qos; do \
	  echo "go run ./examples/$$e | diff examples/$$e/stdout.golden"; \
	  go run ./examples/$$e > .examples.out || exit 1; \
	  diff -u examples/$$e/stdout.golden .examples.out || exit 1; \
	done; rm -f .examples.out
	go run ./examples/wirecluster

# Non-test Go lines per package of the root module (bench/ is its own
# module), plus the total: the size figure simplicity changes report.
lines:
	@go list -f '{{$$d := .Dir}}{{.ImportPath}}{{range .GoFiles}} {{$$d}}/{{.}}{{end}}' ./... | \
	  awk 'NF > 1 { n = 0; for (i = 2; i <= NF; i++) { while ((getline l < $$i) > 0) n++; close($$i) } \
	    printf "%6d %s\n", n, $$1; t += n } END { printf "%6d total\n", t }'

clean:
	rm -rf results
