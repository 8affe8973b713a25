package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"gsso/internal/wire"
)

// syncBuffer is a bytes.Buffer safe for one writer goroutine (the demo
// logger) racing reader polls from the test.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestSplitCSV(t *testing.T) {
	cases := []struct {
		in   string
		want int
	}{
		{"", 0},
		{"a", 1},
		{"a,b,c", 3},
		{" a , b ", 2},
		{"a,,b", 2},
	}
	for _, tc := range cases {
		if got := splitCSV(tc.in); len(got) != tc.want {
			t.Fatalf("splitCSV(%q) = %v, want %d entries", tc.in, got, tc.want)
		}
	}
}

func TestRequiresLandmarks(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-oneshot"}, &buf); err == nil {
		t.Fatal("missing -landmarks accepted")
	}
}

// TestRejectsWideCurve: three landmarks at 30 bits per axis need a
// 90-bit landmark number; the node must refuse to start.
func TestRejectsWideCurve(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-listen", "127.0.0.1:0", "-landmarks", "a,b,c", "-bits", "30", "-oneshot"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "exceeds 64") {
		t.Fatalf("run(-bits 30) = %v, want the curve's width error", err)
	}
}

func TestOneshotStartup(t *testing.T) {
	// A landmark node to ping, started directly.
	lm, err := wire.NewNode("127.0.0.1:0", wire.SpaceConfig{
		Landmarks: []string{"self"}, IndexDims: 1, BitsPerDim: 4, MaxRTTMs: 50,
	}, nil, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer lm.Close()

	var buf bytes.Buffer
	err = run([]string{
		"-listen", "127.0.0.1:0",
		"-landmarks", lm.Addr(),
		"-oneshot",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "msg=listening") {
		t.Fatalf("startup banner missing:\n%s", buf.String())
	}
	// Timestamps are stripped for deterministic output.
	if strings.Contains(buf.String(), "time=") {
		t.Fatalf("log lines carry timestamps:\n%s", buf.String())
	}
}

func TestOneshotPublishQuery(t *testing.T) {
	// Two helper nodes: both landmarks, one of them also the peer that
	// will host records and be discovered as nearest.
	cfgStub := wire.SpaceConfig{Landmarks: []string{"x"}, IndexDims: 1, BitsPerDim: 4, MaxRTTMs: 50}
	a, err := wire.NewNode("127.0.0.1:0", cfgStub, nil, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := wire.NewNode("127.0.0.1:0", cfgStub, nil, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// Publish b's record manually so the query finds someone.
	cfg := wire.SpaceConfig{Landmarks: []string{a.Addr(), b.Addr()}, IndexDims: 2, BitsPerDim: 4, MaxRTTMs: 50}
	peers := []string{a.Addr(), b.Addr()}
	helper, err := wire.NewNode("127.0.0.1:0", cfg, peers, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// helper is not in peers, so its record lands on a or b; it stays
	// alive so the query's RTT probe of it succeeds.
	defer helper.Close()
	if _, err := helper.Publish(1, 2*time.Second); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	err = run([]string{
		"-listen", "127.0.0.1:0",
		"-peers", strings.Join(peers, ","),
		"-landmarks", strings.Join([]string{a.Addr(), b.Addr()}, ","),
		"-publish", "-query", "-oneshot",
		"-timeout", "2s",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "msg=published number=") {
		t.Fatalf("publish line missing:\n%s", out)
	}
	if !strings.Contains(out, "msg=nearest peer=") {
		t.Fatalf("query line missing:\n%s", out)
	}
	// -v was not set: the debug vector line must be suppressed.
	if strings.Contains(out, "msg=vector") {
		t.Fatalf("debug line leaked without -v:\n%s", out)
	}
}

// TestTransportFlags: -pool-size parses and runs the publish flow
// through the pooled transport.
func TestTransportFlags(t *testing.T) {
	cfgStub := wire.SpaceConfig{Landmarks: []string{"x"}, IndexDims: 1, BitsPerDim: 4, MaxRTTMs: 50}
	lm, err := wire.NewNode("127.0.0.1:0", cfgStub, nil, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer lm.Close()

	var buf bytes.Buffer
	err = run([]string{
		"-listen", "127.0.0.1:0",
		"-peers", lm.Addr(),
		"-landmarks", lm.Addr(),
		"-pool-size", "1",
		"-publish", "-oneshot",
		"-timeout", "2s",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "msg=published number=") {
		t.Fatalf("publish line missing:\n%s", buf.String())
	}
}

func TestVerboseEmitsDebug(t *testing.T) {
	cfgStub := wire.SpaceConfig{Landmarks: []string{"x"}, IndexDims: 1, BitsPerDim: 4, MaxRTTMs: 50}
	lm, err := wire.NewNode("127.0.0.1:0", cfgStub, nil, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer lm.Close()

	var buf bytes.Buffer
	err = run([]string{
		"-listen", "127.0.0.1:0",
		"-peers", lm.Addr(),
		"-landmarks", lm.Addr(),
		"-publish", "-oneshot", "-v",
		"-timeout", "2s",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "level=DEBUG") || !strings.Contains(out, "msg=vector") {
		t.Fatalf("-v did not surface debug lines:\n%s", out)
	}
}

func TestDemoMode(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-demo", "4", "-timeout", "2s"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "msg=demo-start nodes=4") || !strings.Contains(out, "msg=demo-done") {
		t.Fatalf("demo output wrong:\n%s", out)
	}
	if strings.Count(out, "msg=published") != 4 {
		t.Fatalf("expected 4 publishes:\n%s", out)
	}
}

func TestDemoTooSmall(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-demo", "1"}, &buf); err == nil {
		t.Fatal("demo with 1 node accepted")
	}
}

// metricValue extracts the value of the first exposition line whose name
// and label block match the given prefix, e.g.
// `wire_requests_total{type="ping"}`.
func metricValue(body, prefix string) (float64, bool) {
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		return v, true
	}
	return 0, false
}

// TestDemoMetricsEndpoint is the acceptance flow: `overlayd -demo 3
// -metrics 127.0.0.1:0` must serve a /metrics page with non-zero
// per-type request counters and a populated RTT histogram. The demo is
// held open long enough for the test to scrape mid-run.
func TestDemoMetricsEndpoint(t *testing.T) {
	buf := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-demo", "3",
			"-metrics", "127.0.0.1:0",
			"-timeout", "2s",
			"-hold", "4s",
		}, buf)
	}()

	// The metrics listener binds an ephemeral port; pull it from the log.
	addrRe := regexp.MustCompile(`msg=metrics addr=(\S+)`)
	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if m := addrRe.FindStringSubmatch(buf.String()); m != nil {
			addr = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("metrics address never logged:\n%s", buf.String())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Wait for the demo flow to finish (the hold line) so counters are
	// fully populated before scraping.
	for !strings.Contains(buf.String(), "msg=holding") {
		if time.Now().After(deadline) {
			t.Fatalf("demo never reached hold:\n%s", buf.String())
		}
		time.Sleep(20 * time.Millisecond)
	}

	body := fetch(t, "http://"+addr+"/metrics")
	if ct := fetchContentType(t, "http://"+addr+"/metrics"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	for _, typ := range []string{"ping", "store", "query"} {
		prefix := fmt.Sprintf("wire_requests_total{type=%q}", typ)
		if v, ok := metricValue(body, prefix); !ok || v <= 0 {
			t.Fatalf("%s = %v (ok=%v), want > 0\n%s", prefix, v, ok, body)
		}
	}
	if v, ok := metricValue(body, `wire_dial_rtt_ms_bucket{le="+Inf"}`); !ok || v <= 0 {
		t.Fatalf("dial RTT histogram empty (v=%v ok=%v)\n%s", v, ok, body)
	}
	if v, ok := metricValue(body, "wire_dial_rtt_ms_count"); !ok || v <= 0 {
		t.Fatalf("dial RTT histogram count = %v (ok=%v)", v, ok)
	}
	if _, ok := metricValue(body, "wire_serve_latency_ms_sum"); !ok {
		t.Fatalf("serve latency histogram missing:\n%s", body)
	}

	// JSON flavor and health probe ride on the same mux.
	if js := fetch(t, "http://"+addr+"/metrics.json"); !strings.Contains(js, `"wire_requests_total"`) {
		t.Fatalf("JSON exposition missing family:\n%s", js)
	}
	if hz := fetch(t, "http://"+addr+"/healthz"); hz != "ok\n" {
		t.Fatalf("healthz = %q", hz)
	}

	if err := <-done; err != nil {
		t.Fatalf("demo failed: %v\n%s", err, buf.String())
	}
}

func fetch(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d\n%s", url, resp.StatusCode, body)
	}
	return string(body)
}

func fetchContentType(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.Header.Get("Content-Type")
}

// TestGracefulDrainOnSIGTERM pins the shutdown path: a serving node that
// published must withdraw its record from every owner before exiting, so
// peers stop learning about it immediately instead of waiting out the
// TTL.
func TestGracefulDrainOnSIGTERM(t *testing.T) {
	cfgStub := wire.SpaceConfig{Landmarks: []string{"x"}, IndexDims: 1, BitsPerDim: 4, MaxRTTMs: 50}
	a, err := wire.NewNode("127.0.0.1:0", cfgStub, nil, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := wire.NewNode("127.0.0.1:0", cfgStub, nil, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	peers := []string{a.Addr(), b.Addr()}

	// Keep SIGTERM routed to channels for the whole test so an early
	// signal (sent before run installs its own handler) cannot kill the
	// test process.
	guard := make(chan os.Signal, 8)
	signal.Notify(guard, syscall.SIGTERM)
	defer signal.Stop(guard)

	buf := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-listen", "127.0.0.1:0",
			"-peers", strings.Join(peers, ","),
			"-landmarks", strings.Join(peers, ","),
			"-publish",
			"-timeout", "2s",
			"-drain-timeout", "2s",
		}, buf)
	}()

	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(buf.String(), "msg=published") {
		select {
		case err := <-done:
			t.Fatalf("exited before publishing: %v\n%s", err, buf.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("never published:\n%s", buf.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if a.RecordCount()+b.RecordCount() == 0 {
		t.Fatal("publish stored nothing on the owners")
	}

	// The run goroutine registers its signal handler after publishing;
	// resend until the drain completes in case the first signal lands in
	// the registration window.
	var runErr error
	for exited := false; !exited; {
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case runErr = <-done:
			exited = true
		case <-time.After(100 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatalf("SIGTERM did not stop the node:\n%s", buf.String())
			}
		}
	}
	if runErr != nil {
		t.Fatalf("run: %v\n%s", runErr, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "msg=drained owners_acked=") {
		t.Fatalf("drain line missing:\n%s", out)
	}
	if !strings.Contains(out, "msg=shutdown") {
		t.Fatalf("shutdown line missing:\n%s", out)
	}
	if n := a.RecordCount() + b.RecordCount(); n != 0 {
		t.Fatalf("%d records survived the drain", n)
	}
}

// fetchStatus GETs a URL and returns (status, body) without failing the
// test on non-200 — readiness probes are supposed to 503 while starting.
func fetchStatus(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestReadinessSplit pins the liveness/readiness contract: a publisher
// whose landmarks are down must be live (/healthz 200) but not ready
// (/readyz 503) while -join-retry keeps the join pending; once the
// landmark comes up the node joins and flips ready — without a restart.
func TestReadinessSplit(t *testing.T) {
	// Reserve the landmark's address without serving it yet.
	cfgStub := wire.SpaceConfig{Landmarks: []string{"x"}, IndexDims: 1, BitsPerDim: 4, MaxRTTMs: 50}
	boot, err := wire.NewNode("127.0.0.1:0", cfgStub, nil, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	lmAddr := boot.Addr()
	if err := boot.Close(); err != nil {
		t.Fatal(err)
	}

	guard := make(chan os.Signal, 8)
	signal.Notify(guard, syscall.SIGTERM)
	defer signal.Stop(guard)

	buf := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-listen", "127.0.0.1:0",
			"-peers", lmAddr,
			"-landmarks", lmAddr,
			"-metrics", "127.0.0.1:0",
			"-publish",
			"-join-retry", "50ms",
			"-timeout", "250ms",
			"-retries", "1",
			"-drain-timeout", "1s",
		}, buf)
	}()

	addrRe := regexp.MustCompile(`msg=metrics addr=(\S+)`)
	var maddr string
	deadline := time.Now().Add(10 * time.Second)
	for maddr == "" {
		if m := addrRe.FindStringSubmatch(buf.String()); m != nil {
			maddr = m[1]
			break
		}
		select {
		case err := <-done:
			t.Fatalf("exited early: %v\n%s", err, buf.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("metrics address never logged:\n%s", buf.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Live but not ready: the landmark is down, the join is pending.
	if code, _ := fetchStatus(t, "http://"+maddr+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d while starting, want 200 (liveness is not readiness)", code)
	}
	for !strings.Contains(buf.String(), "msg=join-pending") {
		if time.Now().After(deadline) {
			t.Fatalf("join never reported pending:\n%s", buf.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	code, body := fetchStatus(t, "http://"+maddr+"/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("readyz = %d (%q) before joining, want 503", code, body)
	}
	if !strings.Contains(body, "starting:") {
		t.Fatalf("readyz body %q carries no reason", body)
	}

	// Bring the landmark up; the pending join must complete on its own.
	lm, err := wire.NewNode(lmAddr, cfgStub, nil, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer lm.Close()
	for {
		if code, _ := fetchStatus(t, "http://"+maddr+"/readyz"); code == http.StatusOK {
			break
		}
		select {
		case err := <-done:
			t.Fatalf("exited instead of joining: %v\n%s", err, buf.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("node never became ready after landmark recovery:\n%s", buf.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !strings.Contains(buf.String(), "msg=published") || !strings.Contains(buf.String(), "msg=ready") {
		t.Fatalf("ready without publish/ready log lines:\n%s", buf.String())
	}

	// Shut down; the drain path still runs.
	for exited := false; !exited; {
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			exited = true
			if err != nil {
				t.Fatalf("run: %v\n%s", err, buf.String())
			}
		case <-time.After(100 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatalf("SIGTERM did not stop the node:\n%s", buf.String())
			}
		}
	}
}

// TestJoinRetryDisabledFailsHard: without -join-retry an unreachable
// landmark still fails the publish immediately — scripts keep their
// fail-fast semantics.
func TestJoinRetryDisabledFailsHard(t *testing.T) {
	cfgStub := wire.SpaceConfig{Landmarks: []string{"x"}, IndexDims: 1, BitsPerDim: 4, MaxRTTMs: 50}
	boot, err := wire.NewNode("127.0.0.1:0", cfgStub, nil, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	lmAddr := boot.Addr()
	if err := boot.Close(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err = run([]string{
		"-listen", "127.0.0.1:0",
		"-peers", lmAddr,
		"-landmarks", lmAddr,
		"-publish", "-oneshot",
		"-timeout", "200ms",
		"-retries", "1",
	}, &buf)
	if err == nil {
		t.Fatal("publish against a dead landmark succeeded")
	}
}
