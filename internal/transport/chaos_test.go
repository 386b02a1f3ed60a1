package transport

import (
	"context"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"volcast/internal/faultnet"
	"volcast/internal/hub"
	"volcast/internal/metrics"
	"volcast/internal/testutil/leakcheck"
	"volcast/internal/trace"
)

// chaosConfig is the soak's fault schedule seed: moderate resets so
// sessions survive via reconnect, periodic read stalls, a bandwidth cap
// tight enough to exercise adaptation, and transient accept failures so
// the accept-retry path runs too.
var chaosConfig = faultnet.Config{
	Seed:            20210831, // the paper's venue date — any fixed seed works
	Latency:         200 * time.Microsecond,
	BandwidthBps:    24 << 20, // ~24 MiB/s shared shape per conn
	ResetProb:       0.7,
	ResetAfterBytes: [2]int64{128 << 10, 1 << 20},
	StallEvery:      50,
	StallDur:        30 * time.Millisecond,
	AcceptFailEvery: 4,
}

// TestChaosSoak runs 3 push clients and 1 pull client against a server
// behind a seeded fault injector (mid-stream resets, read stalls,
// bandwidth caps, accept failures) and asserts the hardening contract:
// every client finishes inside its deadline (no hangs), disconnected
// clients reconnect within their backoff budget and keep receiving
// frames, the server drains to zero clients with no goroutine leaks, and
// the fault schedule is a pure function of the seed (the same seed
// replays the identical schedule).
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short")
	}
	leak := leakcheck.Take()

	reg := metrics.NewRegistry()
	store := testStore(t, 5, 8_000)
	srv, fln, addr := startHub(t, store, hub.Config{
		Metrics:        reg,
		HeartbeatEvery: 250 * time.Millisecond,
		IdleTimeout:    2 * time.Second,
		DrainTimeout:   time.Second,
		WriteTimeout:   2 * time.Second,
	}, chaosConfig)

	const soak = 3 * time.Second
	study := trace.GenerateStudy(int(soak/time.Second)*30+60, 1)

	type result struct {
		name  string
		stats ClientStats
		err   error
	}
	results := make(chan result, 4)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := RunClient(context.Background(), ClientConfig{
				Addr: addr, ID: uint32(i), Name: "chaos-push", Trace: study.Traces[i],
				Duration:  soak,
				Reconnect: true, BackoffBase: 20 * time.Millisecond, BackoffMax: 250 * time.Millisecond,
				MaxReconnects: 100, // the backoff budget: exhausting it fails the run
				IdleTimeout:   time.Second,
			})
			results <- result{"push", st, err}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		st, err := RunPullClient(context.Background(), PullClientConfig{
			Addr: addr, ID: 3, Trace: study.Traces[3],
			Duration: soak, Stride: 2,
			FrameTimeout: 300 * time.Millisecond,
		})
		results <- result{"pull", st, err}
	}()

	// No hangs: everything must finish well inside soak + margin.
	allDone := make(chan struct{})
	go func() { wg.Wait(); close(allDone) }()
	select {
	case <-allDone:
	case <-time.After(soak + 15*time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("clients hung past the soak deadline\n%s", buf[:runtime.Stack(buf, true)])
	}
	close(results)

	totalReconnects := 0
	for r := range results {
		if r.err != nil {
			t.Errorf("%s client failed (budget exhausted or hard error): %v", r.name, r.err)
			continue
		}
		t.Logf("%s client: frames=%d cells=%d reconnects=%d hbMisses=%d framesDropped=%d",
			r.name, r.stats.Frames, r.stats.Cells, r.stats.Reconnects,
			r.stats.HeartbeatMisses, r.stats.FramesDropped)
		if r.name == "push" {
			totalReconnects += r.stats.Reconnects
			if r.stats.Frames == 0 {
				t.Errorf("push client starved under chaos: %+v", r.stats)
			}
		}
	}
	// With ResetProb 0.7 and small reset offsets, connections do die; the
	// fleet must have reconnected at least once (and the counter must
	// agree with the per-client stats).
	if totalReconnects == 0 {
		t.Error("no reconnects in a soak with injected resets")
	}

	// Graceful drain to zero (startHub reports a Serve error).
	srv.Shutdown()
	if n := srv.NumClients(); n != 0 {
		t.Errorf("%d clients still registered after shutdown", n)
	}

	// Zero goroutine leaks: connection handlers, writers, pose senders,
	// frame loop must all be gone. The snapshot diff names the spawner of
	// anything that survives, where the old count delta could only say
	// "some number grew".
	leak.Check(t)

	// Reproducibility: the schedule each connection actually ran is a
	// pure function of (seed, connection index) — rerunning with this
	// seed replays it byte-for-byte.
	plans := fln.Plans()
	if len(plans) < 4 {
		t.Fatalf("only %d connections in the soak", len(plans))
	}
	resets := 0
	for i, p := range plans {
		want := faultnet.PlanFor(chaosConfig, i)
		if p != want {
			t.Errorf("conn %d schedule diverged from the seed:\n ran  %v\n want %v", i, p, want)
		}
		if p.ResetAt > 0 {
			resets++
		}
	}
	if resets == 0 {
		t.Error("seed drew no resets — soak exercised nothing")
	}
	t.Logf("soak: %d connections, %d scheduled resets, %d reconnect attempts; server counters: %s",
		len(plans), resets, totalReconnects, counterSummary(reg))
}

// counterSummary extracts the transport fault counters for the log.
func counterSummary(reg *metrics.Registry) string {
	names := []string{
		"transport.connects", "transport.disconnects", "transport.writer.deaths",
		"transport.drops.enqueue", "transport.heartbeat.misses",
		"transport.accept.retries", "transport.rejects.shutdown",
	}
	out := ""
	for _, n := range names {
		if v := reg.Counter(n).Value(); v != 0 {
			if out != "" {
				out += " "
			}
			out += n + "=" + itoa(v)
		}
	}
	return out
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

// TestChaosScheduleReplaysAcrossListeners is the "same seed twice" check
// at the listener level: two independent listeners with the same config
// assign identical schedules to the same connection indices.
func TestChaosScheduleReplaysAcrossListeners(t *testing.T) {
	mk := func() []faultnet.Plan {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		fln := faultnet.NewListener(ln, chaosConfig)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 6; i++ {
				c, err := fln.Accept()
				if err != nil {
					continue // injected accept fault; retry consumes no conn
				}
				c.Close()
			}
		}()
		dialed := 0
		for dialed < 5 { // 6 accepts - 1 injected failure = 5 conns
			c, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			c.Close()
			dialed++
		}
		<-done
		return fln.Plans()
	}
	a, b := mk(), mk()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("plan logs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("conn %d: schedules differ across runs:\n%v\n%v", i, a[i], b[i])
		}
	}
}
