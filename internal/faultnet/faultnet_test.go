package faultnet

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"volcast/internal/testutil/leakcheck"
)

func TestPlanForDeterministic(t *testing.T) {
	cfg := Config{
		Seed: 42, ResetProb: 0.5, ResetAfterBytes: [2]int64{1 << 10, 1 << 20},
		ShortWriteProb: 0.5, StallEvery: 7, StallDur: time.Millisecond,
	}
	for i := 0; i < 64; i++ {
		a, b := PlanFor(cfg, i), PlanFor(cfg, i)
		if a != b {
			t.Fatalf("conn %d: plans differ:\n%v\n%v", i, a, b)
		}
	}
	// Different seeds must decorrelate.
	same := 0
	for i := 0; i < 64; i++ {
		if PlanFor(cfg, i).ResetAt == PlanFor(Config{Seed: 43, ResetProb: 0.5}, i).ResetAt {
			same++
		}
	}
	if same == 64 {
		t.Error("seed change did not alter any plan")
	}
}

func TestPlanForCoinCoverage(t *testing.T) {
	cfg := Config{Seed: 7, ResetProb: 0.5, ShortWriteProb: 0.5}
	var resets, shorts int
	for i := 0; i < 200; i++ {
		p := PlanFor(cfg, i)
		if p.ResetAt > 0 {
			resets++
		}
		if p.ShortWriteAt > 0 {
			shorts++
		}
	}
	if resets < 50 || resets > 150 {
		t.Errorf("resets drawn %d/200 at p=0.5", resets)
	}
	if shorts < 50 || shorts > 150 {
		t.Errorf("short writes drawn %d/200 at p=0.5", shorts)
	}
	// Probability 0 must never draw.
	for i := 0; i < 50; i++ {
		if p := PlanFor(Config{Seed: 7}, i); p.ResetAt != 0 || p.ShortWriteAt != 0 {
			t.Fatalf("zero config drew a fault: %v", p)
		}
	}
}

// pipeConns returns a connected TCP pair (real sockets so deadlines work).
func pipeConns(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ch := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			ch <- c
		}
	}()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server = <-ch
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

func TestConnCleanPassThrough(t *testing.T) {
	a, b := pipeConns(t)
	fa := WrapConn(a, Plan{})
	msg := bytes.Repeat([]byte("volumetric"), 2000)
	var got []byte
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		got = make([]byte, len(msg))
		io.ReadFull(b, got)
	}()
	if n, err := fa.Write(msg); err != nil || n != len(msg) {
		t.Fatalf("write: n=%d err=%v", n, err)
	}
	wg.Wait()
	if !bytes.Equal(got, msg) {
		t.Error("payload corrupted through clean wrapper")
	}
}

func TestConnInjectedReset(t *testing.T) {
	a, b := pipeConns(t)
	fa := WrapConn(a, Plan{ResetAt: 10 << 10})
	go io.Copy(io.Discard, b)
	buf := make([]byte, 4<<10)
	var err error
	for i := 0; i < 100; i++ {
		if _, err = fa.Write(buf); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("expected injected reset, got %v", err)
	}
	// Both directions dead afterwards.
	if _, err := fa.Write(buf); !errors.Is(err, ErrInjectedReset) {
		t.Errorf("write after reset: %v", err)
	}
	if _, err := fa.Read(buf); !errors.Is(err, ErrInjectedReset) {
		t.Errorf("read after reset: %v", err)
	}
	var ne net.Error
	if !errors.As(err, &ne) || ne.Timeout() {
		t.Error("injected reset must be a non-timeout net.Error")
	}
}

func TestConnShortWrite(t *testing.T) {
	a, b := pipeConns(t)
	fa := WrapConn(a, Plan{ShortWriteAt: 2})
	go io.Copy(io.Discard, b)
	buf := make([]byte, 1<<10)
	if _, err := fa.Write(buf); err != nil {
		t.Fatalf("write 1: %v", err)
	}
	n, err := fa.Write(buf)
	if !errors.Is(err, ErrShortWrite) {
		t.Fatalf("write 2: want short-write error, got %v", err)
	}
	if n <= 0 || n >= len(buf) {
		t.Errorf("short write delivered %d of %d bytes; want a strict prefix", n, len(buf))
	}
	if _, err := fa.Write(buf); err != nil {
		t.Errorf("write 3 after the one-shot short write: %v", err)
	}
}

func TestConnReadStall(t *testing.T) {
	a, b := pipeConns(t)
	fa := WrapConn(a, Plan{StallEvery: 2, StallDur: 60 * time.Millisecond})
	go func() {
		for i := 0; i < 4; i++ {
			b.Write([]byte{byte(i)})
			time.Sleep(5 * time.Millisecond)
		}
	}()
	buf := make([]byte, 1)
	t0 := time.Now()
	for i := 0; i < 2; i++ { // read #2 stalls
		if _, err := io.ReadFull(fa, buf); err != nil {
			t.Fatal(err)
		}
	}
	if d := time.Since(t0); d < 60*time.Millisecond {
		t.Errorf("stall not applied: 2 reads took %v", d)
	}
}

func TestConnBandwidthCap(t *testing.T) {
	a, b := pipeConns(t)
	fa := WrapConn(a, Plan{BandwidthBps: 1 << 20}) // 1 MiB/s
	go io.Copy(io.Discard, b)
	buf := make([]byte, 256<<10) // 256 KiB -> >= 250ms at cap
	t0 := time.Now()
	if _, err := fa.Write(buf); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d < 200*time.Millisecond {
		t.Errorf("bandwidth cap not enforced: 256KiB in %v", d)
	}
}

func TestListenerAcceptFaultAndPlans(t *testing.T) {
	leak := leakcheck.Take()
	defer leak.Check(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fln := NewListener(ln, Config{Seed: 9, AcceptFailEvery: 2, ResetProb: 1, ResetAfterBytes: [2]int64{100, 200}})
	defer fln.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 3; i++ {
			c, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Errorf("dial %d: %v", i, err)
				return
			}
			defer c.Close()
		}
	}()

	accepted := 0
	faults := 0
	for accepted < 3 {
		c, err := fln.Accept()
		if err != nil {
			var ne net.Error
			if !errors.As(err, &ne) || !ne.Temporary() {
				t.Fatalf("accept: non-temporary error %v", err)
			}
			faults++
			continue
		}
		c.Close()
		accepted++
	}
	<-done
	if faults == 0 {
		t.Error("no accept faults with AcceptFailEvery=2")
	}
	plans := fln.Plans()
	if len(plans) != 3 {
		t.Fatalf("%d plans for 3 connections", len(plans))
	}
	for i, p := range plans {
		if want := PlanFor(Config{Seed: 9, AcceptFailEvery: 2, ResetProb: 1, ResetAfterBytes: [2]int64{100, 200}}, i); p != want {
			t.Errorf("plan %d: got %v, want %v", i, p, want)
		}
		if p.ResetAt < 100 || p.ResetAt >= 200 {
			t.Errorf("plan %d resetAt %d outside configured range", i, p.ResetAt)
		}
	}
}
