package wire

import (
	"bytes"
	"testing"
)

func TestAppendMessageMatchesWriteMessage(t *testing.T) {
	msgs := []Message{
		&Hello{ClientID: 9, Name: "p", Scene: 2},
		&CellData{Frame: 3, CellID: 7, Stride: 2, Multicast: true, Payload: []byte{1, 2, 3, 4}},
		&FrameComplete{Frame: 3, Cells: 12, Bytes: 4096},
		&Ping{Seq: 1, T: 99},
		&Bye{},
	}
	var batch []byte
	for _, m := range msgs {
		var want bytes.Buffer
		if err := WriteMessage(&want, m); err != nil {
			t.Fatal(err)
		}
		got, err := AppendMessage(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%v: append %x != written %x", m.Type(), got, want.Bytes())
		}
		batch, err = AppendMessage(batch, m)
		if err != nil {
			t.Fatal(err)
		}
	}
	// Back-to-back framed messages form a valid stream.
	r := bytes.NewReader(batch)
	for _, m := range msgs {
		got, err := ReadMessage(r)
		if err != nil {
			t.Fatal(err)
		}
		if got.Type() != m.Type() {
			t.Fatalf("stream type %v, want %v", got.Type(), m.Type())
		}
	}
	if r.Len() != 0 {
		t.Fatalf("%d trailing bytes after batch", r.Len())
	}
}

func TestAppendMessageTooLargeLeavesDstIntact(t *testing.T) {
	prefix, err := AppendMessage(nil, &Ping{Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	big := &CellData{Payload: make([]byte, MaxMessageSize)}
	got, err := AppendMessage(prefix, big)
	if err != ErrTooLarge {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
	if !bytes.Equal(got, prefix) {
		t.Fatalf("dst not rolled back after ErrTooLarge")
	}
}

func TestBufferRoundTrip(t *testing.T) {
	m := &CellData{Frame: 1, CellID: 2, Stride: 1, Payload: []byte{9, 8, 7}}
	b, err := NewBuffer(m)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := AppendMessage(nil, m)
	if !bytes.Equal(b.Bytes(), want) {
		t.Fatalf("buffer bytes %x != %x", b.Bytes(), want)
	}
	if b.Len() != len(want) {
		t.Fatalf("Len %d, want %d", b.Len(), len(want))
	}
	b.Release()
}

// TestBufferReuseAfterReleaseSafety pins the ownership contract: bytes
// read while holding a reference stay stable even as other buffers churn
// through the pool, and a retained buffer survives a sibling's release.
func TestBufferReuseAfterReleaseSafety(t *testing.T) {
	m := &FrameComplete{Frame: 7, Cells: 3, Bytes: 30}
	b, err := NewBuffer(m)
	if err != nil {
		t.Fatal(err)
	}
	b.Retain(2) // three holders total
	snapshot := append([]byte(nil), b.Bytes()...)
	b.Release()
	b.Release()
	// One reference remains: churn the pool with different payloads and
	// verify the held bytes are untouched.
	for i := 0; i < 64; i++ {
		o, err := NewBuffer(&CellData{Frame: uint32(i), Payload: bytes.Repeat([]byte{0xAA}, 64)})
		if err != nil {
			t.Fatal(err)
		}
		o.Release()
	}
	if !bytes.Equal(b.Bytes(), snapshot) {
		t.Fatalf("held buffer mutated while pool churned")
	}
	b.Release()
}

func TestBufferOverReleasePanics(t *testing.T) {
	b, err := NewBuffer(&Bye{})
	if err != nil {
		t.Fatal(err)
	}
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	b.Release()
}

func TestBufferNilSafe(t *testing.T) {
	var b *Buffer
	if b.Bytes() != nil || b.Len() != 0 {
		t.Fatal("nil buffer not empty")
	}
	b.Retain(1)
	b.Release()
}

func BenchmarkAppendMessage(b *testing.B) {
	m := &CellData{Frame: 1, CellID: 2, Stride: 1, Payload: make([]byte, 1024)}
	buf := make([]byte, 0, 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = AppendMessage(buf[:0], m)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBufferEncodeRelease(b *testing.B) {
	m := &CellData{Frame: 1, CellID: 2, Stride: 1, Payload: make([]byte, 1024)}
	// Warm the pool so the steady state is measured.
	if w, err := NewBuffer(m); err == nil {
		w.Release()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := NewBuffer(m)
		if err != nil {
			b.Fatal(err)
		}
		buf.Release()
	}
}
