package service

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

// testFrame builds producer p's frame number seq: [len, p, seq lo, seq
// hi, body...] with a body of seq%7 copies of p, so frames differ in
// length and a torn or interleaved frame fails to parse.
func testFrame(p byte, seq int) []byte {
	n := 4 + seq%7
	f := make([]byte, n)
	f[0], f[1], f[2], f[3] = byte(n), p, byte(seq), byte(seq>>8)
	for i := 4; i < n; i++ {
		f[i] = p
	}
	return f
}

// TestFlushWriterConcurrentProducers runs the zero-delay group commit
// under many producers with the imminent hint on, so leaders yield and
// followers append: every frame must arrive whole, each producer's
// frames in its own order, and the byte count must be exact.
func TestFlushWriterConcurrentProducers(t *testing.T) {
	const producers, frames = 8, 400
	var rec writeRecorder
	fw := newFlushWriter(&rec, 0)
	fw.imminent = func() bool { return true }
	want := 0
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		for seq := 0; seq < frames; seq++ {
			want += len(testFrame(byte(p), seq))
		}
		wg.Add(1)
		go func(p byte) {
			defer wg.Done()
			for seq := 0; seq < frames; seq++ {
				if err := fw.WriteFrame(testFrame(p, seq)); err != nil {
					t.Errorf("producer %d frame %d: %v", p, seq, err)
					return
				}
			}
		}(byte(p))
	}
	wg.Wait()
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	out := rec.buf.Bytes()
	if len(out) != want {
		t.Fatalf("wrote %d bytes, want %d", len(out), want)
	}
	next := make([]int, producers)
	for off := 0; off < len(out); {
		n := int(out[off])
		if n < 4 || off+n > len(out) {
			t.Fatalf("torn frame at byte %d (len %d)", off, n)
		}
		p, seq := int(out[off+1]), int(out[off+2])|int(out[off+3])<<8
		if p >= producers {
			t.Fatalf("bad producer %d at byte %d", p, off)
		}
		for i := 4; i < n; i++ {
			if out[off+i] != byte(p) {
				t.Fatalf("interleaved frame at byte %d", off)
			}
		}
		if seq != next[p] {
			t.Fatalf("producer %d: frame %d arrived where %d was due", p, seq, next[p])
		}
		next[p]++
		off += n
	}
	t.Logf("%d frames in %d writes", producers*frames, rec.calls())
}

// TestFlushWriterWriteThroughWhenIdle pins the lock-step case: when
// nothing more is imminent, every frame is its own Write, issued before
// WriteFrame returns.
func TestFlushWriterWriteThroughWhenIdle(t *testing.T) {
	for _, hint := range []func() bool{nil, func() bool { return false }} {
		var rec writeRecorder
		fw := newFlushWriter(&rec, 0)
		fw.imminent = hint
		for seq := 0; seq < 100; seq++ {
			if err := fw.WriteFrame(testFrame(1, seq)); err != nil {
				t.Fatal(err)
			}
			if rec.calls() != seq+1 {
				t.Fatalf("after frame %d: %d writes, want %d", seq, rec.calls(), seq+1)
			}
		}
		fw.Close()
	}
}

// gatedWriter blocks its first Write until release is closed, after
// signalling entered, then fails every write with err (if set).
type gatedWriter struct {
	writeRecorder
	entered chan struct{}
	release chan struct{}
	once    sync.Once
	err     error
}

func newGatedWriter(err error) *gatedWriter {
	return &gatedWriter{entered: make(chan struct{}), release: make(chan struct{}), err: err}
}

func (g *gatedWriter) Write(p []byte) (int, error) {
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
	if g.err != nil {
		return 0, g.err
	}
	return g.writeRecorder.Write(p)
}

// TestFlushWriterCloseWaitsForLeader pins Close against an in-flight
// leader: Close must not return while the leader's write is blocked,
// and every frame accepted before Close — including a follower's,
// appended while the leader wrote — must reach the writer.
func TestFlushWriterCloseWaitsForLeader(t *testing.T) {
	gw := newGatedWriter(nil)
	fw := newFlushWriter(gw, 0)
	leaderDone := make(chan error, 1)
	go func() { leaderDone <- fw.WriteFrame(testFrame(1, 0)) }()
	<-gw.entered
	if err := fw.WriteFrame(testFrame(2, 1)); err != nil { // follower
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() { closed <- fw.Close() }()
	select {
	case <-closed:
		t.Fatal("Close returned while the leader's write was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(gw.release)
	if err := <-leaderDone; err != nil {
		t.Fatal(err)
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if got, want := gw.bytes(), len(testFrame(1, 0))+len(testFrame(2, 1)); got != want {
		t.Fatalf("wrote %d bytes, want %d", got, want)
	}
	if err := fw.WriteFrame(testFrame(1, 2)); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("write after close: %v, want net.ErrClosed", err)
	}
}

// TestFlushWriterFollowerSeesError pins error delivery to followers: a
// frame appended behind a leader whose write then fails is accepted,
// and the follower's next WriteFrame reports the sticky error.
func TestFlushWriterFollowerSeesError(t *testing.T) {
	boom := errors.New("boom")
	gw := newGatedWriter(boom)
	fw := newFlushWriter(gw, 0)
	leaderDone := make(chan error, 1)
	go func() { leaderDone <- fw.WriteFrame(testFrame(1, 0)) }()
	<-gw.entered
	if err := fw.WriteFrame(testFrame(2, 1)); err != nil {
		t.Fatalf("follower append: %v, want nil", err)
	}
	close(gw.release)
	if err := <-leaderDone; !errors.Is(err, boom) {
		t.Fatalf("leader: %v, want boom", err)
	}
	if err := fw.WriteFrame(testFrame(2, 2)); !errors.Is(err, boom) {
		t.Fatalf("follower's next write: %v, want boom", err)
	}
	if err := fw.Close(); !errors.Is(err, boom) {
		t.Fatalf("close: %v, want boom", err)
	}
}
