package service

import (
	"io"
	"net"
	"runtime"
	"sync"
	"time"
)

// flushWriter is the write coalescer: frames that arrive while a write
// is in progress are batched into the next Write syscall, never
// interleaved.
//
// With delay > 0 it is the delay-inserted coalescer: a flusher
// goroutine holds the socket for up to `delay` after the first frame of
// a batch — the paper's move applied to the transmit path, deliberately
// NOT sending for a while to raise throughput (fewer syscalls, fuller
// packets) at a bounded cost to p50 latency.
//
// With delay 0 it is self-clocked (group commit): the WriteFrame that
// finds no write in progress becomes the leader and writes the buffer
// until it is empty; frames arriving meanwhile are appended by
// followers, which return at once. The leader yields the processor
// once before its first write, but only when imminent reports that
// another frame on this connection is about to be produced, so frames
// from producers that are already runnable join the batch. The write
// itself is the inserted delay, and its length is set by the load: a
// lock-step connection (nothing else imminent) writes through, frame
// by frame, exactly as without coalescing.
//
// Concurrent WriteFrame calls are safe. A frame accepted before Close
// is never dropped by the coalescer itself: Close waits for an
// in-flight leader (delay 0) or makes the flusher's final flush
// (delay > 0). A follower learns of a failed write from the sticky
// error on its next WriteFrame.
//
// Memory stays bounded without an explicit cap because every producer
// is window-limited: a server connection has at most `window` worker
// frames outstanding and a client at most `window` requests, so the
// pending buffer tops out near window × max frame size.
type flushWriter struct {
	w     io.Writer
	delay time.Duration
	// imminent, when set, reports whether another frame on this
	// connection is about to be written; a delay-0 leader yields once
	// before writing only if it does. Set before first use.
	imminent func() bool

	mu      sync.Mutex
	buf     []byte // frames accepted since the last flush
	spare   []byte // the previous flush's buffer, recycled
	err     error  // first write error, sticky
	closed  bool
	writing bool       // delay 0: a leader owns the socket
	idle    *sync.Cond // delay 0: signalled when the leader finishes

	kick   chan struct{} // first-frame-since-flush signal, cap 1
	urgent chan struct{} // size-threshold reached: flush without finishing the delay, cap 1
	stop   chan struct{}
	done   chan struct{}
}

// coalesceThreshold is the pending-byte level that flushes immediately
// instead of waiting out the delay: once a batch is already big enough
// to fill a syscall, holding it longer buys nothing and costs latency.
// The inserted delay is therefore an upper bound, not a fixed tax.
const coalesceThreshold = 8 << 10

// newFlushWriter wraps w; with delay > 0 it starts the flusher
// goroutine, which Close stops.
func newFlushWriter(w io.Writer, delay time.Duration) *flushWriter {
	fw := &flushWriter{
		w:      w,
		delay:  delay,
		buf:    make([]byte, 0, 2048),
		spare:  make([]byte, 0, 2048),
		kick:   make(chan struct{}, 1),
		urgent: make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	fw.idle = sync.NewCond(&fw.mu)
	if delay > 0 {
		go fw.loop()
	} else {
		close(fw.done)
	}
	return fw
}

// WriteFrame writes one whole frame: it queues it for the flusher
// (delay > 0), appends it to the leader's batch (delay 0, a write in
// progress), or becomes the leader and writes it (delay 0, idle).
func (fw *flushWriter) WriteFrame(frame []byte) error {
	fw.mu.Lock()
	if fw.err != nil {
		err := fw.err
		fw.mu.Unlock()
		return err
	}
	if fw.closed {
		fw.mu.Unlock()
		return net.ErrClosed
	}
	if fw.delay <= 0 {
		fw.buf = append(fw.buf, frame...)
		if fw.writing {
			fw.mu.Unlock()
			return nil // follower: the leader's loop writes it
		}
		fw.writing = true
		fw.mu.Unlock()
		if fw.imminent != nil && fw.imminent() {
			// Let producers that are already runnable append first, so
			// the frames they are about to write share this syscall.
			runtime.Gosched()
		}
		fw.mu.Lock()
		for len(fw.buf) > 0 && fw.err == nil {
			fw.writeLocked()
		}
		fw.writing = false
		err := fw.err
		fw.mu.Unlock()
		fw.idle.Broadcast()
		return err
	}
	wasEmpty := len(fw.buf) == 0
	fw.buf = append(fw.buf, frame...)
	full := len(fw.buf) >= coalesceThreshold
	fw.mu.Unlock()
	if wasEmpty {
		select {
		case fw.kick <- struct{}{}:
		default:
		}
	}
	if full {
		select {
		case fw.urgent <- struct{}{}:
		default:
		}
	}
	return nil
}

// loop is the flusher: on the first frame after an empty buffer it
// holds the socket for up to the configured delay — the inserted delay
// — then writes everything that accumulated in one syscall. A batch
// that reaches the size threshold flushes early; the delay is the
// latency bound, not a fixed tax.
func (fw *flushWriter) loop() {
	defer close(fw.done)
	timer := time.NewTimer(fw.delay)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		select {
		case <-fw.kick:
			timer.Reset(fw.delay)
			select {
			case <-timer.C:
			case <-fw.urgent:
				if !timer.Stop() {
					<-timer.C
				}
			case <-fw.stop:
				if !timer.Stop() {
					<-timer.C
				}
				fw.flush()
				return
			}
			fw.flush()
			// A stale urgent signal from the batch just flushed must not
			// cut the next batch's delay short.
			select {
			case <-fw.urgent:
			default:
			}
		case <-fw.stop:
			fw.flush()
			return
		}
	}
}

// flush writes the pending buffer. Only the flusher goroutine calls it.
func (fw *flushWriter) flush() {
	fw.mu.Lock()
	if len(fw.buf) > 0 && fw.err == nil {
		fw.writeLocked()
	}
	fw.mu.Unlock()
}

// writeLocked writes the pending buffer in one syscall. The caller owns
// the socket (the delay-0 leader or the flusher) and holds mu; the
// write happens outside the mutex, so producers keep appending to the
// swapped-in spare buffer meanwhile.
func (fw *flushWriter) writeLocked() {
	out := fw.buf
	fw.buf = fw.spare[:0]
	fw.mu.Unlock()
	_, err := fw.w.Write(out)
	fw.mu.Lock()
	fw.spare = out[:0]
	if err != nil && fw.err == nil {
		fw.err = err
	}
}

// Err reports the sticky first write error.
func (fw *flushWriter) Err() error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return fw.err
}

// Close waits for an in-flight leader (delay 0) or stops the flusher
// after a final flush of anything buffered (delay > 0). Idempotent;
// returns the sticky write error, if any.
func (fw *flushWriter) Close() error {
	fw.mu.Lock()
	for fw.writing {
		fw.idle.Wait()
	}
	if fw.closed {
		fw.mu.Unlock()
		<-fw.done
		return fw.Err()
	}
	fw.closed = true
	fw.mu.Unlock()
	if fw.delay > 0 {
		close(fw.stop)
	}
	<-fw.done
	return fw.Err()
}
