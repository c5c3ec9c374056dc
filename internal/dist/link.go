package dist

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/check"
	"repro/internal/fault"
)

// recordBatchSize mirrors the engine's in-process successor batches: a
// worker's outgoing records for one destination peer are buffered and
// framed in chunks of up to this many.
const recordBatchSize = 256

// linkEvent is one inbound item on a peer link. Records and control
// frames share a single FIFO: the ordering between a delivered batch
// and a following barrier is exactly the conn's byte order, which is
// what the expand barrier's "every batch of the level has arrived"
// leans on.
type linkEvent struct {
	kind  frameType
	recs  []byte // a batch's records, checked whole (decodeBatch)
	depth int
	cont  contMsg
	err   error
}

// eventQueue is an unbounded FIFO with blocking pop. Unbounded on
// purpose: a peer must always be able to absorb relayed batches even
// while its own engine is blocked sending elsewhere — a bounded queue
// here deadlocks the level barrier under cross-peer backpressure (A
// blocked sending to B while B is blocked sending to A). Memory stays
// bounded by the global frontier, which the budget already caps.
type eventQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []linkEvent
	head   int
	closed bool
}

func newEventQueue() *eventQueue {
	q := &eventQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *eventQueue) push(ev linkEvent) {
	q.mu.Lock()
	if !q.closed {
		q.items = append(q.items, ev)
		q.cond.Signal()
	}
	q.mu.Unlock()
}

// pop blocks for the next event; ok is false once the queue is closed
// and drained (or closed hard).
func (q *eventQueue) pop() (linkEvent, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.head < len(q.items) {
			ev := q.items[q.head]
			q.items[q.head] = linkEvent{}
			q.head++
			if q.head == len(q.items) {
				q.items = q.items[:0]
				q.head = 0
			}
			return ev, true
		}
		if q.closed {
			return linkEvent{}, false
		}
		q.cond.Wait()
	}
}

func (q *eventQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// outBuf is one worker's pending batch for one destination peer: the
// payload as it will be framed, its header's count filled in at flush.
type outBuf struct {
	count int
	buf   []byte
}

// peerLink implements check.DistLink over one connection to the
// coordinator. Send/FlushWorker run on the engine's worker goroutines
// (per-worker buffers, a write mutex at the frame boundary); the
// barrier methods run on the engine's control goroutine; a reader
// goroutine drains the conn into the event queue
// continuously, so the coordinator's relay writes never block on this
// peer's engine.
type peerLink struct {
	conn net.Conn
	self int
	n    int

	wmu    sync.Mutex
	wbuf   []byte
	closed bool // a write failed; the link is dead

	bufs [][]outBuf // [worker][peer]

	batches atomic.Int64
	bytes   atomic.Int64
	stalls  atomic.Int64

	evq      *eventQueue
	readerWG sync.WaitGroup

	// pongCh hands ping answers from the reader to a dedicated writer
	// goroutine. The reader must NEVER take the write mutex itself: a
	// worker holding it mid-batch can be blocked on the coordinator,
	// whose relay write in turn waits for this reader to keep draining
	// the conn — a reader parked on wmu closes that cycle into a
	// four-party deadlock. Capacity 1 with a non-blocking send coalesces
	// bursts; the deadline is several periods, so a dropped ping is
	// answered by the next one.
	pongCh chan struct{}

	// pending holds batches that arrived during a level barrier: once the
	// coordinator releases the first peer with CONT, that peer starts
	// expanding the next level and its relayed records can reach us
	// before our own CONT does. They belong to the next expand barrier,
	// so they are stashed here and drained by the next BarrierExpand.
	// Touched only by the barrier methods (engine control goroutine).
	pending [][]byte
}

// newPeerLink wraps conn (whose HELLO has already been consumed from r)
// and starts the reader.
func newPeerLink(conn net.Conn, r io.Reader, self, peerCount int) *peerLink {
	l := &peerLink{conn: conn, self: self, n: peerCount, evq: newEventQueue(), pongCh: make(chan struct{}, 1)}
	l.readerWG.Add(2)
	go func() {
		defer l.readerWG.Done()
		l.readLoop(r)
	}()
	go func() {
		defer l.readerWG.Done()
		for range l.pongCh {
			if err := l.writeFrame(framePong, nil); err != nil {
				// The link is dead; the engine's own writes (or the
				// reader) surface it. Drain remaining ticks so the
				// reader's sends keep falling through.
				for range l.pongCh {
				}
				return
			}
		}
	}()
	return l
}

func (l *peerLink) readLoop(r io.Reader) {
	defer close(l.pongCh) // sole sender; the pong writer exits with us
	var buf []byte
	for {
		var (
			t       frameType
			payload []byte
			err     error
		)
		t, payload, buf, err = readFrame(r, buf)
		if err != nil {
			l.evq.push(linkEvent{kind: frameError, err: fmt.Errorf("dist peer %d: coordinator link lost: %w", l.self, err)})
			return
		}
		switch t {
		case frameBatch:
			dest, _, recs, derr := decodeBatch(payload)
			if derr != nil {
				l.evq.push(linkEvent{kind: frameError, err: derr})
				return
			}
			if dest != l.self {
				l.evq.push(linkEvent{kind: frameError, err: &FrameError{Reason: fmt.Sprintf("batch for peer %d relayed to peer %d", dest, l.self)}})
				return
			}
			// The frame buffer is the reader's to reuse.
			l.evq.push(linkEvent{kind: frameBatch, recs: append([]byte(nil), recs...)})
		case frameBarrier:
			var m depthMsg
			if derr := unmarshalCtrl(payload, &m); derr != nil {
				l.evq.push(linkEvent{kind: frameError, err: derr})
				return
			}
			l.evq.push(linkEvent{kind: t, depth: m.Depth})
		case frameCont:
			var m contMsg
			if derr := unmarshalCtrl(payload, &m); derr != nil {
				l.evq.push(linkEvent{kind: frameError, err: derr})
				return
			}
			l.evq.push(linkEvent{kind: t, cont: m})
		case framePing:
			// Answered via the pong writer, not the engine, so liveness
			// probes get through even while every worker is compute-bound:
			// a slow peer is never mistaken for a dead one. The send must
			// not block (see pongCh).
			select {
			case l.pongCh <- struct{}{}:
			default:
			}
		default:
			l.evq.push(linkEvent{kind: frameError, err: &FrameError{Reason: fmt.Sprintf("unexpected frame type %d on peer link", t)}})
			return
		}
	}
}

// writeFrame frames and writes one message; all frame writes go through
// here so the byte counters and the write mutex cover everything.
func (l *peerLink) writeFrame(t frameType, payload []byte) error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	if l.closed {
		return &FrameError{Reason: "link closed"}
	}
	l.wbuf = appendFrame(l.wbuf[:0], t, payload)
	if _, err := l.conn.Write(l.wbuf); err != nil {
		l.closed = true
		return fmt.Errorf("dist peer %d: writing to coordinator: %w", l.self, err)
	}
	l.bytes.Add(int64(len(l.wbuf)))
	return nil
}

// ---- check.DistLink ----

func (l *peerLink) Owns(fp uint64) bool {
	return check.DistPeerOf(check.DistPart(fp), l.n) == l.self
}

func (l *peerLink) Start(workers int) {
	l.bufs = make([][]outBuf, workers)
	for i := range l.bufs {
		l.bufs[i] = make([]outBuf, l.n)
	}
}

func (l *peerLink) Send(worker int, fp uint64, rec []byte) error {
	dest := check.DistPeerOf(check.DistPart(fp), l.n)
	b := &l.bufs[worker][dest]
	if b.count == 0 {
		b.buf = appendBatchHeader(b.buf[:0], dest, l.self, 0)
	}
	b.buf = append(b.buf, rec...)
	b.count++
	if b.count >= recordBatchSize {
		return l.flushBuf(b)
	}
	return nil
}

func (l *peerLink) flushBuf(b *outBuf) error {
	fault.Crash(fault.CrashDistBatchSend)
	binary.LittleEndian.PutUint32(b.buf[2:], uint32(b.count))
	b.count = 0
	l.batches.Add(1)
	return l.writeFrame(frameBatch, b.buf)
}

func (l *peerLink) FlushWorker(worker int) error {
	for dest := range l.bufs[worker] {
		if b := &l.bufs[worker][dest]; b.count > 0 {
			if err := l.flushBuf(b); err != nil {
				return err
			}
		}
	}
	return nil
}

func (l *peerLink) BarrierExpand(depth int) ([][]byte, error) {
	// The engine's workers have joined; no concurrent Send can race the
	// sweep.
	for w := range l.bufs {
		if err := l.FlushWorker(w); err != nil {
			return nil, err
		}
	}
	if err := l.writeFrame(frameExpanded, marshalCtrl(depthMsg{Depth: depth})); err != nil {
		return nil, err
	}
	l.stalls.Add(1)
	recs := l.pending
	l.pending = nil
	for {
		ev, ok := l.evq.pop()
		if !ok {
			return nil, &FrameError{Reason: "link detached during expand barrier"}
		}
		switch ev.kind {
		case frameBatch:
			recs = append(recs, ev.recs)
		case frameBarrier:
			if ev.depth != depth {
				return nil, &FrameError{Reason: fmt.Sprintf("barrier for depth %d while expanding depth %d", ev.depth, depth)}
			}
			return recs, nil
		case frameError:
			return nil, ev.err
		default:
			return nil, &FrameError{Reason: fmt.Sprintf("unexpected frame type %d during expand barrier", ev.kind)}
		}
	}
}

func (l *peerLink) BarrierLevel(depth int, admitted int64, next int, stop bool) (check.DistBarrier, error) {
	if err := l.writeFrame(frameLevel, marshalCtrl(levelMsg{Depth: depth, Admitted: admitted, Next: next, Stop: stop})); err != nil {
		return check.DistBarrier{}, err
	}
	l.stalls.Add(1)
	for {
		ev, ok := l.evq.pop()
		if !ok {
			return check.DistBarrier{}, &FrameError{Reason: "link detached during level barrier"}
		}
		switch ev.kind {
		case frameBatch:
			// Early records for the next level (a peer released from this
			// barrier before us is already expanding); hold them for the
			// next BarrierExpand.
			l.pending = append(l.pending, ev.recs)
		case frameCont:
			if ev.cont.Depth != depth {
				return check.DistBarrier{}, &FrameError{Reason: fmt.Sprintf("continue for depth %d at level barrier %d", ev.cont.Depth, depth)}
			}
			return check.DistBarrier{Keep: ev.cont.Keep, Truncated: ev.cont.Truncated, Done: ev.cont.Done}, nil
		case frameError:
			return check.DistBarrier{}, ev.err
		default:
			return check.DistBarrier{}, &FrameError{Reason: fmt.Sprintf("unexpected frame type %d during level barrier", ev.kind)}
		}
	}
}

func (l *peerLink) NetStats() check.NetStats {
	return check.NetStats{
		Peers:       l.n,
		BatchesSent: l.batches.Load(),
		BytesSent:   l.bytes.Load(),
		PeerStalls:  l.stalls.Load(),
	}
}

// close ends the session: it unblocks anything waiting on the event
// queue, closes the conn so the reader's blocking read returns, and joins
// the reader and pong-writer goroutines.
func (l *peerLink) close() {
	l.evq.close()
	l.conn.Close()
	l.readerWG.Wait()
}
