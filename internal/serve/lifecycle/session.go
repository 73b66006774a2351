package lifecycle

import (
	"fmt"
	"sync"

	"streamcover/internal/obs"
	"streamcover/internal/space"
	"streamcover/internal/stream"
)

// MaxBatch is the largest number of edges one ingest batch may carry. It
// matches stream.BatchSize so a served batch drains through ProcessBatch
// in one call, and sizes a session's single edge buffer. The transport
// enforces the same bound on edges frames.
const MaxBatch = 4096

// bufFree recycles retired sessions' edge buffers. A plain free-list rather
// than a sync.Pool: the buffer is the heaviest per-session allocation and a
// GC cycle between sessions would otherwise throw the warm buffers away,
// turning session churn into steady-state allocation. Bounded at
// maxPooledBufs so a session spike does not pin its peak working set
// forever.
var bufFree struct {
	mu sync.Mutex
	xs [][]stream.Edge
}

const maxPooledBufs = 256

func newBuf() []stream.Edge {
	bufFree.mu.Lock()
	if n := len(bufFree.xs); n > 0 {
		b := bufFree.xs[n-1]
		bufFree.xs[n-1] = nil
		bufFree.xs = bufFree.xs[:n-1]
		bufFree.mu.Unlock()
		return b
	}
	bufFree.mu.Unlock()
	return make([]stream.Edge, MaxBatch)
}

// Session runs one algorithm instance fed from outside the package. The
// transport leases the session's edge buffer with Reserve, decodes edges
// into it (zero allocations per batch in steady state — the lifecycle
// never sees wire bytes) and commits them with Enqueue, which runs them
// through ProcessBatch — the library's batched hot path — before it
// returns. All Session methods are called from a single feeding goroutine
// (the connection reader), which is the only goroutine touching the
// algorithm; a slow algorithm stalls that reader, and TCP flow control
// carries the backpressure to the client.
type Session struct {
	token string
	trace obs.TraceID // session identity: minted at open, survives resume
	cfg   Config
	alg   stream.Algorithm
	bp    stream.BatchProcessor // alg's batched path, nil if it has none

	buf []stream.Edge // MaxBatch edges; returned to bufFree on retire
	pos int           // edges consumed, including any resumed prefix

	stopped   bool // finished or stopped; every later call fails
	persisted bool // this session's lifetime wrote or read a store checkpoint
	so        *obs.ServeObs
	tslot     *obs.SessionSlot // per-session telemetry row (nil when off)
}

// newSession wraps alg (built for cfg) with a pooled edge buffer. pos is
// the stream position the algorithm state corresponds to (0 for new
// sessions, the checkpoint position for resumed ones).
func newSession(token string, trace obs.TraceID, cfg Config, alg stream.Algorithm, pos int, so *obs.ServeObs, tslot *obs.SessionSlot) *Session {
	bp, _ := alg.(stream.BatchProcessor)
	return &Session{
		token: token,
		trace: trace,
		cfg:   cfg,
		alg:   alg,
		bp:    bp,
		buf:   newBuf(),
		pos:   pos,
		so:    so,
		tslot: tslot,
	}
}

// retire recycles the session's edge buffer. The session keeps its
// stopped flag and loses the buffer, so a stale handle held past
// Detach/Finish fails on the stopped guard and can never reach a buffer
// that now belongs to another session.
func (s *Session) retire() {
	b := s.buf
	s.buf = nil
	s.alg, s.bp = nil, nil
	if b != nil {
		bufFree.mu.Lock()
		if len(bufFree.xs) < maxPooledBufs {
			bufFree.xs = append(bufFree.xs, b)
		}
		bufFree.mu.Unlock()
	}
}

// Token reports the session's token.
func (s *Session) Token() string { return s.token }

// Trace reports the session's identity: minted at open, carried by every
// checkpoint, surviving resume.
func (s *Session) Trace() obs.TraceID { return s.trace }

// Config reports the configuration the session's algorithm was built from.
func (s *Session) Config() Config { return s.cfg }

// Reserve leases the session's edge buffer (capacity MaxBatch) for the
// caller to decode an edge batch into. Every Reserve must be paired with
// exactly one Enqueue (to commit) or Release (to abandon).
func (s *Session) Reserve() []stream.Edge { return s.buf }

// Enqueue runs the first n edges of the buffer leased by Reserve through
// the algorithm and advances the session position.
func (s *Session) Enqueue(n int) {
	batch := s.buf[:n]
	if s.bp != nil {
		s.bp.ProcessBatch(batch)
	} else {
		for _, e := range batch {
			s.alg.Process(e)
		}
	}
	s.pos += n
	s.so.Batch(n)
	s.tslot.Batch(n)
}

// Release abandons the buffer leased by Reserve (the caller's decode
// failed; nothing reaches the algorithm). It has nothing to return: the
// buffer stays the session's.
func (s *Session) Release() {}

// errStopped reports a call on a session that was already finished or
// stopped.
func (s *Session) errStopped() error {
	return fmt.Errorf("serve: session %s already stopped", s.token)
}

// Flush returns the consumed position: every enqueued edge has already
// been processed.
func (s *Session) Flush() (int, error) {
	if s.stopped {
		return 0, s.errStopped()
	}
	return s.pos, nil
}

// finish finishes the algorithm and returns the result. The session is
// dead afterwards.
func (s *Session) finish() (Result, error) {
	if s.stopped {
		return Result{}, s.errStopped()
	}
	s.stopped = true
	res := Result{Edges: s.pos, Cover: s.alg.Finish()}
	if rep, ok := s.alg.(space.Reporter); ok {
		res.Space = rep.Space()
	}
	return res, nil
}

// stop ends ingest without finishing, returning the consumed position.
// The algorithm may be snapshotted afterwards.
func (s *Session) stop() (int, error) {
	if s.stopped {
		return 0, s.errStopped()
	}
	s.stopped = true
	return s.pos, nil
}
