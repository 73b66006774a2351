package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"

	"streamcover/internal/obs"
	"streamcover/internal/serve/lifecycle"
	"streamcover/internal/setcover"
	"streamcover/internal/stream"
)

// Magic opens every SCWIRE1 connection (client→server, once, before the
// first frame).
const Magic = "SCWIRE1\n"

// Protocol versions carried in hello/resume frames. Version 1 is the
// original handshake; version 2 adds a 16-byte session trace ID after the
// token (hello/resume) and after the position (helloAck), so one identity
// follows a session across disconnect, resume and checkpoint files. Servers
// accept both and reply in the version the client spoke — a v1 client never
// sees trace bytes it cannot parse.
const (
	protoV1 = 1
	protoV2 = 2
)

// Frame types. Client→server types are low, server→client types have the
// high bit set; values are part of the wire format and must stay stable.
const (
	frameHello  = 0x01 // open a new session
	frameEdges  = 0x02 // one edge batch
	frameFlush  = 0x03 // request a pos-ack for every edge sent so far
	frameFinish = 0x04 // finish the algorithm, expect a result frame
	frameResume = 0x05 // reattach to a detached session
	frameDetach = 0x06 // graceful disconnect: checkpoint and ack first

	frameHelloAck = 0x81 // session token + starting position
	framePosAck   = 0x82 // flush/detach acknowledgement
	frameResult   = 0x83 // edges, cover, certificate, space meters
	frameError    = 0x84 // code byte + message
)

// Wire error codes carried by error frames, so clients can map remote
// failures back to typed errors.
const (
	codeGeneric  = 1 // anything without a more specific classification
	codeMismatch = 2 // checkpoint/algorithm/shape mismatch on resume
	codeBadFrame = 3 // malformed or out-of-protocol frame
	codeShutdown = 4 // server is draining and rejects new work
)

// Wire limits: a frame payload is bounded so a corrupt length prefix cannot
// provoke a pathological allocation. An edges frame is additionally bounded
// by MaxBatch (defined by the lifecycle layer, whose per-session edge buffer
// is sized to it once at session creation; re-exported in serve.go).
//
// maxFramePayload bounds every frame payload. Generous enough for a
// MaxBatch edge frame of worst-case varints and for result frames of
// laptop-scale universes.
const maxFramePayload = 1 << 22

// Coalescing parameters. The read window lets one syscall surface several
// queued frames (a MaxBatch edge frame of planted-workload varints is a few
// KiB, so the server window drains ~a dozen frames per read); the write
// buffer seals frames back-to-back and ships them with one write. Sizes
// are validated by BenchmarkServeSessionsScaling — see DESIGN.md §4j.
const (
	clientReadWindow = 4 << 10  // acks are tiny; results are read once
	serverReadWindow = 64 << 10 // the ingest path: many edge frames per drain

	maxWriteQueueBytes = 64 << 10 // flush the write buffer past this size

	maxPooledBuf = 1 << 20 // pooled frameIOs drop buffers grown past this
)

// ErrWire is the family error for malformed SCWIRE1 traffic: bad magic, bad
// CRC, truncated or oversized frames, unknown frame types.
var ErrWire = errors.New("serve: wire protocol error")

// ErrRemote wraps a failure the server reported in an error frame.
var ErrRemote = errors.New("serve: remote error")

// ErrRemoteMismatch is the typed form of a code-mismatch error frame: the
// resume named a checkpoint written by a different algorithm or instance
// shape. It wraps ErrRemote.
var ErrRemoteMismatch = fmt.Errorf("%w: checkpoint mismatch", ErrRemote)

// ErrDraining is the typed form of a code-shutdown error frame: the server
// is shutting down and refused the session. It wraps both ErrRemote (for
// clients matching the remote-error family) and lifecycle.ErrDraining (the
// sentinel the session layer returns server-side), so errors.Is works on
// either side of the wire.
var ErrDraining = fmt.Errorf("%w: %w", ErrRemote, lifecycle.ErrDraining)

// frameIO reads and writes SCWIRE1 frames over one connection, reusing its
// buffers so steady-state frame traffic allocates nothing. Not safe for
// concurrent use; each endpoint owns one per connection side.
//
// Reads go through a sliding window so one syscall can surface several
// queued frames; writes seal frames back-to-back into one reusable buffer
// and, when coalescing is enabled, accumulate until a size threshold or
// the next read ships them as one write. readFrame always flushes the
// buffer first, so a request and its reply can never deadlock on unsent
// bytes.
type frameIO struct {
	rw io.ReadWriter

	// Read side: rbuf[rpos:rlen] holds bytes received but not yet consumed.
	rbuf    []byte
	rpos    int
	rlen    int
	rsize   int    // initial window size (0 picks clientReadWindow)
	armRead func() // called before each network read (deadline re-arming)

	// Write side: sealed frames accumulate back-to-back in wbuf and ship
	// as one plain write; out aliases wbuf's tail while a frame is under
	// construction (fstart marks where its length prefix begins).
	out      []byte
	wbuf     []byte
	fstart   int
	coalesce bool
	armWrite func() // called before each network write (deadline re-arming)
}

func newFrameIO(rw io.ReadWriter) *frameIO {
	return &frameIO{rw: rw, rsize: clientReadWindow}
}

// frameIOFree recycles frameIOs across connections so the read window and
// sealed-frame buffers survive and a fresh connection's frame traffic
// allocates nothing. It is a plain free-list rather than a sync.Pool: the
// warm buffers are the point, and sync.Pool drops its contents at every GC
// cycle — with session churn that showed up as steady-state allocation in
// the serving benchmarks. Retention is bounded by maxPooledIOs entries.
type frameIOFree struct {
	mu    sync.Mutex
	rsize int
	xs    []*frameIO
}

// maxPooledIOs bounds each free-list, so a connection spike does not pin
// its peak working set forever.
const maxPooledIOs = 256

var (
	serverFrameIOs = frameIOFree{rsize: serverReadWindow}
	clientFrameIOs = frameIOFree{rsize: clientReadWindow}
)

func (l *frameIOFree) get(rw io.ReadWriter) *frameIO {
	l.mu.Lock()
	var f *frameIO
	if n := len(l.xs); n > 0 {
		f = l.xs[n-1]
		l.xs[n-1] = nil
		l.xs = l.xs[:n-1]
	}
	l.mu.Unlock()
	if f == nil {
		f = &frameIO{rsize: l.rsize}
	}
	f.rw = rw
	f.coalesce = true
	return f
}

// put detaches the connection and recycles the buffers. The caller settles
// queued writes first: the server flushes (a pending reply must go out),
// the client drops (Close is the kill path and must not deliver more).
func (l *frameIOFree) put(f *frameIO) {
	f.rw = nil
	f.armRead, f.armWrite = nil, nil
	f.rpos, f.rlen = 0, 0
	f.out = nil
	f.wbuf = f.wbuf[:0]
	f.fstart = 0
	f.coalesce = false
	if cap(f.rbuf) > maxPooledBuf {
		f.rbuf = nil
	}
	if cap(f.wbuf) > maxPooledBuf {
		f.wbuf = nil
	}
	l.mu.Lock()
	if len(l.xs) < maxPooledIOs {
		l.xs = append(l.xs, f)
	}
	l.mu.Unlock()
}

func getFrameIO(rw io.ReadWriter) *frameIO { return serverFrameIOs.get(rw) }

// putFrameIO flushes anything still queued (best-effort: the connection may
// already be gone) and recycles the frameIO.
func putFrameIO(f *frameIO) {
	f.flushWrites()
	serverFrameIOs.put(f)
}

// refill compacts the window and reads more bytes from the connection. One
// refill typically surfaces several queued frames. When the window is full
// but the caller still needs more (a frame larger than the window), it
// grows toward the frame bound.
func (f *frameIO) refill() error {
	if f.rbuf == nil {
		size := f.rsize
		if size <= 0 {
			size = clientReadWindow
		}
		f.rbuf = make([]byte, size)
	}
	if f.rpos > 0 {
		f.rlen = copy(f.rbuf, f.rbuf[f.rpos:f.rlen])
		f.rpos = 0
	}
	if f.rlen == len(f.rbuf) {
		grown := make([]byte, min(2*len(f.rbuf), maxFramePayload+8))
		f.rlen = copy(grown, f.rbuf[:f.rlen])
		f.rbuf = grown
	}
	if f.armRead != nil {
		f.armRead()
	}
	n, err := f.rw.Read(f.rbuf[f.rlen:])
	f.rlen += n
	if n > 0 {
		return nil // surface err, if any, on the next refill
	}
	if err == nil {
		err = io.ErrNoProgress
	}
	return err
}

// readFrame reads one frame and returns its payload (type byte included).
// The returned slice aliases the read window and is only valid until the
// next readFrame call.
func (f *frameIO) readFrame() ([]byte, error) {
	// A reply queued behind coalesced writes must hit the wire before we
	// block on the peer: the read is the flush barrier.
	if err := f.flushWrites(); err != nil {
		return nil, err
	}
	for f.rlen-f.rpos < 4 {
		if err := f.refill(); err != nil {
			if f.rlen == f.rpos {
				return nil, err // clean frame boundary: caller classifies disconnects
			}
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	n := binary.LittleEndian.Uint32(f.rbuf[f.rpos:])
	if n == 0 || n > maxFramePayload {
		return nil, fmt.Errorf("%w: frame payload length %d", ErrWire, n)
	}
	need := 4 + int(n) + 4 // header + payload + CRC trailer
	for f.rlen-f.rpos < need {
		if err := f.refill(); err != nil {
			return nil, fmt.Errorf("%w: truncated frame: %v", ErrWire, err)
		}
	}
	body := f.rbuf[f.rpos+4 : f.rpos+need]
	f.rpos += need
	payload, trailer := body[:n], body[n:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(trailer) {
		return nil, fmt.Errorf("%w: frame checksum mismatch", ErrWire)
	}
	return payload, nil
}

// beginFrame starts a frame of the given type in the next reusable write
// buffer. Body bytes are appended by the append* helpers; endFrame seals
// (and, unless coalescing, sends) it.
func (f *frameIO) beginFrame(typ byte) {
	f.fstart = len(f.wbuf)
	f.out = append(f.wbuf, 0, 0, 0, 0, typ)
}

// endFrame back-fills the length prefix, appends the CRC trailer and queues
// the sealed frame. Without coalescing — or once the queue crosses its
// size/count thresholds — the queue is flushed immediately.
func (f *frameIO) endFrame() error {
	payload := f.out[f.fstart+4:]
	if len(payload) > maxFramePayload {
		f.out = nil // abandon the frame; wbuf still ends at fstart
		return fmt.Errorf("%w: frame payload %d exceeds limit", ErrWire, len(payload))
	}
	binary.LittleEndian.PutUint32(f.out[f.fstart:], uint32(len(payload)))
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], crc32.ChecksumIEEE(payload))
	f.wbuf = append(f.out, trailer[:]...)
	f.out = nil
	if !f.coalesce || len(f.wbuf) >= maxWriteQueueBytes {
		return f.flushWrites()
	}
	return nil
}

// queueRaw queues pre-encoded bytes (the connection magic) ahead of the
// next flush, so the magic and the first frame share one write.
func (f *frameIO) queueRaw(b []byte) {
	f.wbuf = append(f.wbuf, b...)
}

// flushWrites ships every sealed frame accumulated in the write buffer as
// one write.
func (f *frameIO) flushWrites() error {
	if len(f.wbuf) == 0 {
		return nil
	}
	if f.armWrite != nil {
		f.armWrite()
	}
	_, err := f.rw.Write(f.wbuf)
	f.wbuf = f.wbuf[:0]
	return err
}

// appendUvarint is binary.AppendUvarint without the per-value stack
// spill: the bulk encoders below call it once per field.
func appendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func (f *frameIO) appendU64(v uint64) { f.out = appendUvarint(f.out, v) }

func (f *frameIO) appendI64(v int64) { f.out = binary.AppendVarint(f.out, v) }

func (f *frameIO) appendString(s string) {
	f.appendU64(uint64(len(s)))
	f.out = append(f.out, s...)
}

func (f *frameIO) appendF64(v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	f.out = append(f.out, b[:]...)
}

// cursor decodes a frame payload in place. Like snap.Reader it latches the
// first error so call sites decode whole frames without per-field plumbing.
type cursor struct {
	b   []byte
	err error
}

func (c *cursor) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

func (c *cursor) u64() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b)
	if n <= 0 {
		c.fail("%w: truncated varint", ErrWire)
		return 0
	}
	c.b = c.b[n:]
	return v
}

func (c *cursor) i64() int64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Varint(c.b)
	if n <= 0 {
		c.fail("%w: truncated varint", ErrWire)
		return 0
	}
	c.b = c.b[n:]
	return v
}

func (c *cursor) str() string { return c.strEcho("") }

// strEcho decodes a length-prefixed string, returning prev — without
// allocating — when the bytes match it. Acks echo a token the peer already
// holds, so the steady-state reattach path decodes it for free.
func (c *cursor) strEcho(prev string) string {
	n := c.u64()
	if c.err != nil {
		return ""
	}
	if n > uint64(len(c.b)) {
		c.fail("%w: string length %d exceeds frame", ErrWire, n)
		return ""
	}
	b := c.b[:n]
	c.b = c.b[n:]
	if prev != "" && string(b) == prev { // compiles to an alloc-free compare
		return prev
	}
	return string(b)
}

func (c *cursor) f64() float64 {
	if c.err != nil {
		return 0
	}
	if len(c.b) < 8 {
		c.fail("%w: truncated float", ErrWire)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(c.b))
	c.b = c.b[8:]
	return v
}

// raw consumes exactly n bytes of the payload.
func (c *cursor) raw(n int) []byte {
	if c.err != nil {
		return nil
	}
	if len(c.b) < n {
		c.fail("%w: %d raw bytes exceed frame", ErrWire, n)
		return nil
	}
	b := c.b[:n]
	c.b = c.b[n:]
	return b
}

// done fails unless the payload was consumed exactly.
func (c *cursor) done() error {
	if c.err == nil && len(c.b) != 0 {
		c.fail("%w: %d trailing bytes in frame", ErrWire, len(c.b))
	}
	return c.err
}

// writeHello sends a hello (or resume, per typ) frame carrying the session
// token, the client's trace ID (version 2 only) and the full session
// configuration. ver selects the handshake version; the current client
// always speaks protoV2, protoV1 exists for compatibility tests.
func (f *frameIO) writeHello(typ byte, ver int, token string, trace obs.TraceID, cfg Config) error {
	if ver < protoV1 || ver > protoV2 {
		return fmt.Errorf("%w: protocol version %d", ErrWire, ver)
	}
	f.beginFrame(typ)
	f.appendU64(uint64(ver))
	f.appendString(token)
	if ver >= protoV2 {
		f.out = append(f.out, trace[:]...)
	}
	f.appendString(cfg.Algo)
	f.appendU64(uint64(cfg.N))
	f.appendU64(uint64(cfg.M))
	f.appendU64(uint64(cfg.StreamLen))
	f.appendU64(cfg.Seed)
	f.appendU64(uint64(cfg.Copies))
	f.appendF64(cfg.Alpha)
	return f.endFrame()
}

// parseHello decodes a hello/resume body (the type byte already stripped),
// accepting both handshake versions. A v1 body has no trace field and
// reports the zero trace; the returned version tells the server which reply
// format the client understands.
func parseHello(body []byte) (token string, trace obs.TraceID, ver int, cfg Config, err error) {
	c := cursor{b: body}
	v := c.u64()
	if c.err == nil && (v < protoV1 || v > protoV2) {
		return "", trace, 0, Config{}, fmt.Errorf("%w: protocol version %d", ErrWire, v)
	}
	ver = int(v)
	token = c.str()
	if ver >= protoV2 {
		copy(trace[:], c.raw(obs.TraceIDLen))
	}
	cfg.Algo = c.str()
	cfg.N = int(c.u64())
	cfg.M = int(c.u64())
	cfg.StreamLen = int(c.u64())
	cfg.Seed = c.u64()
	cfg.Copies = int(c.u64())
	cfg.Alpha = c.f64()
	return token, trace, ver, cfg, c.done()
}

// writeEdges sends one edge batch using the SCSTRM1 varint edge encoding
// (uvarint set, uvarint elem per edge), encoded in one bulk append pass.
func (f *frameIO) writeEdges(edges []stream.Edge) error {
	if len(edges) == 0 || len(edges) > MaxBatch {
		return fmt.Errorf("%w: edge batch of %d (limit %d)", ErrWire, len(edges), MaxBatch)
	}
	f.beginFrame(frameEdges)
	out := appendUvarint(f.out, uint64(len(edges)))
	for _, e := range edges {
		out = appendUvarint(out, uint64(e.Set))
		out = appendUvarint(out, uint64(e.Elem))
	}
	f.out = out
	return f.endFrame()
}

// parseEdgesInto decodes an edges body into dst, validating the count
// against the session buffer's capacity and every edge against the session
// shape. It returns the number of edges decoded.
//
// stream.DecodeEdges, the edge kernel shared with stream files, decodes the
// bulk of the body. The loop below takes over at the edge it stops at (one
// that is malformed, out of range, or within a maximal edge of the frame's
// end) and words the error. TestParseEdgesMatchesReference pins the result
// to the per-edge binary.Uvarint reference.
func parseEdgesInto(body []byte, dst []stream.Edge, n, m int) (int, error) {
	k, sz := binary.Uvarint(body)
	if sz <= 0 {
		return 0, fmt.Errorf("%w: truncated varint", ErrWire)
	}
	if k == 0 || k > uint64(len(dst)) {
		return 0, fmt.Errorf("%w: edge batch of %d (limit %d)", ErrWire, k, len(dst))
	}
	b := body[sz:]
	um, un := uint64(m), uint64(n)
	i, pos := stream.DecodeEdges(b, dst[:k], n, m)
	for ; i < int(k); i++ {
		s, w := binary.Uvarint(b[pos:])
		if w <= 0 {
			return 0, fmt.Errorf("%w: truncated varint", ErrWire)
		}
		pos += w
		u, w2 := binary.Uvarint(b[pos:])
		if w2 <= 0 {
			return 0, fmt.Errorf("%w: truncated varint", ErrWire)
		}
		pos += w2
		if s >= um || u >= un {
			return 0, fmt.Errorf("%w: edge (%d,%d) out of range for n=%d m=%d", ErrWire, s, u, n, m)
		}
		dst[i] = stream.Edge{Set: setcover.SetID(s), Elem: setcover.Element(u)}
	}
	if pos != len(b) {
		return 0, fmt.Errorf("%w: %d trailing bytes in frame", ErrWire, len(b)-pos)
	}
	return int(k), nil
}

// writeFlush, writeDetach and writeFinish send the body-less control
// frames.
func (f *frameIO) writeFlush() error  { f.beginFrame(frameFlush); return f.endFrame() }
func (f *frameIO) writeDetach() error { f.beginFrame(frameDetach); return f.endFrame() }
func (f *frameIO) writeFinish() error { f.beginFrame(frameFinish); return f.endFrame() }

// writeHelloAck acknowledges a hello/resume with the session token, the
// stream position the client must (re)start from and — when trace is
// non-zero, i.e. the client spoke protoV2 — the session's authoritative
// trace ID. v1 clients get the classic two-field ack; their cursor rejects
// trailing bytes, so the trace must never be sent to them.
func (f *frameIO) writeHelloAck(token string, pos int, trace obs.TraceID) error {
	f.beginFrame(frameHelloAck)
	f.appendString(token)
	f.appendU64(uint64(pos))
	if !trace.IsZero() {
		f.out = append(f.out, trace[:]...)
	}
	return f.endFrame()
}

// parseHelloAck accepts both ack formats: the v1 two-field body and the v2
// body with 16 trailing trace bytes, so a new client interoperates with an
// old server's ack. want is the token the client asked for ("" when the
// server mints one); an echo of it decodes without allocating.
func parseHelloAck(body []byte, want string) (token string, pos int, trace obs.TraceID, err error) {
	c := cursor{b: body}
	token = c.strEcho(want)
	pos = int(c.u64())
	if c.err == nil && len(c.b) == obs.TraceIDLen {
		copy(trace[:], c.raw(obs.TraceIDLen))
	}
	return token, pos, trace, c.done()
}

// writePosAck acknowledges a flush/detach at the given consumed position.
func (f *frameIO) writePosAck(pos int) error {
	f.beginFrame(framePosAck)
	f.appendU64(uint64(pos))
	return f.endFrame()
}

func parsePosAck(body []byte) (int, error) {
	c := cursor{b: body}
	pos := int(c.u64())
	return pos, c.done()
}

// writeResult sends a result frame carrying a lifecycle.Result. Certificate entries use signed varints
// so NoSet (-1) round-trips.
func (f *frameIO) writeResult(res Result) error {
	f.beginFrame(frameResult)
	f.appendU64(uint64(res.Edges))
	f.appendU64(uint64(len(res.Cover.Sets)))
	for _, s := range res.Cover.Sets {
		f.appendI64(int64(s))
	}
	f.appendU64(uint64(len(res.Cover.Certificate)))
	for _, s := range res.Cover.Certificate {
		f.appendI64(int64(s))
	}
	f.appendI64(res.Space.State)
	f.appendI64(res.Space.Aux)
	return f.endFrame()
}

func parseResult(body []byte) (Result, error) {
	c := cursor{b: body}
	var res Result
	res.Edges = int(c.u64())
	ns := c.u64()
	if c.err != nil {
		return res, c.err
	}
	if ns > uint64(len(c.b)) { // every entry takes ≥ 1 byte
		return res, fmt.Errorf("%w: %d cover sets exceed frame", ErrWire, ns)
	}
	sets := make([]setcover.SetID, ns)
	for i := range sets {
		sets[i] = setcover.SetID(c.i64())
	}
	nc := c.u64()
	if c.err != nil {
		return res, c.err
	}
	if nc > uint64(len(c.b)) {
		return res, fmt.Errorf("%w: certificate of %d exceeds frame", ErrWire, nc)
	}
	cert := make([]setcover.SetID, nc)
	for i := range cert {
		cert[i] = setcover.SetID(c.i64())
	}
	res.Cover = &setcover.Cover{Sets: sets, Certificate: cert}
	res.Space.State = c.i64()
	res.Space.Aux = c.i64()
	return res, c.done()
}

// writeError reports a failure to the peer.
func (f *frameIO) writeError(code byte, msg string) error {
	f.beginFrame(frameError)
	f.out = append(f.out, code)
	f.appendString(msg)
	return f.endFrame()
}

// parseError turns an error body into a typed Go error.
func parseError(body []byte) error {
	if len(body) < 1 {
		return fmt.Errorf("%w: empty error frame", ErrWire)
	}
	c := cursor{b: body[1:]}
	msg := c.str()
	if err := c.done(); err != nil {
		return err
	}
	switch body[0] {
	case codeMismatch:
		return fmt.Errorf("%w: %s", ErrRemoteMismatch, msg)
	case codeShutdown:
		return fmt.Errorf("%w: %s", ErrDraining, msg)
	default:
		return fmt.Errorf("%w: %s", ErrRemote, msg)
	}
}
