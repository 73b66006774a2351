package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"time"
)

// SCSTOR1 is the cluster checkpoint-store protocol: the same length-
// prefixed CRC-32-guarded framing discipline as SCWIRE1, carrying the four
// CheckpointStore verbs (plus Reserve) over TCP so every shard in a
// cluster reaches one shared store. A connection opens with the magic,
// then strictly alternates request and reply frames:
//
//	frame   := u32le(len(payload)) payload u32le(crc32(payload))
//	request := op token-fields...
//	reply   := repOK body... | repErr code uvarint(len) msg
//
// The blob bytes inside put/get frames are the SCCKPT1 envelope verbatim —
// the store moves opaque bytes, exactly like FileStore and MemStore, which
// is what lets any shard adopt any session's checkpoint: composing the
// store behind the wire changes nothing the lifecycle layer can observe.

// StoreMagic opens every SCSTOR1 connection.
const StoreMagic = "SCSTOR1\n"

// SCSTOR1 request ops and reply types.
const (
	opPut     = 0x01 // token, blob -> repOK uvarint(bytes written)
	opGet     = 0x02 // token -> repOK blob
	opDelete  = 0x03 // token -> repOK
	opList    = 0x04 // -> repOK uvarint(count) tokens...
	opReserve = 0x05 // token -> repOK bool byte (1 = reserved)

	repOK  = 0x81
	repErr = 0x82
)

// SCSTOR1 error codes, so typed errors survive the wire.
const (
	storeErrGeneric  = 1
	storeErrNotFound = 2 // maps back to ErrNotFound
	storeErrToken    = 3 // invalid token
)

// maxStoreFrame bounds one SCSTOR1 frame payload. Checkpoints of
// laptop-scale instances are KiBs; 64 MiB leaves room for very large
// universes while keeping a corrupt length prefix harmless.
const maxStoreFrame = 64 << 20

// ErrStoreWire reports malformed SCSTOR1 traffic: bad magic, bad CRC,
// truncated or oversized frames, unknown ops.
var ErrStoreWire = errors.New("store: cluster wire protocol error")

// readStoreFrame reads one SCSTOR1 frame payload from r into (a possibly
// grown) buf, returning the payload slice.
func readStoreFrame(r io.Reader, buf []byte) ([]byte, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, buf, err // clean boundary: caller classifies EOF
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 || n > maxStoreFrame {
		return nil, buf, fmt.Errorf("%w: frame payload length %d", ErrStoreWire, n)
	}
	need := int(n) + 4
	if cap(buf) < need {
		buf = make([]byte, need)
	}
	body := buf[:need]
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, buf, fmt.Errorf("%w: truncated frame: %v", ErrStoreWire, err)
	}
	payload, trailer := body[:n], body[n:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(trailer) {
		return nil, buf, fmt.Errorf("%w: frame checksum mismatch", ErrStoreWire)
	}
	return payload, buf, nil
}

// writeStoreFrame seals payload into a frame and writes it with one Write.
func writeStoreFrame(w io.Writer, scratch, payload []byte) ([]byte, error) {
	need := 4 + len(payload) + 4
	if cap(scratch) < need {
		scratch = make([]byte, 0, need)
	}
	b := scratch[:0]
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = append(b, payload...)
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	_, err := w.Write(b)
	return b, err
}

// appendToken appends a length-prefixed token.
func appendToken(b []byte, token string) []byte {
	b = binary.AppendUvarint(b, uint64(len(token)))
	return append(b, token...)
}

// storeCursor decodes one SCSTOR1 payload, latching the first error.
type storeCursor struct {
	b   []byte
	err error
}

func (c *storeCursor) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

func (c *storeCursor) u64() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b)
	if n <= 0 {
		c.fail("%w: truncated varint", ErrStoreWire)
		return 0
	}
	c.b = c.b[n:]
	return v
}

func (c *storeCursor) str() string {
	n := c.u64()
	if c.err != nil {
		return ""
	}
	if n > uint64(len(c.b)) {
		c.fail("%w: string length %d exceeds frame", ErrStoreWire, n)
		return ""
	}
	s := string(c.b[:n])
	c.b = c.b[n:]
	return s
}

func (c *storeCursor) rest() []byte {
	b := c.b
	c.b = nil
	return b
}

func (c *storeCursor) done() error {
	if c.err == nil && len(c.b) != 0 {
		c.fail("%w: %d trailing bytes in frame", ErrStoreWire, len(c.b))
	}
	return c.err
}

// StoreServer exposes a backing CheckpointStore over SCSTOR1 so every
// shard in a cluster shares it. The server is pure plumbing: requests
// apply verbatim to the backing store (whose own atomicity and
// concurrency contract — pinned by TestStoreConformance — carries the
// cluster's torn-blob guarantees), one goroutine per connection.
type StoreServer struct {
	backing CheckpointStore

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewStoreServer wraps backing for network service.
func NewStoreServer(backing CheckpointStore) (*StoreServer, error) {
	if backing == nil {
		return nil, errors.New("store: cluster server needs a backing store")
	}
	return &StoreServer{backing: backing, conns: make(map[net.Conn]struct{})}, nil
}

// Listen binds addr (":0" picks a free port, readable from Addr).
func (s *StoreServer) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	return nil
}

// Addr reports the bound listen address ("" before Listen).
func (s *StoreServer) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Serve accepts connections until Close. It returns nil on clean close.
func (s *StoreServer) Serve() error {
	s.mu.Lock()
	ln := s.ln
	s.mu.Unlock()
	if ln == nil {
		return errors.New("store: cluster server: Serve before Listen")
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close stops accepting, severs open connections and waits for handlers.
// In-flight requests against the backing store complete first, so a Put
// the client saw acknowledged is durably in the backing store.
func (s *StoreServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	if s.ln != nil {
		s.ln.Close()
	}
	for conn := range s.conns {
		conn.SetReadDeadline(time.Now()) // wake blocked readers
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// handle runs one connection's request loop.
func (s *StoreServer) handle(conn net.Conn) {
	defer conn.Close()
	var magic [len(StoreMagic)]byte
	if _, err := io.ReadFull(conn, magic[:]); err != nil || string(magic[:]) != StoreMagic {
		return
	}
	var rbuf, wbuf, reply []byte
	for {
		payload, buf, err := readStoreFrame(conn, rbuf)
		rbuf = buf
		if err != nil {
			return // disconnect or corruption: the client redials
		}
		reply = s.apply(reply[:0], payload)
		wbuf, err = writeStoreFrame(conn, wbuf, reply)
		if err != nil {
			return
		}
	}
}

// apply executes one request payload against the backing store, appending
// the reply payload to out.
func (s *StoreServer) apply(out, req []byte) []byte {
	if len(req) == 0 {
		return appendStoreErr(out, storeErrGeneric, "empty request")
	}
	c := storeCursor{b: req[1:]}
	switch req[0] {
	case opPut:
		token := c.str()
		blob := c.rest()
		if c.err != nil {
			return appendStoreErr(out, storeErrGeneric, c.err.Error())
		}
		n, err := s.backing.Put(token, blob)
		if err != nil {
			return appendStoreErrFrom(out, err)
		}
		out = append(out, repOK)
		return binary.AppendUvarint(out, uint64(n))
	case opGet:
		token := c.str()
		if err := c.done(); err != nil {
			return appendStoreErr(out, storeErrGeneric, err.Error())
		}
		blob, err := s.backing.Get(token)
		if err != nil {
			return appendStoreErrFrom(out, err)
		}
		out = append(out, repOK)
		return append(out, blob...)
	case opDelete:
		token := c.str()
		if err := c.done(); err != nil {
			return appendStoreErr(out, storeErrGeneric, err.Error())
		}
		if err := s.backing.Delete(token); err != nil {
			return appendStoreErrFrom(out, err)
		}
		return append(out, repOK)
	case opList:
		if err := c.done(); err != nil {
			return appendStoreErr(out, storeErrGeneric, err.Error())
		}
		tokens, err := s.backing.List()
		if err != nil {
			return appendStoreErrFrom(out, err)
		}
		out = append(out, repOK)
		out = binary.AppendUvarint(out, uint64(len(tokens)))
		for _, t := range tokens {
			out = appendToken(out, t)
		}
		return out
	case opReserve:
		token := c.str()
		if err := c.done(); err != nil {
			return appendStoreErr(out, storeErrGeneric, err.Error())
		}
		ok, err := reserveOn(s.backing, token)
		if err != nil {
			return appendStoreErrFrom(out, err)
		}
		out = append(out, repOK)
		if ok {
			return append(out, 1)
		}
		return append(out, 0)
	default:
		return appendStoreErr(out, storeErrGeneric, fmt.Sprintf("unknown op 0x%02x", req[0]))
	}
}

// reserveOn reserves token on st, preferring its native atomic Reserve.
// A backing without one falls back to Get-then-Put — adequate only
// because the server is then the single writer of that backing.
func reserveOn(st CheckpointStore, token string) (bool, error) {
	if r, ok := st.(Reserver); ok {
		return r.Reserve(token)
	}
	if _, err := st.Get(token); err == nil {
		return false, nil
	} else if !errors.Is(err, ErrNotFound) {
		return false, err
	}
	if _, err := st.Put(token, MintMarker()); err != nil {
		return false, err
	}
	return true, nil
}

// appendStoreErr appends a repErr payload.
func appendStoreErr(out []byte, code byte, msg string) []byte {
	out = append(out, repErr, code)
	return appendToken(out, msg)
}

// appendStoreErrFrom classifies a backing-store error into a wire code so
// the typed errors the lifecycle layer matches on survive the hop.
func appendStoreErrFrom(out []byte, err error) []byte {
	code := byte(storeErrGeneric)
	switch {
	case errors.Is(err, ErrNotFound):
		code = storeErrNotFound
	case errors.Is(err, errInvalidToken):
		code = storeErrToken
	}
	return appendStoreErr(out, code, err.Error())
}

// ClusterStore is the CheckpointStore every shard in a cluster shares: a
// client for a StoreServer. Calls are request/reply over pooled
// connections — concurrent callers each grab an idle connection (or dial
// a fresh one), so the lifecycle manager's concurrent detach/resume
// traffic does not serialize. A call that hits a dead pooled connection
// redials once before failing, so a restarted store server is transparent.
//
// Like every CheckpointStore, it moves opaque blobs: Get hands back a
// fresh slice, Put never retains the caller's, and the torn-blob guarantee
// is inherited from the backing store behind the server plus the per-frame
// CRC on the wire.
type ClusterStore struct {
	addr    string
	timeout time.Duration

	mu   sync.Mutex
	idle []*storeConn
}

// storeConn is one pooled SCSTOR1 connection with its reusable buffers.
type storeConn struct {
	conn net.Conn
	rbuf []byte
	wbuf []byte
	req  []byte
}

// DefaultStoreTimeout bounds each SCSTOR1 round trip when the caller does
// not choose one.
const DefaultStoreTimeout = 30 * time.Second

// maxIdleStoreConns bounds the pool so a detach burst does not pin its
// peak connection count forever.
const maxIdleStoreConns = 16

// NewClusterStore returns a store client for the SCSTOR1 server at addr.
// timeout bounds each round trip (0 picks DefaultStoreTimeout). No
// connection is made until the first call, so a shard may start before
// its store.
func NewClusterStore(addr string, timeout time.Duration) *ClusterStore {
	if timeout <= 0 {
		timeout = DefaultStoreTimeout
	}
	return &ClusterStore{addr: addr, timeout: timeout}
}

// String names the backend in wide events and banners.
func (s *ClusterStore) String() string { return "cluster" }

// Addr reports the store server address this client targets.
func (s *ClusterStore) Addr() string { return s.addr }

// get returns an idle pooled connection or dials a fresh one.
func (s *ClusterStore) get() (*storeConn, error) {
	s.mu.Lock()
	if n := len(s.idle); n > 0 {
		c := s.idle[n-1]
		s.idle[n-1] = nil
		s.idle = s.idle[:n-1]
		s.mu.Unlock()
		return c, nil
	}
	s.mu.Unlock()
	conn, err := net.DialTimeout("tcp", s.addr, s.timeout)
	if err != nil {
		return nil, fmt.Errorf("store: cluster dial %s: %w", s.addr, err)
	}
	sc := &storeConn{conn: conn}
	if err := conn.SetWriteDeadline(time.Now().Add(s.timeout)); err == nil {
		if _, err := conn.Write([]byte(StoreMagic)); err != nil {
			conn.Close()
			return nil, fmt.Errorf("store: cluster handshake: %w", err)
		}
	}
	return sc, nil
}

// put returns a connection to the idle pool after a clean round trip.
func (s *ClusterStore) put(c *storeConn) {
	s.mu.Lock()
	if len(s.idle) < maxIdleStoreConns {
		s.idle = append(s.idle, c)
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	c.conn.Close()
}

// Close drops every pooled connection. Calls after Close dial fresh ones.
func (s *ClusterStore) Close() error {
	s.mu.Lock()
	idle := s.idle
	s.idle = nil
	s.mu.Unlock()
	for _, c := range idle {
		c.conn.Close()
	}
	return nil
}

// roundTrip sends one request payload and hands the reply's OK body to
// decode, retrying once on a fresh connection if a pooled one turned out
// dead (the server restarted, or an idle timeout severed it). The body
// aliases the connection's read buffer, so decode runs — and copies what
// it keeps — before the connection returns to the pool, where a concurrent
// round trip would overwrite it.
func (s *ClusterStore) roundTrip(build func(req []byte) []byte, decode func(body []byte) error) error {
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		c, err := s.get()
		if err != nil {
			return err
		}
		reply, err := s.exchange(c, build)
		if err == nil {
			body, err := decodeReply(reply)
			if err == nil {
				err = decode(body)
			}
			s.put(c)
			return err
		}
		c.conn.Close()
		lastErr = err
		// A protocol-level failure (bad CRC, oversized frame) will not
		// heal on a redial; only transport errors are retried.
		if errors.Is(err, ErrStoreWire) {
			break
		}
	}
	return fmt.Errorf("store: cluster %s: %w", s.addr, lastErr)
}

// exchange performs one framed request/reply on c.
func (s *ClusterStore) exchange(c *storeConn, build func(req []byte) []byte) ([]byte, error) {
	c.req = build(c.req[:0])
	deadline := time.Now().Add(s.timeout)
	if err := c.conn.SetDeadline(deadline); err != nil {
		return nil, err
	}
	var err error
	c.wbuf, err = writeStoreFrame(c.conn, c.wbuf, c.req)
	if err != nil {
		return nil, err
	}
	payload, rbuf, err := readStoreFrame(c.conn, c.rbuf)
	c.rbuf = rbuf
	if err != nil {
		return nil, err
	}
	// The payload aliases the pooled read buffer; roundTrip decodes it
	// before the connection is reused.
	return payload, nil
}

// decodeReply splits a reply payload into its OK body or a typed error.
func decodeReply(payload []byte) ([]byte, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("%w: empty reply", ErrStoreWire)
	}
	switch payload[0] {
	case repOK:
		return payload[1:], nil
	case repErr:
		c := storeCursor{b: payload[1:]}
		if len(c.b) < 1 {
			return nil, fmt.Errorf("%w: truncated error reply", ErrStoreWire)
		}
		code := c.b[0]
		c.b = c.b[1:]
		msg := c.str()
		if err := c.done(); err != nil {
			return nil, err
		}
		switch code {
		case storeErrNotFound:
			return nil, fmt.Errorf("%w: %s", ErrNotFound, msg)
		case storeErrToken:
			return nil, fmt.Errorf("store: %s", msg)
		default:
			return nil, fmt.Errorf("store: cluster: %s", msg)
		}
	default:
		return nil, fmt.Errorf("%w: unknown reply 0x%02x", ErrStoreWire, payload[0])
	}
}

// Put stores data under token on the shared store and returns the bytes
// written there.
func (s *ClusterStore) Put(token string, data []byte) (int, error) {
	if err := checkToken(token); err != nil {
		return 0, err
	}
	var n int
	err := s.roundTrip(func(req []byte) []byte {
		req = append(req, opPut)
		req = appendToken(req, token)
		return append(req, data...)
	}, func(body []byte) error {
		v, w := binary.Uvarint(body)
		if w <= 0 || w != len(body) {
			return fmt.Errorf("%w: malformed put reply", ErrStoreWire)
		}
		n = int(v)
		return nil
	})
	return n, err
}

// Get returns a copy of token's checkpoint from the shared store, or
// ErrNotFound.
func (s *ClusterStore) Get(token string) ([]byte, error) {
	if err := checkToken(token); err != nil {
		return nil, err
	}
	var out []byte
	err := s.roundTrip(func(req []byte) []byte {
		req = append(req, opGet)
		return appendToken(req, token)
	}, func(body []byte) error {
		out = make([]byte, len(body))
		copy(out, body)
		return nil
	})
	return out, err
}

// Delete removes token's checkpoint from the shared store, or returns
// ErrNotFound.
func (s *ClusterStore) Delete(token string) error {
	if err := checkToken(token); err != nil {
		return err
	}
	return s.roundTrip(func(req []byte) []byte {
		req = append(req, opDelete)
		return appendToken(req, token)
	}, func(body []byte) error {
		if len(body) != 0 {
			return fmt.Errorf("%w: malformed delete reply", ErrStoreWire)
		}
		return nil
	})
}

// List returns every token holding a checkpoint on the shared store,
// sorted (the server lists its backing store, which sorts).
func (s *ClusterStore) List() ([]string, error) {
	var tokens []string
	err := s.roundTrip(func(req []byte) []byte {
		return append(req, opList)
	}, func(body []byte) error {
		c := storeCursor{b: body}
		n := c.u64()
		if c.err != nil {
			return c.err
		}
		if n > uint64(len(c.b)) { // every token takes >= 1 byte
			return fmt.Errorf("%w: %d tokens exceed frame", ErrStoreWire, n)
		}
		tokens = make([]string, 0, n)
		for i := uint64(0); i < n; i++ {
			tokens = append(tokens, c.str()) // str copies out of the buffer
		}
		return c.done()
	})
	if err != nil {
		return nil, err
	}
	return tokens, nil
}

// Reserve atomically claims token on the shared store if no checkpoint
// exists there — the cluster-wide mint guard. Atomicity holds because the
// server applies it on the backing store's native Reserve.
func (s *ClusterStore) Reserve(token string) (bool, error) {
	if err := checkToken(token); err != nil {
		return false, err
	}
	var won bool
	err := s.roundTrip(func(req []byte) []byte {
		req = append(req, opReserve)
		return appendToken(req, token)
	}, func(body []byte) error {
		if len(body) != 1 || body[0] > 1 {
			return fmt.Errorf("%w: malformed reserve reply", ErrStoreWire)
		}
		won = body[0] == 1
		return nil
	})
	return won, err
}
