package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"time"

	"streamcover/internal/obs"
	"streamcover/internal/serve"
	"streamcover/internal/serve/lifecycle"
)

// The load generator replays SCWIRE1 bytes recorded once from the real
// serve.Client, so the per-edge encode cost stays off the measured path and
// only the server does per-edge work. It needs to know the frame envelope
// (u32 little-endian payload length, payload, u32 CRC-32 of the payload) and
// these frame type bytes, which are part of the stable wire format.
const (
	frameResume   = 0x05
	frameHelloAck = 0x81
	framePosAck   = 0x82
	frameResult   = 0x83
	frameError    = 0x84
)

// sessionTimeout bounds every replayed session; a session that hits it
// counts as failed.
const sessionTimeout = 60 * time.Second

// script is one algorithm's recorded client traffic for the workload
// stream, cut into the pieces the session shapes replay.
type script struct {
	hello       []byte // magic + hello frame with an empty token and a zero trace
	edges       []byte // the edge frames of the whole stream
	finish      []byte // finish frame
	firstHalf   []byte // the edge frames of [0, half)
	flush       []byte // flush frame
	detach      []byte // detach frame
	resumeHead  []byte // resume payload before the token: type and version
	resumeTail  []byte // resume payload after the token: trace and config
	secondHalf  []byte // the edge frames of [half, end)
	result      []byte // the result frame payload, verified against the reference
	half        int
	edgeCount   int
	longFrames  int // frames sent by a hello-stream-finish session
	splitBytes  int // bytes sent by a hello-half-detach-resume-half-finish session
	splitFrames int // frames sent by that session
}

// tap is a recording loopback proxy: it forwards each accepted connection
// to upstream and keeps both directions' bytes.
type tap struct {
	ln       net.Listener
	upstream string
	wg       sync.WaitGroup
	mu       sync.Mutex
	conns    [][2]*bytes.Buffer // per connection: client→server, server→client
}

func newTap(upstream string) (*tap, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	t := &tap{ln: ln, upstream: upstream}
	t.wg.Add(1)
	go t.accept()
	return t, nil
}

func (t *tap) accept() {
	defer t.wg.Done()
	for {
		down, err := t.ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", t.upstream)
		if err != nil {
			down.Close()
			continue
		}
		rec := [2]*bytes.Buffer{{}, {}}
		t.mu.Lock()
		t.conns = append(t.conns, rec)
		t.mu.Unlock()
		t.wg.Add(2)
		go t.pipe(up, down, rec[0])
		go t.pipe(down, up, rec[1])
	}
}

// pipe copies src to dst, recording, then half-closes dst so the peer sees
// the end of the stream.
func (t *tap) pipe(dst, src net.Conn, rec *bytes.Buffer) {
	defer t.wg.Done()
	io.Copy(io.MultiWriter(dst, rec), src)
	if tc, ok := dst.(*net.TCPConn); ok {
		tc.CloseWrite()
	} else {
		dst.Close()
	}
}

// close stops the tap and waits until every recorded connection has ended.
func (t *tap) close() [][2]*bytes.Buffer {
	t.ln.Close()
	t.wg.Wait()
	return t.conns
}

// record drives the real serve.Client through the tap against the server at
// addr, once as an uninterrupted session and once split by a detach and a
// resume, checks both results against the reference, and cuts the recorded
// bytes into a script.
func record(in *instance, a int, addr string) (*script, error) {
	t, err := newTap(addr)
	if err != nil {
		return nil, err
	}
	sessErr := recordSessions(in, a, t.ln.Addr().String())
	conns := t.close()
	if sessErr != nil {
		return nil, sessErr
	}
	if len(conns) != 3 {
		return nil, fmt.Errorf("recorded %d connections, want 3", len(conns))
	}
	var fr [3][2][][]byte
	for i, c := range conns {
		for dir, buf := range c {
			raw := buf.Bytes()
			if dir == 0 {
				if !bytes.HasPrefix(raw, []byte(serve.Magic)) {
					return nil, errors.New("recorded connection does not open with the protocol magic")
				}
				raw = raw[len(serve.Magic):]
			}
			if fr[i][dir], err = splitFrames(raw); err != nil {
				return nil, err
			}
		}
	}
	long, leg1, leg2 := fr[0][0], fr[1][0], fr[2][0]
	if len(long) < 3 || len(leg1) < 4 || len(leg2) < 3 || len(fr[0][1]) != 2 || len(fr[2][1]) != 2 {
		return nil, errors.New("recorded sessions have an unexpected frame layout")
	}
	s := &script{half: in.half, edgeCount: len(in.edges)}
	s.hello = append([]byte(serve.Magic), long[0]...)
	s.edges = bytes.Join(long[1:len(long)-1], nil)
	s.finish = long[len(long)-1]
	s.firstHalf = bytes.Join(leg1[1:len(leg1)-2], nil)
	s.flush, s.detach = leg1[len(leg1)-2], leg1[len(leg1)-1]
	s.secondHalf = bytes.Join(leg2[1:len(leg2)-1], nil)
	s.result = payload(fr[0][1][1])
	if !bytes.Equal(s.result, payload(fr[2][1][1])) || s.result[0] != frameResult {
		return nil, errors.New("resumed and uninterrupted recordings returned different result frames")
	}
	rp := payload(leg2[0])
	if rp[0] != frameResume {
		return nil, errors.New("second leg does not open with a resume frame")
	}
	_, w := binary.Uvarint(rp[1:])
	tl, w2 := binary.Uvarint(rp[1+w:])
	if w <= 0 || w2 <= 0 {
		return nil, errors.New("malformed recorded resume frame")
	}
	s.resumeHead = rp[:1+w]
	s.resumeTail = rp[1+w+w2+int(tl):]
	s.longFrames = len(long)
	s.splitFrames = len(leg1) - 1 + len(leg2) // the replay skips the flush frame
	s.splitBytes = len(s.hello) + len(s.firstHalf) + len(s.detach) +
		len(s.resumeFrame("s000000")) + len(s.secondHalf) + len(s.finish)
	return s, nil
}

// recordSessions runs the two recorded sessions with the real client.
func recordSessions(in *instance, a int, addr string) error {
	cfg := in.cfgs[a]
	fd := serve.Feeder{Edges: in.edges, Batch: lifecycle.MaxBatch}
	c, err := serve.Dial(addr)
	if err != nil {
		return err
	}
	c.Timeout = sessionTimeout
	if _, err := c.Hello("", cfg); err != nil {
		c.Close()
		return err
	}
	res, err := fd.Run(c)
	c.Close()
	if err != nil {
		return err
	}
	if err := in.check(a, res); err != nil {
		return fmt.Errorf("recorded session: %w", err)
	}

	c, err = serve.Dial(addr)
	if err != nil {
		return err
	}
	c.Timeout = sessionTimeout
	tok, err := c.Hello("", cfg)
	if err == nil {
		err = fd.RunUntil(c, in.half)
	}
	if err == nil {
		_, err = c.Flush()
	}
	if err == nil {
		_, err = c.Detach()
	}
	c.Close()
	if err != nil {
		return err
	}
	c, err = serve.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	c.Timeout = sessionTimeout
	c.Trace = obs.TraceID{} // the replayed resume carries a zero trace
	if _, err := c.Resume(tok, cfg); err != nil {
		return err
	}
	res, err = fd.Run(c)
	if err != nil {
		return err
	}
	if err := in.check(a, res); err != nil {
		return fmt.Errorf("recorded resumed session: %w", err)
	}
	return nil
}

// splitFrames cuts a recorded byte stream into whole frames.
func splitFrames(b []byte) ([][]byte, error) {
	var out [][]byte
	for len(b) > 0 {
		if len(b) < 4 {
			return nil, errors.New("truncated frame header in recording")
		}
		n := 4 + int(binary.LittleEndian.Uint32(b)) + 4
		if n > len(b) {
			return nil, errors.New("truncated frame in recording")
		}
		out = append(out, b[:n])
		b = b[n:]
	}
	return out, nil
}

func payload(frame []byte) []byte { return frame[4 : len(frame)-4] }

// sealFrame wraps a payload in the frame envelope.
func sealFrame(p []byte) []byte {
	f := binary.LittleEndian.AppendUint32(make([]byte, 0, len(p)+8), uint32(len(p)))
	f = append(f, p...)
	return binary.LittleEndian.AppendUint32(f, crc32.ChecksumIEEE(p))
}

// resumeFrame is the recorded resume with the session's token put in,
// behind the protocol magic that opens the new connection.
func (s *script) resumeFrame(token string) []byte {
	p := append(append([]byte(nil), s.resumeHead...), binary.AppendUvarint(nil, uint64(len(token)))...)
	p = append(append(p, token...), s.resumeTail...)
	return append([]byte(serve.Magic), sealFrame(p)...)
}

// readFrame reads one reply and returns its payload, turning an error frame
// into an error.
func (c *client) readFrame(conn net.Conn) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n == 0 || n > 1<<22 {
		return nil, fmt.Errorf("reply frame length %d", n)
	}
	if cap(c.buf) < n+4 {
		c.buf = make([]byte, n+4)
	}
	body := c.buf[:n+4]
	if _, err := io.ReadFull(conn, body); err != nil {
		return nil, err
	}
	p := body[:n]
	if crc32.ChecksumIEEE(p) != binary.LittleEndian.Uint32(body[n:]) {
		return nil, errors.New("reply frame checksum mismatch")
	}
	if p[0] == frameError {
		return nil, fmt.Errorf("server error frame: %q", p[1:])
	}
	return p, nil
}

// expectPos reads a hello-ack or pos-ack and returns its token (hello-ack
// only) and position, failing unless the position is want.
func (c *client) expectPos(conn net.Conn, typ byte, want int) (string, error) {
	p, err := c.readFrame(conn)
	if err != nil {
		return "", err
	}
	if p[0] != typ {
		return "", fmt.Errorf("reply frame 0x%02x, want 0x%02x", p[0], typ)
	}
	rest, token := p[1:], ""
	if typ == frameHelloAck {
		l, w := binary.Uvarint(rest)
		if w <= 0 || int(l) > len(rest)-w {
			return "", errors.New("malformed hello ack")
		}
		token, rest = string(rest[w:w+int(l)]), rest[w+int(l):]
	}
	pos, w := binary.Uvarint(rest)
	if w <= 0 || int(pos) != want {
		return "", fmt.Errorf("acked position %d, want %d", pos, want)
	}
	return token, nil
}

// expectResult reads the result frame and byte-compares it with the
// verified recording.
func (c *client) expectResult(conn net.Conn, s *script) error {
	p, err := c.readFrame(conn)
	if err != nil {
		return err
	}
	if !bytes.Equal(p, s.result) {
		return errors.New("result frame differs from the verified reference")
	}
	return nil
}

func (c *client) dial(addr string) (net.Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	conn.SetDeadline(time.Now().Add(sessionTimeout))
	c.mark("dial")
	return conn, nil
}

// open dials addr and opens a fresh session, returning its minted token.
func (c *client) open(addr string, s *script) (net.Conn, string, error) {
	conn, err := c.dial(addr)
	if err != nil {
		return nil, "", err
	}
	if _, err := conn.Write(s.hello); err != nil {
		conn.Close()
		return nil, "", err
	}
	tok, err := c.expectPos(conn, frameHelloAck, 0)
	if err != nil {
		conn.Close()
		return nil, "", err
	}
	c.mark("hello")
	return conn, tok, nil
}

// longSession replays hello, the whole stream and finish.
func (c *client) longSession(addr string, s *script) error {
	c.begin()
	conn, _, err := c.open(addr, s)
	if err != nil {
		return err
	}
	defer conn.Close()
	if _, err := conn.Write(s.edges); err != nil {
		return err
	}
	c.mark("send")
	if _, err := conn.Write(s.finish); err != nil {
		return err
	}
	if err := c.expectResult(conn, s); err != nil {
		return err
	}
	c.mark("finish")
	return nil
}

// splitSession replays hello, the first half, detach, a resume on a new
// connection, the second half and finish. It returns the resume latency,
// from the resume dial to its ack.
func (c *client) splitSession(addr string, s *script) (time.Duration, error) {
	c.begin()
	conn, tok, err := c.open(addr, s)
	if err != nil {
		return 0, err
	}
	if _, err := conn.Write(s.firstHalf); err != nil {
		conn.Close()
		return 0, err
	}
	c.mark("send")
	if _, err := conn.Write(s.detach); err != nil {
		conn.Close()
		return 0, err
	}
	_, err = c.expectPos(conn, framePosAck, s.half)
	conn.Close()
	if err != nil {
		return 0, err
	}
	c.mark("detach")

	t0 := time.Now()
	conn, err = c.dial(addr)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	if _, err := conn.Write(s.resumeFrame(tok)); err != nil {
		return 0, err
	}
	if _, err := c.expectPos(conn, frameHelloAck, s.half); err != nil {
		return 0, err
	}
	resume := time.Since(t0)
	c.mark("resume")
	if _, err := conn.Write(s.secondHalf); err != nil {
		return 0, err
	}
	c.mark("send")
	if _, err := conn.Write(s.finish); err != nil {
		return 0, err
	}
	if err := c.expectResult(conn, s); err != nil {
		return 0, err
	}
	c.mark("finish")
	return resume, nil
}
