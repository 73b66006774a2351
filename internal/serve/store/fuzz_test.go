package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"testing"
)

// sealStoreFrame wraps payload in SCSTOR1 framing: length prefix, payload,
// CRC-32 trailer.
func sealStoreFrame(payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
}

// FuzzStoreRequest feeds arbitrary bytes to the SCSTOR1 server side: the
// frame reader (raw bytes as they come off a connection) or, for sealed
// inputs, one well-framed request payload straight to StoreServer.apply on
// a MemStore. It must never panic; the reader fails only with a clean EOF
// or a typed ErrStoreWire; every reply parses with decodeReply as OK or as
// a typed store error (never a wire error); and an accepted Put followed by
// a Get of the same token returns the stored bytes.
func FuzzStoreRequest(f *testing.F) {
	put := appendToken([]byte{opPut}, "sess-1")
	put = append(put, "checkpoint bytes"...)
	get := appendToken([]byte{opGet}, "sess-1")
	for _, req := range [][]byte{
		put,
		get,
		appendToken([]byte{opDelete}, "sess-1"),
		{opList},
		appendToken([]byte{opReserve}, "sess-2"),
		appendToken([]byte{opGet}, "../escape"),
		{0x7f},
		{},
	} {
		f.Add(req, false)
	}
	f.Add(append(sealStoreFrame(put), sealStoreFrame(get)...), true)
	f.Add(sealStoreFrame(put)[:9], true)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, true)

	f.Fuzz(func(t *testing.T, data []byte, framed bool) {
		srv, err := NewStoreServer(NewMemStore())
		if err != nil {
			t.Fatal(err)
		}
		if !framed {
			data = sealStoreFrame(data)
		}
		r := bytes.NewReader(data)
		var buf, reply []byte
		for {
			req, nb, err := readStoreFrame(r, buf)
			buf = nb
			if err != nil {
				if err != io.EOF && err != io.ErrUnexpectedEOF && !errors.Is(err, ErrStoreWire) {
					t.Fatalf("untyped frame error: %v", err)
				}
				return
			}
			reply = srv.apply(reply[:0], req)
			body, err := decodeReply(reply)
			if errors.Is(err, ErrStoreWire) {
				t.Fatalf("request %x: reply % x does not parse: %v", req, reply, err)
			}
			if err != nil || req[0] != opPut {
				continue
			}
			// An accepted Put: its reply counts the blob, and a Get of the
			// same token returns it byte for byte.
			c := storeCursor{b: req[1:]}
			token := c.str()
			blob := bytes.Clone(c.rest())
			if n, w := binary.Uvarint(body); w != len(body) || n != uint64(len(blob)) {
				t.Fatalf("put of %d bytes replied % x", len(blob), body)
			}
			got, err := decodeReply(srv.apply(nil, appendToken([]byte{opGet}, token)))
			if err != nil || !bytes.Equal(got, blob) {
				t.Fatalf("get after put of %q: %q, %v; want %q", token, got, err, blob)
			}
		}
	})
}
