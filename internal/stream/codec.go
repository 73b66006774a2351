package stream

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"streamcover/internal/setcover"
)

// Binary stream file format (used by cmd/scgen and cmd/scrun):
//
//	magic   "SCSTRM1\n"                  (8 bytes)
//	header  uvarint n, uvarint m, uvarint N
//	edges   N × (uvarint set, uvarint elem)
//	footer  4-byte little-endian CRC-32 (IEEE) of everything before it
//
// The format is self-describing and order-preserving: the file records the
// exact arrival order, so an experiment saved to disk replays identically.

var magic = [8]byte{'S', 'C', 'S', 'T', 'R', 'M', '1', '\n'}

// Header describes an encoded stream.
type Header struct {
	N int // universe size
	M int // number of sets
	E int // number of edges (stream length)
}

// ErrCorrupt is returned when a stream file fails checksum or structural
// validation.
var ErrCorrupt = errors.New("stream: corrupt stream file")

// ErrTruncated is the ErrCorrupt subclass for damage that looks like a
// short read — a header or payload that ends before its declared length.
// It wraps ErrCorrupt, so errors.Is(err, ErrCorrupt) holds for both.
var ErrTruncated = fmt.Errorf("%w (truncated)", ErrCorrupt)

// Encode writes hdr and edges to w in the binary format.
func Encode(w io.Writer, hdr Header, edges []Edge) error {
	if hdr.E != len(edges) {
		return fmt.Errorf("stream: header says %d edges, got %d", hdr.E, len(edges))
	}
	if hdr.N <= 0 || hdr.M <= 0 {
		return fmt.Errorf("stream: invalid header %+v", hdr)
	}
	crc := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(w, crc))

	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		k := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:k])
		return err
	}
	for _, v := range []uint64{uint64(hdr.N), uint64(hdr.M), uint64(hdr.E)} {
		if err := putUvarint(v); err != nil {
			return err
		}
	}
	for _, e := range edges {
		if e.Set < 0 || int(e.Set) >= hdr.M || e.Elem < 0 || int(e.Elem) >= hdr.N {
			return fmt.Errorf("stream: edge %v out of range for header %+v", e, hdr)
		}
		if err := putUvarint(uint64(e.Set)); err != nil {
			return err
		}
		if err := putUvarint(uint64(e.Elem)); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	// The CRC covers magic+header+edges; write it raw (not through crc).
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc.Sum32())
	_, err := w.Write(sum[:])
	return err
}

// Decode reads a stream file produced by Encode, verifying structure and
// checksum. It returns ErrCorrupt (wrapped) on any damage. The whole file is
// read into memory, which matches how streams are used here (streams of
// laptop-scale experiments fit comfortably; the format is not intended for
// larger-than-memory data).
func Decode(r io.Reader) (Header, []Edge, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return Header{}, nil, fmt.Errorf("%w: read: %v", ErrCorrupt, err)
	}
	if len(data) < len(magic)+4 {
		return Header{}, nil, fmt.Errorf("%w: file too short (%d bytes)", ErrCorrupt, len(data))
	}
	payload, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(trailer) {
		return Header{}, nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	br := bytes.NewReader(payload)

	var gotMagic [8]byte
	if _, err := io.ReadFull(br, gotMagic[:]); err != nil {
		return Header{}, nil, fmt.Errorf("%w: short magic: %v", ErrCorrupt, err)
	}
	if gotMagic != magic {
		return Header{}, nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, gotMagic[:])
	}
	readUvarint := func() (uint64, error) { return binary.ReadUvarint(br) }

	var hdr Header
	for i, dst := range []*int{&hdr.N, &hdr.M, &hdr.E} {
		v, err := readUvarint()
		if err != nil {
			return Header{}, nil, fmt.Errorf("%w: header field %d: %v", ErrCorrupt, i, err)
		}
		if v > 1<<31 {
			return Header{}, nil, fmt.Errorf("%w: header field %d overflows", ErrCorrupt, i)
		}
		*dst = int(v)
	}
	if hdr.N <= 0 || hdr.M <= 0 || hdr.E < 0 {
		return Header{}, nil, fmt.Errorf("%w: invalid header %+v", ErrCorrupt, hdr)
	}
	edges := make([]Edge, hdr.E)
	for i := 0; i < len(edges); i++ {
		// DecodeEdges takes every edge it can vouch for; the edge it stops
		// at goes through the per-edge reader, which words the errors.
		k, used := DecodeEdges(payload[len(payload)-br.Len():], edges[i:], hdr.N, hdr.M)
		_, _ = br.Seek(int64(used), io.SeekCurrent) // cannot fail: 0 <= used <= br.Len()
		if i += k; i == len(edges) {
			break
		}
		s, err := readUvarint()
		if err != nil {
			return Header{}, nil, fmt.Errorf("%w: edge %d set: %v", ErrCorrupt, i, err)
		}
		u, err := readUvarint()
		if err != nil {
			return Header{}, nil, fmt.Errorf("%w: edge %d elem: %v", ErrCorrupt, i, err)
		}
		if s >= uint64(hdr.M) || u >= uint64(hdr.N) {
			return Header{}, nil, fmt.Errorf("%w: edge %d (%d,%d) out of range", ErrCorrupt, i, s, u)
		}
		edges[i] = Edge{Set: setcover.SetID(s), Elem: setcover.Element(u)}
	}
	if br.Len() != 0 {
		return Header{}, nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, br.Len())
	}
	return hdr, edges, nil
}

// InstanceFromEdges reconstructs the Set Cover instance underlying a decoded
// stream: m sets over a universe of size n, memberships taken from the
// edges. Sets that never appear in the stream are (legitimately) empty.
func InstanceFromEdges(hdr Header, edges []Edge) (*setcover.Instance, error) {
	b := setcover.NewBuilder(hdr.N)
	b.EnsureSets(hdr.M)
	for _, e := range edges {
		if err := b.AddEdge(e.Set, e.Elem); err != nil {
			return nil, err
		}
	}
	return b.Build()
}
