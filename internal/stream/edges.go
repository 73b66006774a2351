package stream

import (
	"encoding/binary"

	"streamcover/internal/setcover"
)

// maxEdgeLen is the longest encoding of one edge: two maximal uvarints.
const maxEdgeLen = 2 * binary.MaxVarintLen64

// DecodeEdges is the edge-varint kernel behind every decoder of the SCSTRM1
// edge encoding (uvarint set, then uvarint elem, per edge): File's window
// decode, the in-memory Decode, and the serving wire's edges frames. It
// decodes edges from the front of b into dst, checking each against a
// universe of n elements and m sets, and returns how many edges it decoded
// and how many bytes they used.
//
// The kernel decodes only what it can vouch for. It stops before the first
// edge that is malformed or out of range, and it never starts an edge that
// begins within maxEdgeLen bytes of the end of b. The caller decodes that
// edge on its own per-edge path, which owns every error message and the
// truncation rules at the end of its input. Because a whole maximal edge
// always fits, the unrolled 1-, 2- and 3-byte cases (IDs below 2^21) may
// read ahead without asking where b ends; longer uvarints fall back to
// binary.Uvarint.
func DecodeEdges(b []byte, dst []Edge, n, m int) (k, used int) {
	um, un := uint64(m), uint64(n)
	pos := 0
	for last := len(b) - maxEdgeLen; k < len(dst) && pos <= last; k++ {
		p := pos
		var s, u uint64
		if c0 := b[p]; c0 < 0x80 {
			s, p = uint64(c0), p+1
		} else if c1 := b[p+1]; c1 < 0x80 {
			s, p = uint64(c0&0x7f)|uint64(c1)<<7, p+2
		} else if c2 := b[p+2]; c2 < 0x80 {
			s, p = uint64(c0&0x7f)|uint64(c1&0x7f)<<7|uint64(c2)<<14, p+3
		} else if s, p = uvarintSlow(b, p); p < 0 {
			break
		}
		if c0 := b[p]; c0 < 0x80 {
			u, p = uint64(c0), p+1
		} else if c1 := b[p+1]; c1 < 0x80 {
			u, p = uint64(c0&0x7f)|uint64(c1)<<7, p+2
		} else if c2 := b[p+2]; c2 < 0x80 {
			u, p = uint64(c0&0x7f)|uint64(c1&0x7f)<<7|uint64(c2)<<14, p+3
		} else if u, p = uvarintSlow(b, p); p < 0 {
			break
		}
		if s >= um || u >= un {
			break
		}
		dst[k] = Edge{Set: setcover.SetID(s), Elem: setcover.Element(u)}
		pos = p
	}
	return k, pos
}

// uvarintSlow decodes the 4- to 10-byte uvarint at b[p:] and returns it with
// the offset just past it, or a negative offset if it is malformed. It is
// kept out of line so the unrolled cases stay tight.
func uvarintSlow(b []byte, p int) (uint64, int) {
	v, w := binary.Uvarint(b[p:])
	if w <= 0 {
		return 0, -1
	}
	return v, p + w
}
