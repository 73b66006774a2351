package stream

// Property tests for the DecodeEdges kernel and the decoders built on it.
// The references below decode one uvarint at a time with binary.Uvarint, as
// File and Decode did before the kernel existed, and word their errors the
// same way; the kernel-backed decoders must return the same edges and the
// same error text on every input.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"streamcover/internal/setcover"
	"streamcover/internal/xrand"
)

// appendPadded appends v as a uvarint of exactly w bytes (1..10), padding
// with continuation groups of zero bits when w exceeds v's minimal width;
// binary.Uvarint accepts such non-canonical encodings, so every width can
// carry an in-range ID. A v too wide for w is appended minimally.
func appendPadded(b []byte, v uint64, w int) []byte {
	minimal := len(binary.AppendUvarint(nil, v))
	if w <= minimal {
		return binary.AppendUvarint(b, v)
	}
	for i := 0; i < w-1; i++ {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// overlongVarint is a malformed 11-byte uvarint: ten continuation bytes and a
// terminator. binary.Uvarint reports overflow at the tenth byte.
var overlongVarint = []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00}

// decodeEdgesRef decodes edges one at a time until dst is full or an edge is
// malformed, truncated or out of range. offs[i] is the byte offset at which
// edge i starts, so offs has k+1 entries.
func decodeEdgesRef(b []byte, dst []Edge, n, m int) (k int, offs []int) {
	pos := 0
	offs = append(offs, 0)
	for ; k < len(dst); k++ {
		s, w1 := binary.Uvarint(b[pos:])
		if w1 <= 0 {
			break
		}
		u, w2 := binary.Uvarint(b[pos+w1:])
		if w2 <= 0 || s >= uint64(m) || u >= uint64(n) {
			break
		}
		dst[k] = Edge{Set: setcover.SetID(s), Elem: setcover.Element(u)}
		pos += w1 + w2
		offs = append(offs, pos)
	}
	return k, offs
}

// edgeBody builds a random edge body of E edges for an n×m shape: mixed
// uvarint widths (padded up to 10 bytes), and with probability pBad per
// edge one of the boundary values m-1, m, n-1, n or an overlong varint.
func edgeBody(rng *xrand.Rand, E, n, m int, pBad float64) []byte {
	var b []byte
	for i := 0; i < E; i++ {
		s, u := uint64(rng.IntN(m)), uint64(rng.IntN(n))
		if rng.Coin(pBad) {
			switch rng.IntN(6) {
			case 0:
				s = uint64(m - 1)
			case 1:
				s = uint64(m)
			case 2:
				u = uint64(n - 1)
			case 3:
				u = uint64(n)
			case 4:
				b = append(b, overlongVarint...)
				b = appendPadded(b, u, 1+rng.IntN(10))
				continue
			default:
				b = appendPadded(b, s, 1+rng.IntN(10))
				b = append(b, overlongVarint...)
				continue
			}
		}
		b = appendPadded(b, s, widthFor(rng))
		b = appendPadded(b, u, widthFor(rng))
	}
	return b
}

// widthFor mostly keeps IDs minimal, as Encode writes them, and otherwise
// pads them to a random width so every kernel path sees traffic.
func widthFor(rng *xrand.Rand) int {
	if rng.Coin(0.7) {
		return 0
	}
	return 1 + rng.IntN(10)
}

// checkKernel compares one DecodeEdges call against the reference: the same
// edges and byte count for what it decodes, and a stop only where the
// reference stops or within one maximal edge of the end of b.
func checkKernel(t *testing.T, tag string, b []byte, dstLen, n, m int) {
	t.Helper()
	dst := make([]Edge, dstLen)
	ref := make([]Edge, dstLen)
	k, used := DecodeEdges(b, dst, n, m)
	rk, offs := decodeEdgesRef(b, ref, n, m)
	if k > rk {
		t.Fatalf("%s: kernel decoded %d edges, reference only %d", tag, k, rk)
	}
	if used != offs[k] {
		t.Fatalf("%s: kernel used %d bytes for %d edges, reference %d", tag, used, k, offs[k])
	}
	for i := 0; i < k; i++ {
		if dst[i] != ref[i] {
			t.Fatalf("%s: edge %d: kernel %v, reference %v", tag, i, dst[i], ref[i])
		}
	}
	if k < rk && used <= len(b)-maxEdgeLen {
		t.Fatalf("%s: kernel stopped at good edge %d, %d bytes from the end", tag, k, len(b)-used)
	}
}

func TestDecodeEdgesEveryWidth(t *testing.T) {
	// Every (set width, elem width) pair, with the IDs at the shape's last
	// valid value and one past it, followed by enough slack that the kernel
	// must decode the edge itself rather than leave it to the caller.
	const n, m = 1 << 20, 1 << 30
	slack := make([]byte, maxEdgeLen)
	for ws := 1; ws <= 10; ws++ {
		for wu := 1; wu <= 10; wu++ {
			for _, v := range [][2]uint64{{m - 1, n - 1}, {m, n - 1}, {m - 1, n}, {0, 0}} {
				b := appendPadded(nil, v[0], ws)
				b = appendPadded(b, v[1], wu)
				b = append(b, slack...)
				tag := fmt.Sprintf("widths %d/%d values %v", ws, wu, v)
				checkKernel(t, tag, b, 1, n, m)
				var one [1]Edge
				k, _ := DecodeEdges(b, one[:], n, m)
				if want := v[0] < m && v[1] < n; (k == 1) != want {
					t.Fatalf("%s: decoded %d edges", tag, k)
				}
			}
			// An overlong varint in either position stops the kernel.
			for _, b := range [][]byte{
				append(append(appendPadded(nil, 1, ws), overlongVarint...), slack...),
				append(append(bytes.Clone(overlongVarint), appendPadded(nil, 1, wu)...), slack...),
			} {
				checkKernel(t, fmt.Sprintf("overlong widths %d/%d", ws, wu), b, 1, n, m)
			}
		}
	}
}

func TestDecodeEdgesMatchesReference(t *testing.T) {
	rng := xrand.New(20261018)
	shapes := [][2]int{{5, 3}, {900, 18000}, {1 << 14, 1 << 15}, {1 << 22, 1 << 29}, {1 << 31, 1 << 31}}
	for round := 0; round < 2000; round++ {
		sh := shapes[rng.IntN(len(shapes))]
		n, m := sh[0], sh[1]
		E := rng.IntN(80)
		b := edgeBody(rng, E, n, m, 0.02)
		if rng.Coin(0.3) { // cut anywhere, including mid-varint
			b = b[:rng.IntN(len(b)+1)]
		}
		checkKernel(t, fmt.Sprintf("round %d n=%d m=%d", round, n, m), b, rng.IntN(E+2), n, m)
	}
}

// decodeRef is Decode as it was before the kernel: a bytes.Reader and one
// binary.ReadUvarint per field.
func decodeRef(r io.Reader) (Header, []Edge, error) {
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
	var hdr Header
	for i, dst := range []*int{&hdr.N, &hdr.M, &hdr.E} {
		v, err := binary.ReadUvarint(br)
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
	for i := range edges {
		s, err := binary.ReadUvarint(br)
		if err != nil {
			return Header{}, nil, fmt.Errorf("%w: edge %d set: %v", ErrCorrupt, i, err)
		}
		u, err := binary.ReadUvarint(br)
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

// fileReplayRef is one lazily verified File pass as it was before the
// kernel: one binary.Uvarint per field against the read window, then the
// trailing-bytes and checksum checks. The window is modelled because it
// shows in the error text: before each edge, a window holding fewer than
// minFileWindow unread bytes is refilled to bufSize, and a run of ten
// continuation bytes that ends at the window's edge reads as a truncated
// uvarint rather than an overflowing one. It returns the edges delivered
// and the text of the sticky error ("" for a clean pass).
func fileReplayRef(hdr Header, body []byte, bufSize int, crcOK bool) ([]Edge, string) {
	var edges []Edge
	pos, end := 0, 0
	varintErr := func(w, i int, field string) string {
		if w == 0 {
			return fmt.Errorf("%w: edge %d %s: unexpected EOF", ErrTruncated, i, field).Error()
		}
		return fmt.Errorf("%w: edge %d %s: uvarint overflow", ErrCorrupt, i, field).Error()
	}
	for i := 0; i < hdr.E; i++ {
		if end-pos < minFileWindow && end < len(body) {
			end = min(pos+bufSize, len(body))
		}
		s, w1 := binary.Uvarint(body[pos:end])
		if w1 <= 0 {
			return edges, varintErr(w1, i, "set")
		}
		u, w2 := binary.Uvarint(body[pos+w1 : end])
		if w2 <= 0 {
			return edges, varintErr(w2, i, "elem")
		}
		if s >= uint64(hdr.M) || u >= uint64(hdr.N) {
			return edges, fmt.Errorf("%w: edge %d (%d,%d) out of range", ErrCorrupt, i, s, u).Error()
		}
		pos += w1 + w2
		edges = append(edges, Edge{Set: setcover.SetID(s), Elem: setcover.Element(u)})
	}
	if extra := len(body) - pos; extra > 0 {
		return edges, fmt.Errorf("%w: %d trailing bytes after edge %d", ErrCorrupt, extra, hdr.E).Error()
	}
	if !crcOK {
		return edges, fmt.Errorf("%w: checksum mismatch", ErrCorrupt).Error()
	}
	return edges, ""
}

// streamFileBytes frames body as a stream file with header hdr and a
// correct CRC-32 trailer, and returns it with the offset of the body.
func streamFileBytes(hdr Header, body []byte) ([]byte, int) {
	data := append([]byte(nil), magic[:]...)
	for _, v := range []int{hdr.N, hdr.M, hdr.E} {
		data = binary.AppendUvarint(data, uint64(v))
	}
	start := len(data)
	data = append(data, body...)
	return binary.LittleEndian.AppendUint32(data, crc32.ChecksumIEEE(data)), start
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestKernelDecodersMatchReference replays random, damaged stream files
// through File (at read windows chosen so refills land at every offset
// within an edge) and Decode, and holds both to the one-uvarint-at-a-time
// references: same edges, same error text.
func TestKernelDecodersMatchReference(t *testing.T) {
	rng := xrand.New(42)
	dir := t.TempDir()
	shapes := [][2]int{{5, 3}, {900, 18000}, {20000, 30000}, {1 << 22, 1 << 29}, {1 << 31, 1 << 31}}
	bufSizes := []int{minFileWindow, 21, 37, 4099, 0}
	chunks := []int{1, 7, BatchSize}
	for round := 0; round < 300; round++ {
		sh := shapes[rng.IntN(len(shapes))]
		n, m := sh[0], sh[1]
		E := rng.IntN(400)
		pBad := 0.0
		if rng.Coin(0.5) {
			pBad = 0.005
		}
		body := edgeBody(rng, E, n, m, pBad)
		hdr := Header{N: n, M: m, E: E}
		switch rng.IntN(5) {
		case 0: // bytes after edge E: garbage, or whole valid edges
			if rng.Coin(0.5) {
				body = append(body, edgeBody(rng, 1+rng.IntN(3), n, m, 0)...)
			} else {
				for i := rng.IntN(25); i >= 0; i-- {
					body = append(body, byte(rng.IntN(256)))
				}
			}
		case 1: // the body ends early, possibly mid-varint
			body = body[:rng.IntN(len(body)+1)]
		case 2: // the header claims fewer edges than the body holds
			hdr.E = rng.IntN(E + 1)
		}
		data, start := streamFileBytes(hdr, body)
		crcOK := true
		if rng.Coin(0.1) {
			data[len(data)-1] ^= 0x01
			crcOK = false
		}
		tag := fmt.Sprintf("round %d hdr %+v", round, hdr)

		rh, rEdges, rErr := decodeRef(bytes.NewReader(data))
		gh, gEdges, gErr := Decode(bytes.NewReader(data))
		if errText(gErr) != errText(rErr) || gh != rh || !slices.Equal(gEdges, rEdges) {
			t.Fatalf("%s: Decode gave %d edges, err %q; reference %d edges, err %q", tag, len(gEdges), errText(gErr), len(rEdges), errText(rErr))
		}

		path := filepath.Join(dir, fmt.Sprintf("r%d.scstrm", round))
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		for _, bs := range bufSizes {
			window := bs
			if window == 0 {
				window = fileBufSize
			}
			wantEdges, wantErr := fileReplayRef(hdr, data[start:len(data)-4], window, crcOK)
			fs, err := OpenFileWith(path, FileOptions{BufferSize: bs})
			if err != nil {
				t.Fatalf("%s buf %d: open: %v", tag, bs, err)
			}
			// Two passes: the first folds in the checksum, the second (after
			// a clean first pass) skips it.
			for pass := 0; pass < 2; pass++ {
				fs.Reset()
				var got []Edge
				dst := make([]Edge, BatchSize)
				for c := 0; ; c++ {
					k := fs.FillBatch(dst[:chunks[(c+round)%len(chunks)]])
					if k == 0 {
						break
					}
					got = append(got, dst[:k]...)
				}
				if !slices.Equal(got, wantEdges) || errText(fs.Err()) != wantErr {
					t.Fatalf("%s buf %d pass %d: File gave %d edges, err %q; reference %d edges, err %q",
						tag, bs, pass, len(got), errText(fs.Err()), len(wantEdges), wantErr)
				}
			}
			fs.Close()
		}
	}
}
