package stream

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"streamcover/internal/setcover"
)

// FuzzDecode checks that Decode never panics and never returns structurally
// invalid data on arbitrary byte inputs, and that anything it accepts
// re-encodes to a file it accepts again.
func FuzzDecode(f *testing.F) {
	// Seed with a valid file and a few mutations.
	inst := setcover.MustNewInstance(5, [][]setcover.Element{{0, 1, 2}, {3, 4}})
	edges := EdgesOf(inst)
	var buf bytes.Buffer
	if err := Encode(&buf, Header{N: 5, M: 2, E: len(edges)}, edges); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte("SCSTRM1\n"))
	mutated := append([]byte(nil), valid...)
	mutated[10] ^= 0xff
	f.Add(mutated)

	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, decoded, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted input: structure must be internally consistent.
		if hdr.N <= 0 || hdr.M <= 0 || hdr.E != len(decoded) {
			t.Fatalf("accepted inconsistent header %+v with %d edges", hdr, len(decoded))
		}
		for _, e := range decoded {
			if e.Set < 0 || int(e.Set) >= hdr.M || e.Elem < 0 || int(e.Elem) >= hdr.N {
				t.Fatalf("accepted out-of-range edge %v", e)
			}
		}
		// Round trip: re-encoding must produce a decodable file with the
		// same content.
		var out bytes.Buffer
		if err := Encode(&out, hdr, decoded); err != nil {
			t.Fatalf("re-encode of accepted data failed: %v", err)
		}
		hdr2, decoded2, err := Decode(&out)
		if err != nil || hdr2 != hdr || len(decoded2) != len(decoded) {
			t.Fatalf("round trip failed: %v", err)
		}
	})
}

// FuzzPrefetchedFile pushes arbitrary bytes through the full on-disk
// pipeline — lazily-verified File, background Prefetcher — and checks it
// against a direct in-memory Decode of the same bytes: when Decode accepts,
// the prefetched replay must yield the identical edge sequence with no
// error; when Decode rejects, the pipeline must either fail at open or
// surface a sticky error (never panic, hang, or silently truncate a pass it
// claims completed).
func FuzzPrefetchedFile(f *testing.F) {
	inst := setcover.MustNewInstance(5, [][]setcover.Element{{0, 1, 2}, {3, 4}})
	edges := EdgesOf(inst)
	var buf bytes.Buffer
	if err := Encode(&buf, Header{N: 5, M: 2, E: len(edges)}, edges); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte("SCSTRM1\n"))
	mutated := append([]byte(nil), valid...)
	mutated[10] ^= 0xff
	f.Add(mutated)
	trailing := append(append([]byte(nil), valid...), 0)
	f.Add(trailing)
	// A seed longer than the minimum read window, with IDs above 2^14 so
	// most take 3 bytes: it reaches the DecodeEdges fast path and, in the
	// minimum-window replay below, refills inside edges.
	const wideN, wideM = 20000, 30000
	wide := make([]Edge, 96)
	for i := range wide {
		wide[i] = Edge{Set: setcover.SetID(wideM - 1 - i*97), Elem: setcover.Element(wideN - 1 - i*131)}
	}
	var wideBuf bytes.Buffer
	if err := Encode(&wideBuf, Header{N: wideN, M: wideM, E: len(wide)}, wide); err != nil {
		f.Fatal(err)
	}
	f.Add(wideBuf.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, want, decodeErr := Decode(bytes.NewReader(data))

		path := filepath.Join(t.TempDir(), "fuzz.scstrm")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		// The same bytes through a bare File at the minimum read window
		// (BufferSize 1 is raised to it), so refills fall inside edges.
		if small, err := OpenFileWith(path, FileOptions{BufferSize: 1}); err == nil {
			got, passErr := drainFillBatch(small)
			small.Close()
			if decodeErr == nil && (passErr != nil || !slices.Equal(got, want)) {
				t.Fatalf("minimum-window pass gave %d edges, err %v; Decode %d edges", len(got), passErr, len(want))
			}
			if decodeErr != nil && passErr == nil {
				t.Fatalf("Decode rejected (%v) but the minimum-window pass completed cleanly with %d edges", decodeErr, len(got))
			}
		} else if decodeErr == nil {
			t.Fatalf("minimum-window open rejected a Decode-accepted file: %v", err)
		}
		fs, err := OpenFile(path)
		if err != nil {
			if decodeErr == nil {
				t.Fatalf("open rejected a Decode-accepted file: %v", err)
			}
			return
		}
		defer fs.Close()
		pf := NewPrefetcherSized(fs, 2, 7) // tiny batches exercise ring wrap
		defer pf.Close()

		var got []Edge
		for {
			b := pf.NextBatch(5)
			if len(b) == 0 {
				break
			}
			got = append(got, b...)
		}
		passErr := pf.Err()

		if decodeErr == nil {
			if passErr != nil {
				t.Fatalf("prefetched pass failed on a Decode-accepted file: %v", passErr)
			}
			if len(got) != len(want) {
				t.Fatalf("prefetched %d edges, Decode saw %d (header %+v)", len(got), len(want), hdr)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("edge %d: prefetched %v, Decode %v", i, got[i], want[i])
				}
			}
			return
		}
		// Decode rejected the bytes but the file opened: the lazy pass must
		// report a sticky corruption-family error by its end.
		if passErr == nil {
			t.Fatalf("Decode rejected (%v) but the prefetched pass completed cleanly with %d edges", decodeErr, len(got))
		}
		if !errors.Is(passErr, ErrCorrupt) && !errors.Is(passErr, ErrShortStream) {
			t.Fatalf("pass error %v is outside the corruption family", passErr)
		}
	})
}

// drainFillBatch runs one pass of fs through FillBatch and returns the edges
// and the pass's sticky error.
func drainFillBatch(fs *File) ([]Edge, error) {
	var got []Edge
	dst := make([]Edge, 64)
	for {
		k := fs.FillBatch(dst)
		if k == 0 {
			return got, fs.Err()
		}
		got = append(got, dst[:k]...)
	}
}

// FuzzValidate checks that Validate never panics on arbitrary edge lists.
func FuzzValidate(f *testing.F) {
	f.Add(int16(3), int16(2), []byte{0, 0, 1, 1})
	f.Fuzz(func(t *testing.T, nRaw, mRaw int16, raw []byte) {
		// Mask rather than mod: % keeps the sign on negative int16 inputs,
		// which would make the slice length below negative.
		n := int(nRaw&63) + 1
		m := int(mRaw&63) + 1
		sets := make([][]setcover.Element, m)
		inst, err := setcover.NewInstance(n, sets)
		if err != nil {
			return
		}
		edges := make([]Edge, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			// The -1 shift puts negative IDs in the fuzzed domain alongside
			// in-range and past-the-end ones.
			edges = append(edges, Edge{
				Set:  setcover.SetID(int(raw[i])%(m+2) - 1),
				Elem: setcover.Element(int(raw[i+1])%(n+2) - 1),
			})
		}
		_ = Validate(inst, edges) // must not panic
	})
}
