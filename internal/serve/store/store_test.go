package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestStoreConformance runs every backend through the shared contract
// suite: both implementations must be indistinguishable through the
// CheckpointStore interface, because the lifecycle manager (and later the
// cluster tier) treats them interchangeably.
func TestStoreConformance(t *testing.T) {
	backends := []struct {
		name string
		open func(t *testing.T) CheckpointStore
	}{
		{"file", func(t *testing.T) CheckpointStore {
			fs, err := NewFileStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return fs
		}},
		{"mem", func(t *testing.T) CheckpointStore { return NewMemStore() }},
		{"cluster", func(t *testing.T) CheckpointStore { return openClusterStore(t) }},
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			t.Run("put-get-roundtrip", func(t *testing.T) { testPutGetRoundTrip(t, b.open(t)) })
			t.Run("put-reports-bytes", func(t *testing.T) { testPutReportsBytes(t, b.open(t)) })
			t.Run("overwrite", func(t *testing.T) { testOverwrite(t, b.open(t)) })
			t.Run("not-found-typed", func(t *testing.T) { testNotFoundTyped(t, b.open(t)) })
			t.Run("delete", func(t *testing.T) { testDelete(t, b.open(t)) })
			t.Run("list-sorted", func(t *testing.T) { testListSorted(t, b.open(t)) })
			t.Run("no-aliasing", func(t *testing.T) { testNoAliasing(t, b.open(t)) })
			t.Run("rejects-bad-tokens", func(t *testing.T) { testRejectsBadTokens(t, b.open(t)) })
			t.Run("concurrent", func(t *testing.T) { testConcurrent(t, b.open(t)) })
			t.Run("adoption-race", func(t *testing.T) { testAdoptionRace(t, b.open(t)) })
			t.Run("reserve", func(t *testing.T) { testReserve(t, b.open(t)) })
			t.Run("reserve-race", func(t *testing.T) { testReserveRace(t, b.open(t)) })
		})
	}
}

// openClusterStore spins up an in-process SCSTOR1 server over a MemStore
// and returns a client for it, so the network-backed store runs the exact
// conformance suite the local backends do.
func openClusterStore(t *testing.T) *ClusterStore {
	t.Helper()
	srv, err := NewStoreServer(NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	cs := NewClusterStore(srv.Addr(), 10*time.Second)
	t.Cleanup(func() {
		cs.Close()
		srv.Close()
	})
	return cs
}

func testPutGetRoundTrip(t *testing.T, st CheckpointStore) {
	blob := []byte("SCCKPT1\npayload bytes")
	if _, err := st.Put("tok", blob); err != nil {
		t.Fatal(err)
	}
	got, err := st.Get("tok")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatalf("Get returned %q, want %q", got, blob)
	}
}

func testPutReportsBytes(t *testing.T, st CheckpointStore) {
	for _, n := range []int{0, 1, 1024, 70_000} {
		blob := bytes.Repeat([]byte{0xAB}, n)
		written, err := st.Put("sized", blob)
		if err != nil {
			t.Fatal(err)
		}
		if written != n {
			t.Fatalf("Put(%d bytes) reported %d written", n, written)
		}
	}
}

func testOverwrite(t *testing.T, st CheckpointStore) {
	if _, err := st.Put("tok", []byte("first, rather longer, checkpoint")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Put("tok", []byte("second")); err != nil {
		t.Fatal(err)
	}
	got, err := st.Get("tok")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "second" {
		t.Fatalf("after overwrite Get = %q, want %q", got, "second")
	}
	tokens, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(tokens) != 1 {
		t.Fatalf("overwrite left %d tokens listed: %v", len(tokens), tokens)
	}
}

func testNotFoundTyped(t *testing.T, st CheckpointStore) {
	if _, err := st.Get("absent"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(absent) = %v, want ErrNotFound", err)
	}
	if err := st.Delete("absent"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Delete(absent) = %v, want ErrNotFound", err)
	}
}

func testDelete(t *testing.T, st CheckpointStore) {
	if _, err := st.Put("tok", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete("tok"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get("tok"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after Delete = %v, want ErrNotFound", err)
	}
	if tokens, _ := st.List(); len(tokens) != 0 {
		t.Fatalf("List after Delete = %v, want empty", tokens)
	}
}

func testListSorted(t *testing.T, st CheckpointStore) {
	for _, tok := range []string{"zeta", "alpha", "s000002", "s000001", "Mid"} {
		if _, err := st.Put(tok, []byte(tok)); err != nil {
			t.Fatal(err)
		}
	}
	tokens, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"Mid", "alpha", "s000001", "s000002", "zeta"}
	if !reflect.DeepEqual(tokens, want) {
		t.Fatalf("List = %v, want %v (sorted)", tokens, want)
	}
}

// testNoAliasing pins the copy semantics the lifecycle layer depends on:
// it reuses its serialization buffer after Put, and restores from the Get
// slice while the store may be written concurrently.
func testNoAliasing(t *testing.T, st CheckpointStore) {
	buf := []byte("original")
	if _, err := st.Put("tok", buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "CLOBBER!") // caller reuses its buffer
	got, err := st.Get("tok")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "original" {
		t.Fatalf("Put aliased the caller's buffer: stored %q", got)
	}
	got[0] = '!' // caller mutates what Get handed out
	again, err := st.Get("tok")
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != "original" {
		t.Fatalf("Get aliased the stored blob: now %q", again)
	}
}

func testRejectsBadTokens(t *testing.T, st CheckpointStore) {
	for _, tok := range []string{"", ".hidden", "../escape", "a/b", "a b", "tok\x00", strings.Repeat("x", 65)} {
		if _, err := st.Put(tok, []byte("x")); err == nil {
			t.Errorf("Put accepted invalid token %q", tok)
		}
		if _, err := st.Get(tok); err == nil {
			t.Errorf("Get accepted invalid token %q", tok)
		}
		if err := st.Delete(tok); err == nil {
			t.Errorf("Delete accepted invalid token %q", tok)
		}
	}
}

// testConcurrent hammers disjoint tokens from several goroutines; run
// under -race this pins that implementations are safe for the concurrent
// connection handlers that call into them.
func testConcurrent(t *testing.T, st CheckpointStore) {
	const workers, rounds = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tok := fmt.Sprintf("w%03d", w)
			blob := bytes.Repeat([]byte{byte(w)}, 64+w)
			for r := 0; r < rounds; r++ {
				if _, err := st.Put(tok, blob); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				got, err := st.Get(tok)
				if err != nil || !bytes.Equal(got, blob) {
					t.Errorf("worker %d round %d: got %d bytes, err %v", w, r, len(got), err)
					return
				}
				if _, err := st.List(); err != nil {
					t.Errorf("worker %d: list: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// testAdoptionRace is the cluster-adoption contention pattern: several
// goroutines hammer Put/Get/Delete on the SAME token — the shape of two
// shards checkpointing and adopting one session around a kill. A reader
// must only ever observe ErrNotFound or one complete write: every blob
// carries a CRC-32 trailer over its payload, and a torn read fails it.
func testAdoptionRace(t *testing.T, st CheckpointStore) {
	const writers, readers, rounds = 4, 4, 40
	mkBlob := func(w, r int) []byte {
		payload := bytes.Repeat([]byte{byte(1 + w*16 + r%16)}, 256+w*64+r)
		b := append([]byte(nil), payload...)
		return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	}
	intact := func(b []byte) bool {
		if len(b) < 4 {
			return false
		}
		payload, trailer := b[:len(b)-4], b[len(b)-4:]
		return crc32.ChecksumIEEE(payload) == binary.LittleEndian.Uint32(trailer)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if _, err := st.Put("adopt", mkBlob(w, r)); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				if r%8 == 7 { // a Finish landing amid the checkpoint churn
					if err := st.Delete("adopt"); err != nil && !errors.Is(err, ErrNotFound) {
						t.Errorf("writer %d: delete: %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds*2; r++ {
				blob, err := st.Get("adopt")
				if err != nil {
					if !errors.Is(err, ErrNotFound) {
						t.Errorf("reader %d: %v", g, err)
						return
					}
					continue
				}
				if !intact(blob) {
					t.Errorf("reader %d observed a torn blob (%d bytes)", g, len(blob))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// testReserve pins the Reserver contract every backend must carry for the
// cluster mint path: first Reserve wins, the reservation occupies the
// token everywhere (Get, List, later Reserves), a real checkpoint keeps it
// occupied, and Delete frees it.
func testReserve(t *testing.T, st CheckpointStore) {
	r, ok := st.(Reserver)
	if !ok {
		t.Fatalf("%T does not implement Reserver", st)
	}
	won, err := r.Reserve("mint")
	if err != nil || !won {
		t.Fatalf("first Reserve = (%v, %v), want win", won, err)
	}
	if won, err = r.Reserve("mint"); err != nil || won {
		t.Fatalf("second Reserve = (%v, %v), want loss", won, err)
	}
	blob, err := st.Get("mint")
	if err != nil {
		t.Fatalf("Get of a reserved token: %v", err)
	}
	if !IsMintMarker(blob) {
		t.Fatalf("reservation blob = %q, want the mint marker", blob)
	}
	if tokens, _ := st.List(); !reflect.DeepEqual(tokens, []string{"mint"}) {
		t.Fatalf("List after Reserve = %v, want [mint]", tokens)
	}
	// The session checkpoints over its reservation; the token stays taken.
	if _, err := st.Put("mint", []byte("SCCKPT1\nreal checkpoint")); err != nil {
		t.Fatal(err)
	}
	if won, err = r.Reserve("mint"); err != nil || won {
		t.Fatalf("Reserve over a checkpoint = (%v, %v), want loss", won, err)
	}
	// Finish deletes; the token is mintable again.
	if err := st.Delete("mint"); err != nil {
		t.Fatal(err)
	}
	if won, err = r.Reserve("mint"); err != nil || !won {
		t.Fatalf("Reserve after Delete = (%v, %v), want win", won, err)
	}
	if _, err := r.Reserve("../escape"); err == nil {
		t.Fatal("Reserve accepted an invalid token")
	}
}

// testReserveRace is the mint-collision core: concurrent Reserves of one
// token get exactly one winner, every round.
func testReserveRace(t *testing.T, st CheckpointStore) {
	r, ok := st.(Reserver)
	if !ok {
		t.Fatalf("%T does not implement Reserver", st)
	}
	for round := 0; round < 8; round++ {
		tok := fmt.Sprintf("mint%03d", round)
		var wins atomic.Int32
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				won, err := r.Reserve(tok)
				if err != nil {
					t.Errorf("Reserve(%q): %v", tok, err)
					return
				}
				if won {
					wins.Add(1)
				}
			}()
		}
		wg.Wait()
		if wins.Load() != 1 {
			t.Fatalf("round %d: %d Reserve winners, want exactly 1", round, wins.Load())
		}
	}
}

// TestClusterStoreRedial pins the client's transparent-reconnect behavior:
// a pooled connection severed under it (store server restarted on the same
// address) must heal with a single redial, not surface an error.
func TestClusterStoreRedial(t *testing.T) {
	srv, err := NewStoreServer(NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	addr := srv.Addr()
	cs := NewClusterStore(addr, 10*time.Second)
	defer cs.Close()
	if _, err := cs.Put("tok", []byte("before restart")); err != nil {
		t.Fatal(err)
	}
	// Restart the server on the same address; the pooled connection is
	// now dead and the MemStore behind it is fresh.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, err := NewStoreServer(NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err = srv2.Listen(addr); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebinding %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	go srv2.Serve()
	defer srv2.Close()
	if _, err := cs.Put("tok", []byte("after restart")); err != nil {
		t.Fatalf("Put through a severed pooled connection: %v", err)
	}
	got, err := cs.Get("tok")
	if err != nil || string(got) != "after restart" {
		t.Fatalf("Get after redial = %q, %v", got, err)
	}
}

// TestClusterStoreConcurrentReplies pins that a ClusterStore reply is
// decoded before its pooled connection is handed to another caller: the
// reply aliases the connection's read buffer, so decoding it after the
// connection went back to the pool lets a concurrent round trip overwrite
// the bytes. Many goroutines Put and Get distinct blobs through one client
// and every Get must return exactly what its goroutine last wrote.
func TestClusterStoreConcurrentReplies(t *testing.T) {
	cs := openClusterStore(t)
	const workers, rounds = 32, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tok := fmt.Sprintf("c%03d", w)
			for r := 0; r < rounds; r++ {
				// Distinct content and length per (worker, round), all
				// within one pooled read buffer's capacity once warm.
				blob := bytes.Repeat([]byte(fmt.Sprintf("%s/%04d;", tok, r)), 40+(w*7+r*13)%40)
				if n, err := cs.Put(tok, blob); err != nil || n != len(blob) {
					t.Errorf("worker %d round %d: put = %d, %v", w, r, n, err)
					return
				}
				got, err := cs.Get(tok)
				if err != nil || !bytes.Equal(got, blob) {
					t.Errorf("worker %d round %d: got %d bytes %.24q, want %d bytes %.24q (err %v)",
						w, r, len(got), got, len(blob), blob, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestStoreServerRejectsGarbage: a connection that opens with the wrong
// magic or ships a corrupt frame is dropped without wedging the server.
func TestStoreServerRejectsGarbage(t *testing.T) {
	srv, err := NewStoreServer(NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()
	for _, junk := range [][]byte{
		[]byte("GET / HTTP/1.1\r\n\r\n"),
		append([]byte(StoreMagic), 0xFF, 0xFF, 0xFF, 0x7F),                     // absurd frame length
		append([]byte(StoreMagic), 4, 0, 0, 0, 'j', 'u', 'n', 'k', 0, 0, 0, 0), // bad CRC
	} {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conn.Write(junk)
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, 64)
		if n, err := conn.Read(buf); err == nil {
			t.Fatalf("server replied %q to garbage instead of dropping the connection", buf[:n])
		}
		conn.Close()
	}
	// The server still serves real clients afterwards.
	cs := NewClusterStore(srv.Addr(), 10*time.Second)
	defer cs.Close()
	if _, err := cs.Put("ok", []byte("fine")); err != nil {
		t.Fatalf("healthy client after garbage connections: %v", err)
	}
}

// TestFileStoreLayoutCompat pins the on-disk contract: a FileStore writes
// exactly `<token>.ckpt` holding exactly the Put bytes — the layout every
// pre-store scserve wrote — and reads checkpoints left by such a server.
func TestFileStoreLayoutCompat(t *testing.T) {
	dir := t.TempDir()
	st, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	blob := []byte("envelope bytes, verbatim")
	if _, err := st.Put("legacy", blob); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(filepath.Join(dir, "legacy.ckpt"))
	if err != nil {
		t.Fatalf("expected legacy.ckpt in the store directory: %v", err)
	}
	if !bytes.Equal(onDisk, blob) {
		t.Fatalf("on-disk bytes %q differ from Put bytes %q", onDisk, blob)
	}
	// A file dropped in by an older server (plain write, no store) is
	// visible through the interface.
	if err := os.WriteFile(filepath.Join(dir, "older.ckpt"), []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := st.Get("older")
	if err != nil || string(got) != "old" {
		t.Fatalf("Get(older) = %q, %v", got, err)
	}
	tokens, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tokens, []string{"legacy", "older"}) {
		t.Fatalf("List = %v", tokens)
	}
	// No temp-file droppings after successful Puts.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
}

// TestFileStoreListIgnoresStrays: junk in the directory must not surface
// as tokens or break List.
func TestFileStoreListIgnoresStrays(t *testing.T) {
	dir := t.TempDir()
	st, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Put("real", []byte("x")); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"notes.txt", "x.ckpt.tmp123", ".hidden.ckpt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "sub.ckpt"), 0o755); err != nil {
		t.Fatal(err)
	}
	tokens, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tokens, []string{"real"}) {
		t.Fatalf("List = %v, want [real]", tokens)
	}
}

func TestNewFileStoreValidation(t *testing.T) {
	if _, err := NewFileStore(""); err == nil {
		t.Fatal("NewFileStore(\"\") succeeded")
	}
	// Creating over an existing path that is a file must fail loudly.
	f := filepath.Join(t.TempDir(), "flat")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFileStore(filepath.Join(f, "nested")); err == nil {
		t.Fatal("NewFileStore under a regular file succeeded")
	}
}

// TestStoreStringNames pins the backend names the wide-event `store` field
// and the scserve banner print.
func TestStoreStringNames(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if fs.String() != "dir" {
		t.Fatalf("FileStore.String() = %q, want dir", fs.String())
	}
	if NewMemStore().String() != "mem" {
		t.Fatalf("MemStore.String() = %q, want mem", NewMemStore().String())
	}
	if cs := NewClusterStore("127.0.0.1:1", 0); cs.String() != "cluster" {
		t.Fatalf("ClusterStore.String() = %q, want cluster", cs.String())
	}
}
