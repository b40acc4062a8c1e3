package store

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// backends under test, each fresh per call.
func testBackends(t *testing.T) map[string]Backend {
	t.Helper()
	fsb, err := NewFS(t.TempDir(), false)
	if err != nil {
		t.Fatalf("NewFS: %v", err)
	}
	fsSync, err := NewFS(t.TempDir(), true)
	if err != nil {
		t.Fatalf("NewFS(sync): %v", err)
	}
	return map[string]Backend{
		"fs":      fsb,
		"fs-sync": fsSync,
		"mem":     NewMem(),
	}
}

func TestBackendRoundTrip(t *testing.T) {
	ctx := context.Background()
	for name, b := range testBackends(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := b.Get(ctx, "sessions/s1.snap"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get missing: %v, want ErrNotFound", err)
			}
			data := []byte("hello durable world")
			if err := b.Put(ctx, "sessions/s1.snap", data); err != nil {
				t.Fatalf("Put: %v", err)
			}
			got, err := b.Get(ctx, "sessions/s1.snap")
			if err != nil {
				t.Fatalf("Get: %v", err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("Get = %q, want %q", got, data)
			}
			// Overwrite replaces.
			if err := b.Put(ctx, "sessions/s1.snap", []byte("v2")); err != nil {
				t.Fatalf("Put v2: %v", err)
			}
			got, _ = b.Get(ctx, "sessions/s1.snap")
			if string(got) != "v2" {
				t.Fatalf("Get after overwrite = %q, want v2", got)
			}
			// List with prefix, sorted.
			if err := b.Put(ctx, "models/m1.snap", []byte("m")); err != nil {
				t.Fatalf("Put model: %v", err)
			}
			if err := b.Put(ctx, "sessions/s0.snap", []byte("s0")); err != nil {
				t.Fatalf("Put s0: %v", err)
			}
			keys, err := b.List(ctx, "sessions/")
			if err != nil {
				t.Fatalf("List: %v", err)
			}
			want := []string{"sessions/s0.snap", "sessions/s1.snap"}
			if !reflect.DeepEqual(keys, want) {
				t.Fatalf("List = %v, want %v", keys, want)
			}
			all, err := b.List(ctx, "")
			if err != nil || len(all) != 3 {
				t.Fatalf("List all = %v (%v), want 3 keys", all, err)
			}
			// Delete is idempotent.
			if err := b.Delete(ctx, "sessions/s0.snap"); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			if err := b.Delete(ctx, "sessions/s0.snap"); err != nil {
				t.Fatalf("Delete again: %v", err)
			}
			if _, err := b.Get(ctx, "sessions/s0.snap"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get deleted: %v, want ErrNotFound", err)
			}
			// Quarantine hides the object from Get and List.
			if err := b.Quarantine(ctx, "sessions/s1.snap"); err != nil {
				t.Fatalf("Quarantine: %v", err)
			}
			if _, err := b.Get(ctx, "sessions/s1.snap"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get quarantined: %v, want ErrNotFound", err)
			}
			keys, _ = b.List(ctx, "")
			if !reflect.DeepEqual(keys, []string{"models/m1.snap"}) {
				t.Fatalf("List after quarantine = %v", keys)
			}
			if err := b.Quarantine(ctx, "sessions/none"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Quarantine missing: %v, want ErrNotFound", err)
			}
		})
	}
}

func TestValidKey(t *testing.T) {
	good := []string{"a", "a/b", "sessions/s-1_2.snap", "models/bench-c432=s1.snap",
		strings.Repeat("x", 512)}
	for _, k := range good {
		if err := ValidKey(k); err != nil {
			t.Errorf("ValidKey(%q) = %v, want nil", k, err)
		}
	}
	bad := []string{"", "/a", "a/", "a//b", ".", "..", "a/../b", "a/./b",
		"a b", "a\x00b", "α", strings.Repeat("x", 513)}
	for _, k := range bad {
		if err := ValidKey(k); err == nil {
			t.Errorf("ValidKey(%q) = nil, want error", k)
		}
	}
	ctx := context.Background()
	for name, b := range testBackends(t) {
		if err := b.Put(ctx, "../escape", []byte("x")); err == nil {
			t.Errorf("%s: Put(../escape) accepted", name)
		}
	}
}

func TestFSQuarantineReservedAndPreserved(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	fsb, err := NewFS(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := fsb.Put(ctx, "quarantine/x", []byte("v")); err == nil {
		t.Fatal("Put under quarantine/ accepted")
	}
	if err := fsb.Put(ctx, "sessions/s1.snap", []byte("evidence")); err != nil {
		t.Fatal(err)
	}
	if err := fsb.Quarantine(ctx, "sessions/s1.snap"); err != nil {
		t.Fatal(err)
	}
	// Bytes preserved for post-mortem under the flattened name.
	got, err := os.ReadFile(filepath.Join(dir, "quarantine", "sessions__s1.snap"))
	if err != nil || string(got) != "evidence" {
		t.Fatalf("quarantined bytes: %q, %v", got, err)
	}
	// A second object quarantined at the same key gets a suffixed name.
	if err := fsb.Put(ctx, "sessions/s1.snap", []byte("evidence2")); err != nil {
		t.Fatal(err)
	}
	if err := fsb.Quarantine(ctx, "sessions/s1.snap"); err != nil {
		t.Fatal(err)
	}
	got, err = os.ReadFile(filepath.Join(dir, "quarantine", "sessions__s1.snap.1"))
	if err != nil || string(got) != "evidence2" {
		t.Fatalf("second quarantined bytes: %q, %v", got, err)
	}
}

func TestFSListSkipsTempFiles(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	fsb, err := NewFS(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := fsb.Put(ctx, "sessions/s1.snap", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Simulate an interrupted write: a stray temp file in the key dir.
	if err := os.WriteFile(filepath.Join(dir, "sessions", ".tmp-12345"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	keys, err := fsb.List(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(keys, []string{"sessions/s1.snap"}) {
		t.Fatalf("List = %v, want just the real object", keys)
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	payload := []byte(`{"answer":42}`)
	blob := Seal("session", 3, payload)
	h, got, err := Open(blob)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if h.Kind != "session" || h.FormatVersion != 3 || h.Size != len(payload) {
		t.Fatalf("header = %+v", h)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload = %q", got)
	}
	if p, err := OpenKind(blob, "session", 3); err != nil || !bytes.Equal(p, payload) {
		t.Fatalf("OpenKind: %q, %v", p, err)
	}
	// Empty payload seals fine too.
	if _, _, err := Open(Seal("x", 1, nil)); err != nil {
		t.Fatalf("Open empty payload: %v", err)
	}
}

func TestEnvelopeCorruption(t *testing.T) {
	payload := []byte(`{"answer":42}`)
	blob := Seal("session", 1, payload)

	cases := map[string][]byte{
		"empty":          {},
		"no newline":     bytes.ReplaceAll(blob, []byte("\n"), []byte(" ")),
		"garbage":        []byte("not a snapshot at all"),
		"bad magic":      bytes.Replace(blob, []byte("sstad-snap"), []byte("xxxxx-snap"), 1),
		"truncated":      blob[:len(blob)-4],
		"extra bytes":    append(append([]byte{}, blob...), "tail"...),
		"flipped bit":    flipLastBit(blob),
		"header not obj": []byte("[1,2,3]\npayload"),
	}
	for name, data := range cases {
		if _, _, err := Open(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Open = %v, want ErrCorrupt", name, err)
		}
	}

	// Wrong kind / version are ErrVersion, not ErrCorrupt.
	if _, err := OpenKind(blob, "model", 1); !errors.Is(err, ErrVersion) {
		t.Errorf("wrong kind: %v, want ErrVersion", err)
	}
	if _, err := OpenKind(blob, "session", 2); !errors.Is(err, ErrVersion) {
		t.Errorf("wrong version: %v, want ErrVersion", err)
	}
}

func flipLastBit(b []byte) []byte {
	out := append([]byte{}, b...)
	out[len(out)-1] ^= 1
	return out
}

func TestFaultDeterministicEveryN(t *testing.T) {
	ctx := context.Background()
	f := NewFault(NewMem(), FaultConfig{FailEveryN: 3})
	if f.Kind() != "fault+mem" {
		t.Fatalf("Kind = %q", f.Kind())
	}
	var errs []bool
	for i := 0; i < 9; i++ {
		errs = append(errs, f.Put(ctx, "k", []byte("v")) != nil)
	}
	want := []bool{false, false, true, false, false, true, false, false, true}
	if !reflect.DeepEqual(errs, want) {
		t.Fatalf("failure pattern %v, want %v", errs, want)
	}
	ops, fails, torn := f.Counters()
	if ops != 9 || fails != 3 || torn != 0 {
		t.Fatalf("counters = %d/%d/%d", ops, fails, torn)
	}
}

func TestFaultFailAfter(t *testing.T) {
	ctx := context.Background()
	f := NewFault(NewMem(), FaultConfig{FailAfter: 2})
	for i := 0; i < 2; i++ {
		if err := f.Put(ctx, "k", []byte("v")); err != nil {
			t.Fatalf("op %d failed early: %v", i, err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := f.Put(ctx, "k", []byte("v")); !errors.Is(err, ErrInjected) {
			t.Fatalf("op after threshold: %v, want ErrInjected", err)
		}
	}
}

func TestFaultProbabilitySeededReplay(t *testing.T) {
	ctx := context.Background()
	// Same seed → identical injected-failure pattern.
	f1 := NewFault(NewMem(), FaultConfig{FailProb: 0.5, Seed: 42})
	f2 := NewFault(NewMem(), FaultConfig{FailProb: 0.5, Seed: 42})
	var p1, p2 []bool
	for i := 0; i < 32; i++ {
		p1 = append(p1, errors.Is(f1.Put(ctx, "k", nil), ErrInjected))
		p2 = append(p2, errors.Is(f2.Put(ctx, "k", nil), ErrInjected))
	}
	if !reflect.DeepEqual(p1, p2) {
		t.Fatalf("same seed diverged:\n%v\n%v", p1, p2)
	}
	injected := 0
	for _, v := range p1 {
		if v {
			injected++
		}
	}
	if injected == 0 || injected == 32 {
		t.Fatalf("prob 0.5 injected %d/32 — generator not wired", injected)
	}
}

func TestFaultTornWrite(t *testing.T) {
	ctx := context.Background()
	mem := NewMem()
	f := NewFault(mem, FaultConfig{FailEveryN: 1, TornEveryN: 1})
	blob := Seal("session", 1, []byte(`{"big":"payload that will be torn in half"}`))
	if err := f.Put(ctx, "sessions/s1.snap", blob); !errors.Is(err, ErrInjected) {
		t.Fatalf("Put: %v, want ErrInjected", err)
	}
	// The inner backend holds a truncated prefix...
	got, err := mem.Get(ctx, "sessions/s1.snap")
	if err != nil {
		t.Fatalf("inner Get: %v", err)
	}
	if len(got) != len(blob)/2 {
		t.Fatalf("torn write stored %d bytes, want %d", len(got), len(blob)/2)
	}
	// ...which the envelope rejects as corrupt.
	if _, _, err := Open(got); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open(torn) = %v, want ErrCorrupt", err)
	}
	_, _, torn := f.Counters()
	if torn != 1 {
		t.Fatalf("torn counter = %d", torn)
	}
}

func TestFaultOnlyFilterAndRuntimeFlip(t *testing.T) {
	ctx := context.Background()
	f := NewFault(NewMem(), FaultConfig{FailEveryN: 1, Only: map[Op]bool{OpPut: true}})
	if err := f.Put(ctx, "k", []byte("v")); !errors.Is(err, ErrInjected) {
		t.Fatalf("Put: %v, want ErrInjected", err)
	}
	// Gets are not in the filter: pass through (and don't count as ops).
	if _, err := f.Get(ctx, "k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get: %v, want ErrNotFound passthrough", err)
	}
	// Flip to healthy at runtime.
	f.SetConfig(FaultConfig{})
	if err := f.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatalf("Put after heal: %v", err)
	}
	if got, err := f.Get(ctx, "k"); err != nil || string(got) != "v" {
		t.Fatalf("Get after heal: %q, %v", got, err)
	}
}

func TestFaultCustomErrAndLatency(t *testing.T) {
	ctx := context.Background()
	boom := errors.New("disk on fire")
	f := NewFault(NewMem(), FaultConfig{FailEveryN: 1, Err: boom, Latency: time.Millisecond})
	start := time.Now()
	err := f.Put(ctx, "k", []byte("v"))
	if !errors.Is(err, boom) {
		t.Fatalf("Put: %v, want custom error", err)
	}
	if time.Since(start) < time.Millisecond {
		t.Fatalf("latency not applied")
	}
	// Latency respects context cancellation.
	slow := NewFault(NewMem(), FaultConfig{Latency: 10 * time.Second})
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if err := slow.Put(cctx, "k", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled latency: %v", err)
	}
}

// TestSealReservedMatchesSeal: sealing a payload in the room reserved in
// front of it gives Seal's bytes, for any kind, version and payload size.
func TestSealReservedMatchesSeal(t *testing.T) {
	for _, kind := range []string{"", "session", `odd"kindé`} {
		for _, version := range []int{0, 2, -7, 1 << 40} {
			for _, payload := range [][]byte{nil, []byte(`{"answer":42}`), bytes.Repeat([]byte("x"), 1<<16)} {
				room := HeaderRoom(kind)
				buf := append(make([]byte, room), payload...)
				got := SealReserved(kind, version, buf)
				if want := Seal(kind, version, payload); !bytes.Equal(got, want) {
					t.Fatalf("kind %q version %d, %d-byte payload: SealReserved %q, Seal %q", kind, version, len(payload), got[:40], want[:40])
				}
				if &got[len(got)-1] != &buf[len(buf)-1] {
					t.Fatalf("kind %q: SealReserved copied the payload", kind)
				}
			}
		}
	}
}
