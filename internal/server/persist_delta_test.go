package server

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"testing"
	"time"

	"repro/internal/store"
)

// deltaFixture runs a session through a base and a delta checkpoint on an
// in-memory store with manual flush rounds: create and flush (base 1),
// then two edit batches, one of them undone, and a second round (delta
// 1). It returns the server, the store, the session id, the live mean
// after the edits and the batches' edit count.
func deltaFixture(t *testing.T) (*Server, *store.Mem, string, float64, int64) {
	t.Helper()
	ctx := context.Background()
	mem := store.NewMem()
	s, hs := crashableServer(t, Config{Store: mem, StoreFlushInterval: time.Hour})
	t.Cleanup(s.crash)
	v := createSession(t, hs.URL, SessionCreateRequest{ItemSpec: ItemSpec{Bench: "c432", Seed: 1}})
	s.persist.flush(ctx)
	applyEdits(t, hs.URL, v.ID, SessionEditRequest{Edits: []EditSpec{
		{Op: "scale_delay", Edge: 3, Scale: 2},
		{Op: "set_nominal", Edge: 10, ValuePS: 42.5},
	}})
	out := applyEdits(t, hs.URL, v.ID, SessionEditRequest{Edits: []EditSpec{
		{Op: "scale_delay", Edge: 3, Scale: 0.5},
		{Op: "scale_delay", Edge: 12, Scale: 4},
	}})
	put := s.persist.store.putBytes.Load()
	s.persist.flush(ctx)
	data, err := mem.Get(ctx, deltaKey(v.ID))
	if err != nil {
		t.Fatalf("second round wrote no delta: %v", err)
	}
	if got := s.persist.store.putBytes.Load() - put; got != int64(len(data)) {
		t.Fatalf("second round put %d bytes, want only the %d-byte delta", got, len(data))
	}
	return s, mem, v.ID, out.MeanPS, 4
}

// storeObjects copies every live object of a store.
func storeObjects(t *testing.T, mem *store.Mem) map[string][]byte {
	t.Helper()
	ctx := context.Background()
	keys, err := mem.List(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(keys))
	for _, k := range keys {
		if out[k], err = mem.Get(ctx, k); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// bootOn starts a server on a fresh store holding objs and waits for its
// warm start.
func bootOn(t *testing.T, objs map[string][]byte) (*Server, *store.Mem, string) {
	t.Helper()
	mem := store.NewMem()
	for k, v := range objs {
		if err := mem.Put(context.Background(), k, v); err != nil {
			t.Fatal(err)
		}
	}
	s, hs := newTestServer(t, Config{Store: mem, StoreFlushInterval: time.Hour})
	waitFor(t, 10*time.Second, "warm start", func() bool { return !s.persist.recovering.Load() })
	return s, mem, hs.URL
}

func sessionView(t *testing.T, base, id string) (SessionView, int) {
	t.Helper()
	resp, err := http.Get(base + "/v1/sessions/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v SessionView
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return v, resp.StatusCode
}

// TestDeltaCheckpointRestores: a crash after a delta round restores the
// session from base + delta, with the delta's edit count and the live
// mean; the restored session's next checkpoint is a new base, which also
// deletes the delta.
func TestDeltaCheckpointRestores(t *testing.T) {
	ctx := context.Background()
	_, mem, id, mean, edits := deltaFixture(t)
	cp, err := decodeCheckpoint(storeObjects(t, mem)[sessionKey(id)])
	if err != nil || cp.Gen != 1 || cp.Edits != 0 {
		t.Fatalf("base: %v, gen %d, edits %d; want the create's base 1", err, cp.Gen, cp.Edits)
	}

	s2, mem2, url := bootOn(t, storeObjects(t, mem))
	v, status := sessionView(t, url, id)
	if status != http.StatusOK || v.Edits != edits || v.MeanPS != mean {
		t.Fatalf("restored session: status %d, %d edits, mean %.17g; want %d edits, mean %.17g", status, v.Edits, v.MeanPS, edits, mean)
	}
	if q := s2.persist.quarantined.Load(); q != 0 {
		t.Fatalf("%d objects quarantined", q)
	}
	applyEdits(t, url, id, SessionEditRequest{Edits: []EditSpec{{Op: "scale_delay", Edge: 7, Scale: 2}}})
	s2.persist.flush(ctx)
	objs := storeObjects(t, mem2)
	if _, ok := objs[deltaKey(id)]; ok {
		t.Fatal("delta left behind by the restored session's new base")
	}
	if cp, err := decodeCheckpoint(objs[sessionKey(id)]); err != nil || cp.Gen != 2 || cp.Edits != edits+1 {
		t.Fatalf("new base: %v, gen %d, edits %d; want gen 2, %d edits", err, cp.Gen, cp.Edits, edits+1)
	}
}

// TestDeltaCrashWindows boots on stores holding the base + delta pairs a
// crash or a damaged store can leave, and checks what warm start makes of
// each: a delta older than its base is deleted and the base restored;
// anything else that cannot be applied quarantines base and delta
// together, so an older state is never restored in its place.
func TestDeltaCrashWindows(t *testing.T) {
	_, mem, id, mean, _ := deltaFixture(t)
	objs := storeObjects(t, mem)
	bkey, dkey := sessionKey(id), deltaKey(id)
	base, err := decodeCheckpoint(objs[bkey])
	if err != nil {
		t.Fatal(err)
	}
	delta, err := decodeDelta(objs[dkey])
	if err != nil {
		t.Fatal(err)
	}
	sealBase := func(gen uint64) []byte {
		cp := *base
		cp.Gen = gen
		payload, err := json.Marshal(&cp)
		if err != nil {
			t.Fatal(err)
		}
		return store.Seal(checkpointKind, checkpointVersion, payload)
	}
	sealDelta := func(edit func(*sessionDelta)) []byte {
		d := *delta
		d.Slots = append([]byte(nil), delta.Slots...)
		edit(&d)
		payload, err := json.Marshal(&d)
		if err != nil {
			t.Fatal(err)
		}
		return store.Seal(deltaKind, deltaVersion, payload)
	}
	// The first slot's nominal sits right after its edge index.
	setNominal := func(x float64) func(*sessionDelta) {
		return func(d *sessionDelta) { binary.LittleEndian.PutUint64(d.Slots[4:], math.Float64bits(x)) }
	}
	pair := func(b, d []byte) map[string][]byte { return map[string][]byte{bkey: b, dkey: d} }

	// A rebase that wrote base 2 and crashed before deleting delta 1.
	s, m, url := bootOn(t, pair(sealBase(2), objs[dkey]))
	if v, status := sessionView(t, url, id); status != http.StatusOK || v.Edits != base.Edits || v.MeanPS == mean {
		t.Fatalf("stale delta: status %d, %+v; want the base's state", status, v)
	}
	if _, err := m.Get(context.Background(), dkey); err == nil {
		t.Fatal("stale delta not deleted")
	}
	if q := s.persist.quarantined.Load(); q != 0 {
		t.Fatalf("stale delta: %d objects quarantined", q)
	}

	// A base written before deltas existed (no generation) and no delta
	// restores as it always did.
	s, _, url = bootOn(t, map[string][]byte{bkey: sealBase(0)})
	if v, status := sessionView(t, url, id); status != http.StatusOK || v.Edits != base.Edits {
		t.Fatalf("pre-delta base: status %d, %+v", status, v)
	}
	if st, _ := durableOf(s.persist, id); st.gen != 0 || !st.needBase {
		t.Fatalf("pre-delta base: durable state %+v", st)
	}

	for name, objs := range map[string]map[string][]byte{
		"newer generation":    pair(objs[bkey], sealDelta(func(d *sessionDelta) { d.Gen = 2 })),
		"unknown generation":  pair(objs[bkey], sealDelta(func(d *sessionDelta) { d.Gen = 0 })),
		"torn":                pair(objs[bkey], objs[dkey][:len(objs[dkey])/2]),
		"other session":       pair(objs[bkey], sealDelta(func(d *sessionDelta) { d.ID = "sess-99" })),
		"NaN slot":            pair(objs[bkey], sealDelta(setNominal(math.NaN()))),
		"beyond edit limit":   pair(objs[bkey], sealDelta(setNominal(1e13))),
		"edge out of range":   pair(objs[bkey], sealDelta(func(d *sessionDelta) { binary.LittleEndian.PutUint32(d.Slots, 1<<30) })),
		"wrong length":        pair(objs[bkey], sealDelta(func(d *sessionDelta) { d.Slots = d.Slots[:len(d.Slots)-8] })),
		"wrong mean":          pair(objs[bkey], sealDelta(func(d *sessionDelta) { d.MeanPS += 1 })),
		"pre-delta base":      pair(sealBase(0), objs[dkey]),
		"delta without base":  {dkey: objs[dkey]},
		"corrupt base, delta": pair(objs[bkey][:100], objs[dkey]),
	} {
		s, m, url := bootOn(t, objs)
		if _, status := sessionView(t, url, id); status != http.StatusNotFound {
			t.Fatalf("%s: session restored (status %d)", name, status)
		}
		want := len(objs)
		if got := s.persist.quarantined.Load(); got != int64(want) || len(m.Quarantined()) != want {
			t.Fatalf("%s: quarantined %d (%v), want %d", name, got, m.Quarantined(), want)
		}
		if keys, _ := m.List(context.Background(), sessionKeyPrefix); len(keys) != 0 {
			t.Fatalf("%s: keys left listed: %v", name, keys)
		}
	}
}

// TestDeltaFailedBasePut: while a new base cannot be written, the previous
// base + delta stay the durable, restorable state and the durable
// generation does not move; once the store heals, the base lands as
// generation 2 and the delta goes.
func TestDeltaFailedBasePut(t *testing.T) {
	ctx := context.Background()
	mem := store.NewMem()
	fault := store.NewFault(mem, store.FaultConfig{})
	s, hs := newTestServer(t, Config{Store: fault, StoreFlushInterval: time.Hour})
	v := createSession(t, hs.URL, SessionCreateRequest{ItemSpec: ItemSpec{Bench: "c432", Seed: 1}})
	s.persist.flush(ctx)
	out := applyEdits(t, hs.URL, v.ID, SessionEditRequest{Edits: []EditSpec{{Op: "scale_delay", Edge: 3, Scale: 2}}})
	s.persist.flush(ctx)
	before := storeObjects(t, mem)
	if _, ok := before[deltaKey(v.ID)]; !ok {
		t.Fatal("no delta after a delay edit")
	}

	// A removed edge is structural: the next checkpoint must be a base.
	applyEdits(t, hs.URL, v.ID, SessionEditRequest{Edits: []EditSpec{{Op: "remove_edge", Edge: 20}}})
	fault.SetConfig(store.FaultConfig{FailEveryN: 1, Only: map[store.Op]bool{store.OpPut: true}})
	for round := 0; round < 2; round++ {
		s.persist.flush(ctx)
		if st, _ := durableOf(s.persist, v.ID); st.gen != 1 || !st.needBase {
			t.Fatalf("round %d: durable state %+v after failed base puts; want generation 1, base needed", round, st)
		}
		if got := storeObjects(t, mem); len(got) != len(before) || string(got[sessionKey(v.ID)]) != string(before[sessionKey(v.ID)]) ||
			string(got[deltaKey(v.ID)]) != string(before[deltaKey(v.ID)]) {
			t.Fatalf("round %d: a failed base put changed the durable checkpoint", round)
		}
	}
	_, _, url := bootOn(t, before)
	if rv, status := sessionView(t, url, v.ID); status != http.StatusOK || rv.MeanPS != out.MeanPS || rv.Edits != 1 {
		t.Fatalf("restore during the outage: status %d, %+v; want the delta's state", status, rv)
	}

	fault.SetConfig(store.FaultConfig{})
	s.persist.flush(ctx)
	after := storeObjects(t, mem)
	if _, ok := after[deltaKey(v.ID)]; ok {
		t.Fatal("delta left next to the new base")
	}
	if cp, err := decodeCheckpoint(after[sessionKey(v.ID)]); err != nil || cp.Gen != 2 || cp.Edits != 2 {
		t.Fatalf("healed base: %v, generation %d, %d edits; want 2, 2", err, cp.Gen, cp.Edits)
	}
	if st, _ := durableOf(s.persist, v.ID); st.gen != 2 || st.needBase || st.delta {
		t.Fatalf("durable state %+v after the base landed", st)
	}
}

// TestDeltaDeleteAndEvictRemoveBothKeys: deleting or evicting a session
// removes its base and its delta.
func TestDeltaDeleteAndEvictRemoveBothKeys(t *testing.T) {
	ctx := context.Background()
	s, mem, id, _, _ := deltaFixture(t)
	s.sessions.remove(id)
	s.dropCheckpoint(id)
	s.persist.flush(ctx)
	if keys, _ := mem.List(ctx, sessionKeyPrefix); len(keys) != 0 {
		t.Fatalf("delete left %v", keys)
	}
	if _, ok := durableOf(s.persist, id); ok {
		t.Fatal("deleted session still has durable state")
	}

	mem = store.NewMem()
	_, hs := newTestServer(t, Config{Store: mem, StoreFlushInterval: 10 * time.Millisecond, SessionTTL: 300 * time.Millisecond})
	v := createSession(t, hs.URL, SessionCreateRequest{ItemSpec: ItemSpec{Bench: "c432", Seed: 1}})
	waitFor(t, 5*time.Second, "base", func() bool { _, err := mem.Get(ctx, sessionKey(v.ID)); return err == nil })
	applyEdits(t, hs.URL, v.ID, SessionEditRequest{Edits: []EditSpec{{Op: "scale_delay", Edge: 3, Scale: 2}}})
	waitFor(t, 5*time.Second, "delta", func() bool { _, err := mem.Get(ctx, deltaKey(v.ID)); return err == nil })
	waitFor(t, 10*time.Second, "eviction to delete both keys", func() bool {
		keys, err := mem.List(ctx, sessionKeyPrefix)
		return err == nil && len(keys) == 0
	})
}

// durableOf reads what the persister believes the store holds for id.
func durableOf(p *persister, id string) (durableSession, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.durable[id]
	return st, ok
}
