package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/store"
	"repro/ssta"
)

// This file is the durability layer: a write-behind pipeline from the
// daemon's hot state (live sessions, extracted models) into a pluggable
// store.Backend. The request path never writes — it only marks state
// dirty; a single background flusher snapshots, seals and persists with
// bounded retries. The contract is strict degradation: a down, slow or
// full store must never fail or slow a request. Store trouble surfaces
// only in /metrics and /healthz.
//
// Store layout (all keys validated by store.ValidKey):
//
//	sessions/<id>.snap            one sealed sessionCheckpoint per session:
//	                              the full base, stamped with a generation
//	sessions/<id>.delta           the delay slots changed since that base
//	                              (sessionDelta, naming its generation)
//	models/bench-<name>-s<seed>.snap  extracted model of a bench graph
//	models/mult-<n>.snap              extracted model of a multiplier graph
//	preps/quad-<bench>-s<seed>-g<gap>-<mode>.snap
//	                              stamp recording that a quad design's
//	                              per-mode analysis prep was warm
//	quarantine/...                corrupt or version-skewed snapshots,
//	                              moved aside at warm start, never deleted
//
// On boot the server warm-starts: models are decoded and seeded into the
// extraction cache (keyed by the deterministically rebuilt graph), then
// prep stamps rebuild each recorded quad design and stitch it once so the
// per-mode prep cache is hot before the first sweep arrives, then sessions
// are restored — each checkpoint is decoded, patched with its delta,
// re-propagated and cross-checked against its recorded mean before it goes
// live. Anything that fails is quarantined, counted, and skipped; recovery
// is never fatal.
//
// A dirty session costs one small delta per round while its edits only
// move edge delays: the flusher writes a full base only for a new or
// restored session, after a structural change (see
// ssta.Session.CheckpointDelta), after a failed base Put, or once the
// delta outgrows 1/deltaRebaseFraction of the base's delay bytes. The base
// generation advances only when its Put succeeds; the stale delta is
// deleted after it. Restore applies a delta only to the base of its own
// generation: an older delta is the leftover of that window and is
// deleted, while a newer, unknown, torn or invalid one quarantines the
// base with it, since restoring the base alone would bring back an older
// state.

const (
	// checkpointKind/Version seal the server-level session checkpoint —
	// the envelope around sessionCheckpoint, which embeds the library's
	// own session snapshot payload.
	checkpointKind    = "sstad-session"
	checkpointVersion = 2

	// deltaKind/Version seal a session delta (sessionDelta).
	deltaKind    = "sstad-session-delta"
	deltaVersion = 1

	// deltaRebaseFraction: a delta whose slots exceed this fraction of
	// its base's delay bytes is replaced by a fresh base, which bounds
	// both the delta's size and what restore has to patch.
	deltaRebaseFraction = 8

	// prepKind/Version seal a prep stamp: not the prep itself (preps are
	// large and cheap to rebuild from the deterministic design), just the
	// identity needed to rebuild and re-stitch it at warm start.
	prepKind    = "sstad-prep"
	prepVersion = 1

	sessionKeyPrefix = "sessions/"
	modelKeyPrefix   = "models/"
	prepKeyPrefix    = "preps/"
	snapSuffix       = ".snap"
	deltaSuffix      = ".delta"

	// degradedAfter is how many consecutive failed flush rounds mark the
	// store degraded in /healthz.
	degradedAfter = 3
)

// sessionCheckpoint is the durable base of one live session: the server
// bookkeeping plus the full library snapshot (graph, sweep scenarios,
// criticality enablement). Gen numbers the session's bases from 1; a
// checkpoint written before deltas existed has none and reads as 0.
type sessionCheckpoint struct {
	ID        string                `json:"id"`
	Name      string                `json:"name"`
	CreatedMS int64                 `json:"created_unix_ms"`
	Edits     int64                 `json:"edits"`
	Gen       uint64                `json:"gen,omitempty"`
	Session   *ssta.SessionSnapshot `json:"session"`
}

// sessionDelta is the durable change of one session since its base of
// generation Gen: the edit count and the library delta (mean and changed
// delay slots).
type sessionDelta struct {
	ID    string `json:"id"`
	Gen   uint64 `json:"gen"`
	Edits int64  `json:"edits"`
	ssta.SessionDelta
}

// sessionKey maps a session id onto its base's store key, deltaKey onto
// its delta's.
func sessionKey(id string) string { return sessionKeyPrefix + id + snapSuffix }
func deltaKey(id string) string   { return sessionKeyPrefix + id + deltaSuffix }

// durableSession is what the store holds for one session, as far as this
// process knows.
type durableSession struct {
	gen       uint64 // generation of the durable base (0: none, or a pre-delta one)
	baseBytes int    // that base's delay bytes, the yardstick of its deltas
	delta     bool   // a delta key may exist next to it
	// needBase: the session's delta base is not the durable one (a
	// restored session, or a base whose Put failed), so the next
	// checkpoint must be a base.
	needBase bool
}

// modelKey maps a cacheable graph identity onto a durable store key.
// Netlist-derived graphs have no reproducible identity and return false.
func modelKey(k graphKey) (string, bool) {
	// Clocked variants carry a distinct marker: a registered graph's
	// extracted model must never collide with its combinational sibling.
	clk := ""
	if k.clocked {
		clk = "-clk"
	}
	var key string
	switch {
	case k.mult > 0:
		key = fmt.Sprintf("%smult-%d%s%s", modelKeyPrefix, k.mult, clk, snapSuffix)
	case k.bench != "":
		// Bench names are flat identifiers; anything with separators or
		// dots would produce a non-canonical key.
		if strings.ContainsAny(k.bench, "/.") {
			return "", false
		}
		key = fmt.Sprintf("%sbench-%s-s%d%s%s", modelKeyPrefix, k.bench, k.seed, clk, snapSuffix)
	default:
		return "", false
	}
	if store.ValidKey(key) != nil {
		return "", false
	}
	return key, true
}

// parseModelKey inverts modelKey.
func parseModelKey(key string) (graphKey, bool) {
	name, ok := strings.CutPrefix(key, modelKeyPrefix)
	if !ok {
		return graphKey{}, false
	}
	name, ok = strings.CutSuffix(name, snapSuffix)
	if !ok {
		return graphKey{}, false
	}
	clocked := false
	if rest, ok := strings.CutSuffix(name, "-clk"); ok {
		clocked = true
		name = rest
	}
	if rest, ok := strings.CutPrefix(name, "mult-"); ok {
		n, err := strconv.Atoi(rest)
		if err != nil || n <= 0 {
			return graphKey{}, false
		}
		return graphKey{mult: n, clocked: clocked}, true
	}
	rest, ok := strings.CutPrefix(name, "bench-")
	if !ok {
		return graphKey{}, false
	}
	i := strings.LastIndex(rest, "-s")
	if i <= 0 {
		return graphKey{}, false
	}
	seed, err := strconv.ParseInt(rest[i+2:], 10, 64)
	if err != nil {
		return graphKey{}, false
	}
	return graphKey{bench: rest[:i], seed: seed, clocked: clocked}, true
}

// prepStamp is the durable record of one warm per-mode analysis prep: the
// quad design's reproducible identity plus the correlation mode. The warm
// start rebuilds the design from it and stitches once, repopulating the
// prep cache a restart would otherwise lose.
type prepStamp struct {
	Bench string `json:"bench"`
	Seed  int64  `json:"seed,omitempty"`
	Gap   int    `json:"gap,omitempty"`
	Mode  string `json:"mode"`
}

// modeName is parseMode's canonical inverse.
func modeName(m ssta.Mode) string {
	if m == ssta.GlobalOnly {
		return "global"
	}
	return "full"
}

// prepKey maps a quad design + mode onto its stamp key. Bench names with
// separators have no canonical key, like modelKey.
func prepKey(q *QuadSpec, mode ssta.Mode) (string, bool) {
	if q == nil || q.Bench == "" || strings.ContainsAny(q.Bench, "/.") {
		return "", false
	}
	key := fmt.Sprintf("%squad-%s-s%d-g%d-%s%s",
		prepKeyPrefix, q.Bench, q.Seed, q.Gap, modeName(mode), snapSuffix)
	if store.ValidKey(key) != nil {
		return "", false
	}
	return key, true
}

// encodePrepStamp seals one stamp for the store.
func encodePrepStamp(st prepStamp) ([]byte, error) {
	payload, err := json.Marshal(&st)
	if err != nil {
		return nil, err
	}
	return store.Seal(prepKind, prepVersion, payload), nil
}

// decodePrepStamp is the inverse of encodePrepStamp.
func decodePrepStamp(data []byte) (prepStamp, error) {
	payload, err := store.OpenKind(data, prepKind, prepVersion)
	if err != nil {
		return prepStamp{}, err
	}
	var st prepStamp
	if err := json.Unmarshal(payload, &st); err != nil {
		return prepStamp{}, fmt.Errorf("%w: prep stamp payload: %v", store.ErrCorrupt, err)
	}
	if st.Bench == "" {
		return prepStamp{}, fmt.Errorf("%w: prep stamp missing bench", store.ErrCorrupt)
	}
	if _, err := parseMode(st.Mode); err != nil {
		return prepStamp{}, fmt.Errorf("%w: prep stamp mode: %v", store.ErrCorrupt, err)
	}
	return st, nil
}

// measuredBackend wraps a Backend with per-op counters for /metrics.
// A Get miss (ErrNotFound) is an answer, not a failure.
type measuredBackend struct {
	inner    store.Backend
	ops      [5]atomic.Int64 // indexed by storeOpIndex
	errs     [5]atomic.Int64
	putBytes atomic.Int64 // bytes of successful Puts
}

const (
	opIdxPut = iota
	opIdxGet
	opIdxDelete
	opIdxList
	opIdxQuarantine
)

var storeOpNames = [5]string{"put", "get", "delete", "list", "quarantine"}

func (m *measuredBackend) record(idx int, err error) {
	m.ops[idx].Add(1)
	if err != nil && !errors.Is(err, store.ErrNotFound) {
		m.errs[idx].Add(1)
	}
}

func (m *measuredBackend) Kind() string { return m.inner.Kind() }

func (m *measuredBackend) Put(ctx context.Context, key string, data []byte) error {
	err := m.inner.Put(ctx, key, data)
	m.record(opIdxPut, err)
	if err == nil {
		m.putBytes.Add(int64(len(data)))
	}
	return err
}

func (m *measuredBackend) Get(ctx context.Context, key string) ([]byte, error) {
	data, err := m.inner.Get(ctx, key)
	m.record(opIdxGet, err)
	return data, err
}

func (m *measuredBackend) Delete(ctx context.Context, key string) error {
	err := m.inner.Delete(ctx, key)
	m.record(opIdxDelete, err)
	return err
}

func (m *measuredBackend) List(ctx context.Context, prefix string) ([]string, error) {
	keys, err := m.inner.List(ctx, prefix)
	m.record(opIdxList, err)
	return keys, err
}

func (m *measuredBackend) Quarantine(ctx context.Context, key string) error {
	err := m.inner.Quarantine(ctx, key)
	m.record(opIdxQuarantine, err)
	return err
}

// persister owns everything durable: the pending write-behind queues, the
// flush bookkeeping, and the warm-start state.
type persister struct {
	srv   *Server
	store *measuredBackend
	every time.Duration

	mu         sync.Mutex
	dirty      map[string]struct{}       // session ids with unflushed edits
	dead       map[string]struct{}       // session ids whose checkpoint must go
	models     map[string]*ssta.Model    // durable key -> model awaiting write
	preps      map[string]prepStamp      // durable key -> prep stamp awaiting write
	prepDone   map[string]struct{}       // stamp keys already persisted this process
	durable    map[string]durableSession // session id -> what the store holds for it
	oldestMark time.Time                 // when the oldest pending entry was enqueued
	lastFlush  time.Time                 // last fully successful flush round
	lastErr    error
	consecFail int

	recovering  atomic.Bool
	quarantined atomic.Int64
	restored    atomic.Int64 // sessions brought back at warm start
	flushNanos  atomic.Int64 // wall time spent in flush rounds
	bases       atomic.Int64 // session base checkpoints written
	deltas      atomic.Int64 // session delta checkpoints written
}

func newPersister(s *Server, backend store.Backend, every time.Duration) *persister {
	return &persister{
		srv:       s,
		store:     &measuredBackend{inner: backend},
		every:     every,
		dirty:     make(map[string]struct{}),
		dead:      make(map[string]struct{}),
		models:    make(map[string]*ssta.Model),
		preps:     make(map[string]prepStamp),
		prepDone:  make(map[string]struct{}),
		durable:   make(map[string]durableSession),
		lastFlush: time.Now(),
	}
}

// markEnqueuedLocked stamps the flush-lag clock when the queue transitions
// from empty to non-empty. Callers hold p.mu.
func (p *persister) markEnqueuedLocked() {
	if p.oldestMark.IsZero() {
		p.oldestMark = time.Now()
	}
}

func (p *persister) markDirty(id string) {
	p.mu.Lock()
	delete(p.dead, id)
	p.dirty[id] = struct{}{}
	p.markEnqueuedLocked()
	p.mu.Unlock()
}

func (p *persister) markDead(id string) {
	p.mu.Lock()
	delete(p.dirty, id)
	p.dead[id] = struct{}{}
	p.markEnqueuedLocked()
	p.mu.Unlock()
}

func (p *persister) addModel(gk graphKey, m *ssta.Model) {
	key, ok := modelKey(gk)
	if !ok || m == nil {
		return
	}
	p.mu.Lock()
	if _, seen := p.models[key]; !seen {
		p.models[key] = m
		p.markEnqueuedLocked()
	}
	p.mu.Unlock()
}

func (p *persister) addPrep(q *QuadSpec, mode ssta.Mode) {
	key, ok := prepKey(q, mode)
	if !ok {
		return
	}
	p.mu.Lock()
	if _, done := p.prepDone[key]; !done {
		if _, seen := p.preps[key]; !seen {
			p.preps[key] = prepStamp{Bench: q.Bench, Seed: q.Seed, Gap: q.Gap, Mode: modeName(mode)}
			p.markEnqueuedLocked()
		}
	}
	p.mu.Unlock()
}

// pending reports the queue depth (metrics).
func (p *persister) pending() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.dirty) + len(p.dead) + len(p.models) + len(p.preps)
}

// flushLag is how long the oldest pending entry has waited (zero when
// drained) — the gauge that makes a silently failing store visible.
func (p *persister) flushLag(now time.Time) time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.oldestMark.IsZero() {
		return 0
	}
	return now.Sub(p.oldestMark)
}

// status snapshots the health fields for /healthz.
func (p *persister) status() (kind string, lastFlushAge time.Duration, lastErr error, degraded bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.store.Kind(), time.Since(p.lastFlush), p.lastErr, p.consecFail >= degradedAfter
}

// retryPolicy bounds per-entry store attempts inside one flush round. The
// round itself re-runs on the flush ticker, so failed entries are simply
// re-queued rather than retried forever here.
func (p *persister) retryPolicy() store.Backoff {
	b := store.DefaultBackoff()
	b.Base = 10 * time.Millisecond
	b.Cap = p.every
	b.MaxAttempts = 3
	return b
}

// runStoreFlusher drains the write-behind queues on the flush interval
// until shutdown. One goroutine: writes are naturally bounded, and every
// round coalesces all edits since the last — a busy session costs one
// checkpoint write per interval, not one per edit batch. The interval is
// therefore also the crash-loss window (Close flushes the remainder).
func (s *Server) runStoreFlusher(base context.Context) {
	defer s.wg.Done()
	p := s.persist
	tick := time.NewTicker(p.every)
	defer tick.Stop()
	for {
		select {
		case <-base.Done():
			return
		case <-tick.C:
		}
		p.flush(base)
	}
}

// flush drains a snapshot of the pending queues. Entries that fail are
// re-queued so the next round retries them; a fully clean round resets
// the degradation counters.
func (p *persister) flush(ctx context.Context) {
	defer func(start time.Time) { p.flushNanos.Add(int64(time.Since(start))) }(time.Now())
	p.mu.Lock()
	dirty, dead, models, preps := p.dirty, p.dead, p.models, p.preps
	prevMark := p.oldestMark
	p.dirty = make(map[string]struct{})
	p.dead = make(map[string]struct{})
	p.models = make(map[string]*ssta.Model)
	p.preps = make(map[string]prepStamp)
	p.oldestMark = time.Time{}
	p.mu.Unlock()

	// Entries that fail below re-enqueue with the pre-flush timestamp so
	// the flush-lag gauge keeps growing while the store stays down.
	requeueMark := func() {
		if !prevMark.IsZero() && (p.oldestMark.IsZero() || prevMark.Before(p.oldestMark)) {
			p.oldestMark = prevMark
		} else {
			p.markEnqueuedLocked()
		}
	}
	if len(dirty) == 0 && len(dead) == 0 && len(models) == 0 && len(preps) == 0 {
		return
	}

	// Anything that fails is re-queued, including writes a shutdown cut
	// short: the final flush then writes them. A cut is not a store
	// failure, so it does not count toward degradation.
	bo := p.retryPolicy()
	var firstErr error
	fail := func(err error) {
		if firstErr == nil && ctx.Err() == nil {
			firstErr = err
		}
	}

	for id := range dead {
		// Base first: a crash between the two leaves a delta without a
		// base, which warm start quarantines instead of restoring.
		var err error
		for _, key := range []string{sessionKey(id), deltaKey(id)} {
			if err = bo.Retry(ctx, func() error { return p.store.Delete(ctx, key) }); err != nil {
				err = fmt.Errorf("delete %s: %w", key, err)
				break
			}
		}
		p.mu.Lock()
		if err != nil {
			fail(err)
			p.dead[id] = struct{}{}
			requeueMark()
		} else {
			delete(p.durable, id)
		}
		p.mu.Unlock()
	}

	for id := range dirty {
		reg, ok := p.srv.sessions.get(id)
		if !ok {
			continue // evicted or deleted since the mark; its dead entry wins
		}
		// A snapshot that cannot encode will not encode next round either;
		// surface it and drop the mark instead of spinning. Store failures
		// re-queue.
		if retry, err := p.flushSession(ctx, bo, reg); err != nil {
			fail(err)
			if retry {
				p.mu.Lock()
				if _, gone := p.dead[id]; !gone {
					p.dirty[id] = struct{}{}
					requeueMark()
				}
				p.mu.Unlock()
			}
		}
	}

	for key, m := range models {
		data, err := m.EncodeSnapshot()
		if err != nil {
			fail(fmt.Errorf("encode %s: %w", key, err))
			continue
		}
		err = bo.Retry(ctx, func() error { return p.store.Put(ctx, key, data) })
		if err != nil {
			fail(fmt.Errorf("put %s: %w", key, err))
			p.mu.Lock()
			if _, seen := p.models[key]; !seen {
				p.models[key] = m
				requeueMark()
			}
			p.mu.Unlock()
		}
	}

	for key, st := range preps {
		data, err := encodePrepStamp(st)
		if err != nil {
			fail(fmt.Errorf("encode %s: %w", key, err))
			continue
		}
		err = bo.Retry(ctx, func() error { return p.store.Put(ctx, key, data) })
		if err != nil {
			fail(fmt.Errorf("put %s: %w", key, err))
			p.mu.Lock()
			if _, seen := p.preps[key]; !seen {
				p.preps[key] = st
				requeueMark()
			}
			p.mu.Unlock()
			continue
		}
		if err == nil {
			// A design's prep identity never changes; once the stamp is
			// durable, later analyses of the same design stop re-enqueuing it.
			p.mu.Lock()
			p.prepDone[key] = struct{}{}
			p.mu.Unlock()
		}
	}

	p.mu.Lock()
	if firstErr != nil {
		p.lastErr = firstErr
		p.consecFail++
	} else {
		p.lastFlush = time.Now()
		p.lastErr = nil
		p.consecFail = 0
	}
	p.mu.Unlock()
}

// flushSession writes one dirty session's checkpoint: a delta against its
// durable base when the session can capture one within
// 1/deltaRebaseFraction of the base's delay bytes, a new base otherwise.
// retry reports whether a failure is worth re-queuing (a store failure,
// not an encode failure).
func (p *persister) flushSession(ctx context.Context, bo store.Backoff, reg *srvSession) (retry bool, err error) {
	p.mu.Lock()
	st := p.durable[reg.id]
	p.mu.Unlock()
	if st.gen > 0 && !st.needBase {
		if d := reg.sess.CheckpointDelta(); d != nil && len(d.Slots)*deltaRebaseFraction <= st.baseBytes {
			data, err := encodeDelta(reg, st.gen, d)
			if err != nil {
				return false, fmt.Errorf("delta %s: %w", reg.id, err)
			}
			key := deltaKey(reg.id)
			if err := bo.Retry(ctx, func() error { return p.store.Put(ctx, key, data) }); err != nil {
				return true, fmt.Errorf("put %s: %w", key, err)
			}
			p.deltas.Add(1)
			st.delta = true
			p.setDurable(reg.id, st)
			return false, nil
		}
	}
	gen := st.gen + 1
	data, baseBytes, err := encodeCheckpoint(reg, gen)
	if err != nil {
		return false, fmt.Errorf("snapshot %s: %w", reg.id, err)
	}
	key := sessionKey(reg.id)
	if err := bo.Retry(ctx, func() error { return p.store.Put(ctx, key, data) }); err != nil {
		// The previous base and delta stay the durable state, and the
		// session's delta base now matches nothing durable.
		st.needBase = true
		p.setDurable(reg.id, st)
		return true, fmt.Errorf("put %s: %w", key, err)
	}
	p.bases.Add(1)
	st = durableSession{gen: gen, baseBytes: baseBytes, delta: st.delta}
	if st.delta {
		dkey := deltaKey(reg.id)
		if err := bo.Retry(ctx, func() error { return p.store.Delete(ctx, dkey) }); err != nil {
			// Harmless until deleted: restore drops a delta older than
			// its base, and the next delta overwrites it.
			p.setDurable(reg.id, st)
			return true, fmt.Errorf("delete %s: %w", dkey, err)
		}
		st.delta = false
	}
	p.setDurable(reg.id, st)
	return false, nil
}

func (p *persister) setDurable(id string, st durableSession) {
	p.mu.Lock()
	p.durable[id] = st
	p.mu.Unlock()
}

// encodeCheckpoint seals a base checkpoint of one live session under
// generation gen, makes it the session's delta base, and returns its
// delay bytes too. The snapshot is taken here, on the flusher — the
// request path only marked the id dirty.
func encodeCheckpoint(reg *srvSession, gen uint64) ([]byte, int, error) {
	reg.mu.Lock()
	edits := reg.edits
	reg.mu.Unlock()
	cp := sessionCheckpoint{
		ID:        reg.id,
		Name:      reg.name,
		CreatedMS: reg.created.UnixMilli(),
		Edits:     edits,
		Gen:       gen,
		Session:   reg.sess.CheckpointBase(),
	}
	payload, err := json.Marshal(&cp)
	if err != nil {
		return nil, 0, err
	}
	return store.Seal(checkpointKind, checkpointVersion, payload), len(cp.Session.Graph.Delays), nil
}

// encodeDelta seals a captured delta of one live session against its base
// of generation gen.
func encodeDelta(reg *srvSession, gen uint64, d *ssta.SessionDelta) ([]byte, error) {
	reg.mu.Lock()
	edits := reg.edits
	reg.mu.Unlock()
	payload, err := json.Marshal(&sessionDelta{ID: reg.id, Gen: gen, Edits: edits, SessionDelta: *d})
	if err != nil {
		return nil, err
	}
	return store.Seal(deltaKind, deltaVersion, payload), nil
}

// decodeDelta is the inverse of encodeDelta, with decodeCheckpoint's
// failure classes.
func decodeDelta(data []byte) (*sessionDelta, error) {
	payload, err := store.OpenKind(data, deltaKind, deltaVersion)
	if err != nil {
		return nil, err
	}
	var d sessionDelta
	if err := json.Unmarshal(payload, &d); err != nil {
		return nil, fmt.Errorf("%w: delta payload: %v", store.ErrCorrupt, err)
	}
	if d.ID == "" {
		return nil, fmt.Errorf("%w: delta missing id", store.ErrCorrupt)
	}
	return &d, nil
}

// decodeCheckpoint is the inverse of encodeCheckpoint. Corruption and
// version skew surface as store.ErrCorrupt / store.ErrVersion.
func decodeCheckpoint(data []byte) (*sessionCheckpoint, error) {
	payload, err := store.OpenKind(data, checkpointKind, checkpointVersion)
	if err != nil {
		return nil, err
	}
	var cp sessionCheckpoint
	if err := json.Unmarshal(payload, &cp); err != nil {
		return nil, fmt.Errorf("%w: checkpoint payload: %v", store.ErrCorrupt, err)
	}
	if cp.ID == "" || cp.Session == nil {
		return nil, fmt.Errorf("%w: checkpoint missing id or session", store.ErrCorrupt)
	}
	return &cp, nil
}

// bumpSessionSeq scans existing checkpoints at boot and advances the
// session id counter past them, so sessions created before the async warm
// start finishes cannot collide with ids about to be restored. Runs
// synchronously in New; a failing store degrades to an empty scan.
func (p *persister) bumpSessionSeq(ctx context.Context) {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	keys, err := p.store.List(ctx, sessionKeyPrefix)
	if err != nil {
		return
	}
	var max int64
	for _, key := range keys {
		id, _, ok := parseSessionKey(key)
		if !ok {
			continue
		}
		if n, ok := strings.CutPrefix(id, "sess-"); ok {
			if v, err := strconv.ParseInt(n, 10, 64); err == nil && v > max {
				max = v
			}
		}
	}
	p.srv.sessions.bumpSeq(max)
}

// parseSessionKey inverts sessionKey and deltaKey.
func parseSessionKey(key string) (id string, delta, ok bool) {
	id, ok = strings.CutPrefix(key, sessionKeyPrefix)
	if !ok {
		return "", false, false
	}
	if id, ok = strings.CutSuffix(id, deltaSuffix); ok {
		return id, true, true
	}
	id, ok = strings.CutSuffix(id, snapSuffix)
	return id, false, ok
}

// runWarmStart restores durable state in the background: extracted models
// first (cheap, makes restored sessions and early requests hit the cache),
// then sessions. Every failure quarantines and continues — a damaged
// store degrades the warm start, never the boot.
func (s *Server) runWarmStart(base context.Context) {
	defer s.wg.Done()
	p := s.persist
	defer p.recovering.Store(false) // raised synchronously in New
	p.warmStartModels(base)
	p.warmStartPreps(base)
	p.warmStartSessions(base)
}

// quarantine moves a bad snapshot aside (keeping the bytes for forensics)
// and counts it.
func (p *persister) quarantine(ctx context.Context, key string, cause error) {
	p.quarantined.Add(1)
	if err := p.store.Quarantine(ctx, key); err != nil && !errors.Is(err, store.ErrNotFound) {
		log.Printf("sstad: store: quarantine %s: %v (cause: %v)", key, err, cause)
		return
	}
	log.Printf("sstad: store: quarantined %s: %v", key, cause)
}

func (p *persister) warmStartModels(ctx context.Context) {
	keys, err := p.store.List(ctx, modelKeyPrefix)
	if err != nil {
		log.Printf("sstad: store: warm start: list models: %v", err)
		return
	}
	seeded := 0
	for _, key := range keys {
		if ctx.Err() != nil {
			return
		}
		gk, ok := parseModelKey(key)
		if !ok {
			p.quarantine(ctx, key, errors.New("unrecognized model key"))
			continue
		}
		data, err := p.store.Get(ctx, key)
		if err != nil {
			continue
		}
		m, err := ssta.DecodeModelSnapshot(data)
		if err != nil {
			p.quarantine(ctx, key, err)
			continue
		}
		// The extraction cache is keyed by graph identity; rebuild the
		// graph deterministically (bench/seed or mult fully determine it)
		// and seed the cache entry the next extraction would recompute.
		g, err := p.srv.cachedGraph(ctx, gk)
		if err != nil {
			log.Printf("sstad: store: warm start: rebuild graph for %s: %v", key, err)
			continue
		}
		if p.srv.flow.Cache.Seed(g, ssta.ExtractOptions{}, m) {
			seeded++
		}
	}
	if seeded > 0 {
		log.Printf("sstad: store: warm start: seeded %d extracted models", seeded)
	}
}

// warmStartPreps rebuilds each stamped quad design and stitches it once,
// so the restarted daemon's first sweep of that design hits the per-mode
// prep cache instead of paying the partition/PCA/replacement setup again.
// Runs after models (the rebuild reuses the freshly seeded extraction
// cache) and before sessions.
func (p *persister) warmStartPreps(ctx context.Context) {
	keys, err := p.store.List(ctx, prepKeyPrefix)
	if err != nil {
		log.Printf("sstad: store: warm start: list preps: %v", err)
		return
	}
	warmed := 0
	for _, key := range keys {
		if ctx.Err() != nil {
			return
		}
		data, err := p.store.Get(ctx, key)
		if err != nil {
			continue
		}
		st, err := decodePrepStamp(data)
		if err != nil {
			p.quarantine(ctx, key, err)
			continue
		}
		mode, _ := parseMode(st.Mode) // validated by decodePrepStamp
		d, err := p.srv.quadDesign(ctx, &QuadSpec{Bench: st.Bench, Seed: st.Seed, Gap: st.Gap})
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			log.Printf("sstad: store: warm start: rebuild design for %s: %v", key, err)
			continue
		}
		if _, err := d.Stitch(ctx, mode, ssta.AnalyzeOptions{Workers: p.srv.cfg.Workers}); err != nil {
			if ctx.Err() != nil {
				return
			}
			log.Printf("sstad: store: warm start: stitch %s: %v", key, err)
			continue
		}
		p.mu.Lock()
		p.prepDone[key] = struct{}{} // already durable; don't rewrite it
		p.mu.Unlock()
		warmed++
	}
	if warmed > 0 {
		log.Printf("sstad: store: warm start: warmed %d analysis preps", warmed)
	}
}

func (p *persister) warmStartSessions(ctx context.Context) {
	keys, err := p.store.List(ctx, sessionKeyPrefix)
	if err != nil {
		log.Printf("sstad: store: warm start: list sessions: %v", err)
		return
	}
	deltas := make(map[string]string) // session id -> delta key
	var bases []string
	for _, key := range keys {
		if id, delta, _ := parseSessionKey(key); delta {
			deltas[id] = key
		} else {
			bases = append(bases, key)
		}
	}
	// A delete that raced the warm start wins: skip ids already marked
	// dead so a removed session cannot resurrect.
	dead := func(id string) bool {
		p.mu.Lock()
		defer p.mu.Unlock()
		_, gone := p.dead[id]
		return gone
	}
	for _, key := range bases {
		if ctx.Err() != nil {
			return
		}
		id, _, ok := parseSessionKey(key)
		dkey := deltas[id]
		delete(deltas, id)
		if ok && dead(id) {
			continue
		}
		p.restoreSession(ctx, key, dkey)
	}
	// A delta without a base cannot restore (a delete cut between its two
	// keys leaves one); keep its bytes aside.
	for id, dkey := range deltas {
		if ctx.Err() == nil && !dead(id) {
			p.quarantine(ctx, dkey, errors.New("session delta without a base checkpoint"))
		}
	}
	if n := p.restored.Load(); n > 0 {
		log.Printf("sstad: store: warm start: restored %d sessions", n)
	}
}

// restoreSession brings back one session from its base checkpoint and, when
// dkey is not empty, the delta stored next to it (see the file comment for
// which deltas apply).
func (p *persister) restoreSession(ctx context.Context, key, dkey string) {
	data, err := p.store.Get(ctx, key)
	if err != nil {
		return
	}
	bad := func(err error, keys ...string) {
		for _, k := range keys {
			p.quarantine(ctx, k, err)
		}
	}
	withDelta := []string{key}
	if dkey != "" {
		withDelta = append(withDelta, dkey)
	}
	cp, err := decodeCheckpoint(data)
	if err != nil {
		bad(err, withDelta...)
		return
	}
	snap, edits, applied := cp.Session, cp.Edits, false
	if dkey != "" {
		ddata, err := p.store.Get(ctx, dkey)
		switch {
		case errors.Is(err, store.ErrNotFound):
		case err != nil:
			// Restoring the base alone could bring back an older state;
			// leave both for the next boot.
			log.Printf("sstad: store: warm start: get %s: %v", dkey, err)
			return
		default:
			d, err := decodeDelta(ddata)
			switch {
			case err != nil:
				bad(err, withDelta...)
				return
			case d.ID != cp.ID:
				bad(fmt.Errorf("delta of session %q next to base of %q", d.ID, cp.ID), withDelta...)
				return
			case d.Gen == 0 || d.Gen > cp.Gen:
				bad(fmt.Errorf("delta generation %d, base generation %d", d.Gen, cp.Gen), withDelta...)
				return
			case d.Gen < cp.Gen:
				// Left over from a rebase cut before its delete.
				if err := p.store.Delete(ctx, dkey); err != nil {
					log.Printf("sstad: store: warm start: delete stale %s: %v", dkey, err)
				}
			default:
				if snap, err = cp.Session.WithDelta(&d.SessionDelta); err != nil {
					bad(err, withDelta...)
					return
				}
				edits, applied = d.Edits, true
			}
		}
	}
	sess, err := p.srv.flow.RestoreSession(ctx, snap)
	if err != nil {
		if ctx.Err() != nil {
			return
		}
		if applied {
			bad(err, withDelta...)
		} else {
			bad(err, key)
		}
		return
	}
	created := time.UnixMilli(cp.CreatedMS)
	if !p.srv.sessions.restore(cp.ID, cp.Name, created, edits, sess) {
		return // id taken or table full; leave the checkpoint be
	}
	p.restored.Add(1)
	// The restored session has no delta base yet: its first checkpoint is
	// a new base, which also deletes the delta.
	p.setDurable(cp.ID, durableSession{gen: cp.Gen, delta: dkey != "", needBase: true})
}

// finalFlush is the shutdown drain: one synchronous flush with its own
// deadline after the flusher goroutine has exited.
func (p *persister) finalFlush() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Every live session that has seen any edit since its last flush is in
	// dirty already; flush what is pending.
	p.flush(ctx)
}

// --- nil-safe server hooks (no-ops without a configured store) ---

func (s *Server) checkpointSession(id string) {
	if s.persist != nil {
		s.persist.markDirty(id)
	}
}

func (s *Server) dropCheckpoint(id string) {
	if s.persist != nil {
		s.persist.markDead(id)
	}
}

func (s *Server) checkpointModel(gk graphKey, m *ssta.Model) {
	if s.persist != nil {
		s.persist.addModel(gk, m)
	}
}

// checkpointPrep stamps a quad design whose per-mode analysis prep is (or
// is about to be) warm, so a restarted daemon rebuilds the prep before its
// first sweep.
func (s *Server) checkpointPrep(q *QuadSpec, mode ssta.Mode) {
	if s.persist != nil && q != nil {
		s.persist.addPrep(q, mode)
	}
}
