// Package store is the durable-state layer of the serving stack: a small
// pluggable key/value object store used to checkpoint timing sessions and
// extracted-model cache entries so a daemon restart does not drop every
// client mid-ECO (ROADMAP item 5a).
//
// The package deliberately stays dumb and dependency-free: keys are
// slash-separated paths, values are opaque byte blobs, and the only
// intelligence is the snapshot envelope (Seal/Open) that makes every blob
// self-describing — a magic string, a kind, a format version, the payload
// size and a CRC32-C checksum — so torn writes, truncation and version
// skew are detected at read time instead of corrupting a restore.
//
// Backends:
//
//   - FS: directory-backed, crash-safe via write-to-temp + atomic rename
//     (optionally fsynced), with a quarantine area for corrupt objects.
//   - Mem: mutex-guarded map, for tests and in-process checkpointing.
//   - Fault: a wrapper that deterministically injects errors, torn writes
//     and latency by op count or probability — the test harness that
//     proves the serving layer degrades gracefully when the store does
//     not.
//
// Persistence off is no backend at all: a server whose Config.Store is
// nil serves purely in memory.
//
// The write-behind pipeline that drives this interface lives in
// internal/server (checkpoint marking, bounded background flusher with
// Backoff retries, warm-start recovery); the snapshot payload formats live
// with their owners (internal/timing GraphSnapshot, ssta SessionSnapshot,
// internal/core model snapshots). Key layout:
//
//	sessions/<id>.snap    a session's full base checkpoint, numbered by
//	                      a generation
//	sessions/<id>.delta   the delay slots changed since that base, naming
//	                      its generation (absent until the first edit)
//	models/<graph>.snap   an extracted model of a reproducible graph
//	preps/<design>.snap   a stamp of a warm per-mode analysis prep
//	quarantine/...        objects moved aside as corrupt or skewed
//
// A session base's payload is JSON whose bulk, the timing graph's
// edge-delay bank, is one base64 field of packed little-endian float64s:
// a c7552 base is 8.0 MB, a c3540 one 2.3 MB and a quad-c1355 one
// 0.56 MB (15.3, 4.3 and 0.97 MB when each delay was JSON numbers). A
// delta packs only the changed slots, one per edited edge (its index and
// the form's floats), so a busy session writes its base again only when
// its structure changes or the delta outgrows an eighth of the base's
// delays.
//
// The robustness contract threaded through all of it: a down, slow or
// corrupt store must never fail or slow an analysis — store trouble
// surfaces in metrics and health, never in request results.
package store
