package server

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"
)

// Fingerprint is the canonical identity of server-side work: a SHA-256
// over a tag/length-prefixed encoding of the fields that determine an
// analysis outcome. One fingerprint vocabulary keys the in-flight request
// coalescer, the micro-batcher's compatibility groups and a coordinator's
// session placement, so "the same work" means exactly one thing in each.
//
// The encoding is injective by construction: every field is written with
// a distinct tag and an explicit length or fixed width, so two specs
// differing in any encoded field cannot collide short of a SHA-256
// collision. Map-shaped fields (edge scales, swaps) are written in sorted
// key order, making the fingerprint independent of map iteration order.
type Fingerprint [sha256.Size]byte

// String renders a short hex prefix for logs and debugging.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:8]) }

// fpWriter accumulates the canonical encoding. Field helpers never fail:
// sha256's Write cannot error.
type fpWriter struct {
	h   hash.Hash
	buf [10]byte
}

func newFPWriter() *fpWriter { return &fpWriter{h: sha256.New()} }

func (w *fpWriter) tag(t byte) {
	w.buf[0] = t
	w.h.Write(w.buf[:1])
}

func (w *fpWriter) str(t byte, s string) {
	w.tag(t)
	binary.BigEndian.PutUint64(w.buf[:8], uint64(len(s)))
	w.h.Write(w.buf[:8])
	w.h.Write([]byte(s))
}

func (w *fpWriter) i64(t byte, v int64) {
	w.tag(t)
	binary.BigEndian.PutUint64(w.buf[:8], uint64(v))
	w.h.Write(w.buf[:8])
}

func (w *fpWriter) f64(t byte, v float64) {
	w.tag(t)
	binary.BigEndian.PutUint64(w.buf[:8], math.Float64bits(v))
	w.h.Write(w.buf[:8])
}

func (w *fpWriter) sum() Fingerprint {
	var f Fingerprint
	w.h.Sum(f[:0])
	return f
}

// Field tags of the canonical encoding. Values are stable identifiers,
// not wire format — fingerprints never leave the process — but keeping
// them distinct per field is what makes the encoding injective.
const (
	fpTagBench    = 0x01
	fpTagSeed     = 0x02
	fpTagNetlist  = 0x03
	fpTagMult     = 0x04
	fpTagQuad     = 0x05
	fpTagQuadGap  = 0x06
	fpTagMode     = 0x07
	fpTagExtract  = 0x08
	fpTagName     = 0x09
	fpTagDerate   = 0x10
	fpTagCell     = 0x11
	fpTagNet      = 0x12
	fpTagEdgeIdx  = 0x13
	fpTagEdgeVal  = 0x14
	fpTagGlob     = 0x15
	fpTagLoc      = 0x16
	fpTagRand     = 0x17
	fpTagSwapInst = 0x18
	fpTagSwapMod  = 0x19
	fpTagEndpoint = 0x20
	fpTagWorkers  = 0x21
	fpTagItemWkrs = 0x22
	fpTagTimeout  = 0x23
	fpTagTopK     = 0x24
	fpTagCount    = 0x25
	fpTagSub      = 0x26
	fpTagClocked  = 0x27
	fpTagClkPer   = 0x28
	fpTagClkSkew  = 0x29
	fpTagClkJit   = 0x2a
)

// writeItem encodes the analysis subject of one item spec: the input
// selector (bench/netlist/mult/quad) and its parameters. Name, mode and
// extract are NOT part of the subject — Name only labels the response,
// and mode/extract select what is computed over the subject, so callers
// that need them fold them in on top (see requestFingerprint and the
// batcher's group key).
func (w *fpWriter) writeItem(spec *ItemSpec) {
	switch {
	case spec.Quad != nil:
		w.str(fpTagQuad, spec.Quad.Bench)
		w.i64(fpTagSeed, spec.Quad.Seed)
		w.i64(fpTagQuadGap, int64(spec.Quad.Gap))
	case spec.Netlist != "":
		w.str(fpTagNetlist, spec.Netlist)
	case spec.Mult > 0:
		w.i64(fpTagMult, int64(spec.Mult))
	default:
		w.str(fpTagBench, spec.Bench)
		w.i64(fpTagSeed, spec.Seed)
	}
	if spec.Clocked {
		// Tag presence alone distinguishes the registered variant; absence
		// keeps pre-existing combinational fingerprints stable.
		w.i64(fpTagClocked, 1)
	}
}

// ItemFingerprint is the canonical identity of one item's analysis
// subject: which graph or design the work runs against, independent of
// how it is labeled (Name) or what is computed over it (mode, extract).
// Combined with the mode, it keys the micro-batcher's compatibility
// groups.
func ItemFingerprint(spec *ItemSpec) Fingerprint {
	w := newFPWriter()
	w.writeItem(spec)
	return w.sum()
}

// writeScenario encodes one wire scenario's transform: every rescale knob
// plus module swaps in sorted instance order. withName additionally folds
// in the display name (request-identity use); without it, two scenarios
// that perform the same transform fingerprint identically regardless of
// what callers named them — the batcher's dedup key.
func (w *fpWriter) writeScenario(sp *SweepScenarioSpec, withName bool) {
	if withName {
		w.str(fpTagName, sp.Name)
	}
	w.f64(fpTagDerate, sp.Derate)
	w.f64(fpTagCell, sp.CellScale)
	w.f64(fpTagNet, sp.NetScale)
	if len(sp.EdgeScales) > 0 {
		idx := make([]int, 0, len(sp.EdgeScales))
		for e := range sp.EdgeScales {
			idx = append(idx, e)
		}
		sort.Ints(idx)
		for _, e := range idx {
			w.i64(fpTagEdgeIdx, int64(e))
			w.f64(fpTagEdgeVal, sp.EdgeScales[e])
		}
	}
	w.f64(fpTagGlob, sp.GlobSigma)
	w.f64(fpTagLoc, sp.LocSigma)
	w.f64(fpTagRand, sp.RandSigma)
	w.f64(fpTagClkPer, sp.ClockPeriodPS)
	w.f64(fpTagClkSkew, sp.ClockSkewPS)
	w.f64(fpTagClkJit, sp.ClockJitterPS)
	if len(sp.Swaps) > 0 {
		insts := make([]string, 0, len(sp.Swaps))
		for inst := range sp.Swaps {
			insts = append(insts, inst)
		}
		sort.Strings(insts)
		for _, inst := range insts {
			sw := sp.Swaps[inst]
			w.str(fpTagSwapInst, inst)
			w.str(fpTagSwapMod, sw.Bench)
			w.i64(fpTagSeed, sw.Seed)
		}
	}
}

// ScenarioFingerprint is the canonical identity of one wire scenario's
// transform, excluding its display name: two callers asking for the same
// derates/sigmas/swaps under different names map to the same fingerprint,
// which is what lets the micro-batcher evaluate the scenario once and
// answer both.
func ScenarioFingerprint(sp *SweepScenarioSpec) Fingerprint {
	w := newFPWriter()
	w.writeScenario(sp, false)
	return w.sum()
}

// requestFingerprint is the full identity of a synchronous request for
// the coalescer: endpoint, every item field including names, the
// scheduling knobs, and the scenario list with names. Two requests with
// equal fingerprints produce byte-identical response bodies, so attaching
// one to the other's in-flight execution is observationally equivalent to
// running it.
func requestFingerprint(endpoint string, req *AnalyzeRequest, scens []SweepScenarioSpec, topK int) Fingerprint {
	w := newFPWriter()
	w.str(fpTagEndpoint, endpoint)
	w.i64(fpTagWorkers, int64(req.Workers))
	w.i64(fpTagItemWkrs, int64(req.ItemWorkers))
	w.i64(fpTagTimeout, req.TimeoutMS)
	w.i64(fpTagTopK, int64(topK))
	w.i64(fpTagCount, int64(len(req.Items)))
	for k := range req.Items {
		spec := &req.Items[k]
		w.tag(fpTagSub)
		w.str(fpTagName, spec.Name)
		w.str(fpTagMode, spec.Mode)
		if spec.Extract {
			w.i64(fpTagExtract, 1)
		}
		w.writeItem(spec)
	}
	w.i64(fpTagCount, int64(len(scens)))
	for i := range scens {
		w.tag(fpTagSub)
		w.writeScenario(&scens[i], true)
	}
	return w.sum()
}
