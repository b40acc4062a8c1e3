package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Snapshot envelope: every durable object is a one-line JSON header
// followed by the raw payload bytes,
//
//	{"magic":"sstad-snap","kind":"session","format_version":1,"size":N,"crc32c":C}\n<payload>
//
// The header makes the blob self-describing (kind + format version drive
// quarantine decisions on skew) and the size + CRC32-C pair detects
// truncation, torn writes and bit rot before a decoder ever sees the
// payload. The payload itself stays uninterpreted here — typically JSON,
// still greppable on disk.

// envelopeMagic identifies a sealed snapshot.
const envelopeMagic = "sstad-snap"

// maxHeaderBytes bounds the header line scan so a garbage blob with no
// newline fails fast instead of being searched end to end.
const maxHeaderBytes = 1024

// ErrCorrupt marks an object that failed envelope validation: missing or
// malformed header, size mismatch (truncated or torn write), or checksum
// mismatch. Callers quarantine on it.
var ErrCorrupt = errors.New("store: corrupt snapshot")

// ErrVersion marks an object whose kind or format version does not match
// what the caller expects — written by a different (usually newer) build.
// Callers quarantine on it too: skew must never abort a boot.
var ErrVersion = errors.New("store: snapshot version mismatch")

// Header is the decoded envelope header.
type Header struct {
	Magic         string `json:"magic"`
	Kind          string `json:"kind"`
	FormatVersion int    `json:"format_version"`
	Size          int    `json:"size"`
	CRC32C        uint32 `json:"crc32c"`
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Seal wraps payload in a checksummed envelope of the given kind and
// format version.
func Seal(kind string, formatVersion int, payload []byte) []byte {
	hb := header(kind, formatVersion, payload)
	out := make([]byte, 0, len(hb)+1+len(payload))
	out = append(out, hb...)
	out = append(out, '\n')
	out = append(out, payload...)
	return out
}

// HeaderRoom is how many bytes to reserve at the front of a buffer whose
// payload SealReserved is to seal in place: the longest header line of the
// kind, newline included.
func HeaderRoom(kind string) int {
	widest, err := json.Marshal(&Header{
		Magic: envelopeMagic, Kind: kind,
		FormatVersion: math.MinInt, Size: math.MinInt, CRC32C: math.MaxUint32,
	})
	if err != nil {
		panic(fmt.Sprintf("store: marshal envelope header: %v", err))
	}
	return len(widest) + 1
}

// SealReserved is Seal for a payload appended to HeaderRoom(kind) reserved
// bytes: it writes the header line into the end of the reserved room and
// returns the envelope as a subslice of buf, without copying the payload.
func SealReserved(kind string, formatVersion int, buf []byte) []byte {
	room := HeaderRoom(kind)
	hb := header(kind, formatVersion, buf[room:])
	start := room - 1 - len(hb)
	copy(buf[start:], hb)
	buf[room-1] = '\n'
	return buf[start:]
}

// header returns the envelope header line of a payload, without its
// newline.
func header(kind string, formatVersion int, payload []byte) []byte {
	h := Header{
		Magic:         envelopeMagic,
		Kind:          kind,
		FormatVersion: formatVersion,
		Size:          len(payload),
		CRC32C:        crc32.Checksum(payload, castagnoli),
	}
	// Header marshaling cannot fail: fixed struct of strings and ints.
	hb, err := json.Marshal(&h)
	if err != nil {
		panic(fmt.Sprintf("store: marshal envelope header: %v", err))
	}
	return hb
}

// Open validates the envelope and returns the header and payload. Every
// failure wraps ErrCorrupt.
func Open(data []byte) (Header, []byte, error) {
	var h Header
	limit := len(data)
	if limit > maxHeaderBytes {
		limit = maxHeaderBytes
	}
	nl := bytes.IndexByte(data[:limit], '\n')
	if nl < 0 {
		return h, nil, fmt.Errorf("%w: no header line", ErrCorrupt)
	}
	if err := json.Unmarshal(data[:nl], &h); err != nil {
		return h, nil, fmt.Errorf("%w: header: %v", ErrCorrupt, err)
	}
	if h.Magic != envelopeMagic {
		return h, nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, h.Magic)
	}
	payload := data[nl+1:]
	if h.Size != len(payload) {
		return h, nil, fmt.Errorf("%w: payload is %d bytes, header says %d (truncated or torn write)",
			ErrCorrupt, len(payload), h.Size)
	}
	if got := crc32.Checksum(payload, castagnoli); got != h.CRC32C {
		return h, nil, fmt.Errorf("%w: crc32c %08x, header says %08x", ErrCorrupt, got, h.CRC32C)
	}
	return h, payload, nil
}

// OpenKind is Open plus the kind/version check every decoder performs:
// envelope failures wrap ErrCorrupt, a valid envelope of the wrong kind or
// format version wraps ErrVersion.
func OpenKind(data []byte, kind string, formatVersion int) ([]byte, error) {
	h, payload, err := Open(data)
	if err != nil {
		return nil, err
	}
	if h.Kind != kind {
		return nil, fmt.Errorf("%w: kind %q, want %q", ErrVersion, h.Kind, kind)
	}
	if h.FormatVersion != formatVersion {
		return nil, fmt.Errorf("%w: %s format version %d, want %d", ErrVersion, kind, h.FormatVersion, formatVersion)
	}
	return payload, nil
}
