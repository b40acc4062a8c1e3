package ssta

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/store"
)

// FuzzModelSnapshotDecode drives arbitrary bytes through the extracted-
// model snapshot decoder, both as a whole sealed snapshot and as the
// payload inside a valid seal (so the fuzzer reaches the model decoder
// past the envelope's CRC). It must never panic, and anything it accepts
// must re-encode bit-identically: encode, decode and encode again give the
// same bytes, and a canonical snapshot re-encodes to itself.
func FuzzModelSnapshotDecode(f *testing.F) {
	flow := DefaultFlow()
	c, err := ArrayMultiplier(2)
	if err != nil {
		f.Fatal(err)
	}
	g, _, err := flow.Graph(c)
	if err != nil {
		f.Fatal(err)
	}
	m, err := flow.Extract(g, ExtractOptions{})
	if err != nil {
		f.Fatal(err)
	}
	valid, err := m.EncodeSnapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0xff
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte("garbage"))
	f.Add([]byte(`{"format_version":1,"globals":1,"components":1,"num_verts":2,"inputs":[0],"outputs":[1],"input_names":["a"],"output_names":["z"],"edges":[{"from":0,"to":1,"nominal":3,"glob":[0.1],"loc":[0.2],"rand":0.3}]}`))
	f.Add([]byte(`{"format_version":1,"globals":-1,"components":1073741824,"num_verts":-5,"edges":[{"from":9,"to":9}]}`))
	f.Add(store.Seal("wrong-kind", 99, []byte("{}")))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, store.Seal(core.ModelSnapshotKind, core.ModelSnapshotVersion, data)} {
			m, err := DecodeModelSnapshot(in)
			if err != nil {
				continue // rejected; the only requirement is no panic
			}
			enc, err := m.EncodeSnapshot()
			if err != nil {
				t.Fatalf("accepted snapshot failed to re-encode: %v", err)
			}
			m2, err := DecodeModelSnapshot(enc)
			if err != nil {
				t.Fatalf("re-encoded snapshot failed to decode: %v", err)
			}
			enc2, err := m2.EncodeSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc, enc2) {
				t.Fatal("model snapshot re-encode not bit-identical")
			}
			if bytes.Equal(in, valid) && !bytes.Equal(enc, valid) {
				t.Fatal("canonical model snapshot did not re-encode to itself")
			}
		}
	})
}
