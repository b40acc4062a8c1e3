package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
)

// cmDigest is the hex sha256 of the bit patterns of a criticality vector.
func cmDigest(cm []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, c := range cm {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(c))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestExtractPinnedDigests holds the extracted model of each ISCAS85
// stand-in (seed 1, default options) to a recorded graph digest, and its
// screened Stats.Cm to a recorded bit-pattern digest, at 1, 2 and 4
// workers. Extraction is deterministic and worker-count independent, so
// any change to its output fails here loudly; a change that means to move
// the models re-records the table and says why.
func TestExtractPinnedDigests(t *testing.T) {
	pinned := []struct {
		name, model, cm string
		long            bool // skipped under -short
	}{
		{"c432", "c678a3bf131a54c8b6783c6b0f4a4978e513fa7e9b509549172d78ebc9ae24ad", "5a4a8de1f0f2b4e8948daa4cc9d01d071c32372d7858aa194def127443b5b15a", false},
		{"c880", "d41045ff3bee0f5ee0139e9a7a90fe45e644ec5dafb889c3d2a27e091c6d152a", "e302abf27c203ddbea263b7a5ab8bd75537933524241ebc89eb91d4e661cb311", false},
		{"c1355", "3ec792edc727a5341b75def69e26aa0c6a0f12d48709a7b403edc93a6c87bedf", "0e5580e951ba1dd8fa8d80d11885a457d221bdbab40edc4830ec84bf61513e99", false},
		{"c1908", "65183b5aa55d405b8bd0ade05fd82c32fd823acf778ba2ac04f27d85957184d5", "80a835d2118408139dd2cd37395c68f4ef3d79ade9579fb9a4d36827e0da6843", false},
		{"c3540", "d864c4270e2026770aa5e8d1ffcb448d4aa8f1df20e056d0d631048d748cb53b", "c467d88900cd76992b08639e061fe35e47425a6d69f9794a596e7ad6157eed02", false},
		{"c2670", "eff305f4571fe2e1e45e0abd4814ebfb2953c014606fc3f8ac0cb32d426cc651", "490134a14b8a3434d377ed20e156f8da860476838ad689689c146c421b0e1003", true},
	}
	for _, p := range pinned {
		t.Run(p.name, func(t *testing.T) {
			if p.long && testing.Short() {
				t.Skip("long extraction skipped under -short")
			}
			g := buildGraph(t, p.name, 1)
			for _, w := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
					m, err := Extract(g, Options{Workers: w})
					if err != nil {
						t.Fatal(err)
					}
					if got := m.Graph.Digest(); got != p.model {
						t.Errorf("model digest %s, want %s", got, p.model)
					}
					if got := cmDigest(m.Stats.Cm); got != p.cm {
						t.Errorf("Cm digest %s, want %s", got, p.cm)
					}
				})
			}
		})
	}
}
