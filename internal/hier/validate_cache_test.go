package hier

import (
	"context"
	"testing"

	"repro/internal/core"
)

// TestWarmStitchRevalidatesMutatedDesign: a warm stitch skips Validate
// only while the design and stitch fingerprints are unchanged. Mutating
// any Validate input in place after a warm stitch, module footprint and
// port names included, makes the next Stitch (and Analyze) refuse the
// design.
func TestWarmStitchRevalidatesMutatedDesign(t *testing.T) {
	base := twoByTwo(t, buildModule(t, "m4", 4))
	ctx := context.Background()
	opt := AnalyzeOptions{Workers: 1}
	// warm returns a private copy of the design, with a private module
	// and model graph, that has passed two stitches.
	warm := func() (*Design, *Module) {
		d := base.CopyStructure()
		m := *base.Instances[0].Module
		model := *m.Model
		model.Graph = m.Model.Graph.Clone()
		m.Model = &model
		for _, inst := range d.Instances {
			inst.Module = &m
		}
		for k := 0; k < 2; k++ {
			if _, err := d.Stitch(ctx, FullCorrelation, opt); err != nil {
				t.Fatal(err)
			}
		}
		if d.valid == nil {
			t.Fatal("stitch left no validation record")
		}
		return d, &m
	}
	d, _ := warm()
	v := d.valid
	if _, err := d.Stitch(ctx, FullCorrelation, opt); err != nil || d.valid != v {
		t.Fatalf("warm stitch of an unchanged design re-validated (err %v)", err)
	}

	cases := map[string]func(d *Design, m *Module){
		"die width":          func(d *Design, m *Module) { d.Width = 0 },
		"design pitch":       func(d *Design, m *Module) { d.Pitch = -1 },
		"correlation":        func(d *Design, m *Module) { d.Corr = nil },
		"parameters":         func(d *Design, m *Module) { d.Params = nil },
		"no instances":       func(d *Design, m *Module) { d.Instances = nil },
		"duplicate instance": func(d *Design, m *Module) { d.Instances[1].Name = d.Instances[0].Name },
		"no module":          func(d *Design, m *Module) { d.Instances[2].Module = nil },
		"module pitch":       func(d *Design, m *Module) { m.Pitch *= 2 },
		"module size":        func(d *Design, m *Module) { m.NX *= 3 },
		"origin":             func(d *Design, m *Module) { d.Instances[3].OriginX = -1 },
		"overlap": func(d *Design, m *Module) {
			d.Instances[1].OriginX, d.Instances[1].OriginY = d.Instances[0].OriginX, d.Instances[0].OriginY
		},
		"net port":        func(d *Design, m *Module) { d.Nets[0].From.Port = "nope" },
		"net instance":    func(d *Design, m *Module) { d.Nets[0].To.Instance = "Z" },
		"net delay":       func(d *Design, m *Module) { d.Nets[0].Delay = -1 },
		"double driver":   func(d *Design, m *Module) { d.Nets[1].To = d.Nets[0].To },
		"driven input":    func(d *Design, m *Module) { d.PrimaryInputs[0] = d.Nets[0].To },
		"no outputs":      func(d *Design, m *Module) { d.PrimaryOutputs = nil },
		"output port":     func(d *Design, m *Module) { d.PrimaryOutputs[0].Port = "nope" },
		"input port":      func(d *Design, m *Module) { d.PrimaryInputs[0].Port = "nope" },
		"graph out names": func(d *Design, m *Module) { m.Model.Graph.OutputNames[0] = "renamed" },
		"graph in names":  func(d *Design, m *Module) { m.Model.Graph.InputNames[0] = "renamed" },
		"model": func(d *Design, m *Module) {
			other := core.Model{Graph: m.Model.Graph.Clone()}
			other.Graph.InputNames = []string{"only"}
			m.Model = &other
		},
	}
	for name, mutate := range cases {
		d, m := warm()
		if err := d.Validate(); err != nil {
			t.Fatalf("%s: fixture invalid: %v", name, err)
		}
		mutate(d, m)
		if err := d.Validate(); err == nil {
			t.Fatalf("%s: mutation does not invalidate the design", name)
		}
		if _, err := d.Stitch(ctx, FullCorrelation, opt); err == nil {
			t.Errorf("%s: warm Stitch accepted the mutated design", name)
		}
		if _, err := d.AnalyzeCtx(ctx, FullCorrelation, opt); err == nil {
			t.Errorf("%s: warm Analyze accepted the mutated design", name)
		}
	}
}
