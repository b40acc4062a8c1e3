// Package hier implements the paper's second contribution (Section V):
// hierarchical statistical timing analysis at design level using
// pre-characterized gray-box timing models.
//
// The die of the top design is partitioned into heterogeneous grids: the
// areas covered by module instances keep exactly the grids used during
// their model generation (offset by the instance origin), and the remaining
// area is partitioned with the default grid pitch (paper Fig. 4). The
// design-level correlated grid variables are decomposed with PCA, and every
// module model's independent random variables are replaced per eq. 19
//
//	x = A^+ B_n x_t
//
// so all instances share one independent set x_t, which restores the
// correlation between modules contributed by spatially correlated local
// variation. Arrival times are then propagated over the stitched top-level
// graph (paper Fig. 5).
package hier

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/place"
	"repro/internal/timing"
	"repro/internal/variation"
)

// Module is a pre-characterized timing model as shipped by an IP vendor:
// the reduced gray-box graph plus the grid geometry of its model
// generation. Orig optionally carries the original (unreduced) timing graph
// to enable ground-truth flattening; a real vendor would omit it.
type Module struct {
	Name   string
	Model  *core.Model
	Orig   *timing.Graph // optional
	NX, NY int
	Pitch  float64
}

// NewModule bundles an extracted model with its placement geometry.
func NewModule(name string, model *core.Model, plan *place.Plan) (*Module, error) {
	if model == nil || model.Graph == nil {
		return nil, errors.New("hier: nil model")
	}
	if model.Graph.Grids == nil {
		return nil, errors.New("hier: model graph carries no grid model")
	}
	if got, want := model.Graph.Grids.N(), plan.NX*plan.NY; got != want {
		return nil, fmt.Errorf("hier: grid model has %d grids, placement plan %d", got, want)
	}
	return &Module{Name: name, Model: model, NX: plan.NX, NY: plan.NY, Pitch: plan.Pitch}, nil
}

// Width returns the module die width.
func (m *Module) Width() float64 { return float64(m.NX) * m.Pitch }

// Height returns the module die height.
func (m *Module) Height() float64 { return float64(m.NY) * m.Pitch }

// Instance is a placed occurrence of a module.
type Instance struct {
	Name    string
	Module  *Module
	OriginX float64
	OriginY float64
}

// PortRef names a port of an instance (by the port names of the module's
// timing model).
type PortRef struct {
	Instance string
	Port     string
}

// Net is a point-to-point connection from an instance output port to an
// instance input port, with an optional constant wire delay (zero for
// abutted modules, as in the paper's experiment).
type Net struct {
	From  PortRef
	To    PortRef
	Delay float64
}

// Design is a hierarchical top-level design.
type Design struct {
	Name   string
	Width  float64
	Height float64
	Pitch  float64 // default grid pitch for the uncovered area
	Corr   *variation.CorrelationModel
	Params []variation.Parameter

	Instances []*Instance
	Nets      []Net
	// PrimaryInputs and PrimaryOutputs expose instance ports at the top.
	PrimaryInputs  []PortRef
	PrimaryOutputs []PortRef

	// Cached per-mode analysis prep (partition, PCA, replacement matrices),
	// keyed by mode and guarded by a design fingerprint so geometry edits
	// invalidate it. Next to it, the per-mode stitched top graph, keyed by
	// the prep it was built from plus a stitch fingerprint (nets, IO,
	// boundary characterization). The two fingerprints also let Analyze
	// and Stitch skip re-validating an unchanged design. See cache.go.
	prepMu sync.Mutex
	preps  map[Mode]*prepSlot
	tops   map[Mode]*stitchSlot
	valid  *validFP // fingerprints at the last successful Validate
}

// CopyStructure returns an independent structural copy of the design for
// session-style mutation: the instance and net lists are deep copied (so a
// module swap or net-delay edit cannot leak into the original), while the
// immutable heavyweights — modules, correlation model, parameters — are
// shared. The copy starts with empty prep and stitch caches.
func (d *Design) CopyStructure() *Design {
	nd := &Design{
		Name: d.Name, Width: d.Width, Height: d.Height, Pitch: d.Pitch,
		Corr: d.Corr, Params: d.Params,
		Instances:      make([]*Instance, len(d.Instances)),
		Nets:           append([]Net(nil), d.Nets...),
		PrimaryInputs:  append([]PortRef(nil), d.PrimaryInputs...),
		PrimaryOutputs: append([]PortRef(nil), d.PrimaryOutputs...),
	}
	for i, inst := range d.Instances {
		cp := *inst
		nd.Instances[i] = &cp
	}
	return nd
}

// instance returns the instance with the given name.
func (d *Design) instance(name string) (*Instance, int, error) {
	for i, inst := range d.Instances {
		if inst.Name == name {
			return inst, i, nil
		}
	}
	return nil, 0, fmt.Errorf("hier: unknown instance %q", name)
}

// Validate checks geometric and connectivity consistency.
func (d *Design) Validate() error {
	if d.Width <= 0 || d.Height <= 0 || d.Pitch <= 0 {
		return fmt.Errorf("hier: invalid die %gx%g pitch %g", d.Width, d.Height, d.Pitch)
	}
	if d.Corr == nil {
		return errors.New("hier: nil correlation model")
	}
	if len(d.Params) == 0 {
		return errors.New("hier: no variation parameters")
	}
	if len(d.Instances) == 0 {
		return errors.New("hier: no instances")
	}
	seen := make(map[string]bool)
	for _, inst := range d.Instances {
		if inst.Name == "" || seen[inst.Name] {
			return fmt.Errorf("hier: duplicate or empty instance name %q", inst.Name)
		}
		seen[inst.Name] = true
		if inst.Module == nil {
			return fmt.Errorf("hier: instance %q has no module", inst.Name)
		}
		if inst.Module.Pitch != d.Pitch {
			return fmt.Errorf("hier: instance %q pitch %g differs from design pitch %g (module grids must be preserved)",
				inst.Name, inst.Module.Pitch, d.Pitch)
		}
		if inst.OriginX < 0 || inst.OriginY < 0 ||
			inst.OriginX+inst.Module.Width() > d.Width+1e-9 ||
			inst.OriginY+inst.Module.Height() > d.Height+1e-9 {
			return fmt.Errorf("hier: instance %q extends outside the die", inst.Name)
		}
	}
	// Pairwise overlap check.
	for i := 0; i < len(d.Instances); i++ {
		for j := i + 1; j < len(d.Instances); j++ {
			a, b := d.Instances[i], d.Instances[j]
			if a.OriginX < b.OriginX+b.Module.Width()-1e-9 &&
				b.OriginX < a.OriginX+a.Module.Width()-1e-9 &&
				a.OriginY < b.OriginY+b.Module.Height()-1e-9 &&
				b.OriginY < a.OriginY+a.Module.Height()-1e-9 {
				return fmt.Errorf("hier: instances %q and %q overlap", a.Name, b.Name)
			}
		}
	}
	// Port references and single-driver rule.
	driven := make(map[PortRef]bool)
	for _, n := range d.Nets {
		if err := d.checkPort(n.From, false); err != nil {
			return err
		}
		if err := d.checkPort(n.To, true); err != nil {
			return err
		}
		if n.Delay < 0 {
			return fmt.Errorf("hier: net %v has negative delay", n)
		}
		if driven[n.To] {
			return fmt.Errorf("hier: input port %v driven by multiple nets", n.To)
		}
		driven[n.To] = true
	}
	for _, p := range d.PrimaryInputs {
		if err := d.checkPort(p, true); err != nil {
			return err
		}
		if driven[p] {
			return fmt.Errorf("hier: primary input %v also driven by a net", p)
		}
	}
	if len(d.PrimaryInputs) == 0 || len(d.PrimaryOutputs) == 0 {
		return errors.New("hier: design has no primary inputs or outputs")
	}
	for _, p := range d.PrimaryOutputs {
		if err := d.checkPort(p, false); err != nil {
			return err
		}
	}
	return nil
}

// checkPort verifies that the referenced port exists; wantInput selects the
// port direction.
func (d *Design) checkPort(p PortRef, wantInput bool) error {
	inst, _, err := d.instance(p.Instance)
	if err != nil {
		return err
	}
	names := inst.Module.Model.Graph.OutputNames
	if wantInput {
		names = inst.Module.Model.Graph.InputNames
	}
	for _, n := range names {
		if n == p.Port {
			return nil
		}
	}
	dir := "output"
	if wantInput {
		dir = "input"
	}
	return fmt.Errorf("hier: instance %q has no %s port %q", p.Instance, dir, p.Port)
}
