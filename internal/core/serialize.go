package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/canon"
	"repro/internal/store"
	"repro/internal/timing"
	"repro/internal/variation"
)

// modelJSON is the on-disk representation of an extracted timing model —
// what an IP vendor would ship instead of the netlist (paper Section III).
type modelJSON struct {
	FormatVersion int         `json:"format_version"`
	Globals       int         `json:"globals"`
	Components    int         `json:"components"`
	NumVerts      int         `json:"num_verts"`
	Inputs        []int       `json:"inputs"`
	Outputs       []int       `json:"outputs"`
	InputNames    []string    `json:"input_names"`
	OutputNames   []string    `json:"output_names"`
	LoadSlopes    []float64   `json:"output_load_slopes,omitempty"`
	RefSlew       float64     `json:"ref_slew,omitempty"`
	InSlewSlopes  []float64   `json:"input_slew_slopes,omitempty"`
	OutPortSlews  []float64   `json:"output_port_slews,omitempty"`
	OutSlewSlopes []float64   `json:"output_slew_slopes,omitempty"`
	Edges         []edgeJSON  `json:"edges"`
	Params        []paramJSON `json:"params,omitempty"`
	Grid          *gridJSON   `json:"grid,omitempty"`
	Stats         *statsJSON  `json:"stats,omitempty"`
	Source        string      `json:"source_digest,omitempty"`
}

// gridJSON carries the module's grid geometry and correlation setup so a
// loaded model is self-contained: the design-level variable replacement
// (paper eq. 19) needs the module PCA, which is rebuilt deterministically
// from these values.
type gridJSON struct {
	NX          int     `json:"nx"`
	NY          int     `json:"ny"`
	Pitch       float64 `json:"pitch"`
	RhoNeighbor float64 `json:"rho_neighbor"`
	RhoFloor    float64 `json:"rho_floor"`
	Range       float64 `json:"range"`
}

type edgeJSON struct {
	From    int       `json:"from"`
	To      int       `json:"to"`
	Nominal float64   `json:"nominal"`
	Glob    []float64 `json:"glob"`
	Loc     []float64 `json:"loc"`
	Rand    float64   `json:"rand"`
}

type paramJSON struct {
	Name        string  `json:"name"`
	Sigma       float64 `json:"sigma"`
	GlobalShare float64 `json:"global_share"`
	LocalShare  float64 `json:"local_share"`
	RandomShare float64 `json:"random_share"`
}

type statsJSON struct {
	EdgesOrig  int `json:"edges_orig"`
	VertsOrig  int `json:"verts_orig"`
	EdgesModel int `json:"edges_model"`
	VertsModel int `json:"verts_model"`
}

const modelFormatVersion = 1

// WriteJSON serializes the model.
func (m *Model) WriteJSON(w io.Writer) error {
	g := m.Graph
	mj := modelJSON{
		FormatVersion: modelFormatVersion,
		Globals:       g.Space.Globals,
		Components:    g.Space.Components,
		NumVerts:      g.NumVerts,
		Inputs:        g.Inputs,
		Outputs:       g.Outputs,
		InputNames:    g.InputNames,
		OutputNames:   g.OutputNames,
		LoadSlopes:    g.OutputLoadSlopes,
		RefSlew:       g.RefSlew,
		InSlewSlopes:  g.InputSlewSlopes,
		OutPortSlews:  g.OutputPortSlews,
		OutSlewSlopes: g.OutputSlewSlopes,
		Source:        m.Source,
		Stats: &statsJSON{
			EdgesOrig:  m.Stats.EdgesOrig,
			VertsOrig:  m.Stats.VertsOrig,
			EdgesModel: m.Stats.EdgesModel,
			VertsModel: m.Stats.VertsModel,
		},
	}
	if g.Grids != nil && g.Grids.NX > 0 && g.Grids.Corr != nil {
		mj.Grid = &gridJSON{
			NX: g.Grids.NX, NY: g.Grids.NY, Pitch: g.Grids.Pitch,
			RhoNeighbor: g.Grids.Corr.RhoNeighbor,
			RhoFloor:    g.Grids.Corr.RhoFloor,
			Range:       g.Grids.Corr.Range,
		}
	}
	for _, p := range g.Params {
		mj.Params = append(mj.Params, paramJSON{
			Name: p.Name, Sigma: p.Sigma,
			GlobalShare: p.GlobalShare, LocalShare: p.LocalShare, RandomShare: p.RandomShare,
		})
	}
	for _, e := range g.Edges {
		mj.Edges = append(mj.Edges, edgeJSON{
			From: e.From, To: e.To,
			Nominal: e.Delay.Nominal, Glob: e.Delay.Glob, Loc: e.Delay.Loc, Rand: e.Delay.Rand,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&mj)
}

// Model size caps, checked before anything is allocated so a hostile
// model costs no more than its own bytes: the graph snapshot's caps on
// vertices and form dimensions, and a grid cap twice the largest grid a
// servable model has (8x8, the 32x32 multiplier), since rebuilding a
// grid's PCA is cubic in its cells.
const (
	maxModelVerts     = 1 << 21
	maxModelFormDim   = 1 << 18 // globals + components of a delay form
	maxModelGridCells = 12 * 12
)

// ReadJSON deserializes a model written by WriteJSON.
func ReadJSON(r io.Reader) (*Model, error) {
	var mj modelJSON
	if err := json.NewDecoder(r).Decode(&mj); err != nil {
		return nil, fmt.Errorf("core: decode model: %w", err)
	}
	if mj.FormatVersion != modelFormatVersion {
		return nil, fmt.Errorf("core: unsupported model format version %d", mj.FormatVersion)
	}
	if mj.NumVerts < 0 || mj.NumVerts > maxModelVerts {
		return nil, fmt.Errorf("core: model vertex count %d out of range", mj.NumVerts)
	}
	if mj.Globals < 0 || mj.Components < 0 || mj.Globals > maxModelFormDim-mj.Components {
		return nil, fmt.Errorf("core: model form dimensions %d+%d out of range", mj.Globals, mj.Components)
	}
	if gr := mj.Grid; gr != nil {
		if gr.NX < 1 || gr.NY < 1 || gr.NX > maxModelGridCells/gr.NY {
			return nil, fmt.Errorf("core: model grid %dx%d out of range", gr.NX, gr.NY)
		}
		// Grid coordinates are multiples of the pitch; they must stay
		// finite, or the correlation matrix fills with NaN.
		if !(gr.Pitch > 0) || math.IsInf(gr.Pitch*maxModelGridCells, 0) {
			return nil, fmt.Errorf("core: model grid pitch %g out of range", gr.Pitch)
		}
	}
	space := canon.Space{Globals: mj.Globals, Components: mj.Components}
	var params []variation.Parameter
	for _, p := range mj.Params {
		params = append(params, variation.Parameter{
			Name: p.Name, Sigma: p.Sigma,
			GlobalShare: p.GlobalShare, LocalShare: p.LocalShare, RandomShare: p.RandomShare,
		})
	}
	g := timing.NewGraph(space, mj.NumVerts, params)
	for i, e := range mj.Edges {
		if len(e.Glob) != space.Globals || len(e.Loc) != space.Components {
			return nil, fmt.Errorf("core: edge %d has inconsistent form dimensions", i)
		}
		f := space.NewForm()
		f.Nominal = e.Nominal
		copy(f.Glob, e.Glob)
		copy(f.Loc, e.Loc)
		f.Rand = e.Rand
		if _, err := g.AddEdge(e.From, e.To, f, nil, 0); err != nil {
			return nil, fmt.Errorf("core: edge %d: %w", i, err)
		}
	}
	if err := g.SetIO(mj.Inputs, mj.Outputs, mj.InputNames, mj.OutputNames); err != nil {
		return nil, err
	}
	if mj.LoadSlopes != nil {
		if len(mj.LoadSlopes) != len(mj.Outputs) {
			return nil, fmt.Errorf("core: %d load slopes for %d outputs", len(mj.LoadSlopes), len(mj.Outputs))
		}
		g.OutputLoadSlopes = mj.LoadSlopes
	}
	g.RefSlew = mj.RefSlew
	if mj.InSlewSlopes != nil {
		if len(mj.InSlewSlopes) != len(mj.Inputs) {
			return nil, fmt.Errorf("core: %d input slew slopes for %d inputs", len(mj.InSlewSlopes), len(mj.Inputs))
		}
		g.InputSlewSlopes = mj.InSlewSlopes
	}
	if mj.OutPortSlews != nil {
		if len(mj.OutPortSlews) != len(mj.Outputs) {
			return nil, fmt.Errorf("core: %d output slews for %d outputs", len(mj.OutPortSlews), len(mj.Outputs))
		}
		g.OutputPortSlews = mj.OutPortSlews
	}
	if mj.OutSlewSlopes != nil {
		if len(mj.OutSlewSlopes) != len(mj.Outputs) {
			return nil, fmt.Errorf("core: %d output slew slopes for %d outputs", len(mj.OutSlewSlopes), len(mj.Outputs))
		}
		g.OutputSlewSlopes = mj.OutSlewSlopes
	}
	if mj.Grid != nil {
		corr, err := variation.NewCorrelationModel(mj.Grid.RhoNeighbor, mj.Grid.RhoFloor, mj.Grid.Range)
		if err != nil {
			return nil, fmt.Errorf("core: model grid correlation: %w", err)
		}
		gm, err := variation.NewGridModel(mj.Grid.NX, mj.Grid.NY, mj.Grid.Pitch, corr)
		if err != nil {
			return nil, fmt.Errorf("core: model grid rebuild: %w", err)
		}
		if len(params) > 0 && len(params)*gm.Comps != space.Components {
			return nil, fmt.Errorf("core: rebuilt grid model has %d components, form space expects %d",
				len(params)*gm.Comps, space.Components)
		}
		g.Grids = gm
	}
	if _, err := g.Order(); err != nil {
		return nil, err
	}
	m := &Model{Graph: g, Source: mj.Source}
	if mj.Stats != nil {
		m.Stats = Stats{
			EdgesOrig:  mj.Stats.EdgesOrig,
			VertsOrig:  mj.Stats.VertsOrig,
			EdgesModel: mj.Stats.EdgesModel,
			VertsModel: mj.Stats.VertsModel,
		}
	}
	return m, nil
}

// ModelSnapshotKind and ModelSnapshotVersion identify a sealed model
// snapshot in the durable store (see internal/store's envelope). The
// payload is exactly the WriteJSON wire form, which carries its own
// format_version for the decoder.
const (
	ModelSnapshotKind    = "sstad-model"
	ModelSnapshotVersion = modelFormatVersion
)

// EncodeSnapshot serializes the model and seals it in a store envelope, the
// write side of the serving layer's extract-cache warm start.
func (m *Model) EncodeSnapshot() ([]byte, error) {
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return store.Seal(ModelSnapshotKind, ModelSnapshotVersion, buf.Bytes()), nil
}

// DecodeModelSnapshot opens and decodes a sealed model snapshot. Envelope
// failures surface as store.ErrCorrupt / store.ErrVersion so callers can
// quarantine instead of aborting a warm start.
func DecodeModelSnapshot(data []byte) (*Model, error) {
	payload, err := store.OpenKind(data, ModelSnapshotKind, ModelSnapshotVersion)
	if err != nil {
		return nil, err
	}
	return ReadJSON(bytes.NewReader(payload))
}
