// Package circuit provides the gate-level netlist substrate: a gate-level
// circuit IR with D-flip-flop registers, an ISCAS85/89 .bench parser and
// writer, a logic simulator, a deterministic generator of topology-matched
// ISCAS85-like benchmarks (used because the original netlists are not
// distributed with this repository) with a clocked (registered) variant,
// and a structural array-multiplier generator (c6288 is a 16x16 multiplier).
package circuit

import (
	"errors"
	"fmt"
)

// GateType enumerates the supported primitives. Input is a primary input
// pseudo-gate with no fanin; Dff is a D-flip-flop register whose single
// fanin is its D pin and whose node value is its Q output.
type GateType uint8

// Gate types. Input denotes a primary input.
const (
	Input GateType = iota
	Buf
	Not
	And
	Nand
	Or
	Nor
	Xor
	Xnor
	Dff
	numGateTypes
)

var gateTypeNames = [...]string{
	Input: "INPUT", Buf: "BUFF", Not: "NOT", And: "AND", Nand: "NAND",
	Or: "OR", Nor: "NOR", Xor: "XOR", Xnor: "XNOR", Dff: "DFF",
}

// String returns the .bench spelling of the gate type.
func (t GateType) String() string {
	if int(t) < len(gateTypeNames) {
		return gateTypeNames[t]
	}
	return fmt.Sprintf("GateType(%d)", int(t))
}

// Gate is one node of the netlist. Fanin holds node indices of the gate
// inputs in pin order.
type Gate struct {
	Name  string
	Type  GateType
	Fanin []int
}

// Circuit is a gate-level netlist, combinational or sequential. Node
// indices are positions in Gates; primary inputs are Gates entries with
// Type == Input, registers are entries with Type == Dff. A Dff node is a
// D/Q boundary point: its Fanin[0] is the D-pin source, and the node value
// seen by its fanout is the Q output — for timing, Q launches from the
// clock, not from D, which is what keeps register feedback loops acyclic.
type Circuit struct {
	Name  string
	Gates []Gate
	PIs   []int // node ids of primary inputs
	POs   []int // node ids of observed outputs (regular gates)
	Regs  []int // node ids of DFF registers, in insertion order

	byName map[string]int
	fanout [][]int // lazily built
	order  []int   // lazily built topological order
	levels []int   // lazily built level per node
}

// New creates an empty circuit with the given name.
func New(name string) *Circuit {
	return &Circuit{Name: name, byName: make(map[string]int)}
}

// AddInput appends a primary input node and returns its id.
func (c *Circuit) AddInput(name string) (int, error) {
	return c.addNode(Gate{Name: name, Type: Input})
}

// AddGate appends a logic gate and returns its id. Fanin ids must already
// exist.
func (c *Circuit) AddGate(name string, t GateType, fanin ...int) (int, error) {
	if t == Input {
		return 0, fmt.Errorf("circuit: use AddInput for primary inputs (%q)", name)
	}
	if t == Dff {
		return 0, fmt.Errorf("circuit: use AddDFF for registers (%q)", name)
	}
	if len(fanin) == 0 {
		return 0, fmt.Errorf("circuit: gate %q has no fanin", name)
	}
	for _, f := range fanin {
		if f < 0 || f >= len(c.Gates) {
			return 0, fmt.Errorf("circuit: gate %q references unknown node %d", name, f)
		}
	}
	switch t {
	case Buf, Not:
		if len(fanin) != 1 {
			return 0, fmt.Errorf("circuit: %s gate %q needs exactly 1 input, got %d", t, name, len(fanin))
		}
	default:
		if len(fanin) < 2 {
			return 0, fmt.Errorf("circuit: %s gate %q needs at least 2 inputs, got %d", t, name, len(fanin))
		}
	}
	fan := make([]int, len(fanin))
	copy(fan, fanin)
	return c.addNode(Gate{Name: name, Type: t, Fanin: fan})
}

// AddDFF appends a D-flip-flop register node and returns its id. The single
// fanin d is the D-pin source; the node itself represents the Q output. The
// .bench parser patches d after the fact for forward references through
// register feedback (see ParseBench), so AddDFF also accepts d == -1 as an
// explicit "resolve later" placeholder that must be patched before use.
func (c *Circuit) AddDFF(name string, d int) (int, error) {
	if d != -1 && (d < 0 || d >= len(c.Gates)) {
		return 0, fmt.Errorf("circuit: register %q references unknown node %d", name, d)
	}
	return c.addNode(Gate{Name: name, Type: Dff, Fanin: []int{d}})
}

func (c *Circuit) addNode(g Gate) (int, error) {
	if g.Name == "" {
		return 0, errors.New("circuit: empty node name")
	}
	if _, dup := c.byName[g.Name]; dup {
		return 0, fmt.Errorf("circuit: duplicate node name %q", g.Name)
	}
	id := len(c.Gates)
	c.Gates = append(c.Gates, g)
	c.byName[g.Name] = id
	if g.Type == Input {
		c.PIs = append(c.PIs, id)
	}
	if g.Type == Dff {
		c.Regs = append(c.Regs, id)
	}
	c.invalidate()
	return id, nil
}

// MarkOutput declares node id a primary output.
func (c *Circuit) MarkOutput(id int) error {
	if id < 0 || id >= len(c.Gates) {
		return fmt.Errorf("circuit: MarkOutput of unknown node %d", id)
	}
	for _, o := range c.POs {
		if o == id {
			return nil
		}
	}
	c.POs = append(c.POs, id)
	return nil
}

// NodeByName returns the id of a named node.
func (c *Circuit) NodeByName(name string) (int, bool) {
	id, ok := c.byName[name]
	return id, ok
}

func (c *Circuit) invalidate() {
	c.fanout = nil
	c.order = nil
	c.levels = nil
}

// NumNodes returns the node count (gates + primary inputs). This is the
// vertex count Vo of the paper's timing graph.
func (c *Circuit) NumNodes() int { return len(c.Gates) }

// NumGates returns the count of logic gates (excluding primary inputs;
// registers count as gates — they are placed cells with timing arcs).
func (c *Circuit) NumGates() int { return len(c.Gates) - len(c.PIs) }

// NumRegs returns the register (DFF) count.
func (c *Circuit) NumRegs() int { return len(c.Regs) }

// Sequential reports whether the circuit contains registers.
func (c *Circuit) Sequential() bool { return len(c.Regs) > 0 }

// NumEdges returns the total fanin connection count, the edge count Eo of
// the paper's timing graph.
func (c *Circuit) NumEdges() int {
	n := 0
	for _, g := range c.Gates {
		n += len(g.Fanin)
	}
	return n
}

// Fanout returns, for each node, the ids of gates it drives. The result is
// cached; callers must not mutate it. Unpatched register placeholders
// (fanin -1, a mid-parse state) are skipped.
func (c *Circuit) Fanout() [][]int {
	if c.fanout == nil {
		c.fanout = make([][]int, len(c.Gates))
		for id, g := range c.Gates {
			for _, f := range g.Fanin {
				if f < 0 {
					continue
				}
				c.fanout[f] = append(c.fanout[f], id)
			}
		}
	}
	return c.fanout
}

// Levelize returns a topological order of all nodes and the logic level of
// each node (PIs at level 0, a gate one above its deepest fanin). Register
// (DFF) nodes sit at level 0 like primary inputs: their Q output launches
// from the clock, so the D-pin edge into a register does not constrain its
// level — which is exactly what keeps legitimate register feedback loops
// (Q combinationally feeding its own D) out of the cycle check, while pure
// combinational cycles still error.
func (c *Circuit) Levelize() (order []int, levels []int, err error) {
	if c.order != nil {
		return c.order, c.levels, nil
	}
	n := len(c.Gates)
	// Duplicate fanins each count once: indegree is the fanin length.
	// Registers take indegree 0 — the D edge is a capture, not a dependency.
	indeg := make([]int, n)
	for id, g := range c.Gates {
		if g.Type == Dff {
			continue
		}
		indeg[id] = len(g.Fanin)
	}
	fanout := c.Fanout()
	queue := make([]int, 0, n)
	for id, d := range indeg {
		if d == 0 {
			queue = append(queue, id)
		}
	}
	order = make([]int, 0, n)
	levels = make([]int, n)
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, to := range fanout[id] {
			if c.Gates[to].Type == Dff {
				continue // capture edge: no ordering constraint on Q
			}
			if l := levels[id] + 1; l > levels[to] {
				levels[to] = l
			}
			indeg[to]--
			if indeg[to] == 0 {
				queue = append(queue, to)
			}
		}
	}
	if len(order) != n {
		return nil, nil, errors.New("circuit: netlist contains a combinational cycle")
	}
	c.order, c.levels = order, levels
	return order, levels, nil
}

// Depth returns the maximum logic level.
func (c *Circuit) Depth() (int, error) {
	_, levels, err := c.Levelize()
	if err != nil {
		return 0, err
	}
	d := 0
	for _, l := range levels {
		if l > d {
			d = l
		}
	}
	return d, nil
}

// Validate performs structural checks: acyclicity, every non-output node
// drives something, every PI is used, outputs exist.
func (c *Circuit) Validate() error {
	if len(c.PIs) == 0 {
		return errors.New("circuit: no primary inputs")
	}
	if len(c.POs) == 0 {
		return errors.New("circuit: no primary outputs")
	}
	for _, r := range c.Regs {
		if d := c.Gates[r].Fanin[0]; d < 0 || d >= len(c.Gates) {
			return fmt.Errorf("circuit: register %q (id %d) has unresolved D pin", c.Gates[r].Name, r)
		}
	}
	if _, _, err := c.Levelize(); err != nil {
		return err
	}
	isPO := make(map[int]bool, len(c.POs))
	for _, o := range c.POs {
		isPO[o] = true
	}
	fanout := c.Fanout()
	for id, g := range c.Gates {
		if len(fanout[id]) == 0 && !isPO[id] {
			return fmt.Errorf("circuit: node %q (id %d) is dangling (no fanout, not an output)", g.Name, id)
		}
	}
	return nil
}

// Simulate evaluates the circuit for the given primary input values (in
// c.PIs order) and returns the values of all nodes.
func (c *Circuit) Simulate(inputs []bool) ([]bool, error) {
	if len(inputs) != len(c.PIs) {
		return nil, fmt.Errorf("circuit: Simulate got %d inputs, want %d", len(inputs), len(c.PIs))
	}
	order, _, err := c.Levelize()
	if err != nil {
		return nil, err
	}
	vals := make([]bool, len(c.Gates))
	for i, pi := range c.PIs {
		vals[pi] = inputs[i]
	}
	for _, id := range order {
		g := &c.Gates[id]
		if g.Type == Input {
			continue
		}
		if g.Type == Dff {
			// Single-vector simulation evaluates the reset state: every
			// register's Q output reads as false.
			vals[id] = false
			continue
		}
		vals[id] = evalGate(g.Type, g.Fanin, vals)
	}
	return vals, nil
}

func evalGate(t GateType, fanin []int, vals []bool) bool {
	switch t {
	case Buf:
		return vals[fanin[0]]
	case Not:
		return !vals[fanin[0]]
	case And, Nand:
		v := true
		for _, f := range fanin {
			v = v && vals[f]
		}
		if t == Nand {
			return !v
		}
		return v
	case Or, Nor:
		v := false
		for _, f := range fanin {
			v = v || vals[f]
		}
		if t == Nor {
			return !v
		}
		return v
	case Xor, Xnor:
		v := false
		for _, f := range fanin {
			v = v != vals[f]
		}
		if t == Xnor {
			return !v
		}
		return v
	default:
		panic(fmt.Sprintf("circuit: evalGate on %v", t))
	}
}

// Stats is a structural summary of a circuit.
type Stats struct {
	Name   string
	PIs    int
	POs    int
	Gates  int
	Regs   int // DFF registers (also counted in Gates)
	Nodes  int // Vo: gates + PIs
	Edges  int // Eo: fanin connections
	Depth  int
	MaxFan int // largest fanin
	AvgFan float64
}

// Stat computes the structural summary.
func (c *Circuit) Stat() (Stats, error) {
	d, err := c.Depth()
	if err != nil {
		return Stats{}, err
	}
	s := Stats{
		Name:  c.Name,
		PIs:   len(c.PIs),
		POs:   len(c.POs),
		Gates: c.NumGates(),
		Regs:  c.NumRegs(),
		Nodes: c.NumNodes(),
		Edges: c.NumEdges(),
		Depth: d,
	}
	for _, g := range c.Gates {
		if len(g.Fanin) > s.MaxFan {
			s.MaxFan = len(g.Fanin)
		}
	}
	if s.Gates > 0 {
		s.AvgFan = float64(s.Edges) / float64(s.Gates)
	}
	return s, nil
}
