package circuit

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// ParseBench reads a netlist in the ISCAS85/89 .bench format:
//
//	# comment
//	INPUT(a)
//	OUTPUT(z)
//	n1 = NAND(a, b)
//	s1 = DFF(n1)
//
// Combinational primitives and DFF registers are both accepted. A DFF line
// declares a register whose Q output carries the left-hand name; its single
// argument is the D-pin source, which may be defined anywhere in the file —
// including combinationally downstream of the register's own Q (feedback).
// Callers that cannot handle registers should use ParseBenchCombinational.
func ParseBench(name string, r io.Reader) (*Circuit, error) {
	return parseBench(name, r, true)
}

// ParseBenchCombinational reads a .bench netlist like ParseBench but rejects
// sequential elements: a DFF line yields a descriptive error instead of a
// register. This is the validated combinational-only mode for callers whose
// downstream analysis assumes a pure DAG of logic gates.
func ParseBenchCombinational(name string, r io.Reader) (*Circuit, error) {
	return parseBench(name, r, false)
}

func parseBench(name string, r io.Reader, allowSeq bool) (*Circuit, error) {
	c := New(name)
	type pendingGate struct {
		line   int
		name   string
		gate   string
		inputs []string
	}
	type pendingReg struct {
		line int
		id   int    // placeholder DFF node, Fanin[0] == -1 until patched
		d    string // D-pin source name, resolved after all gates exist
	}
	var pending []pendingGate
	var regs []pendingReg
	var outputs []string

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		switch {
		case matchDirective(line, "INPUT"):
			arg, err := directiveArg(line, "INPUT", lineNo)
			if err != nil {
				return nil, err
			}
			if _, err := c.AddInput(arg); err != nil {
				return nil, fmt.Errorf("bench line %d: %w", lineNo, err)
			}
		case matchDirective(line, "OUTPUT"):
			arg, err := directiveArg(line, "OUTPUT", lineNo)
			if err != nil {
				return nil, err
			}
			outputs = append(outputs, arg)
		default:
			eq := strings.Index(line, "=")
			if eq < 0 {
				return nil, fmt.Errorf("bench line %d: cannot parse %q", lineNo, line)
			}
			lhs := strings.TrimSpace(line[:eq])
			rhs := strings.TrimSpace(line[eq+1:])
			open := strings.Index(rhs, "(")
			close_ := strings.LastIndex(rhs, ")")
			if open < 0 || close_ < open {
				return nil, fmt.Errorf("bench line %d: malformed gate expression %q", lineNo, rhs)
			}
			fn := strings.ToUpper(strings.TrimSpace(rhs[:open]))
			args := strings.Split(rhs[open+1:close_], ",")
			for i := range args {
				args[i] = strings.TrimSpace(args[i])
			}
			if fn == "DFF" {
				if !allowSeq {
					return nil, fmt.Errorf("bench line %d: sequential element DFF not supported (combinational modules only)", lineNo)
				}
				if len(args) != 1 || args[0] == "" {
					return nil, fmt.Errorf("bench line %d: DFF %q needs exactly one D input", lineNo, lhs)
				}
				// Register the Q name immediately (with a placeholder D pin)
				// so combinational gates reading through register feedback can
				// resolve it; the D source is patched after all gates exist.
				id, err := c.AddDFF(lhs, -1)
				if err != nil {
					return nil, fmt.Errorf("bench line %d: %w", lineNo, err)
				}
				regs = append(regs, pendingReg{line: lineNo, id: id, d: args[0]})
				continue
			}
			pending = append(pending, pendingGate{line: lineNo, name: lhs, gate: fn, inputs: args})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("bench: read error: %w", err)
	}

	// Gates can reference names defined later in the file; resolve by
	// repeatedly adding gates whose fanins are all known. Sorting each round
	// keeps the construction deterministic.
	remaining := pending
	for len(remaining) > 0 {
		var next []pendingGate
		progress := false
		for _, pg := range remaining {
			ids := make([]int, 0, len(pg.inputs))
			ok := true
			for _, in := range pg.inputs {
				id, found := c.byName[in]
				if !found {
					ok = false
					break
				}
				ids = append(ids, id)
			}
			if !ok {
				next = append(next, pg)
				continue
			}
			t, err := gateTypeFromBench(pg.gate)
			if err != nil {
				return nil, fmt.Errorf("bench line %d: %w", pg.line, err)
			}
			if _, err := c.AddGate(pg.name, t, ids...); err != nil {
				return nil, fmt.Errorf("bench line %d: %w", pg.line, err)
			}
			progress = true
		}
		if !progress {
			sort.Slice(next, func(i, j int) bool { return next[i].line < next[j].line })
			return nil, fmt.Errorf("bench line %d: gate %q has unresolvable fanin (undefined signal or cycle)",
				next[0].line, next[0].name)
		}
		remaining = next
	}

	// Patch register D pins now that every signal name exists. This is what
	// lets a DFF reference a gate defined later in the file, or sit on a
	// feedback loop through its own Q output.
	for _, pr := range regs {
		dID, ok := c.byName[pr.d]
		if !ok {
			return nil, fmt.Errorf("bench line %d: DFF %q references undefined signal %q",
				pr.line, c.Gates[pr.id].Name, pr.d)
		}
		c.Gates[pr.id].Fanin[0] = dID
	}
	if len(regs) > 0 {
		c.invalidate()
	}

	for _, out := range outputs {
		id, ok := c.byName[out]
		if !ok {
			return nil, fmt.Errorf("bench: OUTPUT(%s) references undefined signal", out)
		}
		if err := c.MarkOutput(id); err != nil {
			return nil, err
		}
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("bench: invalid netlist: %w", err)
	}
	return c, nil
}

func matchDirective(line, dir string) bool {
	u := strings.ToUpper(line)
	return strings.HasPrefix(u, dir) && strings.Contains(line, "(")
}

func directiveArg(line, dir string, lineNo int) (string, error) {
	open := strings.Index(line, "(")
	close_ := strings.LastIndex(line, ")")
	if open < 0 || close_ < open {
		return "", fmt.Errorf("bench line %d: malformed %s directive %q", lineNo, dir, line)
	}
	arg := strings.TrimSpace(line[open+1 : close_])
	if arg == "" {
		return "", fmt.Errorf("bench line %d: empty %s argument", lineNo, dir)
	}
	return arg, nil
}

func gateTypeFromBench(fn string) (GateType, error) {
	switch fn {
	case "BUF", "BUFF":
		return Buf, nil
	case "NOT", "INV":
		return Not, nil
	case "AND":
		return And, nil
	case "NAND":
		return Nand, nil
	case "OR":
		return Or, nil
	case "NOR":
		return Nor, nil
	case "XOR":
		return Xor, nil
	case "XNOR":
		return Xnor, nil
	default:
		return 0, fmt.Errorf("unknown gate function %q", fn)
	}
}

// C17 returns the classic ISCAS85 c17 benchmark (the only one small enough
// to embed verbatim; all six NAND gates).
func C17() *Circuit {
	c := New("c17")
	g1, _ := c.AddInput("1")
	g2, _ := c.AddInput("2")
	g3, _ := c.AddInput("3")
	g6, _ := c.AddInput("6")
	g7, _ := c.AddInput("7")
	g10, _ := c.AddGate("10", Nand, g1, g3)
	g11, _ := c.AddGate("11", Nand, g3, g6)
	g16, _ := c.AddGate("16", Nand, g2, g11)
	g19, _ := c.AddGate("19", Nand, g11, g7)
	g22, _ := c.AddGate("22", Nand, g10, g16)
	g23, _ := c.AddGate("23", Nand, g16, g19)
	_ = c.MarkOutput(g22)
	_ = c.MarkOutput(g23)
	return c
}
