package circuit

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// This file holds helpers only tests call: writing a circuit back to
// .bench text and reading a single vector's primary outputs.

// WriteBench writes the circuit in .bench format. ParseBench(WriteBench(c))
// reproduces the circuit structure.
func (c *Circuit) WriteBench(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s\n", c.Name)
	if c.Sequential() {
		fmt.Fprintf(bw, "# %d inputs, %d outputs, %d gates, %d dffs\n",
			len(c.PIs), len(c.POs), c.NumGates(), c.NumRegs())
	} else {
		fmt.Fprintf(bw, "# %d inputs, %d outputs, %d gates\n", len(c.PIs), len(c.POs), c.NumGates())
	}
	for _, pi := range c.PIs {
		fmt.Fprintf(bw, "INPUT(%s)\n", c.Gates[pi].Name)
	}
	for _, po := range c.POs {
		fmt.Fprintf(bw, "OUTPUT(%s)\n", c.Gates[po].Name)
	}
	for _, g := range c.Gates {
		if g.Type == Input {
			continue
		}
		names := make([]string, len(g.Fanin))
		for i, f := range g.Fanin {
			names[i] = c.Gates[f].Name
		}
		fmt.Fprintf(bw, "%s = %s(%s)\n", g.Name, g.Type, strings.Join(names, ", "))
	}
	return bw.Flush()
}

// SimulateOutputs evaluates the circuit and returns the PO values in c.POs
// order.
func (c *Circuit) SimulateOutputs(inputs []bool) ([]bool, error) {
	vals, err := c.Simulate(inputs)
	if err != nil {
		return nil, err
	}
	out := make([]bool, len(c.POs))
	for i, po := range c.POs {
		out[i] = vals[po]
	}
	return out, nil
}
