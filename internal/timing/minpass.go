package timing

import (
	"errors"

	"repro/internal/canon"
)

// This file is the earliest-arrival (shortest-path) dual of the forward
// pass: the same walker (propagate.go) with canon.MinViews as its fold
// instead of canon.MaxViews. Hold analysis needs the earliest statistical
// arrival at every register D pin.

// ArrivalsMin runs a forward earliest-arrival propagation from the given
// source vertices (all launching at time zero) into the pass arena: after
// it, At(v) holds the statistical minimum arrival over all paths from the
// sources to v.
func (p *Pass) ArrivalsMin(sources ...int) error {
	return p.walker(p.g.EdgeDelays(), forward, canon.MinViews).pass(p.ctx, sources)
}

// MinDelay returns the statistical minimum delay over all outputs with every
// launch source at time zero — the shortest-path dual of MaxDelay, the
// quantity hold analysis bounds from below.
func (g *Graph) MinDelay() (*canon.Form, error) {
	p := g.AcquirePass()
	defer p.Release()
	if err := p.ArrivalsMin(g.LaunchSources()...); err != nil {
		return nil, err
	}
	acc := p.Scratch()
	first := true
	for _, o := range g.Outputs {
		if !p.Reached(o) {
			continue
		}
		if first {
			canon.CopyView(acc, p.At(o))
			first = false
		} else {
			canon.MinViews(acc, acc, p.At(o))
		}
	}
	if first {
		return nil, errors.New("timing: no output reachable from any launch source")
	}
	return acc.Form(g.Space), nil
}
