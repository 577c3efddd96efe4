package core

import (
	"context"
	"testing"

	"repro/internal/features"
	"repro/internal/obs"
)

// fullCWTExtractor is the test oracle for the sparse inference path: one
// full CWT scalogram per trace (RawScalogram), shared by every hierarchy
// level through ExtractFromScalogram. Swapped into the production walk, it
// proves the per-cell path is a performance rewrite, not a model change.
func fullCWTExtractor(d *Disassembler, trace []float64) levelExtractor {
	flat, err := d.group.pipe.RawScalogram(trace)
	return func(pl *features.Pipeline, _ []float64) ([]float64, error) {
		if err != nil {
			return nil, err
		}
		return pl.ExtractFromScalogram(flat)
	}
}

// disassembleFullCWT decodes traces through the production batch walk with
// the full-CWT oracle as its extractor.
func disassembleFullCWT(d *Disassembler, traces [][]float64) ([]Decoded, error) {
	decs, err := d.disassembleScored(context.Background(), traces, fullCWTExtractor)
	out := make([]Decoded, len(decs))
	for i, dec := range decs {
		out[i] = dec.Decoded
	}
	return out, err
}

// dspCount reads a process-wide dsp counter ("dsp.cwt.transforms",
// "dsp.cwt.sparse.transforms") through a registry snapshot, installing a
// registry for the test when none is set.
func dspCount(t *testing.T, name string) int64 {
	t.Helper()
	reg := obs.Default()
	if reg == nil {
		reg = obs.NewRegistry()
		obs.SetDefault(reg)
		t.Cleanup(func() { obs.SetDefault(nil) })
	}
	return reg.Snapshot().Counters[name]
}
