package core

import (
	"math/rand"
	"testing"

	"repro/internal/avr"
	"repro/internal/parallel"
	"repro/internal/power"
)

// acquireTestTraces collects a deterministic batch of labeled traces from an
// unseen program environment.
func acquireTestTraces(t *testing.T, cfg TrainerConfig, classes []avr.Class, perClass int) [][]float64 {
	t.Helper()
	camp, err := power.NewCampaign(cfg.Power, 0, 4242)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	prog := power.NewProgramEnv(cfg.Power, 4242, 3)
	var traces [][]float64
	for _, cl := range classes {
		stream := make([]avr.Instruction, perClass)
		for i := range stream {
			stream[i] = avr.RandomOperands(rng, cl)
		}
		tr, err := camp.AcquireSegments(rng, prog, stream)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, tr...)
	}
	return traces
}

// TestClassifyOneTransformPerTrace pins the cost invariants of the inference
// path and its oracle: production Classify and Disassemble run ZERO full
// CWTs — only per-level sparse evaluations — while the full-CWT oracle
// costs exactly one transform per trace, shared by every hierarchy level
// (group, instruction, and Rd/Rr when trained), and decodes identically.
func TestClassifyOneTransformPerTrace(t *testing.T) {
	cfg := smallConfig()
	classes := []avr.Class{avr.OpADD, avr.OpAND, avr.OpLDI, avr.OpSEC}
	d, err := TrainSubset(cfg, classes, false)
	if err != nil {
		t.Fatal(err)
	}
	traces := acquireTestTraces(t, cfg, classes, 3)
	const full, sparse = "dsp.cwt.transforms", "dsp.cwt.sparse.transforms"

	before := dspCount(t, full)
	if _, _, err := d.classifyScored(traces[0], fullCWTExtractor, nil); err != nil {
		t.Fatal(err)
	}
	if got := dspCount(t, full) - before; got != 1 {
		t.Fatalf("oracle classification ran %d CWTs, want exactly 1", got)
	}
	before = dspCount(t, full)
	want, err := disassembleFullCWT(d, traces)
	if err != nil {
		t.Fatal(err)
	}
	if got := dspCount(t, full) - before; got != int64(len(traces)) {
		t.Fatalf("oracle Disassemble of %d traces ran %d CWTs, want exactly %d", len(traces), got, len(traces))
	}

	// Production: no full transform at all, and one sparse evaluation per
	// hierarchy level actually consulted (group + instr here).
	before = dspCount(t, full)
	sparseBefore := dspCount(t, sparse)
	if _, err := d.Classify(traces[0]); err != nil {
		t.Fatal(err)
	}
	if got := dspCount(t, full) - before; got != 0 {
		t.Fatalf("Classify ran %d full CWTs, want 0", got)
	}
	if got := dspCount(t, sparse) - sparseBefore; got != 2 {
		t.Fatalf("Classify ran %d sparse evaluations, want 2 (group + instr)", got)
	}
	before = dspCount(t, full)
	got, err := d.Disassemble(traces)
	if err != nil {
		t.Fatal(err)
	}
	if n := dspCount(t, full) - before; n != 0 {
		t.Fatalf("Disassemble of %d traces ran %d full CWTs, want 0", len(traces), n)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("trace %d: sparse path decoded %+v, full-CWT oracle %+v", i, got[i], want[i])
		}
	}
}

// TestDisassembleParallelEquivalence requires the parallel Disassemble to
// produce exactly the serial decoding.
func TestDisassembleParallelEquivalence(t *testing.T) {
	cfg := smallConfig()
	classes := []avr.Class{avr.OpADD, avr.OpAND, avr.OpLDI, avr.OpSEC}
	d, err := TrainSubset(cfg, classes, false)
	if err != nil {
		t.Fatal(err)
	}
	traces := acquireTestTraces(t, cfg, classes, 4)

	defer parallel.SetWorkers(0)
	parallel.SetWorkers(1)
	want, err := d.Disassemble(traces)
	if err != nil {
		t.Fatal(err)
	}
	parallel.SetWorkers(4)
	got, err := d.Disassemble(traces)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := disassembleFullCWT(d, traces)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) || len(want) != len(oracle) {
		t.Fatalf("lengths differ: %d vs %d vs oracle %d", len(want), len(got), len(oracle))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("trace %d decoded differently: %+v vs %+v", i, want[i], got[i])
		}
		if oracle[i] != want[i] {
			t.Fatalf("trace %d: sparse path decoded %+v, full-CWT oracle %+v", i, want[i], oracle[i])
		}
	}

	// A bad trace fails identically too: same prefix length, same index in
	// the error, at any worker count.
	bad := append([][]float64{}, traces[:5]...)
	bad[3] = traces[3][:10]
	parallel.SetWorkers(1)
	prefixS, errS := d.Disassemble(bad)
	parallel.SetWorkers(4)
	prefixP, errP := d.Disassemble(bad)
	if errS == nil || errP == nil {
		t.Fatal("truncated trace should fail at every worker count")
	}
	if len(prefixS) != 3 || len(prefixP) != 3 {
		t.Fatalf("failure prefixes: serial %d, parallel %d, want 3", len(prefixS), len(prefixP))
	}
	if errS.Error() != errP.Error() {
		t.Fatalf("errors differ:\n  serial:   %v\n  parallel: %v", errS, errP)
	}
}

// TestTrainSubsetParallelEquivalence fits the same subset at one and four
// workers and requires identical classifications on a shared test batch —
// the trainer's parallel level jobs must not perturb the templates.
func TestTrainSubsetParallelEquivalence(t *testing.T) {
	cfg := smallConfig()
	cfg.TracesPerProgram = 12
	classes := []avr.Class{avr.OpADD, avr.OpLDI}
	traces := acquireTestTraces(t, cfg, classes, 4)

	defer parallel.SetWorkers(0)
	parallel.SetWorkers(1)
	dS, err := TrainSubset(cfg, classes, false)
	if err != nil {
		t.Fatal(err)
	}
	want, err := dS.Disassemble(traces)
	if err != nil {
		t.Fatal(err)
	}
	parallel.SetWorkers(4)
	dP, err := TrainSubset(cfg, classes, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dP.Disassemble(traces)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("trace %d: serial-trained %+v, parallel-trained %+v", i, want[i], got[i])
		}
	}
}
