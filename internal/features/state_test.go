package features

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/testkit"
)

func TestPipelineStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	traces, labels, programs := synthDataset(rng, 15, 3, false)
	cfg := CSAPipelineConfig()
	cfg.NumComponents = 3
	pl, err := FitPipeline(traces, labels, programs, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := pl.State()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	var decoded PipelineState
	if err := gob.NewDecoder(&buf).Decode(&decoded); err != nil {
		t.Fatal(err)
	}
	pl2, err := PipelineFromState(&decoded)
	if err != nil {
		t.Fatal(err)
	}
	probe := synthTrace(rng, 1, 0)
	a, err := pl.Extract(probe)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pl2.Extract(probe)
	if err != nil {
		t.Fatal(err)
	}
	testkit.AllClose(t, b, a, 0, 1e-12, "features after state restore")
	if pl2.NumPoints() != pl.NumPoints() || pl2.PairCount() != pl.PairCount() {
		t.Fatal("metadata differs after restore")
	}
}

func TestPipelineStateValidation(t *testing.T) {
	var pl Pipeline
	if _, err := pl.State(); err == nil {
		t.Fatal("state of unfitted pipeline should fail")
	}
	if _, err := PipelineFromState(nil); err == nil {
		t.Fatal("restore of nil should fail")
	}
	if _, err := PipelineFromState(&PipelineState{}); err == nil {
		t.Fatal("restore of empty state should fail")
	}
}

// TestPipelineFromStateRejectsLegacy pins the one-normalization contract:
// FitPipeline records NormTrace whenever it normalizes (whatever marker the
// caller passed), and PipelineFromState refuses the two state shapes retired
// builds wrote — scalogram-plane normalization and a missing drift baseline
// — with an error that tells the operator to retrain.
func TestPipelineFromStateRejectsLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	traces, labels, programs := synthDataset(rng, 15, 3, false)
	cfg := CSAPipelineConfig()
	cfg.NumComponents = 3
	cfg.NormMode = 0
	pl, err := FitPipeline(traces, labels, programs, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := pl.Config().NormMode; got != NormTrace {
		t.Fatalf("fitted NormMode = %d, want NormTrace", got)
	}
	st, err := pl.State()
	if err != nil {
		t.Fatal(err)
	}
	plane := *st
	plane.Cfg.NormMode = 0
	noBaseline := *st
	noBaseline.Baseline = nil
	for name, bad := range map[string]*PipelineState{"plane-norm": &plane, "no-baseline": &noBaseline} {
		if _, err := PipelineFromState(bad); err == nil || !strings.Contains(err.Error(), "retrain") {
			t.Fatalf("%s state: err = %v, want a retrain error", name, err)
		}
	}
	if _, err := PipelineFromState(st); err != nil {
		t.Fatalf("current state rejected: %v", err)
	}
}
