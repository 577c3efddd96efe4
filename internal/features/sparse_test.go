package features

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/parallel"
	"repro/internal/testkit"
)

// fitTestPipeline fits a small pipeline on the synthetic two-class dataset
// under the given config, ready for sparse-vs-full comparisons.
func fitTestPipeline(t *testing.T, cfg PipelineConfig) *Pipeline {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	traces, labels, programs := synthDataset(rng, 6, 3, true)
	cfg.NumComponents = 5
	pl, err := FitPipeline(traces, labels, programs, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// TestExtractSparseMatchesFull is the tentpole property: on any finite trace,
// ExtractSparse must agree with the full-FFT path — both the raw composition
// ExtractFromScalogram(RawScalogram(trace)) and plain Extract — within
// testkit.CWTTol, with and without per-trace normalization.
func TestExtractSparseMatchesFull(t *testing.T) {
	configs := map[string]PipelineConfig{
		"no-norm":    DefaultPipelineConfig(),
		"norm-trace": CSAPipelineConfig(),
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			pl := fitTestPipeline(t, cfg)
			testkit.Check(t, testkit.CheckConfig{Runs: 16}, func(g *testkit.G) error {
				trace := g.Trace(pl.TraceLen())
				flat, err := pl.RawScalogram(trace)
				if err != nil {
					return err
				}
				full, err := pl.ExtractFromScalogram(flat)
				if err != nil {
					return err
				}
				direct, err := pl.Extract(trace)
				if err != nil {
					return err
				}
				sparse, err := pl.ExtractSparse(trace)
				if err != nil {
					return err
				}
				if len(sparse) != len(full) {
					return fmt.Errorf("sparse produced %d features, full %d", len(sparse), len(full))
				}
				for i := range sparse {
					if !testkit.Close(sparse[i], full[i], testkit.CWTTol, testkit.CWTTol) {
						return fmt.Errorf("feature %d: sparse %g vs scalogram-path %g", i, sparse[i], full[i])
					}
					if !testkit.Close(sparse[i], direct[i], testkit.CWTTol, testkit.CWTTol) {
						return fmt.Errorf("feature %d: sparse %g vs Extract %g", i, sparse[i], direct[i])
					}
				}
				return nil
			})
		})
	}
}

// TestSparseEdgeCellsMatchScalogram forces the sparse evaluator through
// trace-edge cells — all four corners of the time–frequency plane plus random
// cells — where the kernel window is clipped by the trace boundary, and
// requires each cell value to match the full scalogram within CWTTol. The
// point set is extended before the first sparse use, so both paths read the
// identical cells (only the raw stage is compared; the fitted z/PCA stages
// are sized for the original point count).
func TestSparseEdgeCellsMatchScalogram(t *testing.T) {
	pl := fitTestPipeline(t, CSAPipelineConfig())
	n := pl.TraceLen()
	nScales := pl.sel.CWT.NumScales()
	corners := []Point{
		{Scale: 0, Time: 0},
		{Scale: 0, Time: n - 1},
		{Scale: nScales - 1, Time: 0},
		{Scale: nScales - 1, Time: n - 1},
	}
	rng := rand.New(rand.NewSource(77))
	pl.Points = append(append([]Point(nil), pl.Points...), corners...)
	for i := 0; i < 16; i++ {
		pl.Points = append(pl.Points, Point{Scale: rng.Intn(nScales), Time: rng.Intn(n)})
	}

	testkit.Check(t, testkit.CheckConfig{Runs: 8}, func(g *testkit.G) error {
		trace := g.Trace(n)
		flat, err := pl.RawScalogram(trace)
		if err != nil {
			return err
		}
		raw, err := pl.rawFeaturesSparse(trace)
		if err != nil {
			return err
		}
		for i, p := range pl.Points {
			want := flat[pl.sel.flatIndex(p)]
			if !testkit.Close(raw[i], want, testkit.CWTTol, testkit.CWTTol) {
				return fmt.Errorf("cell %+v: sparse %g vs scalogram %g", p, raw[i], want)
			}
		}
		return nil
	})
}

// TestPairVectorSparseMatchesFull pins agreement of the pair-specific
// feature vectors across the two paths, with and without truncation.
func TestPairVectorSparseMatchesFull(t *testing.T) {
	pl := fitTestPipeline(t, CSAPipelineConfig())
	rng := rand.New(rand.NewSource(13))
	trace := synthTrace(rng, 0, 0.2)
	for pair := range pl.Pairs {
		for _, maxVars := range []int{0, 2} {
			full, err := pl.PairVector(pair, trace, maxVars)
			if err != nil {
				t.Fatal(err)
			}
			sparse, err := pl.PairVectorSparse(pair, trace, maxVars)
			if err != nil {
				t.Fatal(err)
			}
			testkit.AllClose(t, sparse, full, testkit.CWTTol, testkit.CWTTol,
				fmt.Sprintf("pair %d maxVars %d", pair, maxVars))
		}
	}
	if _, err := pl.PairVectorSparse(len(pl.Pairs), trace, 0); err == nil {
		t.Fatal("out-of-range pair should fail")
	}
}

// TestExtractSparseAllMatchesSerial requires the batch API to be bitwise
// identical to per-trace calls at any worker count, and SparseCells to report
// the unified point-set size.
func TestExtractSparseAllMatchesSerial(t *testing.T) {
	defer parallel.SetWorkers(0)
	pl := fitTestPipeline(t, CSAPipelineConfig())
	rng := rand.New(rand.NewSource(41))
	var traces [][]float64
	for i := 0; i < 9; i++ {
		traces = append(traces, synthTrace(rng, i%2, 0.1*float64(i)))
	}
	want := make([][]float64, len(traces))
	for i, tr := range traces {
		f, err := pl.ExtractSparse(tr)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = f
	}
	for _, workers := range []int{1, 4} {
		parallel.SetWorkers(workers)
		got, err := pl.ExtractSparseAll(traces)
		if err != nil {
			t.Fatal(err)
		}
		testkit.ExactEqual2D(t, got, want, fmt.Sprintf("ExtractSparseAll at %d workers", workers))
	}
	cells, err := pl.SparseCells()
	if err != nil {
		t.Fatal(err)
	}
	if cells != len(pl.Points) {
		t.Fatalf("SparseCells = %d, want %d", cells, len(pl.Points))
	}
}
