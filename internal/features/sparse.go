package features

import (
	"context"
	"fmt"

	"repro/internal/dsp"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// Sparse extraction: a fitted pipeline reads only len(Points) of the
// Scales×TraceLen scalogram cells, so inference can evaluate exactly those
// cells as direct dot products (dsp.SparseCWT) instead of running the full
// FFT transform. The evaluator is rebuilt deterministically from the
// persisted Points and bank configuration — the cell set IS the template's
// point set, nothing extra to serialize.

// sparseEval returns the pipeline's per-cell evaluator, building it on first
// use (thread-safe; the result is cached for the pipeline's lifetime).
func (pl *Pipeline) sparseEval() (*dsp.SparseCWT, error) {
	pl.sparseOnce.Do(func() {
		cells := make([]dsp.Cell, len(pl.Points))
		for i, p := range pl.Points {
			cells[i] = dsp.Cell{Scale: p.Scale, Time: p.Time}
		}
		pl.sparse, pl.sparseErr = pl.sel.CWT.Sparse(pl.sel.TraceLen, cells)
	})
	return pl.sparse, pl.sparseErr
}

// rawFeaturesSparse evaluates the unified DNVP values of one trace through
// the sparse path: time-domain standardization (when configured) followed by
// one dsp.SparseCWT evaluation — len(Points) dot products instead of
// NumScales full FFT convolutions. Values agree with rawFeatures within
// testkit.CWTTol.
func (pl *Pipeline) rawFeaturesSparse(trace []float64) ([]float64, error) {
	sp, err := pl.sparseEval()
	if err != nil {
		return nil, err
	}
	if len(trace) != pl.sel.TraceLen {
		return nil, fmt.Errorf("features: trace length %d, want %d", len(trace), pl.sel.TraceLen)
	}
	if pl.cfg.PerTraceNorm {
		trace = stats.NormalizeTrace(trace)
	}
	return sp.Values(trace)
}

// ExtractSparse maps one trace to its final classifier input through the
// sparse per-cell path. It is the drop-in fast twin of Extract: same z-score
// and PCA stages, point values within testkit.CWTTol of the full-FFT path.
func (pl *Pipeline) ExtractSparse(trace []float64) ([]float64, error) {
	f, err := pl.rawFeaturesSparse(trace)
	if err != nil {
		return nil, err
	}
	return pl.finishFeatures(f)
}

// ExtractSparseAll maps a batch of traces through the sparse path,
// parallelized over the parallel.Workers() pool. The result is index-aligned
// with traces and identical to serial per-trace ExtractSparse calls.
func (pl *Pipeline) ExtractSparseAll(traces [][]float64) ([][]float64, error) {
	return pl.ExtractSparseAllCtx(context.Background(), traces)
}

// ExtractSparseAllCtx is ExtractSparseAll with cooperative cancellation.
func (pl *Pipeline) ExtractSparseAllCtx(ctx context.Context, traces [][]float64) ([][]float64, error) {
	// Surface a kernel-build failure once, up front, instead of from every
	// worker.
	if _, err := pl.sparseEval(); err != nil {
		return nil, err
	}
	out := make([][]float64, len(traces))
	if err := parallel.ForErrCtx(ctx, len(traces), func(i int) error {
		f, err := pl.ExtractSparse(traces[i])
		if err != nil {
			return err
		}
		out[i] = f
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// PairVectorSparse is PairVector through the sparse path: the pair-specific
// feature vector (the paper's x_{i,j}) sliced from a sparse evaluation of
// the unified point set. maxVars truncates to the strongest maxVars points
// (0 = all).
func (pl *Pipeline) PairVectorSparse(pair int, trace []float64, maxVars int) ([]float64, error) {
	if pair < 0 || pair >= len(pl.Pairs) {
		return nil, fmt.Errorf("features: pair %d out of range", pair)
	}
	f, err := pl.rawFeaturesSparse(trace)
	if err != nil {
		return nil, err
	}
	idx := pl.pairIdx[pair]
	if maxVars > 0 && maxVars < len(idx) {
		idx = idx[:maxVars]
	}
	out := make([]float64, len(idx))
	for i, j := range idx {
		out[i] = f[j]
	}
	return out, nil
}

// SparseCells returns the number of time–frequency cells the sparse path
// evaluates per trace (the size of the unified DNVP set).
func (pl *Pipeline) SparseCells() (int, error) {
	sp, err := pl.sparseEval()
	if err != nil {
		return 0, err
	}
	return sp.NumCells(), nil
}
