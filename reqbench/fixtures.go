package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/avr"
	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/store"
)

// Template fixtures. Every workload's templates come from one training
// campaign per seed: core.Train with registers, written as a plain and a
// float32-quantized v4 file. Training is set-up: it sits outside every
// timed metric, setup_s included.

const (
	// Training scale: about 21 s per seed on a 2-vCPU box. Label accuracy
	// varies with the seed's templates; at 2 programs x 8 traces it spread
	// twice as wide over ten seeds as it does at this scale.
	trainPrograms = 3
	trainTraces   = 12

	fileRegs  = "regs.tpl"
	fileRegsQ = "regs-q.tpl"
)

func trainerConfig(seed uint64) core.TrainerConfig {
	cfg := core.DefaultTrainerConfig()
	cfg.Programs, cfg.TracesPerProgram = trainPrograms, trainTraces
	cfg.RegisterPrograms, cfg.RegisterTracesPerProgram = trainPrograms, trainTraces
	cfg.Seed = seed
	return cfg
}

// codeHash digests every non-test Go file under internal/, go.mod and this
// file (the training scale), so a change to the code that trains, writes or
// reads templates never runs against stale cached files. It hashes more
// than strictly needed (serve, obs); a spurious retrain costs set-up time
// only.
func codeHash(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("hashing template code: %w", err)
	}
	files = append(files, filepath.Join(root, "go.mod"), filepath.Join(root, "reqbench", "fixtures.go"))
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			return "", fmt.Errorf("hashing template code: %w", err)
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// fixtureDir returns the cached template directory of seed, and whether
// it is present.
func fixtureDir(root, cache string, seed uint64) (string, bool, error) {
	hash, err := codeHash(root)
	if err != nil {
		return "", false, err
	}
	dir := filepath.Join(cache, hash, fmt.Sprintf("s%d", seed))
	_, err = os.Stat(filepath.Join(dir, fileRegs))
	return dir, err == nil, nil
}

// trainFixture trains seed's templates and writes them to dir. The files
// are built under a temporary name and renamed into place, so an
// interrupted run never leaves a partial cache entry.
func trainFixture(dir string, seed uint64) error {
	if err := os.MkdirAll(filepath.Dir(dir), 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(filepath.Dir(dir), "tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	d, _, err := core.Train(trainerConfig(seed))
	if err != nil {
		return fmt.Errorf("training fixture: %w", err)
	}
	if err := d.SaveStoreFile(filepath.Join(tmp, fileRegs), store.Options{}); err != nil {
		return err
	}
	if err := d.SaveStoreFile(filepath.Join(tmp, fileRegsQ), store.Options{Quantize: true}); err != nil {
		return err
	}
	return os.Rename(tmp, dir)
}

// stream is a seeded instruction stream and its measured traces: the
// ground truth the served labels are scored against.
type stream struct {
	truth  []avr.Instruction
	traces [][]float64
}

// genStream measures n uniformly drawn classified instructions, in stream
// order, on the profiled device under a program environment the templates
// never saw. salt separates the streams of different workloads.
func genStream(seed uint64, salt int64, n int) (*stream, error) {
	cfg := trainerConfig(seed)
	camp, err := power.NewCampaign(cfg.Power, 0, seed+1000)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(int64(seed)*1_000_003 + salt))
	prog := power.NewProgramEnv(cfg.Power, seed+1000, 2)
	classes := avr.AllClasses()
	truth := make([]avr.Instruction, n)
	for i := range truth {
		truth[i] = avr.RandomOperands(rng, classes[rng.Intn(len(classes))])
	}
	traces, err := camp.AcquireSegments(rng, prog, truth)
	if err != nil {
		return nil, fmt.Errorf("acquiring traces: %w", err)
	}
	return &stream{truth: truth, traces: traces}, nil
}

// reference decodes traces in process from the same template file the
// daemon serves — the oracle every served listing must equal — and marks
// which decodes match the ground truth by core.CompareFlow's rules.
func reference(path string, s *stream) ([]core.Decision, []bool, error) {
	t, err := core.OpenTemplate(path)
	if err != nil {
		return nil, nil, err
	}
	defer t.Close()
	d, err := t.Disassembler()
	if err != nil {
		return nil, nil, err
	}
	decs, err := d.DisassembleScored(s.traces)
	if err != nil {
		return nil, nil, fmt.Errorf("reference decode of %s: %w", filepath.Base(path), err)
	}
	observed := make([]core.Decoded, len(decs))
	for i, dec := range decs {
		observed[i] = dec.Decoded
	}
	correct := make([]bool, len(decs))
	for i := range correct {
		correct[i] = true
	}
	for _, m := range core.CompareFlow(s.truth, observed) {
		if m.Index < len(correct) {
			correct[m.Index] = false
		}
	}
	return decs, correct, nil
}
