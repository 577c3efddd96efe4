package serve

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/avr"
	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/store"
)

// The shared fixture trains a small disassembler once per test process and
// keeps its v4 template bytes, the same file rewritten with the retired
// scalogram-plane normalization marker (the shape a file converted from an
// old gob template can carry), and a matched trace batch with its serial
// decode as the reference labels every handler response must reproduce
// bitwise.
var fx struct {
	once     sync.Once
	tpl      []byte
	legacy   []byte
	traces   [][]float64
	want     []string
	traceLen int
	err      error
}

func fixtureConfig() core.TrainerConfig {
	cfg := core.DefaultTrainerConfig()
	cfg.Programs = 4
	cfg.TracesPerProgram = 20
	cfg.RegisterPrograms = 0
	cfg.RegisterTracesPerProgram = 0
	return cfg
}

var fixtureClasses = []avr.Class{avr.OpADC, avr.OpAND}

func fixture(t *testing.T) {
	t.Helper()
	fx.once.Do(func() {
		cfg := fixtureConfig()
		d, err := core.TrainSubset(cfg, fixtureClasses, false)
		if err != nil {
			fx.err = err
			return
		}
		var buf bytes.Buffer
		if err := d.SaveStore(&buf, store.Options{}); err != nil {
			fx.err = err
			return
		}
		fx.tpl = buf.Bytes()
		fx.traceLen = d.TraceLen()
		if fx.legacy, err = planeNormalized(fx.tpl); err != nil {
			fx.err = err
			return
		}

		camp, err := power.NewCampaign(cfg.Power, 0, 7117)
		if err != nil {
			fx.err = err
			return
		}
		rng := rand.New(rand.NewSource(41))
		prog := power.NewProgramEnv(cfg.Power, 7117, 5)
		var stream []avr.Instruction
		for _, cl := range fixtureClasses {
			for i := 0; i < 4; i++ {
				stream = append(stream, avr.RandomOperands(rng, cl))
			}
		}
		if fx.traces, err = camp.AcquireSegments(rng, prog, stream); err != nil {
			fx.err = err
			return
		}
		decs, err := d.Disassemble(fx.traces)
		if err != nil {
			fx.err = err
			return
		}
		for _, dec := range decs {
			fx.want = append(fx.want, dec.String())
		}
	})
	if fx.err != nil {
		t.Fatal(fx.err)
	}
}

// planeNormalized rewrites a v4 template so every level claims the retired
// scalogram-plane normalization.
func planeNormalized(tpl []byte) ([]byte, error) {
	sf, err := store.OpenReaderAt(bytes.NewReader(tpl), int64(len(tpl)))
	if err != nil {
		return nil, err
	}
	defer sf.Close()
	st, err := sf.Template()
	if err != nil {
		return nil, err
	}
	st.Group.Pipe.Cfg.NormMode = 0
	for i := range st.Instr {
		if st.Instr[i].Present {
			st.Instr[i].Pipe.Cfg.NormMode = 0
		}
	}
	var buf bytes.Buffer
	if err := store.Write(&buf, st, store.Options{}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// writeTemplate drops the fixture template bytes into dir under name.tpl.
func writeTemplate(t *testing.T, dir, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(dir, name+TemplateExt)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// newTestRegistry builds a registry over a fresh temp dir holding the
// current fixture template as "demo".
func newTestRegistry(t *testing.T, cfg RegistryConfig) (*Registry, string) {
	t.Helper()
	fixture(t)
	dir := t.TempDir()
	writeTemplate(t, dir, "demo", fx.tpl)
	reg, err := NewRegistry(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return reg, dir
}
