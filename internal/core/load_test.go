package core

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/avr"
	"repro/internal/power"
	"repro/internal/store"
)

// saveBytes writes d as an in-memory v4 template file.
func saveBytes(t *testing.T, d *Disassembler) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.SaveStore(&buf, store.Options{}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSaveLoadRoundTrip(t *testing.T) {
	cfg := smallConfig()
	classes := []avr.Class{avr.OpADC, avr.OpAND}
	d, err := TrainSubset(cfg, classes, false)
	if err != nil {
		t.Fatal(err)
	}
	data := saveBytes(t, d)
	if len(data) == 0 {
		t.Fatal("empty template file")
	}
	d2, err := Load(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	// Saved and restored disassemblers must classify identically.
	camp, err := power.NewCampaign(cfg.Power, 0, 55)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	prog := power.NewProgramEnv(cfg.Power, 55, 2)
	targets := make([]avr.Instruction, 30)
	for i := range targets {
		targets[i] = avr.RandomOperands(rng, classes[i%2])
	}
	traces, err := camp.AcquireTemplated(rng, prog, targets)
	if err != nil {
		t.Fatal(err)
	}
	a, err := d.Disassemble(traces)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d2.Disassemble(traces)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decode %d differs after reload: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestSaveUntrainedFails(t *testing.T) {
	var d Disassembler
	var buf bytes.Buffer
	if err := d.SaveStore(&buf, store.Options{}); err == nil {
		t.Fatal("saving an untrained disassembler should fail")
	}
}

func TestLoadGarbageFails(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a template file"))); err == nil {
		t.Fatal("loading garbage should fail")
	}
}

// Fuzz-style robustness: no truncation or byte mutation of a valid template
// file may panic Load or leave it returning a partially usable Disassembler —
// every outcome is either a descriptive ErrTemplateFormat-wrapped error or a
// fully decodable template set.
func TestLoadMutatedTemplateBytes(t *testing.T) {
	cfg := smallConfig()
	d, err := TrainSubset(cfg, []avr.Class{avr.OpADC, avr.OpAND}, false)
	if err != nil {
		t.Fatal(err)
	}
	valid := saveBytes(t, d)
	trace := make([]float64, cfg.Power.TraceLen)
	for i := range trace {
		trace[i] = float64(i % 13)
	}

	tryLoad := func(t *testing.T, data []byte, label string) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s: Load panicked: %v", label, r)
			}
		}()
		ld, err := Load(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrTemplateFormat) {
				t.Fatalf("%s: err = %v, want ErrTemplateFormat wrap", label, err)
			}
			return
		}
		// Decode happened to survive the mutation: the result must still be
		// fully usable downstream — classifying may fail with an error but
		// must never panic on a corrupted class table or factor.
		_, _ = ld.Classify(trace)
	}

	// Truncations at every 1/8th of the stream, plus off-by-one edges.
	for _, frac := range []int{0, 1, 2, 3, 4, 5, 6, 7} {
		n := len(valid) * frac / 8
		tryLoad(t, valid[:n], "truncate")
	}
	tryLoad(t, valid[:len(valid)-1], "truncate-1")

	// Deterministic single-byte mutations scattered over the stream.
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 64; i++ {
		mut := append([]byte(nil), valid...)
		pos := rng.Intn(len(mut))
		mut[pos] ^= byte(1 << rng.Intn(8))
		tryLoad(t, mut, "mutate")
	}

	// The untouched stream still loads.
	if _, err := Load(bytes.NewReader(valid)); err != nil {
		t.Fatalf("pristine stream failed to load: %v", err)
	}
}

func TestLoadRejectsFutureVersion(t *testing.T) {
	_, err := Load(bytes.NewReader(withVersion(stateBytes(t, &store.TemplateState{}), store.Version+41)))
	if !errors.Is(err, ErrTemplateFormat) {
		t.Fatalf("err = %v, want ErrTemplateFormat", err)
	}
	if !strings.Contains(err.Error(), "newer") {
		t.Fatalf("future-version error %q should say the file is newer than this build", err)
	}
}

func TestLoadRejectsUndefinedClassTable(t *testing.T) {
	cfg := smallConfig()
	d, err := TrainSubset(cfg, []avr.Class{avr.OpADC, avr.OpAND}, false)
	if err != nil {
		t.Fatal(err)
	}
	st, err := d.templateState()
	if err != nil {
		t.Fatal(err)
	}
	st.InstrClass[0] = []avr.Class{avr.Class(250)}
	_, err = Load(bytes.NewReader(stateBytes(t, st)))
	if !errors.Is(err, ErrTemplateFormat) {
		t.Fatalf("undefined class table err = %v, want ErrTemplateFormat", err)
	}
}

func TestLoadGarbageWrapsTemplateFormat(t *testing.T) {
	_, err := Load(bytes.NewReader([]byte{0x07, 0xff, 0x81, 0x00}))
	if !errors.Is(err, ErrTemplateFormat) {
		t.Fatalf("garbage err = %v, want ErrTemplateFormat", err)
	}
}
