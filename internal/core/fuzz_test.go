package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/avr"
	"repro/internal/store"
	"repro/internal/testkit"
)

// stateBytes writes a template state as a v4 file, letting the seeds cover
// structurally valid files (no group level, poisoned class table) without
// the cost of training a real template set.
func stateBytes(t testing.TB, st *store.TemplateState) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := store.Write(&buf, st, store.Options{}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// withVersion returns a copy of a v4 file whose prelude claims schema v.
func withVersion(b []byte, v uint32) []byte {
	out := append([]byte(nil), b...)
	binary.LittleEndian.PutUint32(out[4:8], v)
	return out
}

// craftedSeeds is the training-free part of the FuzzLoad seed set, shared by
// the committed corpus and the in-process f.Add calls.
func craftedSeeds(t testing.TB) map[string][]byte {
	bare := stateBytes(t, &store.TemplateState{})
	poisoned := &store.TemplateState{HaveRegs: true}
	poisoned.InstrClass[0] = []avr.Class{avr.Class(255)}
	return map[string][]byte{
		"not_gob":              []byte("not a template file"),
		"bare_current_version": bare,
		"future_version":       withVersion(bare, store.Version+1),
		"old_version":          withVersion(bare, store.Version-1),
		"poisoned_class_table": stateBytes(t, poisoned),
		"truncated":            bare[:len(bare)/2],
	}
}

// strippedTrained saves the shared fixture and cuts the file at the end of
// its header: a structurally real prelude, header and section directory
// (real Points-bearing levels, class tables and drift baselines) at
// committable size, whose every section lies past EOF. A whole trained file
// runs to hundreds of KB of matrix payload.
func strippedTrained(t *testing.T) []byte {
	d, _ := sharedFixture(t)
	var buf bytes.Buffer
	if err := d.SaveStore(&buf, store.Options{}); err != nil {
		t.Fatal(err)
	}
	sf, err := store.OpenReaderAt(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	return buf.Bytes()[:sf.PayloadOffset()]
}

// TestFuzzCorpusCommitted regenerates the committed seed corpus under
// testdata/fuzz when REGEN_FUZZ_CORPUS is set, and otherwise asserts it is
// present. The seeds are the crafted v4 variants plus a real trained file
// stripped to its header (see strippedTrained).
func TestFuzzCorpusCommitted(t *testing.T) {
	if os.Getenv("REGEN_FUZZ_CORPUS") != "" {
		for name, b := range craftedSeeds(t) {
			testkit.WriteCorpus(t, "FuzzLoad", name, b)
		}
		testkit.WriteCorpus(t, "FuzzLoad", "stripped_trained_state", strippedTrained(t))
		return
	}
	ents, err := os.ReadDir(filepath.Join("testdata", "fuzz", "FuzzLoad"))
	if err != nil || len(ents) == 0 {
		t.Errorf("no committed seed corpus for FuzzLoad (REGEN_FUZZ_CORPUS=1 to create): %v", err)
	}
}

// TestStrippedTrainedSeedRejectedCleanly pins the stripped seed's contract in
// unit form (the fuzz engine only exercises it under -fuzz): Load must
// reject the deep, header-consistent, payload-free file with
// ErrTemplateFormat.
func TestStrippedTrainedSeedRejectedCleanly(t *testing.T) {
	d, err := Load(bytes.NewReader(strippedTrained(t)))
	if d != nil || !errors.Is(err, ErrTemplateFormat) {
		t.Fatalf("stripped trained file: Load returned (%v, %v), want (nil, ErrTemplateFormat)", d, err)
	}
}

// FuzzLoad drives template deserialization with arbitrary bytes. The
// contract under fuzz: Load never panics, never returns a non-nil
// Disassembler together with an error, and classifies every rejection under
// ErrTemplateFormat (I/O errors are impossible from a bytes.Reader).
func FuzzLoad(f *testing.F) {
	f.Add([]byte{})
	seeds := craftedSeeds(f)
	names := make([]string, 0, len(seeds))
	for name := range seeds {
		names = append(names, name)
	}
	sort.Strings(names) // stable seed#N numbering
	for _, name := range names {
		f.Add(seeds[name])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Load(bytes.NewReader(data))
		if err == nil {
			if d == nil {
				t.Fatal("Load returned nil, nil")
			}
			// Anything Load accepts must be classify-ready: the call must
			// return a verdict or an error, never panic.
			_, _ = d.Classify(make([]float64, 16))
			return
		}
		if d != nil {
			t.Fatalf("Load returned a partially initialized Disassembler with error %v", err)
		}
		if !errors.Is(err, ErrTemplateFormat) {
			t.Fatalf("rejection outside ErrTemplateFormat: %v", err)
		}
	})
}

// TestSaveLoadFuzzSeedRoundTrip keeps the fuzz surface honest against the
// real format: a trained template set survives SaveStore → Load and the
// loaded copy decodes traces identically to the original.
func TestSaveLoadFuzzSeedRoundTrip(t *testing.T) {
	d, traces := sharedFixture(t)
	var buf bytes.Buffer
	if err := d.SaveStore(&buf, store.Options{}); err != nil {
		t.Fatal(err)
	}
	back, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want, err := d.Disassemble(traces)
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.Disassemble(traces)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("loaded disassembler decode %d = %+v, original %+v", i, got[i], want[i])
		}
	}
	// Every truncation of a real template file must be rejected cleanly —
	// the deep-structure analogue of the fuzz contract, on bytes the fuzzer
	// would need many CPU-hours to construct.
	for _, frac := range []int{1, 2, 4, 8} {
		cut := buf.Len() * frac / 10
		if _, err := Load(bytes.NewReader(buf.Bytes()[:cut])); !errors.Is(err, ErrTemplateFormat) {
			t.Fatalf("truncation at %d/%d bytes: got %v, want ErrTemplateFormat", cut, buf.Len(), err)
		}
	}
}
