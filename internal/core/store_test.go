package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/features"
	"repro/internal/store"
)

// saveV4 writes the fixture disassembler as a v4 file under t.TempDir.
func saveV4(t *testing.T, d *Disassembler, opts store.Options) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fixture.tpl")
	if err := d.SaveStoreFile(path, opts); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestStoreLazyEqualsEagerDecode is the serving-path property on a real
// trained template: a v4 handle opened header-only and materialized on first
// use must decode the fixture campaign identically to the in-memory
// disassembler it was saved from.
func TestStoreLazyEqualsEagerDecode(t *testing.T) {
	d, traces := sharedFixture(t)
	want, err := d.Disassemble(traces)
	if err != nil {
		t.Fatal(err)
	}

	tpl, err := OpenTemplate(saveV4(t, d, store.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	defer tpl.Close()
	if tpl.Quantized() {
		t.Fatal("unquantized save reports Quantized")
	}
	if got := tpl.TraceLen(); got != d.TraceLen() {
		t.Fatalf("header TraceLen = %d, want %d", got, d.TraceLen())
	}
	if tpl.Materialized() {
		t.Fatal("freshly opened v4 handle claims to be materialized")
	}
	if tpl.ResidentBytes() != 0 {
		t.Fatalf("resident bytes %d before materialization", tpl.ResidentBytes())
	}

	back, err := tpl.Disassembler()
	if err != nil {
		t.Fatal(err)
	}
	if !tpl.Materialized() {
		t.Fatal("handle not materialized after Disassembler")
	}
	if tpl.ResidentBytes() == 0 {
		t.Fatal("no resident bytes after materialization")
	}
	got, err := back.Disassemble(traces)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lazy decode %d = %+v, eager %+v", i, got[i], want[i])
		}
	}
	// Materialization is once: the second call returns the same instance.
	again, err := tpl.Disassembler()
	if err != nil || again != back {
		t.Fatalf("second Disassembler call: %p/%v, want the remembered %p", again, err, back)
	}
}

// TestStoreConvertChain covers the `scdis convert` path end to end: a v4
// file reloads (LoadFile) and re-saves with identical decodes, and
// quantizing is a one-way step — re-converting a quantized template is
// lossless, so its decodes never drift across repeated conversions.
func TestStoreConvertChain(t *testing.T) {
	d, traces := sharedFixture(t)
	dir := t.TempDir()
	decodeFile := func(path string) []Decoded {
		t.Helper()
		ld, err := LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		decs, err := ld.Disassemble(traces)
		if err != nil {
			t.Fatal(err)
		}
		return decs
	}
	convert := func(in, out string, quantize bool) {
		t.Helper()
		ld, err := LoadFile(in)
		if err != nil {
			t.Fatal(err)
		}
		if err := ld.SaveStoreFile(out, store.Options{Quantize: quantize}); err != nil {
			t.Fatal(err)
		}
	}
	same := func(what string, got, want []Decoded) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s decode %d = %+v, want %+v", what, i, got[i], want[i])
			}
		}
	}
	want, err := d.Disassemble(traces)
	if err != nil {
		t.Fatal(err)
	}
	plain := saveV4(t, d, store.Options{})
	again := filepath.Join(dir, "again.tpl")
	convert(plain, again, false)
	same("converted", decodeFile(again), want)

	q1, q2 := filepath.Join(dir, "q1.tpl"), filepath.Join(dir, "q2.tpl")
	convert(plain, q1, true)
	convert(q1, q2, true)
	same("re-quantized", decodeFile(q2), decodeFile(q1))
}

// TestStoreQuantizedTemplateClassifies pins that a float32-quantized template
// loads and classifies the fixture campaign (the accuracy floors under
// quantization are enforced by the e2e gate; here the contract is that the
// half-size file is a working template, not a lossy wreck).
func TestStoreQuantizedTemplateClassifies(t *testing.T) {
	d, traces := sharedFixture(t)
	path := saveV4(t, d, store.Options{Quantize: true})
	tpl, err := OpenTemplate(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tpl.Close()
	if !tpl.Quantized() {
		t.Fatal("quantized save does not report Quantized")
	}
	q, err := tpl.Disassembler()
	if err != nil {
		t.Fatal(err)
	}
	decs, err := q.Disassemble(traces)
	if err != nil {
		t.Fatal(err)
	}
	if len(decs) != len(traces) {
		t.Fatalf("quantized decode returned %d results for %d traces", len(decs), len(traces))
	}
}

// TestStoreCorruptSectionFailsClosed flips one payload byte in a real
// template file: the header-only open still succeeds, materialization fails
// naming the damaged section under both error taxonomies (core's
// ErrTemplateFormat and store's ErrFormat), the failure is remembered, and
// the handle never yields a partially initialized disassembler.
func TestStoreCorruptSectionFailsClosed(t *testing.T) {
	d, _ := sharedFixture(t)
	path := saveV4(t, d, store.Options{})
	sf, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	secs := sf.Sections()
	payloadOff := sf.PayloadOffset()
	sf.Close()
	if len(secs) == 0 {
		t.Fatal("fixture template has no sections")
	}
	// First, an interior, and the last section — the full per-section matrix
	// runs on the tiny synthetic state in internal/store.
	for _, idx := range []int{0, len(secs) / 2, len(secs) - 1} {
		target := secs[idx]
		t.Run(target.Name, func(t *testing.T) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw[payloadOff+target.Offset] ^= 0x08
			bad := filepath.Join(t.TempDir(), "corrupt.tpl")
			if err := os.WriteFile(bad, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			tpl, err := OpenTemplate(bad)
			if err != nil {
				t.Fatalf("payload corruption must not fail the header open: %v", err)
			}
			defer tpl.Close()
			bd, err := tpl.Disassembler()
			if bd != nil || err == nil {
				t.Fatal("corrupted template materialized")
			}
			if !errors.Is(err, ErrTemplateFormat) || !errors.Is(err, store.ErrFormat) {
				t.Fatalf("error %v outside the format taxonomies", err)
			}
			var se *store.SectionError
			if !errors.As(err, &se) || se.Section != target.Name {
				t.Fatalf("error %v does not name section %q", err, target.Name)
			}
			if tpl.Materialized() {
				t.Fatal("handle claims materialized after a failed materialization")
			}
			if _, err2 := tpl.Disassembler(); err2 == nil || err2.Error() != err.Error() {
				t.Fatalf("second materialization gave %v, want the remembered %v", err2, err)
			}
		})
	}
}

// TestOpenTemplateRejectsDefectiveFiles covers the open-time edge cases: a
// missing file is an I/O error, anything else defective is a format error.
func TestOpenTemplateRejectsDefectiveFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, b []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if _, err := OpenTemplate(filepath.Join(dir, "missing.tpl")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: %v, want os.ErrNotExist", err)
	}
	// Garbage without the v4 magic — including any file of the retired
	// gob format — fails the magic check.
	if _, err := OpenTemplate(write("junk.tpl", []byte("junk template bytes"))); !errors.Is(err, ErrTemplateFormat) {
		t.Fatalf("junk: %v, want ErrTemplateFormat", err)
	}
	// The v4 magic followed by garbage fails the store's screens.
	if _, err := OpenTemplate(write("sct4.tpl", append([]byte(store.Magic), bytes.Repeat([]byte{0xAB}, 64)...))); !errors.Is(err, ErrTemplateFormat) {
		t.Fatalf("v4-routed junk: %v, want ErrTemplateFormat", err)
	}
}

// TestTemplateCloseBeforeMaterialize pins the handle lifecycle: a closed,
// never-materialized v4 handle refuses to materialize instead of crashing.
func TestTemplateCloseBeforeMaterialize(t *testing.T) {
	d, _ := sharedFixture(t)
	tpl, err := OpenTemplate(saveV4(t, d, store.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := tpl.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tpl.Disassembler(); err == nil {
		t.Fatal("closed handle materialized")
	}
	if !strings.Contains(strings.ToLower(headErr(tpl)), "closed") {
		t.Fatalf("materialization-after-close error %q does not mention the close", headErr(tpl))
	}
}

func headErr(tpl *Template) string {
	_, err := tpl.Disassembler()
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestOpenTemplateRejectsLegacyState pins the one-path contract for state
// that retired builds wrote and an earlier conversion carried into a v4
// file: scalogram-plane normalization (PerTraceNorm with a NormMode other
// than NormTrace) and a missing drift baseline. There is no inference path
// left for either, so materialization — through a Template handle or
// through Load — must fail with ErrTemplateFormat and tell the operator to
// retrain, never decode.
func TestOpenTemplateRejectsLegacyState(t *testing.T) {
	d, traces := sharedFixture(t)
	cases := map[string]func(*features.PipelineState){
		"plane-normalization": func(ps *features.PipelineState) {
			if !ps.Cfg.PerTraceNorm {
				t.Fatal("fixture premise broken: template is not CSA-normalized")
			}
			ps.Cfg.NormMode = 0
		},
		"no-drift-baseline": func(ps *features.PipelineState) { ps.Baseline = nil },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			st, err := d.templateState()
			if err != nil {
				t.Fatal(err)
			}
			mutate(st.Group.Pipe)
			for i := range st.Instr {
				if st.Instr[i].Present {
					mutate(st.Instr[i].Pipe)
				}
			}
			path := filepath.Join(t.TempDir(), "legacy.tpl")
			if err := store.WriteFile(path, st, store.Options{}); err != nil {
				t.Fatal(err)
			}
			check := func(how string, ld *Disassembler, err error) {
				t.Helper()
				if ld != nil || !errors.Is(err, ErrTemplateFormat) || !strings.Contains(err.Error(), "retrain") {
					t.Fatalf("%s: got (%v, %v), want ErrTemplateFormat with a retrain message", how, ld, err)
				}
			}
			tpl, err := OpenTemplate(path)
			if err == nil {
				defer tpl.Close()
				ld, err := tpl.Disassembler()
				check("materialize", ld, err)
			} else {
				check("open", nil, err)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			ld, err := Load(bytes.NewReader(raw))
			check("Load", ld, err)
		})
	}
	// The unmodified state still decodes: the rejection is about the
	// legacy markers, not the round trip.
	back, err := Load(bytes.NewReader(saveBytes(t, d)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := back.Disassemble(traces); err != nil {
		t.Fatal(err)
	}
}
