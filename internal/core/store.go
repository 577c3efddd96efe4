package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/avr"
	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/store"
)

// Template persistence. Profiling is by far the most expensive step of the
// flow (the paper uploads 10–19 program files per class and captures
// thousands of traces), so a trained Disassembler is saved once and shipped
// with a monitoring appliance. The one on-disk format is schema v4, the
// flat, checksummed, lazily loadable container of internal/store. This file
// converts between the Disassembler and the store's exported TemplateState,
// and provides the Template handle serving uses for two-phase loading — a
// cheap header-only open followed by section materialization on the first
// decode.

// ErrTemplateFormat is wrapped into every load failure caused by the
// template file itself — a bad magic or version, truncated or corrupted
// bytes, a damaged section, or decoded state that fails validation
// (including state written by retired builds, which must be retrained).
// Callers distinguish "bad file" from I/O errors with errors.Is.
var ErrTemplateFormat = errors.New("core: invalid template file")

// snapshotLevel converts one trained level into storable form, including
// its precomputed sparse kernel table.
func snapshotLevel(lvl groupLevel) (store.LevelState, error) {
	if lvl.pipe == nil || lvl.clf == nil {
		return store.LevelState{}, nil // untrained level
	}
	ps, err := lvl.pipe.State()
	if err != nil {
		return store.LevelState{}, err
	}
	cs, err := ml.SnapshotClassifier(lvl.clf)
	if err != nil {
		return store.LevelState{}, err
	}
	t, err := lvl.pipe.SparseTable()
	if err != nil {
		return store.LevelState{}, fmt.Errorf("kernel table: %w", err)
	}
	return store.LevelState{Present: true, Pipe: ps, Clf: cs, Sparse: t}, nil
}

// restoreLevel rebuilds one level from materialized state. A persisted
// kernel table must match the fitted state it rides with.
func restoreLevel(ls store.LevelState) (groupLevel, error) {
	if !ls.Present {
		return groupLevel{}, nil
	}
	pipe, err := features.PipelineFromState(ls.Pipe)
	if err != nil {
		return groupLevel{}, err
	}
	if err := pipe.InstallSparseTable(ls.Sparse); err != nil {
		return groupLevel{}, err
	}
	clf, err := ml.RestoreClassifier(ls.Clf)
	if err != nil {
		return groupLevel{}, err
	}
	return groupLevel{pipe: pipe, clf: clf}, nil
}

// templateState converts the trained set into the store's exported state.
func (d *Disassembler) templateState() (*store.TemplateState, error) {
	if d.group.pipe == nil {
		return nil, errors.New("core: cannot save an untrained disassembler")
	}
	st := &store.TemplateState{HaveRegs: d.haveRegs}
	var err error
	if st.Group, err = snapshotLevel(d.group); err != nil {
		return nil, fmt.Errorf("core: saving group level: %w", err)
	}
	for i := range d.instr {
		if st.Instr[i], err = snapshotLevel(d.instr[i]); err != nil {
			return nil, fmt.Errorf("core: saving group %d level: %w", i+1, err)
		}
		st.InstrClass[i] = d.instrClass[i]
	}
	if d.haveRegs {
		if st.Rd, err = snapshotLevel(d.rd); err != nil {
			return nil, fmt.Errorf("core: saving Rd level: %w", err)
		}
		if st.Rr, err = snapshotLevel(d.rr); err != nil {
			return nil, fmt.Errorf("core: saving Rr level: %w", err)
		}
	}
	return st, nil
}

// SaveStore writes the trained template set as a schema-v4 store file.
func (d *Disassembler) SaveStore(w io.Writer, opts store.Options) error {
	st, err := d.templateState()
	if err != nil {
		return err
	}
	return store.Write(w, st, opts)
}

// SaveStoreFile is SaveStore to a path (partial files are removed on error).
func (d *Disassembler) SaveStoreFile(path string, opts store.Options) error {
	st, err := d.templateState()
	if err != nil {
		return err
	}
	return store.WriteFile(path, st, opts)
}

// disassemblerFromTemplateState rebuilds a Disassembler from materialized
// store state: class tables are validated against the ISA so a corrupted
// file cannot smuggle in a panic, and every failure wraps ErrTemplateFormat.
func disassemblerFromTemplateState(st *store.TemplateState) (*Disassembler, error) {
	d := &Disassembler{haveRegs: st.HaveRegs}
	var err error
	if d.group, err = restoreLevel(st.Group); err != nil {
		return nil, fmt.Errorf("%w: restoring group level: %w", ErrTemplateFormat, err)
	}
	if d.group.pipe == nil {
		return nil, fmt.Errorf("%w: file lacks a group level", ErrTemplateFormat)
	}
	for i := range d.instr {
		if d.instr[i], err = restoreLevel(st.Instr[i]); err != nil {
			return nil, fmt.Errorf("%w: restoring group %d level: %w", ErrTemplateFormat, i+1, err)
		}
		for _, c := range st.InstrClass[i] {
			if !avr.ValidClass(c) {
				return nil, fmt.Errorf("%w: group %d class table holds undefined class %d", ErrTemplateFormat, i+1, c)
			}
		}
		d.instrClass[i] = st.InstrClass[i]
	}
	if st.HaveRegs {
		if d.rd, err = restoreLevel(st.Rd); err != nil {
			return nil, fmt.Errorf("%w: restoring Rd level: %w", ErrTemplateFormat, err)
		}
		if d.rr, err = restoreLevel(st.Rr); err != nil {
			return nil, fmt.Errorf("%w: restoring Rr level: %w", ErrTemplateFormat, err)
		}
	}
	return d, nil
}

// Template is a two-phase handle on a template file. Open is cheap: only
// the header decodes (shape questions — TraceLen, Quantized — answer
// immediately); the matrices materialize on the first Disassembler call and
// the result (or error) is remembered.
type Template struct {
	f *store.File

	mu   sync.Mutex
	done bool
	d    *Disassembler
	err  error
}

// openStore screens a store file that just opened (or failed to): a
// defect of the file wraps ErrTemplateFormat while I/O errors pass through,
// and the header must carry a group level.
func openStore(sf *store.File, err error) (*store.File, error) {
	if errors.Is(err, store.ErrFormat) {
		return nil, fmt.Errorf("%w: %w", ErrTemplateFormat, err)
	}
	if err != nil {
		return nil, err
	}
	if hs := sf.HeaderState(); !hs.Group.Present || hs.Group.Pipe == nil || hs.Group.Pipe.TraceLen <= 0 {
		sf.Close()
		return nil, fmt.Errorf("%w: file lacks a group level", ErrTemplateFormat)
	}
	return sf, nil
}

// OpenTemplate opens path and decodes and validates its header; a bad file
// fails here, wrapping ErrTemplateFormat. A missing or unreadable file
// fails with its I/O error.
func OpenTemplate(path string) (*Template, error) {
	sf, err := openStore(store.Open(path))
	if err != nil {
		return nil, err
	}
	return &Template{f: sf}, nil
}

// Load reads a whole template set from r: the header and every section are
// decoded, CRC-checked and restored. A defective stream — truncated or
// bit-flipped bytes, a schema this build does not know, class tables holding
// undefined instruction classes, or state that fails reconstruction —
// yields a descriptive error wrapping ErrTemplateFormat and never a panic or
// a partially initialized Disassembler.
func Load(r io.Reader) (*Disassembler, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	sf, err := openStore(store.OpenReaderAt(bytes.NewReader(b), int64(len(b))))
	if err != nil {
		return nil, err
	}
	defer sf.Close()
	return materialize(sf)
}

// materialize loads every section of sf and rebuilds the hierarchy.
func materialize(sf *store.File) (*Disassembler, error) {
	st, err := sf.Template()
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrTemplateFormat, err)
	}
	return disassemblerFromTemplateState(st)
}

// Quantized reports whether the file's matrix sections are float32-encoded.
func (t *Template) Quantized() bool { return t.f.Quantized() }

// TraceLen answers from the header alone — no sections are touched.
func (t *Template) TraceLen() int { return t.f.HeaderState().Group.Pipe.TraceLen }

// Materialized reports whether the Disassembler has been built.
func (t *Template) Materialized() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.done && t.err == nil && t.d != nil
}

// ResidentBytes reports the decoded section bytes currently attributed to
// this handle.
func (t *Template) ResidentBytes() int64 { return t.f.ResidentBytes() }

// Disassembler materializes the template on first call: every section is
// loaded, CRC-checked and reattached, and the hierarchy is rebuilt with the
// same validation as Load. The result — or the failure — is remembered;
// a corrupted section yields the same SectionError on every call, never a
// partially initialized Disassembler.
func (t *Template) Disassembler() (*Disassembler, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return t.d, t.err
	}
	t.done = true
	t.d, t.err = materialize(t.f)
	return t.d, t.err
}

// Close releases the underlying store file. A materialized Disassembler
// stays valid — its state lives on the heap — but an unmaterialized handle
// can no longer materialize.
func (t *Template) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.f.Close()
}

// LoadFile loads a template file whole — the one-shot CLI path.
// The two-phase Template handle is for servers that want the header now and
// the matrices later.
func LoadFile(path string) (*Disassembler, error) {
	t, err := OpenTemplate(path)
	if err != nil {
		return nil, err
	}
	defer t.Close()
	return t.Disassembler()
}
