package core

import (
	"errors"
	"testing"

	"repro/internal/avr"
	"repro/internal/ml"
)

// noScores hides the ml.Scorer method set of the wrapped classifier, modeling
// an externally supplied Classifier without raw per-class scores.
type noScores struct{ ml.Classifier }

// TestUntrainedGroupRouting pins the subset-disassembler routing contract: a
// trace whose group decision lands on a group without instruction templates
// is redirected onto the best-scoring trained group (ml.Scorer classifiers),
// identically through Classify and ClassifyScored; without scores the typed
// untrained error is preserved.
func TestUntrainedGroupRouting(t *testing.T) {
	cfg := smallConfig()
	classes := []avr.Class{avr.OpADD, avr.OpLDI}
	if avr.OpADD.Group() == avr.OpLDI.Group() {
		t.Fatal("test needs classes from two different groups")
	}
	d, err := TrainSubset(cfg, classes, false)
	if err != nil {
		t.Fatal(err)
	}
	traces := acquireTestTraces(t, cfg, []avr.Class{avr.OpLDI}, 4)

	// Forget LDI's group level: every LDI trace now routes to an untrained
	// group and must be remapped onto ADD's group instead of failing.
	gone := int(avr.OpLDI.Group()) - 1
	kept := avr.OpADD.Group()
	d.instr[gone] = groupLevel{}
	d.instrClass[gone] = nil
	for i, tr := range traces {
		dec, err := d.Classify(tr)
		if err != nil {
			t.Fatalf("trace %d: remapped classify failed: %v", i, err)
		}
		if dec.Group != kept {
			t.Fatalf("trace %d: remapped to group %d, want %d", i, dec.Group, kept)
		}
		scored, err := d.ClassifyScored(tr)
		if err != nil {
			t.Fatalf("trace %d: scored remapped classify failed: %v", i, err)
		}
		if scored.Decoded != dec {
			t.Fatalf("trace %d: ClassifyScored decoded %+v, Classify %+v", i, scored.Decoded, dec)
		}
	}

	// Without raw scores there is nothing to remap with: the typed untrained
	// error must surface as before.
	d.group.clf = noScores{d.group.clf}
	if _, err := d.Classify(traces[0]); !errors.Is(err, ErrNotTrained) {
		t.Fatalf("scoreless classify error = %v, want ErrNotTrained", err)
	}
}
