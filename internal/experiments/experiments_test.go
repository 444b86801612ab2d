package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// timed lists the experiments whose output holds wall-clock measurements,
// so it differs from run to run and has no golden file.
var timed = map[string]bool{"visiblesim": true}

// TestEveryExperimentRuns: each regenerator completes without error and
// produces non-trivial output, and every deterministic one prints exactly
// what `sbbench -exp <id>` printed when its golden file was written. This is
// the end-to-end guarantee that `sbbench -exp all` reproduces the full
// evaluation, byte for byte. After a change that is meant to alter an
// experiment's output, regenerate its golden from the repository root with
//
//	go run ./cmd/sbbench -exp <id> > internal/experiments/testdata/<id>.golden
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are not short")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			out, err := e.Run()
			if err != nil {
				t.Fatalf("%s (%s): %v\n%s", e.ID, e.Paper, err, out)
			}
			if len(strings.TrimSpace(out)) < 20 {
				t.Errorf("%s: suspiciously short output %q", e.ID, out)
			}
			if timed[e.ID] {
				return
			}
			want, err := os.ReadFile(filepath.Join("testdata", e.ID+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			// The golden is sbbench's stdout: a header line, then the output.
			got := fmt.Sprintf("==> %s — %s\n\n%s\n", e.ID, e.Paper, out)
			if got != string(want) {
				t.Errorf("%s: output differs from testdata/%s.golden\ngot:\n%s\nwant:\n%s", e.ID, e.ID, got, want)
			}
		})
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("fig10"); !ok {
		t.Error("fig10 should exist")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("unknown id should not resolve")
	}
	if len(All()) != 17 {
		t.Errorf("experiment count = %d, want 17", len(All()))
	}
}
