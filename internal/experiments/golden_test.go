package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.txt from the current output")

// TestExperimentsGolden pins the rendered output of the whole suite —
// RunAll plus the three ablations — at seed 42 and 3 repeats, byte for
// byte. Every number is simulated and the searches are deterministic
// at any parallelism, so the file is machine-independent; a refactor
// of the workloads, cost models or experiment runners must not move a
// single digit. Run with -update to rewrite it.
func TestExperimentsGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("full experiment suite is too slow under -race; CI runs it without")
	}
	if testing.Short() {
		t.Skip("full experiment suite skipped in -short mode")
	}
	opts := Options{Seed: 42, Repeats: 3}
	var out bytes.Buffer
	if err := RunAll(opts, &out); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"ablate-sampler", "ablate-searcher", "ablate-platform"} {
		out.WriteString("==== " + id + " ====\n")
		if err := Run(id, opts, &out); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		out.WriteString("\n")
	}
	path := filepath.Join("testdata", "golden.txt")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		gotLines := bytes.Split(out.Bytes(), []byte("\n"))
		wantLines := bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
			var g, w []byte
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if !bytes.Equal(g, w) {
				t.Fatalf("output differs from %s at line %d:\n got %q\nwant %q", path, i+1, g, w)
			}
		}
	}
}
