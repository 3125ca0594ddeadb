package mmio

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestReadCoordinateRealGeneral(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real general
% a comment
3 4 3
1 1 1.5
2 3 -2.0
3 4 7
`
	c, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if c.Rows != 3 || c.Cols != 4 || c.NNZ() != 3 {
		t.Fatalf("dims = %dx%d nnz %d", c.Rows, c.Cols, c.NNZ())
	}
	if c.RowIdx[0] != 0 || c.ColIdx[0] != 0 || c.Vals[0] != 1.5 {
		t.Fatalf("entry 0 = (%d,%d,%v)", c.RowIdx[0], c.ColIdx[0], c.Vals[0])
	}
	if c.RowIdx[1] != 1 || c.ColIdx[1] != 2 || c.Vals[1] != -2 {
		t.Fatalf("entry 1 = (%d,%d,%v)", c.RowIdx[1], c.ColIdx[1], c.Vals[1])
	}
	if c.Field != Real || c.Symmetry != General {
		t.Fatalf("kind = %v/%v", c.Field, c.Symmetry)
	}
}

func TestReadSymmetricExpansion(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real symmetric
3 3 3
1 1 5
2 1 1
3 2 2
`
	c, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	// 2 off-diagonal entries expand to 4, diagonal stays 1.
	if c.NNZ() != 5 {
		t.Fatalf("nnz after expansion = %d, want 5", c.NNZ())
	}
	// Check the mirrored (1,2) entry exists with value 1.
	found := false
	for k := range c.RowIdx {
		if c.RowIdx[k] == 0 && c.ColIdx[k] == 1 && c.Vals[k] == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("mirrored entry (0,1)=1 not found")
	}
}

func TestReadPattern(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate pattern symmetric
2 2 2
1 1
2 1
`
	c, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if c.NNZ() != 3 {
		t.Fatalf("nnz = %d, want 3", c.NNZ())
	}
	if len(c.Vals) != 0 {
		t.Fatalf("pattern matrix has %d values", len(c.Vals))
	}
}

func TestReadInteger(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate integer general
2 2 1
2 2 42
`
	c, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if c.Vals[0] != 42 {
		t.Fatalf("value = %v", c.Vals[0])
	}
}

func TestReadArrayReal(t *testing.T) {
	src := `%%MatrixMarket matrix array real general
2 2
1.0
0.0
3.0
4.0
`
	c, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	// Column-major: (1,1)=1, (2,1)=0 skipped, (1,2)=3, (2,2)=4.
	if c.NNZ() != 3 {
		t.Fatalf("nnz = %d, want 3", c.NNZ())
	}
	if c.RowIdx[1] != 0 || c.ColIdx[1] != 1 || c.Vals[1] != 3 {
		t.Fatalf("entry 1 = (%d,%d,%v)", c.RowIdx[1], c.ColIdx[1], c.Vals[1])
	}
}

func TestReadErrors(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"bad header", "hello\n1 1 1\n"},
		{"bad object", "%%MatrixMarket vector coordinate real general\n1 1 1\n"},
		{"bad field", "%%MatrixMarket matrix coordinate complex general\n1 1 1\n"},
		{"bad symmetry", "%%MatrixMarket matrix coordinate real skew-symmetric\n1 1 1\n"},
		{"bad format", "%%MatrixMarket matrix banana real general\n1 1 1\n"},
		{"bad size", "%%MatrixMarket matrix coordinate real general\nx y z\n"},
		{"row out of range", "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n"},
		{"col out of range", "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 3 1.0\n"},
		{"zero index", "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n"},
		{"truncated", "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n"},
		{"short line", "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n"},
		{"bad value", "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 zzz\n"},
		{"pattern array", "%%MatrixMarket matrix array pattern general\n1 1\n"},
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c.src)); err == nil {
			t.Errorf("%s: expected error, got none", c.name)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	orig := &COO{
		Rows: 3, Cols: 3,
		RowIdx: []int32{0, 1, 2, 2},
		ColIdx: []int32{1, 0, 2, 0},
		Vals:   []float64{0.25, -3.75, 1e-12, 42},
		Field:  Real,
	}
	var buf bytes.Buffer
	if err := Write(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != orig.Rows || got.Cols != orig.Cols || got.NNZ() != orig.NNZ() {
		t.Fatalf("dims mismatch: %dx%d/%d", got.Rows, got.Cols, got.NNZ())
	}
	for k := range orig.RowIdx {
		if got.RowIdx[k] != orig.RowIdx[k] || got.ColIdx[k] != orig.ColIdx[k] || got.Vals[k] != orig.Vals[k] {
			t.Fatalf("entry %d mismatch: (%d,%d,%v)", k, got.RowIdx[k], got.ColIdx[k], got.Vals[k])
		}
	}
}

func TestRoundTripPattern(t *testing.T) {
	orig := &COO{
		Rows: 2, Cols: 5,
		RowIdx: []int32{0, 1},
		ColIdx: []int32{4, 3},
		Field:  Pattern,
	}
	var buf bytes.Buffer
	if err := Write(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() != 2 || len(got.Vals) != 0 {
		t.Fatalf("pattern round trip: nnz=%d vals=%d", got.NNZ(), len(got.Vals))
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.mtx")
	orig := &COO{
		Rows: 2, Cols: 2,
		RowIdx: []int32{0, 1},
		ColIdx: []int32{1, 0},
		Vals:   []float64{1, 2},
		Field:  Real,
	}
	if err := WriteFile(path, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() != 2 {
		t.Fatalf("nnz = %d", got.NNZ())
	}
	if _, err := ReadFile(filepath.Join(dir, "missing.mtx")); !os.IsNotExist(err) {
		t.Fatalf("missing file error = %v", err)
	}
}

func TestNoTrailingNewlineAtEOF(t *testing.T) {
	src := "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 3.5"
	c, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if c.Vals[0] != 3.5 {
		t.Fatalf("value = %v", c.Vals[0])
	}
}

func TestHeaderCaseInsensitive(t *testing.T) {
	src := "%%MatrixMarket MATRIX Coordinate REAL General\n1 1 1\n1 1 2\n"
	if _, err := Read(strings.NewReader(src)); err != nil {
		t.Fatal(err)
	}
}

func TestReadLimited(t *testing.T) {
	src := "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.5\n2 2 2.5\n"

	// Under and exactly at the limit: parses normally.
	for _, limit := range []int64{int64(len(src)), int64(len(src)) + 100, 0, -1} {
		c, err := ReadLimited(strings.NewReader(src), limit)
		if err != nil {
			t.Fatalf("limit %d: %v", limit, err)
		}
		if c.NNZ() != 2 {
			t.Fatalf("limit %d: nnz = %d", limit, c.NNZ())
		}
	}

	// One byte over the limit: rejected with ErrTooLarge.
	if _, err := ReadLimited(strings.NewReader(src), int64(len(src))-1); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize error = %v, want ErrTooLarge", err)
	}
	if _, err := ReadLimited(strings.NewReader(src), 10); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("tiny limit error = %v, want ErrTooLarge", err)
	}
}

func TestReadLimitedNoTrailingNewline(t *testing.T) {
	// A stream ending exactly at the limit without a trailing newline
	// must parse (EOF, not ErrTooLarge).
	src := "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 3.5"
	c, err := ReadLimited(strings.NewReader(src), int64(len(src)))
	if err != nil {
		t.Fatal(err)
	}
	if c.Vals[0] != 3.5 {
		t.Fatalf("value = %v", c.Vals[0])
	}
}

// TestSizeLineDoesNotSizeAllocation: a tiny header declaring 4·10⁸
// entries must fail at EOF without reserving memory for them.
func TestSizeLineDoesNotSizeAllocation(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate real general\n10 10 400000000\n"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadLimited(strings.NewReader(in), 512)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.EOF) {
		t.Fatalf("err = %v, want an EOF failure", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("allocated %d bytes for a %d-byte input, want < 1 MiB", got, len(in))
	}
}

// TestDimensionsBoundedByInput: a 77-byte upload declaring a
// 2·10⁹ × 2·10⁹ matrix with one entry parses as a COO, but every
// O(rows) structure built from it (CSR row pointers and their copies)
// would cost tens of GB. ReadLimited must reject it, cheaply, whether
// or not a byte limit is set.
func TestDimensionsBoundedByInput(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate pattern general\n2000000000 2000000000 1\n1 1\n"
	for _, limit := range []int64{64 << 20, 0} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadLimited(strings.NewReader(in), limit)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "declared in a") {
			t.Fatalf("limit %d: err = %v, want a dimension error", limit, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Fatalf("limit %d: allocated %d bytes for a %d-byte input, want < 1 MiB", limit, got, len(in))
		}
	}
	// A matrix with as many rows and columns as it has bytes is fine.
	ok := "%%MatrixMarket matrix coordinate pattern general\n60 60 1\n1 1\n"
	if _, err := ReadLimited(strings.NewReader(ok), 64<<20); err != nil {
		t.Fatalf("%d-byte 60x60 matrix rejected: %v", len(ok), err)
	}
}

// TestRejectsDimensionsAboveInt32: indices are stored as int32, so a
// larger declared dimension would wrap to negative indices.
func TestRejectsDimensionsAboveInt32(t *testing.T) {
	for _, in := range []string{
		"%%MatrixMarket matrix coordinate real general\n3000000000 2 1\n3000000000 1 1.0\n",
		"%%MatrixMarket matrix coordinate pattern general\n2 3000000000 1\n1 3000000000\n",
		"%%MatrixMarket matrix array real general\n3000000000 1\n",
	} {
		if _, err := Read(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "dimension above") {
			t.Errorf("%q: err = %v, want a dimension error", in, err)
		}
	}
}
