package mmio

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"slices"
	"testing"
)

// Allocation bound for FuzzReadLimited: bytes allocated per input byte,
// plus a constant. The constant covers the 64 KiB read buffer and the
// up-front reservation of maxPrealloc entries (512 KiB). The slope
// covers the worst shape: a symmetric array file, whose 2-byte "1\n"
// lines each expand to two 16-byte entries in slices grown by append.
const (
	fuzzAllocPerByte = 128
	fuzzAllocSlack   = 1 << 20
)

// FuzzReadLimited checks ReadLimited against refReadLimited, the
// parser it replaced: on every input and byte limit the two return
// bit-identical COO matrices (values compared by Float64bits) or the
// same error text, neither panics, and ReadLimited allocates at most
// fuzzAllocPerByte bytes per input byte plus fuzzAllocSlack.
func FuzzReadLimited(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte, limit int64) {
		want, wantErr := refReadLimited(bytes.NewReader(body), limit)

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := ReadLimited(bytes.NewReader(body), limit)
		runtime.ReadMemStats(&after)

		if alloc, bound := after.TotalAlloc-before.TotalAlloc, uint64(fuzzAllocPerByte*len(body)+fuzzAllocSlack); alloc > bound {
			t.Errorf("allocated %d bytes for a %d-byte input, want <= %d", alloc, len(body), bound)
		}
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("err = %v, reference err = %v", err, wantErr)
		}
		if err != nil {
			if err.Error() != wantErr.Error() {
				t.Fatalf("err = %q, reference err = %q", err, wantErr)
			}
			if tooLarge := errors.Is(err, ErrTooLarge); tooLarge != errors.Is(wantErr, ErrTooLarge) {
				t.Fatalf("errors.Is(err, ErrTooLarge) = %v, reference %v", tooLarge, !tooLarge)
			}
			return
		}
		if got.Rows != want.Rows || got.Cols != want.Cols || got.Field != want.Field || got.Symmetry != want.Symmetry {
			t.Fatalf("got %dx%d %v/%v, reference %dx%d %v/%v",
				got.Rows, got.Cols, got.Field, got.Symmetry, want.Rows, want.Cols, want.Field, want.Symmetry)
		}
		if !slices.Equal(got.RowIdx, want.RowIdx) || !slices.Equal(got.ColIdx, want.ColIdx) {
			t.Fatalf("indices differ from the reference")
		}
		if (got.Vals == nil) != (want.Vals == nil) || !slices.EqualFunc(got.Vals, want.Vals, func(a, b float64) bool {
			return math.Float64bits(a) == math.Float64bits(b)
		}) {
			t.Fatalf("values differ from the reference")
		}
	})
}
