// Package mmio reads and writes sparse matrices in the NIST Matrix
// Market exchange format (.mtx), the format the University of Florida
// collection (the paper's Table II datasets) is distributed in.
//
// Supported headers:
//
//	%%MatrixMarket matrix coordinate real general
//	%%MatrixMarket matrix coordinate real symmetric
//	%%MatrixMarket matrix coordinate integer general|symmetric
//	%%MatrixMarket matrix coordinate pattern general|symmetric
//	%%MatrixMarket matrix array real general
//
// Symmetric matrices are expanded on read (both (i,j) and (j,i) entries
// are materialized, diagonal entries once), which matches how the
// paper's workloads consume them.
package mmio

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"unicode/utf8"
)

// ErrTooLarge is returned by ReadLimited when the input exceeds the
// byte limit. Callers serving untrusted uploads should test for it
// with errors.Is and map it to a "payload too large" response.
var ErrTooLarge = errors.New("mmio: input exceeds size limit")

// limitedReader yields ErrTooLarge once more than max bytes have been
// consumed, unlike io.LimitReader whose silent EOF would surface as a
// confusing parse error mid-entry.
type limitedReader struct {
	r   io.Reader
	max int64
}

func (l *limitedReader) Read(p []byte) (int, error) {
	if l.max <= 0 {
		// The budget is spent: distinguish "stream ended exactly at
		// the limit" (EOF) from "more data remains" (ErrTooLarge) by
		// probing one byte.
		var one [1]byte
		for {
			m, err := l.r.Read(one[:])
			if m > 0 {
				return 0, ErrTooLarge
			}
			if err != nil {
				return 0, err
			}
		}
	}
	if int64(len(p)) > l.max {
		p = p[:l.max]
	}
	n, err := l.r.Read(p)
	l.max -= int64(n)
	return n, err
}

// ReadLimited parses a Matrix Market stream, failing with ErrTooLarge
// if the stream holds more than maxBytes bytes. maxBytes <= 0 means no
// limit. This is the entry point for untrusted uploads (the hetserve
// daemon), where an unbounded Read would let one request exhaust
// memory. For the same reason it rejects a matrix that declares more
// rows or columns than the stream has bytes: every O(rows + cols)
// structure built from the result (CSR row pointers, per-row work
// vectors) then stays within a constant factor of the upload size.
func ReadLimited(r io.Reader, maxBytes int64) (*COO, error) {
	if maxBytes <= 0 {
		maxBytes = math.MaxInt64
	}
	lr := &limitedReader{r: r, max: maxBytes}
	c, err := Read(lr)
	if err != nil {
		return nil, err
	}
	if read := maxBytes - lr.max; int64(c.Rows) > read || int64(c.Cols) > read {
		return nil, fmt.Errorf("mmio: %dx%d matrix declared in a %d-byte input", c.Rows, c.Cols, read)
	}
	return c, nil
}

// Field describes the value type of a Matrix Market file.
type Field int

// Field values.
const (
	Real Field = iota
	Integer
	Pattern
)

func (f Field) String() string {
	switch f {
	case Real:
		return "real"
	case Integer:
		return "integer"
	case Pattern:
		return "pattern"
	}
	return "unknown"
}

// Symmetry describes the storage symmetry of a Matrix Market file.
type Symmetry int

// Symmetry values.
const (
	General Symmetry = iota
	Symmetric
)

func (s Symmetry) String() string {
	if s == Symmetric {
		return "symmetric"
	}
	return "general"
}

// COO is a sparse matrix in coordinate (triplet) form as read from a
// Matrix Market file, with 0-based indices and symmetric entries
// already expanded.
type COO struct {
	Rows, Cols int
	RowIdx     []int32
	ColIdx     []int32
	Vals       []float64 // len 0 for pattern matrices
	Field      Field
	Symmetry   Symmetry // symmetry as declared in the file (pre-expansion)
}

// NNZ returns the number of stored entries after symmetric expansion.
func (c *COO) NNZ() int { return len(c.RowIdx) }

// Read parses a Matrix Market stream.
func Read(r io.Reader) (*COO, error) {
	sc := &scanner{br: bufio.NewReaderSize(r, 1<<16)}

	line, err := sc.line()
	if err != nil {
		return nil, fmt.Errorf("mmio: reading header: %w", err)
	}
	header := string(line)
	fields := strings.Fields(strings.ToLower(header))
	if len(fields) < 5 || fields[0] != "%%matrixmarket" || fields[1] != "matrix" {
		return nil, fmt.Errorf("mmio: not a MatrixMarket matrix header: %q", strings.TrimSpace(header))
	}
	format := fields[2]
	var field Field
	switch fields[3] {
	case "real":
		field = Real
	case "integer":
		field = Integer
	case "pattern":
		field = Pattern
	default:
		return nil, fmt.Errorf("mmio: unsupported field %q", fields[3])
	}
	var sym Symmetry
	switch fields[4] {
	case "general":
		sym = General
	case "symmetric":
		sym = Symmetric
	default:
		return nil, fmt.Errorf("mmio: unsupported symmetry %q", fields[4])
	}

	line, err = sc.dataLine()
	if err != nil {
		return nil, fmt.Errorf("mmio: reading size line: %w", err)
	}
	sizeLine := string(line)

	switch format {
	case "coordinate":
		return sc.readCoordinate(sizeLine, field, sym)
	case "array":
		if field == Pattern {
			return nil, fmt.Errorf("mmio: array format cannot be pattern")
		}
		return sc.readArray(sizeLine, field, sym)
	default:
		return nil, fmt.Errorf("mmio: unsupported format %q", format)
	}
}

// scanner reads a Matrix Market stream line by line and splits data
// lines into fields without allocating per line: lines are slices of
// the bufio.Reader's buffer, a line longer than that buffer is
// assembled in the reused carry buffer, and fields are subslices of
// the line.
type scanner struct {
	br    *bufio.Reader
	carry []byte
	toks  [3][]byte // leading fields of the current data line
}

// line returns the next line with its newline, or the final partial
// line together with the error that ended it. The slice is valid only
// until the next call.
func (sc *scanner) line() ([]byte, error) {
	b, err := sc.br.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return b, err
	}
	sc.carry = append(sc.carry[:0], b...)
	for err == bufio.ErrBufferFull {
		b, err = sc.br.ReadSlice('\n')
		sc.carry = append(sc.carry, b...)
	}
	return sc.carry, err
}

// dataLine returns the next non-comment, non-blank line, trimmed. A
// partial final line is accepted only at io.EOF (files without a
// trailing newline); any other error — e.g. ErrTooLarge from a limited
// reader — must not let a truncated token parse as a shorter valid one.
func (sc *scanner) dataLine() ([]byte, error) {
	for {
		line, err := sc.line()
		if err != nil && err != io.EOF {
			return nil, err
		}
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) > 0 && trimmed[0] != '%' {
			return trimmed, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// fields splits the first want fields of line into sc.toks and
// returns how many it found, at most want. It splits in place on the
// ASCII spaces strings.Fields splits on. A byte >= 0x80 met before the
// last wanted field ends sends the whole line through bytes.Fields,
// which splits on Unicode spaces exactly as strings.Fields does; bytes
// after that point cannot change the fields already found.
func (sc *scanner) fields(line []byte, want int) int {
	n, i := 0, 0
	for n < want {
		for i < len(line) && byteClass[line[i]] == classSpace {
			i++
		}
		if i == len(line) {
			break
		}
		start := i
		for i < len(line) && byteClass[line[i]] == classField {
			i++
		}
		if i < len(line) && byteClass[line[i]] == classWide {
			return copy(sc.toks[:want], bytes.Fields(line))
		}
		sc.toks[n] = line[start:i]
		n++
	}
	return n
}

// Byte classes for fields.
const (
	classField = iota
	classSpace
	classWide // >= 0x80: part of a multi-byte (or invalid) UTF-8 sequence
)

var byteClass = func() (t [256]uint8) {
	for _, c := range "\t\n\v\f\r " {
		t[c] = classSpace
	}
	for c := utf8.RuneSelf; c < len(t); c++ {
		t[c] = classWide
	}
	return t
}()

// fastDigits is the longest run of decimal digits that cannot
// overflow an int: 18 for 64-bit ints, 9 for 32-bit ones.
const fastDigits = strconv.IntSize/64*9 + 9

// atoi parses a decimal index. A plain run of at most fastDigits
// digits is read here; anything else (a sign, a longer run, any other
// byte) goes through strconv.Atoi, so it is accepted or rejected
// exactly as strconv.Atoi decides.
func atoi(b []byte) (int, error) {
	if len(b) > fastDigits {
		return strconv.Atoi(string(b))
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return strconv.Atoi(string(b))
		}
		n = n*10 + int(c-'0')
	}
	return n, nil
}

func (sc *scanner) readCoordinate(sizeLine string, field Field, sym Symmetry) (*COO, error) {
	var rows, cols, nnz int
	if _, err := fmt.Sscan(sizeLine, &rows, &cols, &nnz); err != nil {
		return nil, fmt.Errorf("mmio: bad size line %q: %w", sizeLine, err)
	}
	if rows < 0 || cols < 0 || nnz < 0 {
		return nil, fmt.Errorf("mmio: negative dimension in size line %q", sizeLine)
	}
	if err := checkDims(rows, cols, sizeLine); err != nil {
		return nil, err
	}
	c := &COO{Rows: rows, Cols: cols, Field: field, Symmetry: sym}
	// The declared nnz is untrusted: preallocate at most maxPrealloc
	// entries and let append grow past that as entries actually
	// arrive, so memory stays proportional to the bytes read.
	capHint := nnz
	if sym == Symmetric {
		capHint = 2 * nnz
	}
	capHint = min(capHint, maxPrealloc)
	c.RowIdx = make([]int32, 0, capHint)
	c.ColIdx = make([]int32, 0, capHint)
	if field != Pattern {
		c.Vals = make([]float64, 0, capHint)
	}

	wantToks := 3
	if field == Pattern {
		wantToks = 2
	}
	for k := 0; k < nnz; k++ {
		line, err := sc.dataLine()
		if err != nil {
			return nil, fmt.Errorf("mmio: entry %d of %d: %w", k+1, nnz, err)
		}
		if sc.fields(line, wantToks) < wantToks {
			return nil, fmt.Errorf("mmio: entry %d: short line %q", k+1, line)
		}
		i, err := atoi(sc.toks[0])
		if err != nil {
			return nil, fmt.Errorf("mmio: entry %d: bad row index %q", k+1, sc.toks[0])
		}
		j, err := atoi(sc.toks[1])
		if err != nil {
			return nil, fmt.Errorf("mmio: entry %d: bad col index %q", k+1, sc.toks[1])
		}
		if i < 1 || i > rows || j < 1 || j > cols {
			return nil, fmt.Errorf("mmio: entry %d: index (%d,%d) out of %dx%d", k+1, i, j, rows, cols)
		}
		var v float64
		if field != Pattern {
			v, err = strconv.ParseFloat(string(sc.toks[2]), 64)
			if err != nil {
				return nil, fmt.Errorf("mmio: entry %d: bad value %q", k+1, sc.toks[2])
			}
		}
		appendEntry(c, int32(i-1), int32(j-1), v, field)
		if sym == Symmetric && i != j {
			appendEntry(c, int32(j-1), int32(i-1), v, field)
		}
	}
	return c, nil
}

// maxPrealloc caps the entries readCoordinate reserves up front from
// the size line: 512 KiB of index and value slices.
const maxPrealloc = 1 << 15

// checkDims rejects dimensions whose 0-based indices do not fit the
// int32 index slices.
func checkDims(rows, cols int, sizeLine string) error {
	if rows > math.MaxInt32 || cols > math.MaxInt32 {
		return fmt.Errorf("mmio: dimension above %d in size line %q", math.MaxInt32, sizeLine)
	}
	return nil
}

func appendEntry(c *COO, i, j int32, v float64, field Field) {
	c.RowIdx = append(c.RowIdx, i)
	c.ColIdx = append(c.ColIdx, j)
	if field != Pattern {
		c.Vals = append(c.Vals, v)
	}
}

func (sc *scanner) readArray(sizeLine string, field Field, sym Symmetry) (*COO, error) {
	var rows, cols int
	if _, err := fmt.Sscan(sizeLine, &rows, &cols); err != nil {
		return nil, fmt.Errorf("mmio: bad array size line %q: %w", sizeLine, err)
	}
	if err := checkDims(rows, cols, sizeLine); err != nil {
		return nil, err
	}
	c := &COO{Rows: rows, Cols: cols, Field: field, Symmetry: sym}
	// Array files are column-major dense listings; keep the nonzeros.
	for j := 0; j < cols; j++ {
		iStart := 0
		if sym == Symmetric {
			iStart = j
		}
		for i := iStart; i < rows; i++ {
			line, err := sc.dataLine()
			if err != nil {
				return nil, fmt.Errorf("mmio: array entry (%d,%d): %w", i+1, j+1, err)
			}
			sc.fields(line, 1)
			v, err := strconv.ParseFloat(string(sc.toks[0]), 64)
			if err != nil {
				return nil, fmt.Errorf("mmio: array entry (%d,%d): bad value %q", i+1, j+1, line)
			}
			if v == 0 {
				continue
			}
			appendEntry(c, int32(i), int32(j), v, field)
			if sym == Symmetric && i != j {
				appendEntry(c, int32(j), int32(i), v, field)
			}
		}
	}
	return c, nil
}

// ReadFile reads a Matrix Market file from disk.
func ReadFile(path string) (*COO, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// Write emits c in coordinate format with 1-based indices. Symmetry is
// not re-folded: the file is written as "general" with every stored
// entry, which round-trips exactly through Read.
func Write(w io.Writer, c *COO) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	field := c.Field
	if field == Integer {
		field = Real // values are stored as float64; emit as real
	}
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate %s general\n", field); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", c.Rows, c.Cols, c.NNZ()); err != nil {
		return err
	}
	for k := range c.RowIdx {
		var err error
		if field == Pattern {
			_, err = fmt.Fprintf(bw, "%d %d\n", c.RowIdx[k]+1, c.ColIdx[k]+1)
		} else {
			_, err = fmt.Fprintf(bw, "%d %d %.17g\n", c.RowIdx[k]+1, c.ColIdx[k]+1, c.Vals[k])
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteFile writes c to path in coordinate format.
func WriteFile(path string, c *COO) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, c); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
