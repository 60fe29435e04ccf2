package httpapi

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/geom"
	"repro/internal/lbs"
)

// The answer codec: the JSON bodies of /v1/lr, /v1/lnr and both
// :batch endpoints, written and read by hand on the per-query path.
//
// The encoder's bytes are identical to what encoding/json's Encoder
// writes for the same answer: field order id, x, y, dist, name,
// category, attrs, tags with the omitempty rules of the wire schema,
// sorted map keys, HTML-safe string escaping, encoding/json's float
// format, and (added by the handler) the trailing newline. The decoder
// accepts only what json.Unmarshal accepts for the same schema and
// yields the records it would. FuzzAnswerCodec pins both directions
// against encoding/json on reference wire types.

// maxPooledBuf caps the buffers returned to bufPool: one outsized
// answer must not pin its memory for the life of the process.
const maxPooledBuf = 64 << 10

var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 2048)
	return &b
}}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

// putBuf returns b, the latest extent of the pooled *p, to the pool.
func putBuf(p *[]byte, b []byte) {
	if cap(b) > maxPooledBuf {
		return
	}
	*p = b[:0]
	bufPool.Put(p)
}

// readBody reads r to EOF into b[:0], growing it as needed.
func readBody(b []byte, r io.Reader) ([]byte, error) {
	b = b[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// encoder

// errNonFinite rejects an answer JSON cannot carry; encoding/json
// refuses the same values.
var errNonFinite = errors.New("httpapi: answer holds a non-finite number")

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// appendLRAnswer appends one location-returned answer,
// {"results":[…]}, without the trailing newline.
func appendLRAnswer(dst []byte, recs []lbs.LRRecord) ([]byte, error) {
	dst = append(dst, `{"results":[`...)
	for i := range recs {
		r := &recs[i]
		if !finite(r.Loc.X) || !finite(r.Loc.Y) || !finite(r.Dist) {
			return dst, errNonFinite
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"id":`...)
		dst = strconv.AppendInt(dst, r.ID, 10)
		dst = append(dst, `,"x":`...)
		dst = appendFloat(dst, r.Loc.X)
		dst = append(dst, `,"y":`...)
		dst = appendFloat(dst, r.Loc.Y)
		dst = append(dst, `,"dist":`...)
		dst = appendFloat(dst, r.Dist)
		var err error
		if dst, err = appendRecordTail(dst, r.Name, r.Category, r.Attrs, r.Tags); err != nil {
			return dst, err
		}
	}
	return append(dst, "]}"...), nil
}

// appendLNRAnswer appends one rank-only answer: no location fields.
func appendLNRAnswer(dst []byte, recs []lbs.LNRRecord) ([]byte, error) {
	dst = append(dst, `{"results":[`...)
	for i := range recs {
		r := &recs[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"id":`...)
		dst = strconv.AppendInt(dst, r.ID, 10)
		var err error
		if dst, err = appendRecordTail(dst, r.Name, r.Category, r.Attrs, r.Tags); err != nil {
			return dst, err
		}
	}
	return append(dst, "]}"...), nil
}

// appendBatch appends a batch envelope, {"answers":[…|null]} plus
// "exhausted":true when set; a nil answer is a hole.
func appendBatch[T any](dst []byte, answers [][]T, exhausted bool,
	appendAnswer func([]byte, []T) ([]byte, error)) ([]byte, error) {

	dst = append(dst, `{"answers":[`...)
	for i, recs := range answers {
		if i > 0 {
			dst = append(dst, ',')
		}
		if recs == nil {
			dst = append(dst, "null"...)
			continue
		}
		var err error
		if dst, err = appendAnswer(dst, recs); err != nil {
			return dst, err
		}
	}
	dst = append(dst, ']')
	if exhausted {
		dst = append(dst, `,"exhausted":true`...)
	}
	return append(dst, '}'), nil
}

// appendRecordTail appends the omitempty fields every record shares and
// closes the record object.
func appendRecordTail(dst []byte, name, category string, attrs map[string]float64, tags map[string]string) ([]byte, error) {
	if name != "" {
		dst = append(dst, `,"name":`...)
		dst = appendString(dst, name)
	}
	if category != "" {
		dst = append(dst, `,"category":`...)
		dst = appendString(dst, category)
	}
	if len(attrs) > 0 {
		dst = append(dst, `,"attrs":{`...)
		var arr [8]string
		for i, k := range sortedKeys(arr[:0], attrs) {
			v := attrs[k]
			if !finite(v) {
				return dst, errNonFinite
			}
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, k)
			dst = append(dst, ':')
			dst = appendFloat(dst, v)
		}
		dst = append(dst, '}')
	}
	if len(tags) > 0 {
		dst = append(dst, `,"tags":{`...)
		var arr [8]string
		for i, k := range sortedKeys(arr[:0], tags) {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, k)
			dst = append(dst, ':')
			dst = appendString(dst, tags[k])
		}
		dst = append(dst, '}')
	}
	return append(dst, '}'), nil
}

// sortedKeys appends m's keys to keys in byte order, the order
// encoding/json writes map entries in. Callers pass a stack array's
// slice, so small maps sort without allocating.
func sortedKeys[V any](keys []string, m map[string]V) []string {
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// appendFloat appends a finite f in encoding/json's format: the
// shortest 'f' form, switching to 'e' below 1e-6 and at or above 1e21,
// with a two-digit negative exponent trimmed (e-09 → e-9).
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string escaped as encoding/json
// escapes it by default: quote, backslash and control bytes; <, > and
// & (HTML safety); U+2028 and U+2029; and each byte of invalid UTF-8
// as \ufffd.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// decoder

// maxDepth is encoding/json's nesting limit: input nested deeper is
// rejected there, so it is rejected here.
const maxDepth = 10000

// decoder reads one answer body. It validates the whole input against
// the JSON grammar, including values under unknown keys, which it
// skips.
type decoder struct {
	data  []byte
	off   int
	depth int
	// k presizes the record slices: the service's answer size, clamped
	// so a remote's meta cannot size an allocation.
	k int
	// buf holds the last string that needed unescaping.
	buf []byte
}

func newDecoder(data []byte, k int) decoder {
	return decoder{data: data, k: min(max(k, 0), 64)}
}

func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", d.off, fmt.Sprintf(format, args...))
}

// peek skips whitespace and returns the next byte, 0 at end of input.
func (d *decoder) peek() byte {
	for ; d.off < len(d.data); d.off++ {
		switch c := d.data[d.off]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// literal consumes the keyword lit (null, true or false) when it is
// next. A keyword run on into other bytes fails at the caller's next
// delimiter check.
func (d *decoder) literal(lit string) bool {
	if d.peek() == lit[0] && len(d.data)-d.off >= len(lit) && string(d.data[d.off:d.off+len(lit)]) == lit {
		d.off += len(lit)
		return true
	}
	return false
}

// end rejects anything but whitespace after the top-level value.
func (d *decoder) end() error {
	if d.peek(); d.off < len(d.data) {
		return d.errorf("trailing data after the answer")
	}
	return nil
}

// open consumes the container opener c ('{' or '[').
func (d *decoder) open(c byte) error {
	if d.peek() != c {
		return d.errorf("expected %q", c)
	}
	d.off++
	if d.depth++; d.depth > maxDepth {
		return d.errorf("nesting deeper than %d", maxDepth)
	}
	return nil
}

// next reports whether another member follows in the container that
// closes with end, consuming the separating comma or the closer.
func (d *decoder) next(end byte, first bool) (bool, error) {
	switch c := d.peek(); {
	case c == end:
		d.off++
		d.depth--
		return false, nil
	case first:
		return true, nil
	case c == ',':
		d.off++
		return true, nil
	}
	return false, d.errorf("expected ',' or %q", end)
}

// key reads an object key and its colon. The bytes are valid until the
// next string is read.
func (d *decoder) key() ([]byte, error) {
	k, err := d.str()
	if err != nil {
		return nil, err
	}
	if d.peek() != ':' {
		return nil, d.errorf("expected ':' after object key")
	}
	d.off++
	return k, nil
}

// field maps an object key to the schema field it names, matched as
// encoding/json matches: exactly, else case-insensitively
// (bytes.EqualFold, which also folds ſ to s and the Kelvin sign to k).
// It returns "" for an unknown key.
func field(key []byte, names ...string) string {
	for _, n := range names {
		if string(key) == n {
			return n
		}
	}
	for _, n := range names {
		if bytes.EqualFold(key, []byte(n)) {
			return n
		}
	}
	return ""
}

// str reads a JSON string and returns its unescaped bytes, which alias
// d.data or d.buf and are valid until the next call.
func (d *decoder) str() ([]byte, error) {
	if d.peek() != '"' {
		return nil, d.errorf("expected string")
	}
	d.off++
	start := d.off
	for i := start; i < len(d.data); {
		c := d.data[i]
		switch {
		case c == '"':
			d.off = i + 1
			return d.data[start:i], nil
		case c == '\\' || c < 0x20:
			return d.unescape(start, i)
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRune(d.data[i:])
			if r == utf8.RuneError && size == 1 {
				return d.unescape(start, i)
			}
			i += size
		}
	}
	return nil, d.errorf("unterminated string")
}

// unescape is str's slow path, from data[i], the first byte that is not
// copied verbatim. It decodes as encoding/json does: a \u surrogate pair
// becomes one rune, a lone surrogate U+FFFD (the escape after it is
// then read on its own), and each byte of invalid UTF-8 U+FFFD.
func (d *decoder) unescape(start, i int) ([]byte, error) {
	b := append(d.buf[:0], d.data[start:i]...)
	for i < len(d.data) {
		c := d.data[i]
		switch {
		case c == '"':
			d.off = i + 1
			d.buf = b
			return b, nil
		case c < 0x20:
			d.off = i
			return nil, d.errorf("control character in string")
		case c == '\\':
			if i+1 >= len(d.data) {
				d.off = i
				return nil, d.errorf("unterminated string")
			}
			switch e := d.data[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r, ok := hex4(d.data[i+2:])
				if !ok {
					d.off = i
					return nil, d.errorf("invalid \\u escape")
				}
				i += 6
				if utf16.IsSurrogate(r) {
					r2 := rune(-1)
					if i+1 < len(d.data) && d.data[i] == '\\' && d.data[i+1] == 'u' {
						if h, ok := hex4(d.data[i+2:]); ok {
							r2 = h
						}
					}
					if r = utf16.DecodeRune(r, r2); r != utf8.RuneError {
						i += 6
					}
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				d.off = i
				return nil, d.errorf("invalid escape \\%c", e)
			}
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRune(d.data[i:])
			b = utf8.AppendRune(b, r)
			i += size
		}
	}
	d.off = len(d.data)
	return nil, d.errorf("unterminated string")
}

// hex4 parses the four hex digits at the start of b.
func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// number reads one number literal, checked against the JSON grammar
// (strconv alone also takes "+1", "01", ".5", "0x1p3" and "Inf").
func (d *decoder) number() ([]byte, error) {
	d.peek()
	data, start := d.data, d.off
	i := start
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && '1' <= data[i] && data[i] <= '9':
		i = digits(data, i)
	default:
		return nil, d.errorf("expected number")
	}
	if i < len(data) && data[i] == '.' {
		j := digits(data, i+1)
		if j == i+1 {
			return nil, d.errorf("expected digit after decimal point")
		}
		i = j
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		j := digits(data, i)
		if j == i {
			return nil, d.errorf("expected digit in exponent")
		}
		i = j
	}
	d.off = i
	return data[start:i], nil
}

func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// float reads a number or null; present reports which.
func (d *decoder) float() (v float64, present bool, err error) {
	if d.literal("null") {
		return 0, false, nil
	}
	lit, err := d.number()
	if err != nil {
		return 0, false, err
	}
	if v, err = strconv.ParseFloat(string(lit), 64); err != nil {
		return 0, false, d.errorf("number %s out of range", lit)
	}
	return v, true, nil
}

// text reads a string into *s; null leaves *s as it was.
func (d *decoder) text(s *string) error {
	if d.literal("null") {
		return nil
	}
	b, err := d.str()
	if err != nil {
		return err
	}
	*s = string(b)
	return nil
}

// skip reads and discards one value of any type.
func (d *decoder) skip() error {
	switch c := d.peek(); c {
	case '{', '[':
		end := byte('}')
		if c == '[' {
			end = ']'
		}
		if err := d.open(c); err != nil {
			return err
		}
		for first := true; ; first = false {
			more, err := d.next(end, first)
			if err != nil || !more {
				return err
			}
			if c == '{' {
				if _, err := d.key(); err != nil {
					return err
				}
			}
			if err := d.skip(); err != nil {
				return err
			}
		}
	case '"':
		_, err := d.str()
		return err
	case 't', 'f', 'n':
		if d.literal("true") || d.literal("false") || d.literal("null") {
			return nil
		}
		return d.errorf("invalid literal")
	}
	_, err := d.number()
	return err
}

// recordFields is one record as it arrives: the union of the LR and
// LNR fields, with presence bits for the location fields.
type recordFields struct {
	id                  int64
	x, y, dist          float64
	hasX, hasY, hasDist bool
	name, category      string
	attrs               map[string]float64
	tags                map[string]string
}

// lrOfFields builds an LR row: the location only when both coordinates
// arrived, the distance 0 when it did not.
func lrOfFields(f recordFields) lbs.LRRecord {
	rec := lbs.LRRecord{ID: f.id, Name: f.name, Category: f.category, Attrs: f.attrs, Tags: f.tags}
	if f.hasX && f.hasY {
		rec.Loc = geom.Pt(f.x, f.y)
	}
	if f.hasDist {
		rec.Dist = f.dist
	}
	return rec
}

func lnrOfFields(f recordFields) lbs.LNRRecord {
	return lbs.LNRRecord{ID: f.id, Name: f.name, Category: f.category, Attrs: f.attrs, Tags: f.tags}
}

// record reads one record object (null reads as the zero record). A
// repeated key overwrites, except that a repeated map merges into the
// first, as in encoding/json.
func (d *decoder) record() (recordFields, error) {
	var f recordFields
	if d.literal("null") {
		return f, nil
	}
	if err := d.open('{'); err != nil {
		return f, err
	}
	for first := true; ; first = false {
		more, err := d.next('}', first)
		if err != nil || !more {
			return f, err
		}
		key, err := d.key()
		if err != nil {
			return f, err
		}
		switch field(key, "id", "x", "y", "dist", "name", "category", "attrs", "tags") {
		case "id":
			err = d.int64(&f.id)
		case "x":
			f.x, f.hasX, err = d.float()
		case "y":
			f.y, f.hasY, err = d.float()
		case "dist":
			f.dist, f.hasDist, err = d.float()
		case "name":
			err = d.text(&f.name)
		case "category":
			err = d.text(&f.category)
		case "attrs":
			err = object(d, &f.attrs)
		case "tags":
			err = object(d, &f.tags)
		default:
			err = d.skip()
		}
		if err != nil {
			return f, err
		}
	}
}

// int64 reads an integer literal into *v; null leaves *v as it was.
func (d *decoder) int64(v *int64) error {
	if d.literal("null") {
		return nil
	}
	lit, err := d.number()
	if err != nil {
		return err
	}
	n, err := strconv.ParseInt(string(lit), 10, 64)
	if err != nil {
		return d.errorf("id %s is not an int64", lit)
	}
	*v = n
	return nil
}

// object reads a map into *m, merging into a map already there as
// encoding/json does: null clears it, a null entry stores the zero
// value.
func object[V float64 | string](d *decoder, m *map[string]V) error {
	if d.literal("null") {
		*m = nil
		return nil
	}
	if err := d.open('{'); err != nil {
		return err
	}
	if *m == nil {
		*m = make(map[string]V)
	}
	for first := true; ; first = false {
		more, err := d.next('}', first)
		if err != nil || !more {
			return err
		}
		key, err := d.key()
		if err != nil {
			return err
		}
		k := string(key)
		switch m := any(*m).(type) {
		case map[string]float64:
			m[k], _, err = d.float()
		case map[string]string:
			var v string
			err = d.text(&v)
			m[k] = v
		}
		if err != nil {
			return err
		}
	}
}

// answer reads one {"results":[…]} object. It returns nil for null (a
// batch hole) and a non-nil slice otherwise, empty when results is
// absent or null.
func answer[T any](d *decoder, conv func(recordFields) T) ([]T, error) {
	if d.literal("null") {
		return nil, nil
	}
	if err := d.open('{'); err != nil {
		return nil, err
	}
	out := []T{}
	seen := false
	for first := true; ; first = false {
		more, err := d.next('}', first)
		if err != nil || !more {
			return out, err
		}
		key, err := d.key()
		if err != nil {
			return nil, err
		}
		if field(key, "results") == "" {
			if err := d.skip(); err != nil {
				return nil, err
			}
			continue
		}
		if seen {
			// encoding/json would merge a repeated array element-wise
			// into the first; no server writes one.
			return nil, d.errorf("repeated results key")
		}
		seen = true
		if d.literal("null") {
			continue
		}
		if err := d.open('['); err != nil {
			return nil, err
		}
		out = make([]T, 0, d.k)
		for first := true; ; first = false {
			more, err := d.next(']', first)
			if err != nil {
				return nil, err
			}
			if !more {
				break
			}
			f, err := d.record()
			if err != nil {
				return nil, err
			}
			out = append(out, conv(f))
		}
	}
}

// parseAnswer decodes a single-answer body. A top-level null reads as
// an empty answer, as json.Unmarshal leaves it.
func parseAnswer[T any](data []byte, k int, conv func(recordFields) T) ([]T, error) {
	d := newDecoder(data, k)
	recs, err := answer(&d, conv)
	if err == nil {
		err = d.end()
	}
	if err != nil {
		return nil, err
	}
	if recs == nil {
		recs = []T{}
	}
	return recs, nil
}

// parseBatchAnswers decodes a batch body: the index-aligned answers
// (nil for a hole) and the exhausted flag.
func parseBatchAnswers[T any](data []byte, k int, conv func(recordFields) T) ([][]T, bool, error) {
	d := newDecoder(data, k)
	answers, exhausted, err := batch(&d, conv)
	if err == nil {
		err = d.end()
	}
	if err != nil {
		return nil, false, err
	}
	return answers, exhausted, nil
}

func batch[T any](d *decoder, conv func(recordFields) T) ([][]T, bool, error) {
	if d.literal("null") {
		return nil, false, nil
	}
	if err := d.open('{'); err != nil {
		return nil, false, err
	}
	var answers [][]T
	exhausted, seen := false, false
	for first := true; ; first = false {
		more, err := d.next('}', first)
		if err != nil || !more {
			return answers, exhausted, err
		}
		key, err := d.key()
		if err != nil {
			return nil, false, err
		}
		switch field(key, "answers", "exhausted") {
		case "answers":
			if seen {
				return nil, false, d.errorf("repeated answers key")
			}
			seen = true
			if d.literal("null") {
				continue
			}
			if err := d.open('['); err != nil {
				return nil, false, err
			}
			for first := true; ; first = false {
				more, err := d.next(']', first)
				if err != nil {
					return nil, false, err
				}
				if !more {
					break
				}
				a, err := answer(d, conv)
				if err != nil {
					return nil, false, err
				}
				answers = append(answers, a)
			}
		case "exhausted":
			switch {
			case d.literal("true"):
				exhausted = true
			case d.literal("false"):
				exhausted = false
			case d.literal("null"):
			default:
				return nil, false, d.errorf("exhausted is not a boolean")
			}
		default:
			if err := d.skip(); err != nil {
				return nil, false, err
			}
		}
	}
}
