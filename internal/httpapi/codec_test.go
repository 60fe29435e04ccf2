package httpapi

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/geom"
	"repro/internal/lbs"
)

// The reference wire types: the answer schema as encoding/json sees
// it. The codec must write exactly what json.Encoder writes for these
// and read exactly what json.Unmarshal reads into them.

type wireRecord struct {
	ID       int64              `json:"id"`
	X        *float64           `json:"x,omitempty"`
	Y        *float64           `json:"y,omitempty"`
	Dist     *float64           `json:"dist,omitempty"`
	Name     string             `json:"name,omitempty"`
	Category string             `json:"category,omitempty"`
	Attrs    map[string]float64 `json:"attrs,omitempty"`
	Tags     map[string]string  `json:"tags,omitempty"`
}

type queryResponse struct {
	Results []wireRecord `json:"results"`
}

type batchResponse struct {
	Answers   []*queryResponse `json:"answers"`
	Exhausted bool             `json:"exhausted,omitempty"`
}

func wireLR(recs []lbs.LRRecord) queryResponse {
	out := queryResponse{Results: make([]wireRecord, len(recs))}
	for i, rec := range recs {
		x, y, d := rec.Loc.X, rec.Loc.Y, rec.Dist
		out.Results[i] = wireRecord{
			ID: rec.ID, X: &x, Y: &y, Dist: &d,
			Name: rec.Name, Category: rec.Category,
			Attrs: rec.Attrs, Tags: rec.Tags,
		}
	}
	return out
}

func wireLNR(recs []lbs.LNRRecord) queryResponse {
	out := queryResponse{Results: make([]wireRecord, len(recs))}
	for i, rec := range recs {
		out.Results[i] = wireRecord{
			ID: rec.ID, Name: rec.Name, Category: rec.Category,
			Attrs: rec.Attrs, Tags: rec.Tags,
		}
	}
	return out
}

func lrOfWire(results []wireRecord) []lbs.LRRecord {
	recs := make([]lbs.LRRecord, len(results))
	for i, w := range results {
		rec := lbs.LRRecord{
			ID: w.ID, Name: w.Name, Category: w.Category,
			Attrs: w.Attrs, Tags: w.Tags,
		}
		if w.X != nil && w.Y != nil {
			rec.Loc = geom.Pt(*w.X, *w.Y)
		}
		if w.Dist != nil {
			rec.Dist = *w.Dist
		}
		recs[i] = rec
	}
	return recs
}

func lnrOfWire(results []wireRecord) []lbs.LNRRecord {
	recs := make([]lbs.LNRRecord, len(results))
	for i, w := range results {
		recs[i] = lbs.LNRRecord{
			ID: w.ID, Name: w.Name, Category: w.Category,
			Attrs: w.Attrs, Tags: w.Tags,
		}
	}
	return recs
}

func wireBatch[T any](answers [][]T, exhausted bool, wire func([]T) queryResponse) batchResponse {
	out := batchResponse{Answers: make([]*queryResponse, len(answers)), Exhausted: exhausted}
	for i, recs := range answers {
		if recs != nil {
			qr := wire(recs)
			out.Answers[i] = &qr
		}
	}
	return out
}

// jsonEncode is the reference encoder: json.Encoder's bytes, newline
// included.
func jsonEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// encodeLine is the codec's body for one value, newline included.
func encodeLine[T any](v T, appendValue func([]byte, T) ([]byte, error)) ([]byte, error) {
	b, err := appendValue(nil, v)
	return append(b, '\n'), err
}

// fuzzSource turns fuzz bytes into records: every choice consumes
// input, and an exhausted input reads as zeros.
type fuzzSource struct{ b []byte }

func (s *fuzzSource) byte() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

func (s *fuzzSource) uint64() uint64 {
	var u uint64
	for i := 0; i < 8; i++ {
		u = u<<8 | uint64(s.byte())
	}
	return u
}

// edgeFloats straddle encoding/json's format switches and its exponent
// clean-up.
var edgeFloats = []float64{0, math.Copysign(0, -1), 1e-6, 9.99e-7, 1e-9, 1e21, 9.99e20, 1e-300,
	5e-324, math.MaxFloat64, -123.456, 116.397128, 39.916527, 0.1, 1 << 53, math.NaN(), math.Inf(1), math.Inf(-1)}

func (s *fuzzSource) float() float64 {
	if c := s.byte(); c < 128 {
		return edgeFloats[int(c)%len(edgeFloats)]
	}
	return math.Float64frombits(s.uint64())
}

// edgeStrings cover every escape class of the encoder.
var edgeStrings = []string{"", "user-1", "<a&b>", "q\"b\\s/", "\b\f\n\r\t\x00\x1f\x7f", "\u2028\u2029",
	"北京", "\xff\xfe", "a\xc3", "\xed\xa0\x80", "\U0001F600", "\ufffd", "gender"}

func (s *fuzzSource) string() string {
	c := s.byte()
	if c < 160 {
		return edgeStrings[int(c)%len(edgeStrings)]
	}
	n := int(s.byte() % 12)
	if n > len(s.b) {
		n = len(s.b)
	}
	str := string(s.b[:n])
	s.b = s.b[n:]
	return str
}

func (s *fuzzSource) attrs() map[string]float64 {
	n := int(s.byte() % 5)
	if n == 0 {
		return nil
	}
	m := make(map[string]float64)
	for i := 1; i < n; i++ { // n == 1 is the empty map
		m[s.string()] = s.float()
	}
	return m
}

func (s *fuzzSource) tags() map[string]string {
	n := int(s.byte() % 5)
	if n == 0 {
		return nil
	}
	m := make(map[string]string)
	for i := 1; i < n; i++ {
		m[s.string()] = s.string()
	}
	return m
}

func (s *fuzzSource) lr() []lbs.LRRecord {
	recs := make([]lbs.LRRecord, s.byte()%6)
	for i := range recs {
		recs[i] = lbs.LRRecord{
			ID: int64(s.uint64()), Loc: geom.Pt(s.float(), s.float()), Dist: s.float(),
			Name: s.string(), Category: s.string(), Attrs: s.attrs(), Tags: s.tags(),
		}
	}
	return recs
}

func (s *fuzzSource) lnr() []lbs.LNRRecord {
	recs := make([]lbs.LNRRecord, s.byte()%6)
	for i := range recs {
		recs[i] = lbs.LNRRecord{ID: int64(s.uint64()), Name: s.string(), Category: s.string(), Attrs: s.attrs(), Tags: s.tags()}
	}
	return recs
}

// holes blanks some answers of a batch to nil.
func holes[T any](s *fuzzSource, answers [][]T) [][]T {
	for i := range answers {
		if s.byte()%3 == 0 {
			answers[i] = nil
		}
	}
	return answers
}

// clean reports whether a record round-trips exactly: valid UTF-8
// everywhere (the encoder replaces invalid bytes) and no empty map
// (omitempty drops it).
func clean(name, category string, attrs map[string]float64, tags map[string]string) bool {
	ok := utf8.ValidString(name) && utf8.ValidString(category) &&
		(attrs == nil || len(attrs) > 0) && (tags == nil || len(tags) > 0)
	for k := range attrs {
		ok = ok && utf8.ValidString(k)
	}
	for k, v := range tags {
		ok = ok && utf8.ValidString(k) && utf8.ValidString(v)
	}
	return ok
}

// checkEncode pins the encoder to json.Encoder for one value and
// returns the body when both accept it.
func checkEncode[T any](t *testing.T, what string, v T, appendValue func([]byte, T) ([]byte, error), ref any) []byte {
	t.Helper()
	got, err := encodeLine(v, appendValue)
	want, refErr := jsonEncode(ref)
	if (err != nil) != (refErr != nil) {
		t.Fatalf("%s: codec error %v, encoding/json error %v", what, err, refErr)
	}
	if err != nil {
		return nil
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: codec bytes differ from encoding/json\ncodec: %q\njson:  %q", what, got, want)
	}
	return got
}

// checkDecode pins the decoders to json.Unmarshal on data: whatever a
// codec decoder accepts, encoding/json accepts with the same records.
// It reports whether each of the four decoders accepted.
func checkDecode(t *testing.T, data []byte) (lr, lnr, lrBatch, lnrBatch bool) {
	t.Helper()
	if got, err := parseAnswer(data, 3, lrOfFields); err == nil {
		var ref queryResponse
		if err := json.Unmarshal(data, &ref); err != nil {
			t.Fatalf("LR decoder accepted what encoding/json rejects (%v): %q", err, data)
		}
		if want := lrOfWire(ref.Results); !reflect.DeepEqual(got, want) {
			t.Fatalf("LR decode of %q\ncodec: %#v\njson:  %#v", data, got, want)
		}
		lr = true
	}
	if got, err := parseAnswer(data, 3, lnrOfFields); err == nil {
		var ref queryResponse
		if err := json.Unmarshal(data, &ref); err != nil {
			t.Fatalf("LNR decoder accepted what encoding/json rejects (%v): %q", err, data)
		}
		if want := lnrOfWire(ref.Results); !reflect.DeepEqual(got, want) {
			t.Fatalf("LNR decode of %q\ncodec: %#v\njson:  %#v", data, got, want)
		}
		lnr = true
	}
	lrBatch = checkBatchDecode(t, data, lrOfFields, lrOfWire)
	lnrBatch = checkBatchDecode(t, data, lnrOfFields, lnrOfWire)
	return
}

func checkBatchDecode[T any](t *testing.T, data []byte, conv func(recordFields) T,
	refConv func([]wireRecord) []T) bool {

	t.Helper()
	got, exhausted, err := parseBatchAnswers(data, 3, conv)
	if err != nil {
		return false
	}
	var ref batchResponse
	if err := json.Unmarshal(data, &ref); err != nil {
		t.Fatalf("batch decoder accepted what encoding/json rejects (%v): %q", err, data)
	}
	want := make([][]T, len(ref.Answers))
	for i, a := range ref.Answers {
		if a != nil {
			want[i] = refConv(a.Results)
		}
	}
	if len(got) != len(want) || exhausted != ref.Exhausted {
		t.Fatalf("batch decode of %q: %d answers exhausted=%v, json %d exhausted=%v",
			data, len(got), exhausted, len(want), ref.Exhausted)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("batch decode of %q, answer %d\ncodec: %#v\njson:  %#v", data, i, got[i], want[i])
		}
	}
	return true
}

// FuzzAnswerCodec pins the answer codec to encoding/json in both
// directions. Read as a record recipe, the input builds LR and LNR
// answers and batches: the encoder must write json.Encoder's bytes
// (or refuse exactly what it refuses), and the bytes must decode back
// to the records. Read as a body, the input goes to every decoder,
// which must never panic and may accept only what json.Unmarshal
// accepts, with DeepEqual records.
func FuzzAnswerCodec(f *testing.F) {
	for _, seed := range []string{
		`{"results":[{"id":1,"x":116.4,"y":39.9,"dist":0.01,"name":"user-1","tags":{"gender":"m"}}]}`,
		`{"results":[{"id":7,"name":"a<b","category":"c","attrs":{"v":1e-7,"w":-0},"tags":{"z":"","a":null}}]}` + "\n",
		`{"answers":[{"results":[]},null,{"results":[{"id":2}]}],"exhausted":true}`,
		`{"answers":null,"exhausted":null}`,
		` { "RESULTS" : [ null , { "ID" : -0 , "Dist" : null , "x" : 1E+2 , "y" : 0.5e-3 } ] , "other" : [ { } , [ ] , "s" , true , false , null , -1.5 ] } `,
		"{\"results\":[{\"id\":1,\"name\":\"\U0001F600\\ud800A\\udc00\\\\\\/\\b\\f\\n\\r\\t\",\"\u017fesults\":1}]}",
		`{"results":[{"id":1,"attrs":{"a":1},"attrs":{"b":2},"name":"x","name":null}]}`,
		`{"results":[],"results":[]}`,
		`{"results":[{"id":1.5}]}`,
		`{"results":[{"id":1,"x":1e400}]}`,
		`{"results":[{"id":01}]}`,
		`{"results":[{"id":1,"name":"\'"}]}`,
		`{"results":[]} x`,
		`null`,
		"{\"results\":[{\"id\":1,\"name\":\"\xff\xed\xa0\x80\"}]}",
		strings.Repeat("[", 40) + strings.Repeat("]", 40),
	} {
		f.Add([]byte(seed))
	}
	f.Add([]byte{3, 200, 1, 2, 3, 4, 5, 6, 7, 8, 4, 9, 7, 12, 3, 0, 3, 2, 1, 0xff, 5})

	f.Fuzz(func(t *testing.T, data []byte) {
		// The input as a record recipe.
		src := &fuzzSource{b: data}
		lr, lnr := src.lr(), src.lnr()
		if body := checkEncode(t, "LR answer", lr, appendLRAnswer, wireLR(lr)); body != nil {
			got, err := parseAnswer(body, 3, lrOfFields)
			if err != nil {
				t.Fatalf("LR decode of the codec's own bytes %q: %v", body, err)
			}
			for i, r := range lr {
				if clean(r.Name, r.Category, r.Attrs, r.Tags) && !reflect.DeepEqual(got[i], r) {
					t.Fatalf("LR record %d did not round-trip\nsent: %#v\ngot:  %#v", i, r, got[i])
				}
			}
			checkDecode(t, body)
		}
		if body := checkEncode(t, "LNR answer", lnr, appendLNRAnswer, wireLNR(lnr)); body != nil {
			got, err := parseAnswer(body, 3, lnrOfFields)
			if err != nil {
				t.Fatalf("LNR decode of the codec's own bytes %q: %v", body, err)
			}
			for i, r := range lnr {
				if clean(r.Name, r.Category, r.Attrs, r.Tags) && !reflect.DeepEqual(got[i], r) {
					t.Fatalf("LNR record %d did not round-trip\nsent: %#v\ngot:  %#v", i, r, got[i])
				}
			}
			checkDecode(t, body)
		}
		exhausted := src.byte()%2 == 1
		lrs := holes(src, [][]lbs.LRRecord{lr, src.lr(), {}, nil})
		if body := checkEncode(t, "LR batch", lrs, func(dst []byte, a [][]lbs.LRRecord) ([]byte, error) {
			return appendBatch(dst, a, exhausted, appendLRAnswer)
		}, wireBatch(lrs, exhausted, wireLR)); body != nil {
			if _, _, _, ok := checkDecode(t, body); !ok {
				t.Fatalf("LR batch decoder rejected the codec's own bytes %q", body)
			}
		}
		lnrs := holes(src, [][]lbs.LNRRecord{lnr, src.lnr()})
		if body := checkEncode(t, "LNR batch", lnrs, func(dst []byte, a [][]lbs.LNRRecord) ([]byte, error) {
			return appendBatch(dst, a, exhausted, appendLNRAnswer)
		}, wireBatch(lnrs, exhausted, wireLNR)); body != nil {
			if _, _, _, ok := checkDecode(t, body); !ok {
				t.Fatalf("LNR batch decoder rejected the codec's own bytes %q", body)
			}
		}

		// The input as a response body.
		checkDecode(t, data)
	})
}

// TestAnswerCodecEdgeCases pins named cases of the byte-identity and
// decode contracts (FuzzAnswerCodec explores around them).
func TestAnswerCodecEdgeCases(t *testing.T) {
	recs := []lbs.LRRecord{
		{ID: -1, Loc: geom.Pt(1e-7, 1e21), Dist: math.Copysign(0, -1), Name: "< &\xff>"},
		{ID: math.MaxInt64, Loc: geom.Pt(123456789.125, -0.000001), Dist: 1e-9,
			Attrs: map[string]float64{"b": 2, "a": 1, "B": 5e-324}, Tags: map[string]string{"\t": "\x01", "": "e"}},
		{ID: 3, Attrs: map[string]float64{}, Tags: map[string]string{}},
	}
	body := checkEncode(t, "edge LR answer", recs, appendLRAnswer, wireLR(recs))
	if want := `{"id":-1,"x":1e-7,"y":1e+21,"dist":-0,"name":"\u003c \u0026\ufffd\u003e"}`; !bytes.Contains(body, []byte(want)) {
		t.Errorf("LR body %s lacks %s", body, want)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := appendLRAnswer(nil, []lbs.LRRecord{{Dist: bad}}); err == nil {
			t.Errorf("dist %v encoded", bad)
		}
		if _, err := appendLNRAnswer(nil, []lbs.LNRRecord{{Attrs: map[string]float64{"v": bad}}}); err == nil {
			t.Errorf("attr %v encoded", bad)
		}
	}

	for _, in := range []string{
		`{"results":[{"id":1,"attrs":{"a":1},"attrs":{"b":null},"tags":{"t":null}}]}`,
		"{\"rEsUlTs\":[{\"\u0130d\":1,\"ID\":2,\"\u212a\":3}]}",
		` null `,
		`{"answers":[null,{}],"exhausted":true,"exhausted":false}`,
		`{"results":[{"name":"\ud800\ud800\udc00x\ud800"}]}`,
	} {
		lr, lnr, lrb, lnrb := checkDecode(t, []byte(in))
		if !lr && !lnr && !lrb && !lnrb {
			t.Errorf("no decoder accepted %s", in)
		}
	}
	// Answer bodies both answer decoders must reject; a batch decoder
	// skips "results" as an unknown key, so batches get their own list.
	for _, in := range []string{
		``, `{`, `{"results":[}`, `{"results":[{"id":"1"}]}`, `{"results":[{"id":1e2}]}`,
		`{"results":[{"x":"1"}]}`, `{"results":[{"name":1}]}`, `{"results":[{"tags":{"a":1}}]}`,
		"{\"results\":[{\"name\":\"\x01\"}]}", `{"results":[{"name":"\u12"}]}`, `{"results":{}}`,
		`{"results":[]}{}`, `{"results":[],}`, `{"results":[1]}`, `{"results":[{"id":-}]}`,
		`{"results":[{"x":.5}]}`, `{"results":[{"x":1.}]}`, `{"results":[{"x":+1}]}`,
		`{"results":[{"x":NaN}]}`, `{"results":[],"results":null}`,
		`{"x":` + strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth) + `}`,
	} {
		if lr, lnr, _, _ := checkDecode(t, []byte(in)); lr || lnr {
			t.Errorf("an answer decoder accepted %q", in)
		}
	}
	for _, in := range []string{
		`{"answers":[1]}`, `{"answers":{}}`, `{"exhausted":1}`, `{"exhausted":"true"}`,
		`{"answers":[{"results":[{"id":"1"}]}]}`, `{"answers":[],"answers":[]}`, `{"answers":[null,]}`,
	} {
		if _, _, lrb, lnrb := checkDecode(t, []byte(in)); lrb || lnrb {
			t.Errorf("a batch decoder accepted %q", in)
		}
	}
	deep := `{"x":` + strings.Repeat("[", maxDepth-1) + strings.Repeat("]", maxDepth-1) + `}`
	if _, err := parseAnswer([]byte(deep), 3, lrOfFields); err != nil {
		t.Errorf("nesting at encoding/json's limit rejected: %v", err)
	}
}

// weiboAnswer is a k=5 answer shaped like the lnr-remote workload's
// WeiboChina records: an ID, a user name and one gender tag (LR adds
// the location and distance).
func weiboAnswer() ([]lbs.LRRecord, []lbs.LNRRecord) {
	lr := make([]lbs.LRRecord, 5)
	lnr := make([]lbs.LNRRecord, 5)
	for i := range lr {
		id := int64(48213 + 977*i)
		name := "user-" + strconv.FormatInt(id, 10)
		tags := map[string]string{"gender": [2]string{"m", "f"}[i%2]}
		lr[i] = lbs.LRRecord{ID: id, Loc: geom.Pt(116.39712834+float64(i)*0.0137, 39.91652731-float64(i)*0.0071),
			Dist: 0.0123456789 * float64(i+1), Name: name, Tags: tags}
		lnr[i] = lbs.LNRRecord{ID: id, Name: name, Tags: tags}
	}
	return lr, lnr
}

// TestAnswerEncodeAllocs pins the encoder's contract: a k-record
// answer, attribute and tag maps included, encodes into a reused
// buffer without allocating.
func TestAnswerEncodeAllocs(t *testing.T) {
	lr, lnr := weiboAnswer()
	for i := range lr {
		lr[i].Attrs = map[string]float64{"v": float64(i), "rating": 4.5, "price": 12}
		lnr[i].Attrs = lr[i].Attrs
	}
	buf := make([]byte, 0, 4096)
	if n := testing.AllocsPerRun(200, func() { buf, _ = appendLRAnswer(buf[:0], lr) }); n != 0 {
		t.Errorf("LR answer encode: %.1f allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { buf, _ = appendLNRAnswer(buf[:0], lnr) }); n != 0 {
		t.Errorf("LNR answer encode: %.1f allocs, want 0", n)
	}
}

// BenchmarkAnswerCodec measures one WeiboChina-shaped k=5 answer
// through the codec and, for reference, through encoding/json on the
// wire types the codec replaced (encode: json.Encoder; decode:
// json.Unmarshal plus the record conversion).
func BenchmarkAnswerCodec(b *testing.B) {
	lr, lnr := weiboAnswer()
	lrBody, _ := encodeLine(lr, appendLRAnswer)
	lnrBody, _ := encodeLine(lnr, appendLNRAnswer)
	buf := make([]byte, 0, 4096)
	var jbuf bytes.Buffer
	run := func(name string, fn func() error) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if err := fn(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("lnr/encode/codec", func() (err error) { buf, err = appendLNRAnswer(buf[:0], lnr); return })
	run("lnr/encode/json", func() error { jbuf.Reset(); return json.NewEncoder(&jbuf).Encode(wireLNR(lnr)) })
	run("lnr/decode/codec", func() error { _, err := parseAnswer(lnrBody, 5, lnrOfFields); return err })
	run("lnr/decode/json", func() error {
		var ref queryResponse
		err := json.Unmarshal(lnrBody, &ref)
		_ = lnrOfWire(ref.Results)
		return err
	})
	run("lr/encode/codec", func() (err error) { buf, err = appendLRAnswer(buf[:0], lr); return })
	run("lr/encode/json", func() error { jbuf.Reset(); return json.NewEncoder(&jbuf).Encode(wireLR(lr)) })
	run("lr/decode/codec", func() error { _, err := parseAnswer(lrBody, 5, lrOfFields); return err })
	run("lr/decode/json", func() error {
		var ref queryResponse
		err := json.Unmarshal(lrBody, &ref)
		_ = lrOfWire(ref.Results)
		return err
	})
}
