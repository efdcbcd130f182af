package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"mvml/internal/nn"
	"mvml/internal/signs"
	"mvml/internal/xrand"
)

// referenceDecode is what both handlers ran before decodeClassify existed, and
// what decodeClassify must stay indistinguishable from.
func referenceDecode(body []byte, req *ClassifyRequest) error {
	return json.NewDecoder(bytes.NewReader(body)).Decode(req)
}

// sameRequest compares two decoded requests bit for bit: float32 payloads by
// their bit patterns (so -0 ≠ +0), nil-ness of Image and Class included.
func sameRequest(a, b *ClassifyRequest) bool {
	if (a.Image == nil) != (b.Image == nil) || len(a.Image) != len(b.Image) {
		return false
	}
	for i := range a.Image {
		if math.Float32bits(a.Image[i]) != math.Float32bits(b.Image[i]) {
			return false
		}
	}
	if (a.Class == nil) != (b.Class == nil) || (a.Class != nil && *a.Class != *b.Class) {
		return false
	}
	return a.Seed == b.Seed
}

// decodeSeeds are the shapes the one-pass parser must either take and get
// exactly right or hand to encoding/json; testdata/fuzz holds more.
var decodeSeeds = []string{
	`{"image":[0.5,0.25,1]}`,
	`{"image":[-0,0,-0.0,0e0,-0e-7]}`,
	`{"image":[1e2,1E+2,1.5e-3,123456789.125]}`,
	`{"image":[1e39]}`,          // out of float32 range: an error in both
	`{"image":[3.4028236e38]}`,  // rounds past MaxFloat32
	`{"image":[1e-60,1.4e-45]}`, // underflow to zero, smallest subnormal
	`{"image":[0.1000000014901161193847656250000000001]}`,
	`{"image":[01]}`,    // leading zero
	`{"image":[1.]}`,    // no fraction digits
	`{"image":[.5]}`,    // no integer part
	`{"image":[+1]}`,    // explicit plus
	`{"image":[1e]}`,    // no exponent digits
	`{"image":[0x10]}`,  // strconv would take hex
	`{"image":[1_000]}`, // strconv would take underscores
	`{"image":[NaN]}`,   // not JSON
	`{"image":[Infinity,-Infinity]}`,
	`{"image":[inf]}`,
	`{"image":[]}`,
	`{"image":[1,]}`,
	`{"image":[,1]}`,
	`{"image":[1 ,2]}`, // whitespace: valid JSON, not canonical
	`{"image": [1,2]}`,
	` {"image":[1,2]}`,
	`{"image":[1,2]}trailing`, // json.Decoder stops at the brace
	`{"image":[1,2]} {"image":[3]}`,
	`{"image":[1,2]`, // truncated
	`{"image":[1,2`,
	`{"image":[1,2]]`,
	`{"image":[1,2],"image":[3]}`, // duplicate key: last wins
	`{"image":[1,2],"class":3}`,
	`{"Image":[1,2]}`, // keys match case-insensitively
	`{"IMAGE":[1,2],"image":[4]}`,
	`{"\u0069mage":[1,2]}`, // escaped key
	`{"image":[1,"2"]}`,
	`{"image":[1,null]}`,
	`{"image":[[1]]}`,
	`{"image":null}`,
	`{"image":"x"}`,
	`{"class":7,"seed":1}`,
	`{"class":7,"seed":-1}`,
	`{"seed":18446744073709551615}`,
	`{}`,
	`null`,
	`[1,2]`,
	`1`,
	``,
	`{`,
	// Numbers at the edges of decimal.float32's exact range: all but the
	// negative zero fall back to strconv.
	`{"image":[0.5000000298023224]}`,     // the float64 nearest it is a float32 midpoint
	`{"image":[0.12345678901234567890]}`, // 20 significand digits
	`{"image":[1e23]}`,
	`{"image":[1e-23]}`,
	`{"image":[-0.0e5]}`,
}

// FuzzDecodeClassify is the differential gate on the one-pass decoder: for any
// bytes, it and encoding/json agree on error-or-success, and on success on
// every field bit for bit.
func FuzzDecodeClassify(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	// Real pixel formatting, but one row only: the fuzzer minimises what it
	// finds interesting, and an 18 KB body stalls it for its whole budget.
	row, err := json.Marshal(ClassifyRequest{Image: testImage(3).Data[:nn.InputSize]})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(row)
	f.Fuzz(func(t *testing.T, body []byte) {
		var got, want ClassifyRequest
		gotErr, wantErr := decodeClassify(body, &got), referenceDecode(body, &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("body %q: decodeClassify error %v, encoding/json error %v", body, gotErr, wantErr)
		}
		if gotErr == nil && !sameRequest(&got, &want) {
			t.Fatalf("body %q: decodeClassify %+v, encoding/json %+v", body, got, want)
		}
	})
}

// FuzzClassifyHandler drives whole requests through Server.Handler: any body
// under any Content-Type is answered with 200, 400, 413, 429 or 503 — never a
// 500 — every error body is JSON, and a 200 carries exactly the class
// Classify gives the image DecodeClassify reads from the same body.
func FuzzClassifyHandler(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add("application/json", []byte(s))
	}
	f.Add("text/plain", []byte(`{"class":7,"seed":3}`))
	f.Add("application/octet-stream", []byte{0, 0, 128, 63})
	image, err := json.Marshal(ClassifyRequest{Image: testImage(3).Data})
	if err != nil {
		f.Fatal(err)
	}
	f.Add("", image)
	s, err := New(testConfig(), nil)
	if err != nil {
		f.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	f.Fuzz(func(t *testing.T, contentType string, body []byte) {
		r := httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(body))
		r.Header.Set("Content-Type", contentType)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusTooManyRequests, http.StatusServiceUnavailable:
			var e errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("status %d with body %q: not a JSON error (%v)", rec.Code, rec.Body.Bytes(), err)
			}
			return
		default:
			t.Fatalf("body %q (%s): status %d", body, contentType, rec.Code)
		}
		var got ClassifyResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatalf("200 with body %q: %v", rec.Body.Bytes(), err)
		}
		_, img, ok := DecodeClassify(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(body)))
		if !ok {
			t.Fatalf("body %q answered 200 but does not decode", body)
		}
		want, err := s.Classify(img)
		if err != nil {
			t.Fatal(err)
		}
		if got.Class != want.Class || got.Degraded != want.Degraded || got.Agreeing != want.Agreeing || got.Proposals != want.Proposals {
			t.Fatalf("body %q: handler answered %+v, Classify %+v", body, got, want)
		}
	})
}

// TestDecodeClassifyFastPath checks that the bodies the benchmark clients and
// loadgen send — json.Marshal of a raw image — are actually taken by the
// one-pass parser, not silently handed to the fallback, and that each of their
// numbers is converted by decimal.float32, not strconv: a fallback would keep
// every bit-equality gate green and lose the parser's speed.
func TestDecodeClassifyFastPath(t *testing.T) {
	for class := 0; class < signs.NumClasses; class++ {
		img := testImage(class).Data
		body, err := json.Marshal(ClassifyRequest{Image: img})
		if err != nil {
			t.Fatal(err)
		}
		got, ok := parseImageObject(body)
		if !ok {
			t.Fatalf("class %d: marshalled raw-image body not taken by the one-pass parser", class)
		}
		if !sameRequest(&ClassifyRequest{Image: got}, &ClassifyRequest{Image: img}) {
			t.Fatalf("class %d: one-pass parse does not round-trip the image", class)
		}
		for i, k := len(`{"image":[`), 0; ; k++ {
			d, end := readNumber(body, i)
			if _, fast := d.float32(); !fast {
				t.Fatalf("class %d: element %d, %s, converted by strconv", class, k, body[i:end])
			}
			if body[end] == ']' {
				break
			}
			i = end + 1
		}
	}
	for _, body := range []string{`{"class":7}`, `{"image":[]}`, `{"image":[1, 2]}`, `{"image":[1],"seed":2}`} {
		if _, ok := parseImageObject([]byte(body)); ok {
			t.Errorf("non-canonical body %s taken by the one-pass parser", body)
		}
	}
}

// numberGrammar is RFC 8259's number; Longest makes Find return the longest
// prefix of its input that is a number, as readNumber must.
var numberGrammar = func() *regexp.Regexp {
	re := regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`)
	re.Longest()
	return re
}()

// checkReadNumber holds readNumber(b, 0) to wantEnd, where the grammar ends
// the number, and, when it reads one and decimal.float32 converts it, to
// strconv.ParseFloat(·, 32) on its value bit for bit. It reports whether
// decimal.float32 converted it.
func checkReadNumber(t testing.TB, b []byte, wantEnd int) bool {
	d, end := readNumber(b, 0)
	if end != wantEnd {
		t.Fatalf("%q: readNumber ends at %d, the grammar at %d", b, end, wantEnd)
	}
	f, fast := d.float32()
	if end == 0 || !fast {
		return false
	}
	want, err := strconv.ParseFloat(string(b[:end]), 32)
	if err != nil || math.Float32bits(f) != math.Float32bits(float32(want)) {
		t.Fatalf("%q: decimal.float32 gives %g (%#x), strconv %g (%#x, %v)", b[:end], f, math.Float32bits(f), want, math.Float32bits(float32(want)), err)
	}
	return true
}

// TestReadNumberFallsBack pins the numbers decimal.float32 must refuse, each
// of which it would get wrong or cannot represent, and that strconv then
// decodes them: 0.5000000298023224's nearest float64 is the midpoint above
// 0.5, so converting that float64 gives 0.5 where strconv gives 0.50000006.
func TestReadNumberFallsBack(t *testing.T) {
	for _, s := range []string{"0.5000000298023224", "0.12345678901234567890", "1e23", "1e-23", "9007199254740993", "1e00001"} {
		if checkReadNumber(t, []byte(s), len(s)) {
			t.Errorf("%s: converted by decimal.float32, want the strconv fallback", s)
		}
		body := `{"image":[` + s + `]}`
		var got, want ClassifyRequest
		if err := decodeClassify([]byte(body), &got); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if err := referenceDecode([]byte(body), &want); err != nil || !sameRequest(&got, &want) {
			t.Fatalf("%s: decodeClassify %v, encoding/json %v (%v)", body, got.Image, want.Image, err)
		}
	}
	var req ClassifyRequest
	if err := decodeClassify([]byte(`{"image":[0.5000000298023224]}`), &req); err != nil || req.Image[0] != math.Nextafter32(0.5, 1) {
		t.Fatalf("0.5000000298023224 decodes to %v (%v), want 0.50000006", req.Image, err)
	}
}

// TestReadNumberMatchesStrconv compares decimal.float32 with strconv on
// random float32 bit patterns, each written as its shortest 'f' and 'e'
// forms and as 15, 16 and 17 significant digits of the midpoint above it —
// the strings nearest the ties decimal.float32 must not break itself. Each
// is read bare, one byte at a time, and followed by padding, 8 bytes at a
// time.
func TestReadNumberMatchesStrconv(t *testing.T) {
	n := 1 << 20
	if testing.Short() {
		n = 1 << 16
	}
	r := xrand.New(44)
	fast := 0
	var buf []byte
	for k := 0; k < n; k++ {
		f := math.Float32frombits(uint32(r.Uint64()))
		if math.IsNaN(float64(f)) || math.IsInf(float64(f), 0) {
			continue
		}
		strs := []string{strconv.FormatFloat(float64(f), 'f', -1, 32), strconv.FormatFloat(float64(f), 'e', -1, 32)}
		if next := math.Nextafter32(f, float32(math.Inf(1))); !math.IsInf(float64(next), 0) {
			mid := (float64(f) + float64(next)) / 2
			for _, prec := range []int{14, 15, 16} {
				strs = append(strs, strconv.FormatFloat(mid, 'e', prec, 64))
			}
		}
		for _, s := range strs {
			buf = append(append(buf[:0], s...), "]}      "...)
			if checkReadNumber(t, buf[:len(s)], len(s)) {
				fast++
			}
			checkReadNumber(t, buf, len(s))
		}
	}
	if fast == 0 {
		t.Fatal("no string took the exact path")
	}
	t.Logf("%d bit patterns, %d strings converted exactly without strconv", n, fast)
}

// FuzzReadNumber is the differential gate on the scanner alone: on any bytes
// it ends where the RFC 8259 grammar does, and every number decimal.float32
// converts is bit for bit strconv's.
func FuzzReadNumber(f *testing.F) {
	// Pixel forms, the fallback's edges, malformed prefixes, and 8-byte digit
	// runs cut by each ASCII neighbour of the digits, '/' and ':'.
	for _, s := range []string{"0.4252376", "0.4252376,0.5]}", "0.1234567/", "0.1234567:", "1234567:89", "1.5e-07", "-0.0e5", "0.5000000298023224", "12345678901234567890", "9007199254740993", "1e22", "1e23", "4e-22", "1e-23", "01", "1.", "1e+", "-", "0x10", "1_000"} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkReadNumber(t, b, len(numberGrammar.Find(b)))
	})
}

// BenchmarkDecodeClassify times both decoders on the body shard_http sends:
// one raw 3×24×24 image, ≈18 KB of JSON.
func BenchmarkDecodeClassify(b *testing.B) {
	body, err := json.Marshal(ClassifyRequest{Image: testImage(3).Data})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name   string
		decode func([]byte, *ClassifyRequest) error
	}{
		{"onepass", decodeClassify},
		{"encodingjson", referenceDecode},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				var req ClassifyRequest
				if err := bc.decode(body, &req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestHTTPClassifyBodyBounds drives the handler with an oversized and a
// truncated body (the gateway's handler has the same test: both sit on
// DecodeClassify). An oversized body must be refused with 413 after at most
// the bound, plus the one byte that proves the overrun, has been read — not
// parsed to the end and then rejected for its length.
func TestHTTPClassifyBodyBounds(t *testing.T) {
	h := newTestServer(t, testConfig(), nil).Handler()
	post := func(body io.Reader) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/classify", body))
		return rec
	}
	oversized := strings.NewReader(`{"image":[` + strings.Repeat("0,", maxClassifyBody) + `0]}`)
	size := oversized.Len()
	if rec := post(oversized); rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", rec.Code)
	}
	if read := size - oversized.Len(); read > maxClassifyBody+1 {
		t.Errorf("oversized body: handler read %d bytes, bound is %d", read, maxClassifyBody)
	}
	for _, body := range []string{`{"image":[0.5,0.25`, `{"image":[0.5,0.25]`, `{"class":`} {
		if rec := post(strings.NewReader(body)); rec.Code != http.StatusBadRequest {
			t.Errorf("truncated body %s: status %d, want 400", body, rec.Code)
		}
	}
	// A body cut short by the transport, not by its author.
	if rec := post(io.MultiReader(strings.NewReader(`{"image":[0.5,`), errReader{})); rec.Code != http.StatusBadRequest {
		t.Errorf("body failing mid-read: status %d, want 400", rec.Code)
	}
}

type errReader struct{}

func (errReader) Read([]byte) (int, error) { return 0, io.ErrUnexpectedEOF }
