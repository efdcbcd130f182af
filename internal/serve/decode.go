package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"math/bits"
	"net/http"
	"strconv"
	"sync"

	"mvml/internal/nn"
	"mvml/internal/tensor"
)

// maxClassifyBody bounds a /v1/classify body. A raw image is ≈18 KB of JSON;
// 1 MiB leaves room for any float formatting and refuses everything else
// before a byte of it is parsed.
const maxClassifyBody = 1 << 20

// bodyPool recycles the buffers request bodies are read into. Nothing a
// decoded ClassifyRequest holds points into its body, so a buffer goes back
// as soon as the parse returns.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// DecodeClassify reads one /v1/classify request — the shard's handler and the
// gateway's share it, so both bound, parse and reject bodies identically. On
// failure it has already written the answer (413 for an oversized body, 400
// for anything malformed) and reports ok = false.
func DecodeClassify(w http.ResponseWriter, r *http.Request) (req ClassifyRequest, img *tensor.Tensor, ok bool) {
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer bodyPool.Put(buf)
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxClassifyBody)); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, errorResponse{Error: "reading body: " + err.Error()})
		return req, nil, false
	}
	if err := decodeClassify(buf.Bytes(), &req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad JSON: " + err.Error()})
		return req, nil, false
	}
	img, err := req.Tensor()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return req, nil, false
	}
	return req, img, true
}

// decodeClassify parses body into req exactly as
// json.NewDecoder(bytes.NewReader(body)).Decode(req) would — same
// error-or-success, same fields bit for bit (FuzzDecodeClassify holds it to
// that) — but a body in the canonical raw-image form skips encoding/json's
// reflection. The input selects the path; every other body, and every
// canonical-looking one the scanner is unsure of, goes to encoding/json whole.
func decodeClassify(body []byte, req *ClassifyRequest) error {
	if image, ok := parseImageObject(body); ok {
		req.Image = image
		return nil
	}
	return json.NewDecoder(bytes.NewReader(body)).Decode(req)
}

// parseImageObject parses a body that begins with exactly {"image":[n,n,…]}:
// one key, no whitespace, at least one number. Bytes after the closing brace
// are ignored, as json.Decoder ignores them. Each element is checked against
// the RFC 8259 number grammar (strconv alone accepts hex, underscores, "inf")
// and converted to the float32 encoding/json's strconv.ParseFloat(·, 32)
// gives — by decimal.float32 where it can, by that call where it cannot —
// straight into the slice the request tensor will wrap.
func parseImageObject(body []byte) ([]float32, bool) {
	const prefix = `{"image":[`
	if !bytes.HasPrefix(body, []byte(prefix)) {
		return nil, false
	}
	image := make([]float32, 0, nn.InputChannels*nn.InputSize*nn.InputSize)
	for i := len(prefix); ; {
		d, end := readNumber(body, i)
		if end == i || end == len(body) {
			return nil, false
		}
		f, ok := d.float32()
		if !ok {
			// Out of float32 range is an error in encoding/json too; let it word it.
			f64, err := strconv.ParseFloat(string(body[i:end]), 32)
			if err != nil {
				return nil, false
			}
			f = float32(f64)
		}
		image = append(image, f)
		switch body[end] {
		case ',':
			i = end + 1
		case ']':
			return image, end+1 < len(body) && body[end+1] == '}'
		default:
			return nil, false
		}
	}
}

// decimal is a JSON number, (−1)^neg × mant × 10^exp; mant holds its
// significand only while digits, its digit count past a lone integer 0, is ≤ 19.
type decimal struct {
	mant   uint64
	exp    int
	digits int
	neg    bool
}

// readNumber reads the longest prefix of b[i:] matching the RFC 8259 number
// grammar, -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns it as
// a decimal with the index just past it; end == i when no number starts at
// b[i]. A '.' or exponent marker that no digit follows is left unread.
func readNumber(b []byte, i int) (d decimal, end int) {
	j := i
	if j < len(b) && b[j] == '-' {
		d.neg = true
		j++
	}
	switch {
	case j < len(b) && b[j] == '0':
		j++
	case j < len(b) && '1' <= b[j] && b[j] <= '9':
		j, d.mant, d.digits = readDigits(b, j, 0, 0)
	default:
		return d, i
	}
	if j+1 < len(b) && b[j] == '.' && isDigit(b[j+1]) {
		k := j + 1
		j, d.mant, d.digits = readDigits(b, k, d.mant, d.digits)
		d.exp = k - j
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		k := j + 1
		if k < len(b) && (b[k] == '+' || b[k] == '-') {
			k++
		}
		if k < len(b) && isDigit(b[k]) {
			end, e, n := readDigits(b, k, 0, 0)
			if n > 4 { // far outside float32 either way, and an int may not hold it
				e = 1 << 20
			}
			if b[k-1] == '-' {
				e = -e
			}
			d.exp += int(e)
			j = end
		}
	}
	return d, j
}

// readDigits reads the digit run at b[j:] into mant while digits, its running
// count, stays ≤ 19 (so mant never wraps) and returns the first non-digit's
// index. Where 8 bytes remain it reads them at once: the lowest set bit of a
// per-byte mask finds the first non-digit, and three multiply-shift steps
// fold the digits before it, 2, 4 then 8 wide.
func readDigits(b []byte, j int, mant uint64, digits int) (int, uint64, int) {
	for j+8 <= len(b) {
		x := binary.LittleEndian.Uint64(b[j:])
		// A byte is a digit iff its high nibble is 3 both as is and plus 6.
		nonDigit := (x&0xF0F0F0F0F0F0F0F0 ^ 0x3030303030303030) | ((x+0x0606060606060606)&0xF0F0F0F0F0F0F0F0 ^ 0x3030303030303030)
		n := bits.TrailingZeros64(nonDigit) / 8
		// Keep the n digits, moved up so the zeroed bytes below read as leading zeros.
		v := (x & 0x0F0F0F0F0F0F0F0F) << (64 - 8*n)
		v = (v * (10<<8 + 1)) >> 8 & 0x00FF00FF00FF00FF
		v = (v * (100<<16 + 1)) >> 16 & 0x0000FFFF0000FFFF
		v = (v * (10000<<32 + 1)) >> 32
		if digits += n; digits <= 19 {
			mant = mant*pow10u[n] + v
		}
		j += n
		if n < 8 {
			return j, mant, digits
		}
	}
	for ; j < len(b) && isDigit(b[j]); j++ {
		if digits++; digits <= 19 {
			mant = mant*10 + uint64(b[j]-'0')
		}
	}
	return j, mant, digits
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

var pow10u = [...]uint64{1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8}

var pow10f = [...]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// float32 returns strconv.ParseFloat(·, 32)'s float32 for d when d has ≤ 19
// digits, mant < 2⁵³ and |exp| ≤ 22, and false otherwise. There float64(mant)
// and 10^|exp| are exact, so f, their product or quotient, is rounded once.
// Every float32 and every midpoint between two is a float64, so f rounds to
// d's float32 unless f is such a midpoint (low 29 mantissa bits 1<<28), which
// d may lie on either side of: false again. No subnormal or overflow is in range.
func (d decimal) float32() (float32, bool) {
	if d.digits > 19 || d.mant >= 1<<53 || d.exp < -22 || d.exp > 22 {
		return 0, false
	}
	f := float64(d.mant)
	if d.exp >= 0 {
		f *= pow10f[d.exp]
	} else {
		f /= pow10f[-d.exp]
	}
	if math.Float64bits(f)&(1<<29-1) == 1<<28 {
		return 0, false
	}
	if d.neg {
		f = -f
	}
	return float32(f), true
}
