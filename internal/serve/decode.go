package serve

import (
	"bytes"
	"encoding/json"
	"errors"
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
// and converted by the call encoding/json makes, strconv.ParseFloat(·, 32),
// straight into the slice the request tensor will wrap.
func parseImageObject(body []byte) ([]float32, bool) {
	const prefix = `{"image":[`
	if !bytes.HasPrefix(body, []byte(prefix)) {
		return nil, false
	}
	image := make([]float32, 0, nn.InputChannels*nn.InputSize*nn.InputSize)
	for i := len(prefix); ; {
		end := scanNumber(body, i)
		if end == i || end == len(body) {
			return nil, false
		}
		// Out of float32 range is an error in encoding/json too; let it word it.
		f, err := strconv.ParseFloat(string(body[i:end]), 32)
		if err != nil {
			return nil, false
		}
		image = append(image, float32(f))
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

// scanNumber returns the end of the JSON number starting at b[i], or i when
// no well-formed number starts there: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func scanNumber(b []byte, i int) int {
	j := i
	if j < len(b) && b[j] == '-' {
		j++
	}
	switch {
	case j < len(b) && b[j] == '0':
		j++
	case j < len(b) && '1' <= b[j] && b[j] <= '9':
		j = skipDigits(b, j)
	default:
		return i
	}
	if j < len(b) && b[j] == '.' {
		k := skipDigits(b, j+1)
		if k == j+1 {
			return i
		}
		j = k
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		k := j + 1
		if k < len(b) && (b[k] == '+' || b[k] == '-') {
			k++
		}
		end := skipDigits(b, k)
		if end == k {
			return i
		}
		j = end
	}
	return j
}

// skipDigits returns the index of the first non-digit at or after b[j].
func skipDigits(b []byte, j int) int {
	for j < len(b) && '0' <= b[j] && b[j] <= '9' {
		j++
	}
	return j
}
