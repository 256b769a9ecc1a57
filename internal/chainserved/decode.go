package chainserved

import (
	"bytes"
	"encoding/json"
	"io"
	"slices"
	"sync"
)

// A verdict request is decoded in one pass over its body's bytes, read into
// a pooled buffer. A body in canonical form — what json.Marshal writes for a
// VerdictRequest whose strings are printable ASCII other than <, > and &,
// give or take whitespace, key order and repeated keys — is decoded by
// reqScanner without reflection, and its PEM is unescaped in place and
// handed on as bytes. Every other body goes to encoding/json, which stays
// the reference: its answer, error text included, depends only on the bytes
// before the point where it stops and on the read's ending error, and it is
// given exactly those.

// maxPooledBody caps the buffer the pool keeps, so one large body does not
// stay resident after its request.
const maxPooledBody = 16 << 10

// bodyBuf holds one request's body as read. The canonical path's PEM aliases
// it, so it returns to the pool only once the request is answered.
type bodyBuf struct{ b []byte }

var bodyBufs = sync.Pool{New: func() any { return new(bodyBuf) }}

// release returns buf to the pool unless a large body grew it.
func (buf *bodyBuf) release() {
	if cap(buf.b) <= maxPooledBody {
		bodyBufs.Put(buf)
	}
}

// decodeRequest decodes one VerdictRequest from body as
// json.NewDecoder(body).Decode would, with the same fields or the same error,
// and reads body as that decoder would: in the same read sizes, stopping at
// the read in which the object closes. The PEM is returned apart, with
// req.PEM left empty. For a canonical body it aliases buf, which must
// outlive its use; otherwise it is a copy.
func decodeRequest(body io.Reader, buf *bodyBuf) (VerdictRequest, []byte, error) {
	// json.Decoder reads into its buffer's free space, first growing the
	// buffer to 2*cap+minRead whenever less than minRead is free. size is
	// that capacity, so each read here asks for what the decoder's would.
	const minRead = 512
	var sc reqScanner
	b, size := buf.b[:0], 0
	for {
		if size-len(b) < minRead {
			size = 2*size + minRead
			b = slices.Grow(b, size-len(b))
		}
		n, rerr := body.Read(b[len(b):size])
		b = b[:len(b)+n]
		buf.b = b
		switch sc.scan(b) {
		case scanDone:
			req, pem := sc.request(b)
			return req, pem, nil
		case scanMore:
			if rerr == nil {
				continue
			}
		}
		// Not canonical, or the body ended inside the object: the
		// decoder is handed the bytes read, then the read's own ending
		// error or the rest of the body.
		return decodeJSON(&replay{b: b, err: rerr, rest: body})
	}
}

// decodeJSON is decodeRequest by encoding/json, the reference.
func decodeJSON(body io.Reader) (VerdictRequest, []byte, error) {
	var req VerdictRequest
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		return VerdictRequest{}, nil, err
	}
	pem := []byte(req.PEM)
	req.PEM = ""
	return req, pem, nil
}

// replay reads b, then err, or the rest of the body when err is nil.
// Splitting the reads differently from the first pass does not change
// json.Decoder's answer, nor its next read of the body: the capacity it
// grows to depends only on how many bytes it holds.
type replay struct {
	b    []byte
	err  error
	rest io.Reader
}

func (r *replay) Read(p []byte) (int, error) {
	if len(r.b) > 0 {
		n := copy(p, r.b)
		r.b = r.b[n:]
		return n, nil
	}
	if r.err != nil {
		return 0, r.err
	}
	return r.rest.Read(p)
}

// scanResult is what reqScanner knows of the bytes read so far.
type scanResult uint8

const (
	scanMore  scanResult = iota // canonical so far; the object is still open
	scanDone                    // a canonical object closed
	scanOther                   // not canonical
)

// The request's string fields, indexing reqScanner.strs, and keep_root.
const (
	fieldDomain = iota
	fieldPEM
	fieldTarget
	fieldKeepRoot
)

type scanState uint8

const (
	stBegin      scanState = iota // before the object
	stFirstKey                    // after '{'
	stNextKey                     // after ','
	stKey                         // in a key
	stColon                       // after a key
	stValue                       // after ':'
	stString                      // in a string value
	stEscape                      // after a string's '\'
	stLiteral                     // in true or false
	stAfterValue                  // after a value
)

// reqScanner checks, one read at a time, that a body is in canonical form,
// and records where the last value of each field lies. Canonical is:
// optional JSON whitespace, then one object whose keys are spelled exactly
// "domain", "pem", "target" or "keep_root", whose string values hold only
// bytes 0x20–0x7E and the escapes \" \\ \/ \b \f \n \r \t, and whose
// keep_root is true or false. Whatever follows the object is ignored, as
// json.Decoder.Decode ignores it. Every such body is valid JSON that
// encoding/json decodes into the same VerdictRequest. The scan never writes
// to the bytes: a body found not canonical reaches encoding/json unchanged.
type reqScanner struct {
	pos      int // next byte to scan
	state    scanState
	start    int    // first byte of the key or string being scanned
	field    int    // field of the value being scanned
	literal  string // rest of the literal being scanned
	strs     [3]strSpan
	keepRoot bool
}

// strSpan is a string value's bytes between its quotes.
type strSpan struct{ lo, hi int }

var (
	// plain marks the bytes a canonical string holds unescaped.
	plain = func() (t [256]bool) {
		for c := 0x20; c <= 0x7e; c++ {
			t[c] = c != '"' && c != '\\'
		}
		return t
	}()
	// unescape maps the byte after a canonical escape's '\' to its value;
	// zero marks every other byte.
	unescape = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}
)

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// scan continues over b, which extends the bytes scanned before.
func (sc *reqScanner) scan(b []byte) scanResult {
	for ; sc.pos < len(b); sc.pos++ {
		c := b[sc.pos]
		switch sc.state {
		case stString:
			i := sc.pos
			for i < len(b) && plain[b[i]] {
				i++
			}
			if sc.pos = i; i == len(b) {
				return scanMore
			}
			switch b[i] {
			case '"':
				sc.strs[sc.field] = strSpan{sc.start, i}
				sc.state = stAfterValue
			case '\\':
				sc.state = stEscape
			default:
				return scanOther
			}
		case stEscape:
			if unescape[c] == 0 {
				return scanOther
			}
			sc.state = stString
		case stKey:
			if c != '"' {
				if (c < 'a' || c > 'z') && c != '_' {
					return scanOther
				}
				continue
			}
			switch string(b[sc.start:sc.pos]) {
			case "domain":
				sc.field = fieldDomain
			case "pem":
				sc.field = fieldPEM
			case "target":
				sc.field = fieldTarget
			case "keep_root":
				sc.field = fieldKeepRoot
			default:
				return scanOther
			}
			sc.state = stColon
		case stLiteral:
			if c != sc.literal[0] {
				return scanOther
			}
			if sc.literal = sc.literal[1:]; sc.literal == "" {
				sc.state = stAfterValue
			}
		default:
			if isSpace(c) {
				continue
			}
			switch {
			case sc.state == stBegin && c == '{':
				sc.state = stFirstKey
			case (sc.state == stFirstKey || sc.state == stNextKey) && c == '"':
				sc.start, sc.state = sc.pos+1, stKey
			case sc.state == stColon && c == ':':
				sc.state = stValue
			case sc.state == stValue && sc.field == fieldKeepRoot && (c == 't' || c == 'f'):
				sc.keepRoot = c == 't'
				sc.literal, sc.state = "alse", stLiteral
				if sc.keepRoot {
					sc.literal = "rue"
				}
			case sc.state == stValue && sc.field != fieldKeepRoot && c == '"':
				sc.start, sc.state = sc.pos+1, stString
			case sc.state == stAfterValue && c == ',':
				sc.state = stNextKey
			case (sc.state == stAfterValue || sc.state == stFirstKey) && c == '}':
				return scanDone
			default:
				return scanOther
			}
		}
	}
	return scanMore
}

// request returns the fields of the object scan found closed in b,
// unescaping the string values in place.
func (sc *reqScanner) request(b []byte) (req VerdictRequest, pem []byte) {
	req.Domain = string(sc.value(b, fieldDomain))
	req.Target = string(sc.value(b, fieldTarget))
	req.KeepRoot = sc.keepRoot
	return req, sc.value(b, fieldPEM)
}

// value unescapes field's last value in place, a run at a time, and returns
// it. The scan has checked that every '\\' starts a canonical escape.
func (sc *reqScanner) value(b []byte, field int) []byte {
	s := sc.strs[field]
	v := b[s.lo:s.hi]
	n, r := 0, 0
	for {
		i := bytes.IndexByte(v[r:], '\\')
		if i < 0 {
			return v[:n+copy(v[n:], v[r:])]
		}
		n += copy(v[n:], v[r:r+i])
		v[n] = unescape[v[r+i+1]]
		n, r = n+1, r+i+2
	}
}
