package chainserved

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
)

// chunkReader serves b at most k bytes a read (k = 0: as many as asked),
// returning io.EOF with the last bytes as net/http's body does, and counts
// what was taken from it.
type chunkReader struct {
	b        []byte
	k        int
	consumed int
	eof      bool
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if r.k > 0 && len(p) > r.k {
		p = p[:r.k]
	}
	n := copy(p, r.b)
	r.b = r.b[n:]
	r.consumed += n
	if len(r.b) == 0 {
		r.eof = true
		return n, io.EOF
	}
	return n, nil
}

// FuzzDecodeRequest compares decodeRequest with its reference,
// json.NewDecoder over http.MaxBytesReader, on raw bodies cut into reads of
// at most chunk bytes, under a body cap of limit bytes (0: the default), so
// the scanner resumes in every state and the cap cuts bodies anywhere. Both
// must give the same fields or the same error, of the same type and text,
// and take the same bytes from the body: a decoder that read further would
// change what net/http does with the rest of the connection.
func FuzzDecodeRequest(f *testing.F) {
	pem := `-----BEGIN CERTIFICATE-----\nMIIB\/+==\n-----END CERTIFICATE-----\n`
	for _, raw := range []string{
		`{"domain":"served.example","pem":"` + pem + `"}`,
		` {"domain" : "served.example" ,` + "\t\r\n" + `"keep_root":true, "pem":"` + pem + `"} `,
		`{"pem":"a\"b\\c\/d\be\ff\ng\rh\ti","keep_root":false}`,
		`{"target":"host:443","domain":""}`,
		`{"pem":"x","pem":"y","keep_root":true,"keep_root":false,"domain":"a","domain":"b"}`,
		`{}`,
		`{"PEM":"` + pem + `"}`,
		`{"Domain":"a","pem":"x"}`,
		`{"other":1,"pem":"x"}`,
		`{"domain":"Aé","pem":"x"}`,
		`{"domain":"\u0041\u2028","pem":"x\u000a"}`,
		`{"domain":"a\x"}`,
		"{\"domain\":\"\xff\xfe.example\",\"pem\":\"x\"}",
		"{\"domain\":\"caf\xc3\xa9\",\"pem\":\"x\"}",
		"{\"domain\":\"a\x7fb\",\"pem\":\"x\"}",
		"{\"domain\":\"a\x01b\",\"pem\":\"x\"}",
		`{"domain":null,"pem":"x"}`,
		`{"domain":7,"pem":"x"}`,
		`{"keep_root":1,"pem":"x"}`,
		`{"keep_root":"true","pem":"x"}`,
		`{"keep_root":tru,"pem":"x"}`,
		`{"keep_root":truex}`,
		`{"domain":{"a":"b"},"pem":"x"}`,
		`{"domain":["a"],"pem":"x"}`,
		`{"pem":"x",}`,
		`{"pem":"x"`,
		`{"pem":"x\`,
		`{"pem"`,
		`{"pem":"x"} trailing {"pem":""}`,
		`{"pem":"x"}{`,
		`null`,
		`7`,
		`"pem"`,
		`[]`,
		``,
		` `,
		`{`,
		`{"pem":"` + strings.Repeat("A", 600) + `"}` + strings.Repeat(" ", 600),
		`{"pem":"` + strings.Repeat("A", 600) + `"`,
		"\xef\xbb\xbf{\"pem\":\"x\"}",
	} {
		for _, limit := range []uint8{0, 1, 12, 40} {
			for _, chunk := range []uint8{0, 1, 7} {
				f.Add([]byte(raw), limit, chunk)
			}
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte, limit, chunk uint8) {
		maxBody := int64(limit)
		if maxBody == 0 {
			maxBody = DefaultMaxBody
		}
		ref := &chunkReader{b: raw, k: int(chunk)}
		var want VerdictRequest
		wantErr := json.NewDecoder(http.MaxBytesReader(nil, io.NopCloser(ref), maxBody)).Decode(&want)

		body := &chunkReader{b: raw, k: int(chunk)}
		buf := &bodyBuf{b: bytes.Repeat([]byte{'"'}, 100)[:0]}
		got, pem, err := decodeRequest(http.MaxBytesReader(nil, io.NopCloser(body), maxBody), buf)

		var wantTooLarge, gotTooLarge *http.MaxBytesError
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("error %v, reference %v", err, wantErr)
		case err != nil && (err.Error() != wantErr.Error() || errors.As(err, &gotTooLarge) != errors.As(wantErr, &wantTooLarge)):
			t.Fatalf("error %#v, reference %#v", err, wantErr)
		case err == nil && (got.PEM != "" || string(pem) != want.PEM):
			t.Fatalf("pem %q (field %q), reference %q", pem, got.PEM, want.PEM)
		case err == nil && (got.Domain != want.Domain || got.Target != want.Target || got.KeepRoot != want.KeepRoot):
			t.Fatalf("decoded %+v, reference %+v", got, want)
		}
		if body.consumed != ref.consumed || body.eof != ref.eof {
			t.Fatalf("took %d bytes (eof %v) of %d, reference %d (eof %v)", body.consumed, body.eof, len(raw), ref.consumed, ref.eof)
		}
	})
}
