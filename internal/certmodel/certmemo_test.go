package certmodel

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/pem"
	"math/big"
	"strconv"
	"testing"
)

// memoTestKey signs every certificate the memo tests mint; one key keeps
// minting to a signature per certificate.
var memoTestKey = func() *ecdsa.PrivateKey {
	k, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		panic(err)
	}
	return k
}()

// selfSignedDER mints a self-signed certificate with the given serial. The
// package's own tests cannot use certgen, which imports certmodel.
func selfSignedDER(t testing.TB, serial int64) []byte {
	t.Helper()
	tpl := &x509.Certificate{
		SerialNumber: big.NewInt(serial),
		Subject:      pkix.Name{CommonName: "Memo " + strconv.FormatInt(serial, 10)},
		NotBefore:    base,
		NotAfter:     base.AddDate(1, 0, 0),
		DNSNames:     []string{"memo.example"},
	}
	der, err := x509.CreateCertificate(rand.Reader, tpl, tpl, &memoTestKey.PublicKey, memoTestKey)
	if err != nil {
		t.Fatal(err)
	}
	return der
}

func pemOf(t testing.TB, ders ...[]byte) []byte {
	t.Helper()
	var out []byte
	for _, der := range ders {
		out = append(out, pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: der})...)
	}
	return out
}

// TestCertMemoEviction parses twice as many distinct certificates as the
// memo holds, in bundles, twice over: every certificate, whether a parse, a
// hit or a parse after its eviction, equals a fresh parse of its DER, with
// its fingerprint already cached.
func TestCertMemoEviction(t *testing.T) {
	const n, perBundle = 2 * 2 * certMemoSets, 8
	ders := make([][]byte, n)
	for i := range ders {
		ders[i] = selfSignedDER(t, int64(i+1))
	}
	var memo CertMemo
	for round := 0; round < 2; round++ {
		for lo := 0; lo < n; lo += perBundle {
			got, err := memo.ParsePEMBundle(pemOf(t, ders[lo:lo+perBundle]...))
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range got {
				fresh, err := ParseDER(ders[lo+i])
				if err != nil {
					t.Fatal(err)
				}
				if c.fpState.Load() != fpReady {
					t.Fatalf("round %d, certificate %d: fingerprint not cached at parse", round, lo+i)
				}
				if !bytes.Equal(c.Raw, fresh.Raw) || c.Fingerprint() != fresh.Fingerprint() ||
					c.String() != fresh.String() {
					t.Fatalf("round %d, certificate %d: %v, fresh parse %v", round, lo+i, c, fresh)
				}
			}
		}
	}
}

// TestCertMemoRepeatedBlock: a bundle that repeats one block yields the
// memo's one certificate at each position, still equal to a fresh parse.
func TestCertMemoRepeatedBlock(t *testing.T) {
	der := selfSignedDER(t, 1)
	var memo CertMemo
	got, err := memo.ParsePEMBundle(pemOf(t, der, der, der))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != got[1] || got[1] != got[2] || !bytes.Equal(got[0].Raw, der) {
		t.Fatalf("repeated block parsed to %v", got)
	}
}

// TestCertMemoHitAllocs: a bundle of canonical blocks whose certificates the
// memo holds allocates only its result slice.
func TestCertMemoHitAllocs(t *testing.T) {
	bundle := pemOf(t, selfSignedDER(t, 1), selfSignedDER(t, 2), selfSignedDER(t, 3))
	var memo CertMemo
	if _, err := memo.ParsePEMBundle(bundle); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { memo.ParsePEMBundle(bundle) }); allocs != 1 {
		t.Errorf("a bundle of three memo hits allocates %.0f times, want 1", allocs)
	}
}
