package rootstore

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"chainchaos/internal/certmodel"
)

var base = time.Date(2024, time.March, 1, 0, 0, 0, 0, time.UTC)

func TestAddAndLookup(t *testing.T) {
	root := certmodel.SyntheticRoot("RS Root", base)
	inter := certmodel.SyntheticIntermediate("RS CA", root, base)

	s := New("test")
	if s.Name() != "test" || s.Len() != 0 {
		t.Fatal("fresh store wrong")
	}
	s.Add(root)
	s.Add(root) // idempotent
	s.Add(nil)  // no-op
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
	if !s.Contains(root) || s.Contains(inter) || s.Contains(nil) {
		t.Error("Contains wrong")
	}
	if got := s.FindBySKID(root.SubjectKeyID); len(got) != 1 {
		t.Errorf("FindBySKID = %v", got)
	}
	if got := s.FindBySKID(nil); got != nil {
		t.Errorf("FindBySKID(nil) = %v", got)
	}
	if got := s.FindIssuers(inter); len(got) != 1 || !got[0].Equal(root) {
		t.Errorf("FindIssuers = %v", got)
	}
	if got := s.FindIssuers(nil); got != nil {
		t.Error("FindIssuers(nil) should be nil")
	}
}

func TestFindIssuersRequiresSignature(t *testing.T) {
	root := certmodel.SyntheticRoot("RS Sig Root", base)
	impostor := certmodel.NewSynthetic(certmodel.SyntheticConfig{
		Subject: root.Subject, Issuer: root.Subject, Serial: "impostor",
		NotBefore: base, NotAfter: base.AddDate(10, 0, 0),
		Key: certmodel.NewSyntheticKey("rs-impostor"), SignedBy: certmodel.NewSyntheticKey("rs-impostor"),
	})
	child := certmodel.SyntheticIntermediate("RS Sig CA", root, base)

	s := NewWith("sig", impostor)
	if got := s.FindIssuers(child); len(got) != 0 {
		t.Errorf("impostor with matching DN accepted as issuer: %v", got)
	}
}

func TestFindIssuersNoAKIDFallsBackToSubject(t *testing.T) {
	root := certmodel.SyntheticRoot("RS DN Root", base)
	child := certmodel.NewSynthetic(certmodel.SyntheticConfig{
		Subject: certmodel.Name{CommonName: "RS DN CA"}, Issuer: root.Subject,
		Serial: "1", NotBefore: base, NotAfter: base.AddDate(5, 0, 0),
		Key: certmodel.NewSyntheticKey("rs-dn"), SignedBy: certmodel.KeyOf(root),
		OmitAKID: true,
	})
	s := NewWith("dn", root)
	if got := s.FindIssuers(child); len(got) != 1 {
		t.Errorf("DN-based issuer lookup failed: %v", got)
	}
}

func TestAllDeterministicOrder(t *testing.T) {
	s := New("order")
	var roots []*certmodel.Certificate
	for i := 0; i < 5; i++ {
		r := certmodel.SyntheticRoot("RS Order "+string(rune('A'+i)), base)
		roots = append(roots, r)
		s.Add(r)
	}
	first := s.All()
	second := s.All()
	if len(first) != 5 {
		t.Fatalf("All() = %d", len(first))
	}
	for i := range first {
		if !first[i].Equal(second[i]) {
			t.Fatal("All() order not deterministic")
		}
	}
}

func TestUnion(t *testing.T) {
	a := NewWith("a", certmodel.SyntheticRoot("RS U1", base), certmodel.SyntheticRoot("RS U2", base))
	b := NewWith("b", certmodel.SyntheticRoot("RS U2", base), certmodel.SyntheticRoot("RS U3", base))
	u := Union("u", a, b)
	if u.Len() != 3 {
		t.Errorf("union len = %d, want 3 (shared root deduplicated)", u.Len())
	}
}

func TestVendorSet(t *testing.T) {
	r1 := certmodel.SyntheticRoot("RS V1", base)
	r2 := certmodel.SyntheticRoot("RS V2", base)
	v := NewVendorSet([]*certmodel.Certificate{r1, r2}, func(root *certmodel.Certificate, vendor Vendor) bool {
		return root.Equal(r2) && vendor == Mozilla // Mozilla lacks r2
	})
	for vendor, want := range map[Vendor]int{Mozilla: 1, Chrome: 2, Microsoft: 2, Apple: 2} {
		if got := v.Store(vendor).Len(); got != want {
			t.Errorf("%s store len = %d, want %d", vendor, got, want)
		}
		if got := v.Store(vendor).Name(); got != vendor.String() {
			t.Errorf("%s store is named %q", vendor, got)
		}
	}
	if v.Union.Len() != 2 {
		t.Errorf("union len = %d", v.Union.Len())
	}
	if stores := v.Stores(); len(stores) != 4 || stores[2] != v.Store(Microsoft) {
		t.Error("Stores() wrong")
	}
	// nil omit includes everything.
	all := NewVendorSet([]*certmodel.Certificate{r1, r2}, nil)
	if all.Store(Mozilla).Len() != 2 {
		t.Error("nil omit should include all roots")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New("conc")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				r := certmodel.SyntheticRoot("RS Conc "+string(rune('A'+i)), base)
				s.Add(r)
				s.Contains(r)
				s.HasIssuer(r)
				s.FindBySKID(r.SubjectKeyID)
				s.All()
			}
		}(i)
	}
	wg.Wait()
	if s.Len() != 8 {
		t.Errorf("len = %d, want 8", s.Len())
	}

	// A sealed store, large enough to have rebuilt its index several
	// times, read lock-free by 8 goroutines through every lookup.
	sealed := New("conc-sealed")
	var roots, children []*certmodel.Certificate
	for i := 0; i < 40; i++ {
		r := certmodel.SyntheticRoot(fmt.Sprintf("RS Sealed %d", i), base)
		roots = append(roots, r)
		children = append(children, certmodel.SyntheticIntermediate(fmt.Sprintf("RS Sealed CA %d", i), r, base))
		sealed.Add(r)
	}
	sealed.Seal()
	stranger := certmodel.SyntheticIntermediate("RS Sealed Stranger", certmodel.SyntheticRoot("RS Unsealed", base), base)
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]*certmodel.Certificate, 0, 2)
			for j := 0; j < 50; j++ {
				i := (g*7 + j) % len(roots)
				buf = sealed.AppendIssuers(buf[:0], children[i])
				switch {
				case len(buf) != 1 || buf[0] != roots[i]:
					errs <- fmt.Errorf("AppendIssuers(child %d) = %v", i, buf)
				case !sealed.HasIssuer(children[i]) || sealed.HasIssuer(stranger):
					errs <- fmt.Errorf("HasIssuer wrong for child %d", i)
				case !sealed.Contains(roots[i]) || sealed.Contains(children[i]):
					errs <- fmt.Errorf("Contains wrong for root %d", i)
				case len(sealed.FindBySKID(roots[i].SubjectKeyID)) != 1:
					errs <- fmt.Errorf("FindBySKID(root %d) = %v", i, sealed.FindBySKID(roots[i].SubjectKeyID))
				case len(sealed.All()) != len(roots):
					errs <- fmt.Errorf("All holds %d roots", len(sealed.All()))
				default:
					continue
				}
				return
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
