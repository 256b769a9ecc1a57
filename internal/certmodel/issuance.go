package certmodel

import "bytes"

// IssuanceEvidence breaks the paper's three issuance criteria (§3.1, "Order
// of certificates") into individually inspectable facts about a candidate
// (parent, child) pair:
//
//	(1) parent's public key verifies child's signature;
//	(2) parent's subject DN equals child's issuer DN;
//	(3) parent's SKID equals child's AKID.
//
// Criterion (3) is only decidable when both key identifiers are present, so
// the KIDComparable flag records whether KIDMatch is meaningful.
type IssuanceEvidence struct {
	Signature     bool
	NameMatch     bool
	KIDComparable bool
	KIDMatch      bool
}

// CheckIssuance gathers the evidence for "parent issued child". It always
// checks the signature, even for pairs no name criterion links, because its
// callers want every fact; Issued and IssuedStrict decide from the cheap
// criteria first.
func CheckIssuance(parent, child *Certificate) IssuanceEvidence {
	if parent == nil || child == nil {
		return IssuanceEvidence{}
	}
	ev := IssuanceEvidence{
		Signature: child.SignatureVerifiedBy(parent),
		NameMatch: parent.Subject == child.Issuer && !parent.Subject.IsZero(),
	}
	if len(parent.SubjectKeyID) > 0 && len(child.AuthorityKeyID) > 0 {
		ev.KIDComparable = true
		ev.KIDMatch = bytes.Equal(parent.SubjectKeyID, child.AuthorityKeyID)
	}
	return ev
}

// Issued applies the paper's flexible issuance rule: the signature must
// verify, and additionally either the DN criterion or the KID criterion must
// hold. When a certificate lacks one of the DN/KID fields, meeting the other
// suffices ("compliance with the validation criteria is considered fulfilled
// if either the second or third condition is met").
//
// The DN/KID criteria are tested first and the signature only for pairs
// they link, as real clients shortlist issuers before verifying: the truth
// table is the same, and pairs nothing links cost two compares instead of a
// public-key verification.
func Issued(parent, child *Certificate) bool {
	return NameIndicatesIssuance(parent, child) && child.SignatureVerifiedBy(parent)
}

// IssuedStrict is the conservative variant used by the ablation benchmarks:
// all decidable criteria must hold — the signature, the DN match, and, when
// both key identifiers are present, the KID match. Like Issued, it verifies
// the signature last.
func IssuedStrict(parent, child *Certificate) bool {
	if parent == nil || child == nil {
		return false
	}
	if parent.Subject != child.Issuer || parent.Subject.IsZero() {
		return false
	}
	if len(parent.SubjectKeyID) > 0 && len(child.AuthorityKeyID) > 0 &&
		!bytes.Equal(parent.SubjectKeyID, child.AuthorityKeyID) {
		return false
	}
	return child.SignatureVerifiedBy(parent)
}

// NameIndicatesIssuance reports whether the non-cryptographic criteria alone
// (DN match, or KID match when comparable) point at an issuance relation.
// Chain builders use this to collect candidate issuers before paying for a
// signature verification — the same order of operations the paper observed in
// OpenSSL and Chromium, which shortlist by subject/KID first.
func NameIndicatesIssuance(parent, child *Certificate) bool {
	if parent == nil || child == nil {
		return false
	}
	if parent.Subject == child.Issuer && !parent.Subject.IsZero() {
		return true
	}
	if len(parent.SubjectKeyID) > 0 && len(child.AuthorityKeyID) > 0 {
		return bytes.Equal(parent.SubjectKeyID, child.AuthorityKeyID)
	}
	return false
}
