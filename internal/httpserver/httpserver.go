// Package httpserver models how HTTP server software turns administrator-
// supplied certificate files into the list presented on the wire, including
// the configuration-time checks each server performs (Table 4). The models
// explain, mechanically, why duplicate-leaf chains cluster on Apache (two
// separate files whose purpose administrators confuse) and why
// Azure's upload-time duplicate check keeps its chains clean (Table 10).
package httpserver

import (
	"errors"
	"fmt"

	"chainchaos/internal/certmodel"
)

// FileScheme is the certificate file layout a server expects (Table 4's SF
// column).
type FileScheme int

const (
	// SchemeSplit (SF1): CertificateFile.pem with the leaf only plus
	// Ca-bundle.pem with the intermediates — Apache before 2.4.8, AWS ELB.
	SchemeSplit FileScheme = iota
	// SchemeFullchain (SF2): one FullChain.pem — Nginx, Apache 2.4.8+.
	SchemeFullchain
	// SchemePFX (SF3): a PFX container holding the whole chain — Azure
	// Application Gateway, IIS.
	SchemePFX
)

// String returns the paper's shorthand.
func (s FileScheme) String() string {
	switch s {
	case SchemeSplit:
		return "SF1"
	case SchemeFullchain:
		return "SF2"
	case SchemePFX:
		return "SF3"
	default:
		return fmt.Sprintf("SF(%d)", int(s))
	}
}

// Model is one HTTP server's deployment behaviour.
type Model struct {
	Name                string
	Scheme              FileScheme
	AutomaticManagement bool
	// ChecksPrivateKeyMatch: configuration fails when the private key does
	// not correspond to the first certificate ("SSL_CTX_use_PrivateKey
	// failed"); every surveyed server does this, which the paper credits
	// for the near-perfect leaf placement of Table 3.
	ChecksPrivateKeyMatch bool
	// ChecksDuplicateLeaf: upload is rejected when the leaf appears more
	// than once (Azure, IIS). No surveyed server of Table 4 rejects a
	// repeated intermediate or root: the paper's duplicated-intermediate
	// chains survive every upload check.
	ChecksDuplicateLeaf bool
}

// The five models of Table 4.

// ApacheOld is Apache before 2.4.8: split files (SSLCertificateFile +
// SSLCertificateChainFile).
func ApacheOld() Model {
	return Model{Name: "Apache(<2.4.8)", Scheme: SchemeSplit, AutomaticManagement: true, ChecksPrivateKeyMatch: true}
}

// Apache is Apache 2.4.8+: fullchain in SSLCertificateFile.
func Apache() Model {
	return Model{Name: "Apache", Scheme: SchemeFullchain, AutomaticManagement: true, ChecksPrivateKeyMatch: true}
}

// Nginx expects one fullchain file.
func Nginx() Model {
	return Model{Name: "Nginx", Scheme: SchemeFullchain, AutomaticManagement: true, ChecksPrivateKeyMatch: true}
}

// AzureAppGateway checks uploads for duplicate leaves.
func AzureAppGateway() Model {
	return Model{Name: "Microsoft-Azure-Application-Gateway", Scheme: SchemePFX, AutomaticManagement: true,
		ChecksPrivateKeyMatch: true, ChecksDuplicateLeaf: true}
}

// IIS uses PFX files and checks duplicate leaves but has no automatic
// certificate management.
func IIS() Model {
	return Model{Name: "IIS", Scheme: SchemePFX, ChecksPrivateKeyMatch: true, ChecksDuplicateLeaf: true}
}

// AWSELB uses the split scheme.
func AWSELB() Model {
	return Model{Name: "AWS ELB", Scheme: SchemeSplit, AutomaticManagement: true, ChecksPrivateKeyMatch: true}
}

// Models returns the surveyed servers in Table 4's column order, with both
// Apache generations.
func Models() []Model {
	return []Model{ApacheOld(), Apache(), Nginx(), AzureAppGateway(), IIS(), AWSELB()}
}

// ConfigInput is what the administrator feeds the server.
type ConfigInput struct {
	// CertFile is the leaf-only file of the split scheme. Administrators
	// who misunderstand the layout put the whole chain here.
	CertFile []*certmodel.Certificate
	// ChainFile is the intermediate bundle of the split scheme.
	ChainFile []*certmodel.Certificate
	// Fullchain is the single file of the fullchain and PFX schemes.
	Fullchain []*certmodel.Certificate
	// PrivateKeyFor identifies which certificate's key the administrator
	// installed (by public key identity).
	PrivateKeyFor *certmodel.Certificate
}

// Configuration errors.
var (
	// ErrPrivateKeyMismatch is the "SSL_CTX_use_PrivateKey failed" class.
	ErrPrivateKeyMismatch = errors.New("httpserver: private key does not match first certificate")
	// ErrDuplicateLeaf is Azure/IIS upload rejection.
	ErrDuplicateLeaf = errors.New("httpserver: duplicate leaf certificate in upload")
	// ErrNoCertificates: nothing to deploy.
	ErrNoCertificates = errors.New("httpserver: no certificates supplied")
	// ErrSchemeMismatch: a Fullchain file was supplied to a split-scheme
	// server. Previously the file was silently ignored — the administrator
	// thought the chain was configured while the server deployed only the
	// split files.
	ErrSchemeMismatch = errors.New("httpserver: fullchain file supplied to a split-scheme server")
)

// Deploy assembles the wire list from the input, enforcing the model's
// checks. On success the returned slice is exactly what the server will send
// in the TLS Certificate message.
func (m Model) Deploy(in ConfigInput) ([]*certmodel.Certificate, error) {
	var list []*certmodel.Certificate
	switch m.Scheme {
	case SchemeSplit:
		if len(in.Fullchain) > 0 {
			return nil, fmt.Errorf("%w: %s expects CertFile + ChainFile", ErrSchemeMismatch, m.Name)
		}
		list = append(append([]*certmodel.Certificate(nil), in.CertFile...), in.ChainFile...)
	case SchemeFullchain, SchemePFX:
		list = append([]*certmodel.Certificate(nil), in.Fullchain...)
	}
	if len(list) == 0 {
		return nil, ErrNoCertificates
	}
	if m.ChecksPrivateKeyMatch {
		if in.PrivateKeyFor == nil || !sameKey(list[0], in.PrivateKeyFor) {
			return nil, fmt.Errorf("%w: first certificate is %q", ErrPrivateKeyMismatch, list[0].Subject)
		}
	}
	if m.ChecksDuplicateLeaf {
		leafFP := list[0].Fingerprint()
		for _, c := range list[1:] {
			if c.Fingerprint() == leafFP {
				return nil, ErrDuplicateLeaf
			}
		}
	}
	return list, nil
}

func sameKey(a, b *certmodel.Certificate) bool {
	if len(a.PublicKeyID) == 0 || len(b.PublicKeyID) == 0 {
		return false
	}
	return string(a.PublicKeyID) == string(b.PublicKeyID)
}
