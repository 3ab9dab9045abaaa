// Package msp implements the membership service provider of the permissioned
// blockchain: Ed25519 identities, signing, organisation registries and the
// signature/endorsement policies that gate transaction validity. It plays
// the role of Hyperledger Fabric's MSP and of the "digital signatures"
// attached to every submission in the paper's Figure 1.
package msp

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"socialchain/internal/codec"
)

// Role classifies what an identity is allowed to do on the network.
type Role string

const (
	// RoleAdmin may enroll users and administer the channel.
	RoleAdmin Role = "admin"
	// RoleMember is an ordinary organisation member (peers, clients).
	RoleMember Role = "member"
	// RoleTrustedSource marks institution-grade data sources such as the
	// paper's traffic cameras and drones.
	RoleTrustedSource Role = "trusted-source"
	// RoleUntrustedSource marks crowd-sourced contributors (mobile users,
	// social media) whose submissions are gated by trust scores.
	RoleUntrustedSource Role = "untrusted-source"
)

// Identity is the public half of a network participant: who they are, which
// organisation vouches for them, and their verification key.
type Identity struct {
	Org    string            `json:"org"`
	Name   string            `json:"name"`
	Role   Role              `json:"role"`
	PubKey ed25519.PublicKey `json:"pub_key"`
}

// ID returns a stable textual identifier "org/name".
func (id Identity) ID() string { return id.Org + "/" + id.Name }

// Fingerprint names a public key by the first 8 bytes of its SHA-256: how
// a committed envelope says which peer signed an endorsement (resolved
// through the channel's Registry), and a short handle for logs. As text it
// is 16 hex digits.
type Fingerprint [8]byte

// String returns the fingerprint in hex.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// MarshalText implements encoding.TextMarshaler (hex).
func (f Fingerprint) MarshalText() ([]byte, error) { return []byte(f.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler; anything but 16 hex
// digits is an error, never a short fingerprint.
func (f *Fingerprint) UnmarshalText(text []byte) error { return codec.DecodeHex(f[:], text) }

// Fingerprint returns the fingerprint of the identity's public key.
func (id Identity) Fingerprint() (f Fingerprint) {
	sum := sha256.Sum256(id.PubKey)
	copy(f[:], sum[:])
	return f
}

// Verify reports whether sig is a valid signature by this identity over msg.
func (id Identity) Verify(msg, sig []byte) bool {
	if len(id.PubKey) != ed25519.PublicKeySize || len(sig) != ed25519.SignatureSize {
		return false
	}
	return ed25519.Verify(id.PubKey, msg, sig)
}

// AppendTo appends the identity's canonical encoding: org, name, role,
// public key.
func (id Identity) AppendTo(b []byte) []byte {
	b = codec.AppendString(b, id.Org)
	b = codec.AppendString(b, id.Name)
	b = codec.AppendString(b, string(id.Role))
	return codec.AppendBytes(b, id.PubKey)
}

// DecodeFrom reads what AppendTo wrote. The key's length is not judged
// here: Verify rejects a malformed one, so an envelope carrying it decodes
// and is flagged invalid instead of being undecodable.
func (id *Identity) DecodeFrom(r *codec.Reader) {
	id.Org = r.String()
	id.Name = r.String()
	id.Role = Role(r.String())
	id.PubKey = r.Bytes()
}

// Signer couples an Identity with its private key.
type Signer struct {
	Identity
	priv ed25519.PrivateKey
}

// NewSigner generates a fresh Ed25519 keypair for org/name with the given
// role.
func NewSigner(org, name string, role Role) (*Signer, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("msp: generate key: %w", err)
	}
	return &Signer{
		Identity: Identity{Org: org, Name: name, Role: role, PubKey: pub},
		priv:     priv,
	}, nil
}

// NewSignerFromSeed derives a deterministic Ed25519 keypair for org/name
// from a shared deployment seed: the same (seed, org, name, role) yields
// the same key in every process, which is how the separate OS processes of
// one networked deployment agree on peer identities without exchanging
// certificates. An empty seed is rejected by callers that need real
// secrecy; the derivation itself is seed-strength-only.
func NewSignerFromSeed(seed, org, name string, role Role) *Signer {
	h := sha256.Sum256([]byte("socialchain-msp\x00" + seed + "\x00" + org + "\x00" + name + "\x00" + string(role)))
	priv := ed25519.NewKeyFromSeed(h[:])
	return &Signer{
		Identity: Identity{Org: org, Name: name, Role: role, PubKey: priv.Public().(ed25519.PublicKey)},
		priv:     priv,
	}
}

// Sign returns the Ed25519 signature of msg.
func (s *Signer) Sign(msg []byte) []byte {
	return ed25519.Sign(s.priv, msg)
}

// SignedMessage bundles a payload with its creator and signature, the wire
// form in which clients submit data to the framework.
type SignedMessage struct {
	Creator   Identity `json:"creator"`
	Payload   []byte   `json:"payload"`
	Signature []byte   `json:"signature"`
}

// NewSignedMessage signs payload with s.
func NewSignedMessage(s *Signer, payload []byte) SignedMessage {
	return SignedMessage{Creator: s.Identity, Payload: payload, Signature: s.Sign(payload)}
}

// Verify checks the embedded signature against the embedded creator.
func (m SignedMessage) Verify() bool {
	return m.Creator.Verify(m.Payload, m.Signature)
}
