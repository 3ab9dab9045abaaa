package msp

import "fmt"

// Registry is a channel's membership: the fixed set of peer identities
// whose endorsements count, keyed by public-key fingerprint. A committed
// envelope names each endorser by fingerprint only; validators and the
// gateway resolve the name here, so a signature by a key the channel never
// admitted — however the signer styles itself — endorses nothing. Every
// process of a deployment builds the same registry from the identities it
// derives at start-up. It is immutable once built, and a nil *Registry
// knows nobody.
type Registry struct {
	byKey map[Fingerprint]Identity
}

// NewRegistry admits ids. Two identities under one fingerprint — the same
// key twice, or a 64-bit collision — are refused: a fingerprint must name
// one member.
func NewRegistry(ids ...Identity) (*Registry, error) {
	r := &Registry{byKey: make(map[Fingerprint]Identity, len(ids))}
	for _, id := range ids {
		f := id.Fingerprint()
		if prev, ok := r.byKey[f]; ok {
			return nil, fmt.Errorf("msp: identities %s and %s share key fingerprint %s", prev.ID(), id.ID(), f)
		}
		r.byKey[f] = id
	}
	return r, nil
}

// Resolve returns the member whose key has fingerprint f.
func (r *Registry) Resolve(f Fingerprint) (Identity, bool) {
	if r == nil {
		return Identity{}, false
	}
	id, ok := r.byKey[f]
	return id, ok
}

// Len returns the number of members.
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	return len(r.byKey)
}

// Endorsers returns the distinct members that signed digest, in the order
// their first valid signature appears in ends. An unknown fingerprint, a
// signature that does not verify under the member's key and a second
// signature by a member already counted are simply not counted; an invalid
// entry never cancels a valid one beside it. Signatures are checked in one
// batch.
func (r *Registry) Endorsers(digest []byte, ends []EndorsementRef) []Identity {
	items := r.EndorsementChecks(nil, digest, ends)
	return Signers(items, VerifyBatchEach(items))
}

// EndorsementChecks appends to items one check per endorsement whose
// fingerprint names a member: did that member sign digest? A caller that
// verifies several envelopes' checks in one batch hands each envelope's
// slice of items and verdicts to Signers.
func (r *Registry) EndorsementChecks(items []VerifyItem, digest []byte, ends []EndorsementRef) []VerifyItem {
	for _, e := range ends {
		if id, ok := r.Resolve(e.Signer); ok {
			items = append(items, VerifyItem{Identity: id, Message: digest, Signature: e.Signature})
		}
	}
	return items
}

// Signers returns the distinct identities of the items whose verdict holds,
// in the order of each one's first valid item.
func Signers(items []VerifyItem, verdicts []bool) []Identity {
	var out []Identity
	for i, ok := range verdicts {
		if ok && !containsKey(out, items[i].Identity) {
			out = append(out, items[i].Identity)
		}
	}
	return out
}

// containsKey reports whether ids holds id's public key. Endorser lists
// are a handful long, so a scan beats a map.
func containsKey(ids []Identity, id Identity) bool {
	for _, have := range ids {
		if have.PubKey.Equal(id.PubKey) {
			return true
		}
	}
	return false
}
