package cid

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestSumRawDeterministic(t *testing.T) {
	a := SumRaw([]byte("hello"))
	b := SumRaw([]byte("hello"))
	if !a.Equals(b) {
		t.Fatal("same content produced different CIDs")
	}
	c := SumRaw([]byte("hello!"))
	if a.Equals(c) {
		t.Fatal("different content produced equal CIDs")
	}
}

func TestCidStringRoundTrip(t *testing.T) {
	c := SumRaw([]byte("payload"))
	s := c.String()
	if !strings.HasPrefix(s, "b") {
		t.Fatalf("canonical form %q lacks multibase prefix", s)
	}
	got, err := Parse(s)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !got.Equals(c) {
		t.Fatal("string round trip lost identity")
	}
}

func TestCidBytesRoundTrip(t *testing.T) {
	c := SumDagNode([]byte("node-bytes"))
	got, err := Cast(c.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equals(c) {
		t.Fatal("bytes round trip lost identity")
	}
	if got.Codec() != CodecDagNode {
		t.Fatalf("codec = %#x", got.Codec())
	}
}

func TestCidPropertyRoundTrip(t *testing.T) {
	err := quick.Check(func(data []byte) bool {
		c := SumRaw(data)
		viaString, err1 := Parse(c.String())
		viaBytes, err2 := Cast(c.Bytes())
		return err1 == nil && err2 == nil && viaString.Equals(c) && viaBytes.Equals(c)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestUndefCid(t *testing.T) {
	if Undef.Defined() {
		t.Fatal("zero CID is defined")
	}
	if Undef.String() != "<undef>" {
		t.Fatalf("undef string %q", Undef.String())
	}
	if Undef.Bytes() != nil {
		t.Fatal("undef has bytes")
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	for _, s := range []string{"", "b", "zzz", "bAAAA!", "b0189"} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted", s)
		}
	}
}

func TestCastRejectsGarbage(t *testing.T) {
	if _, err := Cast(nil); err == nil {
		t.Fatal("Cast(nil) accepted")
	}
	if _, err := Cast([]byte{0xff}); err == nil {
		t.Fatal("truncated varint accepted")
	}
	// Wrong version.
	valid := SumRaw([]byte("x")).Bytes()
	valid[0] = 9
	if _, err := Cast(valid); err == nil {
		t.Fatal("version 9 accepted")
	}
}

func TestCidJSONRoundTrip(t *testing.T) {
	c := SumRaw([]byte("json"))
	b, err := c.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var got Cid
	if err := got.UnmarshalJSON(b); err != nil {
		t.Fatal(err)
	}
	if !got.Equals(c) {
		t.Fatal("json round trip lost identity")
	}
	var und Cid
	if err := und.UnmarshalJSON([]byte(`""`)); err != nil {
		t.Fatal(err)
	}
	if und.Defined() {
		t.Fatal("empty string should decode to Undef")
	}
}

func TestDigestLength(t *testing.T) {
	c := SumRaw([]byte("digest me"))
	if len(c.Digest()) != Sha256Len {
		t.Fatalf("digest length %d", len(c.Digest()))
	}
}

func TestStringV0Style(t *testing.T) {
	s := SumRaw([]byte("v0")).StringV0()
	if len(s) == 0 {
		t.Fatal("empty v0 string")
	}
	for _, r := range s {
		if !strings.ContainsRune(base58Alphabet, r) {
			t.Fatalf("v0 string contains %q outside base58 alphabet", r)
		}
	}
}

func TestMultihashRoundTrip(t *testing.T) {
	mh := SumSha256([]byte("data"))
	code, digest, err := DecodeMultihash(mh)
	if err != nil {
		t.Fatal(err)
	}
	if code != MhSha256 {
		t.Fatalf("code = %#x", code)
	}
	if len(digest) != Sha256Len {
		t.Fatalf("digest len = %d", len(digest))
	}
	if err := mh.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMultihashRejectsTruncated(t *testing.T) {
	mh := SumSha256([]byte("data"))
	if err := Multihash(mh[:10]).Validate(); err == nil {
		t.Fatal("truncated multihash accepted")
	}
}

func TestBase32RoundTripProperty(t *testing.T) {
	err := quick.Check(func(data []byte) bool {
		enc := base32Encode(data)
		dec, err := base32Decode(enc)
		return err == nil && bytes.Equal(dec, data)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestBase58RoundTripProperty(t *testing.T) {
	err := quick.Check(func(data []byte) bool {
		enc := base58Encode(data)
		dec, err := base58Decode(enc)
		return err == nil && bytes.Equal(dec, data)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestBase58LeadingZeros(t *testing.T) {
	data := []byte{0, 0, 1, 2}
	enc := base58Encode(data)
	if !strings.HasPrefix(enc, "11") {
		t.Fatalf("leading zeros not preserved: %q", enc)
	}
	dec, err := base58Decode(enc)
	if err != nil || !bytes.Equal(dec, data) {
		t.Fatalf("round trip %v -> %q -> %v", data, enc, dec)
	}
}

func TestBase32RejectsInvalidChars(t *testing.T) {
	if _, err := base32Decode("ABC!"); err == nil {
		t.Fatal("invalid base32 accepted")
	}
}

func TestBase58RejectsInvalidChars(t *testing.T) {
	if _, err := base58Decode("0OIl"); err == nil {
		t.Fatal("invalid base58 accepted")
	}
}
