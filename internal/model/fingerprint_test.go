package model_test

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/model"
)

// TestEncodingMatchesKeyIdentity: two configurations have equal encodings
// exactly when they have equal Keys, across a protocol's reachable space.
func TestEncodingMatchesKeyIdentity(t *testing.T) {
	p := baseline.NewPairConsensus(2)
	a := model.MustNewConfig(p, []int{0, 1})
	b := model.MustNewConfig(p, []int{0, 1})
	if string(a.AppendEncoding(nil)) != string(b.AppendEncoding(nil)) {
		t.Fatal("identical configurations must encode identically")
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical configurations must fingerprint identically")
	}

	// Step one copy: key, encoding and fingerprint must all diverge.
	if _, err := model.Apply(p, b, 0); err != nil {
		t.Fatal(err)
	}
	if a.Key() == b.Key() {
		t.Fatal("configurations differ; sanity check failed")
	}
	if string(a.AppendEncoding(nil)) == string(b.AppendEncoding(nil)) {
		t.Fatal("distinct keys must give distinct encodings")
	}
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("distinct encodings should give distinct fingerprints here")
	}
}

// TestEncodingTypePrefixFree: values of different types with
// superficially similar content must not alias in the encoding.
func TestEncodingTypePrefixFree(t *testing.T) {
	mk := func(vs ...model.Value) *model.Config {
		return &model.Config{Objects: vs, States: []model.State{}}
	}
	pairs := [][2]*model.Config{
		{mk(model.Int(0)), mk(model.Nil{})},
		{mk(model.Int(3)), mk(model.Vec{3})},
		{mk(model.Vec{1, 2}), mk(model.Vec{1}, model.Int(2))},
		{mk(model.Pair{First: model.Int(1), Second: model.Int(2)}), mk(model.Int(1), model.Int(2))},
		{mk(nil), mk(model.Nil{})},
	}
	for i, pr := range pairs {
		if string(pr[0].AppendEncoding(nil)) == string(pr[1].AppendEncoding(nil)) {
			t.Errorf("case %d: distinct configurations share an encoding", i)
		}
	}
}

// TestFingerprintIntoReusesBuffer: the scratch-buffer variant returns the
// same hash as the convenience form and grows the buffer for reuse.
func TestFingerprintIntoReusesBuffer(t *testing.T) {
	p := baseline.NewPairConsensus(2)
	c := model.MustNewConfig(p, []int{0, 1})
	want := c.Fingerprint()
	var buf []byte
	for i := 0; i < 3; i++ {
		var got uint64
		got, buf = c.FingerprintInto(buf)
		if got != want {
			t.Fatalf("FingerprintInto = %#x, want %#x", got, want)
		}
	}
	if cap(buf) == 0 {
		t.Fatal("scratch buffer should have grown")
	}
}

// anonState is a process state carrying no process identity, for the
// symmetry tests.
type anonState struct{ in int }

func (s anonState) Key() string { return "anon:" + string(rune('0'+s.in)) }
