package netlist

import (
	"strings"
	"testing"
)

// TestCanonicalByteStable is the determinism table: every lexical
// variation of the same deck must canonicalize to the same bytes, and
// therefore the same hash.
func TestCanonicalByteStable(t *testing.T) {
	base := `.var W1 min=2u max=500u grid
.const Cl 1p
.obj adm 'db(dc_gain(tf))' good=60 bad=20
r1 a b 10k
`
	variants := map[string]string{
		"extra spaces": `.var   W1	min=2u   max=500u  grid
.const Cl 1p
.obj adm 'db(dc_gain(tf))' good=60 bad=20
r1 a b 10k
`,
		"comments and blanks": `* header comment

.var W1 min=2u max=500u grid   ; geometry
.const Cl 1p

; a note
.obj adm 'db(dc_gain(tf))' good=60 bad=20
r1 a b 10k
`,
		"continuation lines": `.var W1 min=2u
+ max=500u grid
.const Cl 1p
.obj adm
+ 'db(dc_gain(tf))'
+ good=60 bad=20
r1 a b 10k
`,
		"trailing whitespace and crlf padding": ".var W1 min=2u max=500u grid  \n.const Cl 1p\t\n.obj adm 'db(dc_gain(tf))' good=60 bad=20\nr1 a b 10k\n\n\n",
	}

	want, err := Canonical(base)
	if err != nil {
		t.Fatalf("Canonical(base): %v", err)
	}
	wantHash, err := CanonicalHash(base)
	if err != nil {
		t.Fatalf("CanonicalHash(base): %v", err)
	}
	for name, src := range variants {
		got, err := Canonical(src)
		if err != nil {
			t.Fatalf("%s: Canonical: %v", name, err)
		}
		if got != want {
			t.Errorf("%s: canonical text differs:\n got %q\nwant %q", name, got, want)
		}
		h, err := CanonicalHash(src)
		if err != nil {
			t.Fatalf("%s: CanonicalHash: %v", name, err)
		}
		if h != wantHash {
			t.Errorf("%s: hash %s != base %s", name, h, wantHash)
		}
	}

	// A semantic change must change the hash.
	changed := strings.Replace(base, "max=500u", "max=400u", 1)
	h, err := CanonicalHash(changed)
	if err != nil {
		t.Fatal(err)
	}
	if h == wantHash {
		t.Error("changed deck hashes identically to the base deck")
	}
}

// TestCanonicalFixedPoint: canonicalizing twice is the identity on the
// first pass's output (quoted expressions must round-trip).
func TestCanonicalFixedPoint(t *testing.T) {
	src := `.obj adm 'db(dc_gain(tf))' good=60 bad=20
.spec ugf 'ugf(tf)/6.2832' good=1Meg bad=10k
m1 out in (tail tail) nmos3 w=W1 l=L1
`
	once, err := Canonical(src)
	if err != nil {
		t.Fatal(err)
	}
	twice, err := Canonical(once)
	if err != nil {
		t.Fatalf("re-canonicalize: %v", err)
	}
	if once != twice {
		t.Errorf("not a fixed point:\n once %q\ntwice %q", once, twice)
	}
}

func TestCanonicalRejectsUnterminatedQuote(t *testing.T) {
	if _, err := Canonical(".obj adm 'db(dc_gain(tf)) good=60 bad=20\n"); err == nil {
		t.Error("unterminated quote accepted")
	}
}

// fuzzSeedDeck is a small deck using every lexical feature Canonical
// handles: comments, blank lines, continuations, quoted expressions,
// parenthesized port lists and the synthesis cards.
const fuzzSeedDeck = `* seed deck
.title divider ; comment
.lib c2u
.module amp (in out vdd vss)
m1 out in vss vss nmos3 w=W1 l=L1
r1 vdd out 10k
.ends
.var W1 min=2u max=500u grid
.var L1 min=1u
+ max=10u
.const Cl 1p
.jig main
xamp in out nvdd 0 amp
vdd nvdd 0 5
vin in 0 1 ac 1
cl out 0 Cl
.pz tf v(out) vin
.ends
.bias
xamp in out nvdd 0 amp
vdd nvdd 0 5
vin in 0 1
.ends
.obj adm 'db(dc_gain(tf))' good=60 bad=20
.spec ugf 'ugf(tf)' good=1Meg bad=10k
.region xamp.m1 sat margin=0.1
.corner slow temp=85 vdd=4.5
`

// FuzzCanonical holds the parser and the canonicalizer to their
// contracts on arbitrary text: Parse and Validate never panic, and
// canonical text is a fixed point, Canonical(Canonical(s)) ==
// Canonical(s), for every s that canonicalizes. The result cache keys
// on the canonical text. testdata/fuzz/FuzzCanonical holds inputs that
// once broke the fixed point.
func FuzzCanonical(f *testing.F) {
	f.Add(fuzzSeedDeck)
	f.Add(".obj adm 'db(dc_gain(tf))' good=60 bad=20\nm1 out in (tail tail) nmos3 w=W1 l=L1\n")
	f.Add("'' '*x' '+y' 'a b'\n+ 'c\td'\n")
	f.Add("m1 n3 inp ntail ntail nmos3 w='W1 + 1u' l='L1*2' m=''\n")
	f.Fuzz(func(t *testing.T, src string) {
		if d, err := Parse(src); err == nil {
			d.Validate()
		}
		once, err := Canonical(src)
		if err != nil {
			return
		}
		twice, err := Canonical(once)
		if err != nil {
			t.Fatalf("Canonical(%q) = %q, which does not canonicalize: %v", src, once, err)
		}
		if twice != once {
			t.Fatalf("not a fixed point for %q:\n once %q\ntwice %q", src, once, twice)
		}
	})
}
