package rescache

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"astrx/internal/durable"
	"astrx/internal/netlist"
)

// writeSealedRecord writes a properly sealed envelope at path, so tests
// can plant records that pass the CRC but fail semantic verification.
func writeSealedRecord(t *testing.T, path, payload string) {
	t.Helper()
	if err := durable.WriteSealedAtomic(durable.OS, path, []byte(payload)); err != nil {
		t.Fatal(err)
	}
}

// TestKeyDeterminism: the same logical request must produce the same
// key regardless of deck whitespace, JSON field order in the submitted
// request (irrelevant by construction — the key hashes a fixed struct,
// not raw JSON), or map iteration order anywhere upstream.
func TestKeyDeterminism(t *testing.T) {
	deckA := ".var W1 min=2u max=500u grid\n.const Cl 1p\n"
	deckB := "* a comment\n.var   W1  min=2u max=500u   grid ; note\n.const Cl 1p\n"

	canonA, err := netlist.Canonical(deckA)
	if err != nil {
		t.Fatal(err)
	}
	canonB, err := netlist.Canonical(deckB)
	if err != nil {
		t.Fatal(err)
	}
	opt := KeyOptions{Seed: 1, MaxMoves: 5000, Runs: 1}
	if ka, kb := Key(canonA, opt), Key(canonB, opt); ka != kb {
		t.Errorf("whitespace-variant decks keyed differently: %s vs %s", ka, kb)
	}

	// JSON field reordering in the submitted request: both orderings
	// decode into the same KeyOptions, hence the same key.
	var o1, o2 KeyOptions
	if err := json.Unmarshal([]byte(`{"seed":7,"max_moves":100,"runs":2,"no_freeze":true}`), &o1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(`{"no_freeze":true,"runs":2,"seed":7,"max_moves":100}`), &o2); err != nil {
		t.Fatal(err)
	}
	if Key(canonA, o1) != Key(canonA, o2) {
		t.Error("field-reordered options keyed differently")
	}

	// Stability across repeated computation (no map-iteration leakage).
	first := Key(canonA, opt, "extra")
	for i := 0; i < 100; i++ {
		if k := Key(canonA, opt, "extra"); k != first {
			t.Fatalf("iteration %d: key drifted: %s vs %s", i, k, first)
		}
	}

	// Every input dimension must matter.
	if Key(canonA, KeyOptions{Seed: 2, MaxMoves: 5000, Runs: 1}) == Key(canonA, opt) {
		t.Error("seed did not affect the key")
	}
	if Key(canonA, opt, "x") == Key(canonA, opt) {
		t.Error("extra section did not affect the key")
	}
	if Key(canonA+".const X 2\n", opt) == Key(canonA, opt) {
		t.Error("deck content did not affect the key")
	}
}

// TestKeyCornerSensitivity: the corner-selection dimension of a job
// must be part of the key. A cornered job's worst-case result and the
// nominal result of the same deck are different answers; serving one
// for the other would be a silent correctness bug, not a cache win.
func TestKeyCornerSensitivity(t *testing.T) {
	deck := ".var W1 min=2u max=500u grid\n.const Cl 1p\n"
	cornered := deck + ".corner slow temp=85\n"
	canon, err := netlist.Canonical(deck)
	if err != nil {
		t.Fatal(err)
	}
	base := KeyOptions{Seed: 1, MaxMoves: 5000, Runs: 1}

	// All-corners (nil) and nominal-only (empty non-nil) are different
	// jobs: nil means "robust over every corner the deck declares".
	nom := base
	nom.Corners = []string{}
	if Key(canon, base) == Key(canon, nom) {
		t.Error("all-corners (nil) and nominal-only ([]) jobs share a key")
	}

	// A named selection differs from both, and from other selections.
	slow := base
	slow.Corners = []string{"slow"}
	both := base
	both.Corners = []string{"slow", "fast"}
	keys := map[string]string{
		"all":     Key(canon, base),
		"nominal": Key(canon, nom),
		"slow":    Key(canon, slow),
		"both":    Key(canon, both),
	}
	seen := make(map[string]string, len(keys))
	for name, k := range keys {
		if prev, dup := seen[k]; dup {
			t.Errorf("corner selections %q and %q collided on key %s", name, prev, k)
		}
		seen[k] = name
	}

	// The corner selection survives the JSON round trip persisted jobs
	// go through: nil must come back nil, [] must come back [].
	for _, opts := range []KeyOptions{base, nom, slow} {
		blob, err := json.Marshal(opts)
		if err != nil {
			t.Fatal(err)
		}
		var back KeyOptions
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatal(err)
		}
		if Key(canon, back) != Key(canon, opts) {
			t.Errorf("corner selection %#v changed key across a JSON round trip (%s)", opts.Corners, blob)
		}
	}

	// Adding a .corner card changes the canonical deck, hence the key —
	// even for a nominal-only run of the cornered deck (the card changes
	// the deck text; selection is a separate dimension).
	canonC, err := netlist.Canonical(cornered)
	if err != nil {
		t.Fatal(err)
	}
	if Key(canonC, base) == Key(canon, base) {
		t.Error("adding a .corner card did not change the key")
	}

	// The remaining solver options each still perturb the key.
	for name, vary := range map[string]KeyOptions{
		"max_moves": {Seed: 1, MaxMoves: 6000, Runs: 1},
		"runs":      {Seed: 1, MaxMoves: 5000, Runs: 2},
		"no_freeze": {Seed: 1, MaxMoves: 5000, Runs: 1, NoFreeze: true},
	} {
		if Key(canon, vary) == Key(canon, base) {
			t.Errorf("%s did not affect the key", name)
		}
	}
}

func TestParseMode(t *testing.T) {
	for _, ok := range []string{"off", "ro", "rw"} {
		if _, err := ParseMode(ok); err != nil {
			t.Errorf("ParseMode(%q): %v", ok, err)
		}
	}
	if _, err := ParseMode("readwrite"); err == nil {
		t.Error("ParseMode accepted garbage")
	}
}

func TestNilCacheIsAlwaysMiss(t *testing.T) {
	var c *Cache
	if _, ok := c.Get("k"); ok {
		t.Error("nil cache hit")
	}
	c.Put("k", json.RawMessage(`{}`)) // must not panic
	if c.Len() != 0 || c.Mode() != Off {
		t.Error("nil cache not empty/off")
	}
}

func TestOffModeReturnsNil(t *testing.T) {
	c, err := New(Options{Mode: Off})
	if err != nil || c != nil {
		t.Fatalf("New(off) = %v, %v; want nil, nil", c, err)
	}
}

func TestPutGetDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Options{Mode: RW, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	pay := json.RawMessage(`{"state":"done","best":1.5}`)
	c.Put("abc", pay)
	got, ok := c.Get("abc")
	if !ok || string(got) != string(pay) {
		t.Fatalf("Get = %s, %v", got, ok)
	}

	// A second cache over the same dir sees the entry (durable).
	c2, err := New(Options{Mode: RO, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got, ok = c2.Get("abc")
	if !ok || string(got) != string(pay) {
		t.Fatalf("restarted Get = %s, %v", got, ok)
	}
	// RO caches never store.
	c2.Put("def", pay)
	if _, ok := c2.Get("def"); ok {
		t.Error("RO cache stored an entry")
	}
}

func TestLRUBound(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Options{Mode: RW, Dir: dir, MaxEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	c.Put("k1", json.RawMessage(`1`))
	c.Put("k2", json.RawMessage(`2`))
	c.Get("k1") // k1 now most recent; k2 is the LRU victim
	c.Put("k3", json.RawMessage(`3`))
	if _, ok := c.Get("k2"); ok {
		t.Error("LRU victim k2 survived")
	}
	for _, k := range []string{"k1", "k3"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("entry %s evicted wrongly", k)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "res-k2.json")); !os.IsNotExist(err) {
		t.Error("evicted entry file still on disk")
	}
}

// TestCorruptEntryQuarantined: a flipped byte in a durable entry must
// degrade to a miss with the file quarantined — never a served wrong
// answer, never a startup failure.
func TestCorruptEntryQuarantined(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Options{Mode: RW, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c.Put("victim", json.RawMessage(`{"answer":42}`))

	path := filepath.Join(dir, "res-victim.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := New(Options{Mode: RW, Dir: dir})
	if err != nil {
		t.Fatalf("New over corrupt dir: %v", err)
	}
	if _, ok := c2.Get("victim"); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	q, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil || len(q) == 0 {
		t.Fatalf("no quarantined files: %v", err)
	}
	found := false
	for _, e := range q {
		if e.Name() == "res-victim.json" {
			found = true
		}
	}
	if !found {
		t.Error("victim not in quarantine")
	}
}

// TestSchemaVersionBumpInvalidates: an entry recorded under another
// schema version is quarantined on scan, not served.
func TestSchemaVersionBumpInvalidates(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Options{Mode: RW, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c.Put("old", json.RawMessage(`{"v":"stale"}`))

	// Rewrite the entry claiming a previous schema version, properly
	// sealed so only the version check can reject it.
	path := filepath.Join(dir, "res-old.json")
	stale := fmt.Sprintf(`{"version":%d,"key":"old","stored":"2020-01-01T00:00:00Z","payload":{"v":"stale"}}`,
		SchemaVersion-1)
	writeSealedRecord(t, path, stale)

	c2, err := New(Options{Mode: RW, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get("old"); ok {
		t.Error("stale-schema entry served")
	}
}

// TestKeyMismatchQuarantined: an entry renamed to another key's file
// (or an attacker-planted file) must not be served under that key.
func TestKeyMismatchQuarantined(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Options{Mode: RW, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c.Put("real", json.RawMessage(`{"v":1}`))
	if err := os.Rename(filepath.Join(dir, "res-real.json"), filepath.Join(dir, "res-fake.json")); err != nil {
		t.Fatal(err)
	}
	c2, err := New(Options{Mode: RW, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get("fake"); ok {
		t.Error("mismatched entry served under the wrong key")
	}
}
