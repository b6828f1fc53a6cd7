package durable

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestSealOpenRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{
		[]byte(`{"version":1,"id":"abc"}`),
		{},
		[]byte("binary\x00\xff\xfe data with\nnewlines\n"),
	} {
		sealed := Seal(payload)
		if !IsSealed(sealed) {
			t.Fatalf("Seal output not recognized: %q", sealed[:min(len(sealed), 32)])
		}
		got, err := Open(sealed)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if string(got) != string(payload) {
			t.Fatalf("payload mismatch: %q != %q", got, payload)
		}
	}
}

func TestOpenRejectsCorruption(t *testing.T) {
	payload := []byte(`{"state":"queued","moves":120000}`)
	sealed := Seal(payload)

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"unsealed", payload, ErrNotSealed},
		{"empty", nil, ErrNotSealed},
		{"truncated", sealed[:len(sealed)-5], ErrTruncated},
		{"mid-header cut", sealed[:20], ErrNotSealed},
	}
	// Flip one payload byte.
	flipped := append([]byte(nil), sealed...)
	flipped[len(flipped)-3] ^= 0x40
	cases = append(cases, struct {
		name string
		data []byte
		want error
	}{"bit flip", flipped, ErrChecksum})

	for _, tc := range cases {
		if _, err := Open(tc.data); !errors.Is(err, tc.want) {
			t.Errorf("%s: err %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestOpenTolleratesTrailingGarbage(t *testing.T) {
	// Extra bytes after the declared payload length (e.g. an older,
	// longer file partially overwritten on a non-atomic filesystem) must
	// not corrupt the declared span.
	payload := []byte("good payload")
	sealed := append(Seal(payload), []byte("stale tail from a previous version")...)
	got, err := Open(sealed)
	if err != nil {
		t.Fatalf("Open with trailing bytes: %v", err)
	}
	if string(got) != string(payload) {
		t.Fatalf("payload %q, want %q", got, payload)
	}
}

func TestWriteSealedAtomicRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "job-abc.json")
	payload := []byte(`{"id":"abc"}`)
	if err := WriteSealedAtomic(nil, path, payload); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSealed(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatalf("round trip: %q != %q", got, payload)
	}
	// No temp litter.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("state dir has %d entries after atomic write, want 1", len(entries))
	}
	// Overwrite is atomic too.
	if err := WriteSealedAtomic(nil, path, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, _ := ReadSealed(nil, path); string(got) != "v2" {
		t.Fatalf("overwrite: %q", got)
	}
}

func TestReadSealedReportsMissingFile(t *testing.T) {
	_, err := ReadSealed(nil, filepath.Join(t.TempDir(), "nope.json"))
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("err %v, want fs.ErrNotExist", err)
	}
}

// TestOpenRejectsHeaderChanges changes every byte of a sealed envelope
// to every other value, one at a time: each result must be refused. A
// header split on any white space, or a checksum read without regard to
// case, lets some of these through with the payload intact.
func TestOpenRejectsHeaderChanges(t *testing.T) {
	sealed := Seal([]byte(`{"version":3,"id":"abc","state":"queued"}`))
	for i := range sealed {
		for b := 0; b < 256; b++ {
			if byte(b) == sealed[i] {
				continue
			}
			changed := append([]byte(nil), sealed...)
			changed[i] = byte(b)
			if _, err := Open(changed); err == nil {
				t.Errorf("byte %d changed from %q to %q: envelope accepted", i, sealed[i], byte(b))
			}
		}
	}
}

// FuzzEnvelope holds the envelope to its contract on arbitrary payloads:
// Open returns what Seal sealed, refuses the sealed bytes with any one
// byte changed, and never panics, whatever bytes it is given.
func FuzzEnvelope(f *testing.F) {
	f.Add([]byte(`{"version":3,"id":"abc"}`), uint(0), byte('x'))
	f.Add([]byte{}, uint(11), byte('\t'))
	f.Add([]byte("binary\x00\xff\nnewline"), uint(14), byte('A'))
	f.Add([]byte(magic+"5 0000000a\nhello"), uint(3), byte(' '))
	f.Fuzz(func(t *testing.T, payload []byte, pos uint, b byte) {
		Open(payload) // arbitrary bytes: must not panic
		sealed := Seal(payload)
		got, err := Open(sealed)
		if err != nil || string(got) != string(payload) {
			t.Fatalf("Open(Seal(p)) = %q, %v; want %q", got, err, payload)
		}
		i := int(pos % uint(len(sealed)))
		if sealed[i] == b {
			return
		}
		sealed[i] = b
		if _, err := Open(sealed); err == nil {
			t.Fatalf("byte %d changed to %q: envelope accepted", i, b)
		}
	})
}
