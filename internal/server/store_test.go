package server

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"astrx/internal/durable"
)

// writeSealedRecord writes a job record the way the daemon does: sealed
// in a durable envelope, atomically.
func writeSealedRecord(t *testing.T, dir, filename string, rec jobRecord) {
	t.Helper()
	data, err := json.Marshal(&rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := durable.WriteSealedAtomic(nil, filepath.Join(dir, filename), data); err != nil {
		t.Fatal(err)
	}
}

// quarantinedWithReason asserts a file was moved to quarantine/ and its
// reason sidecar mentions wantReason.
func quarantinedWithReason(t *testing.T, dir, name, wantReason string) {
	t.Helper()
	q := filepath.Join(dir, quarantineDir, name)
	if _, err := os.Stat(q); err != nil {
		t.Errorf("%s not quarantined: %v", name, err)
		return
	}
	reason, err := os.ReadFile(q + ".reason")
	if err != nil {
		t.Errorf("%s: no reason sidecar: %v", name, err)
		return
	}
	if !strings.Contains(string(reason), wantReason) {
		t.Errorf("%s quarantine reason %q does not mention %q", name, reason, wantReason)
	}
}

// TestFsckQuarantinesBadState walks the startup fsck through the issue's
// recovery edge cases in one state directory: a zero-byte record, a
// second record claiming an already-recovered job ID, an orphan
// checkpoint with no record, a record whose envelope checksum fails, an
// unsupported future version, and a stale temp file from an interrupted
// atomic write. Each bad file must land in quarantine/ with a reason —
// never abort startup, never be silently trusted.
func TestFsckQuarantinesBadState(t *testing.T) {
	dir := t.TempDir()

	// Healthy terminal record (the survivor).
	done := jobRecord{
		Version: jobRecordVersion, ID: "aaaa11112222", Deck: testDeck,
		Created: time.Now().Add(-time.Hour), State: StateDone,
		Result: &JobResult{ID: "aaaa11112222", State: StateDone},
	}
	writeSealedRecord(t, dir, "job-aaaa11112222.json", done)

	// Zero-byte record: the classic crash-during-create artifact.
	if err := os.WriteFile(filepath.Join(dir, "job-bbbb11112222.json"), nil, 0o644); err != nil {
		t.Fatal(err)
	}

	// A second file claiming the survivor's job ID.
	dup := done
	writeSealedRecord(t, dir, "job-cccc11112222.json", dup)

	// Orphan checkpoint: no record anywhere.
	if err := os.WriteFile(filepath.Join(dir, "job-dddd11112222.ckpt"), []byte("moves"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Bit rot: sealed record with a flipped payload byte.
	rot := jobRecord{Version: jobRecordVersion, ID: "ffff11112222", Deck: testDeck,
		Created: time.Now(), State: StateDone}
	writeSealedRecord(t, dir, "job-ffff11112222.json", rot)
	raw, err := os.ReadFile(filepath.Join(dir, "job-ffff11112222.json"))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0x40
	if err := os.WriteFile(filepath.Join(dir, "job-ffff11112222.json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// A record from the future.
	future := jobRecord{Version: jobRecordVersion + 7, ID: "eeee11112222", Deck: testDeck,
		Created: time.Now(), State: StateDone}
	writeSealedRecord(t, dir, "job-eeee11112222.json", future)

	// Stale temp file from an interrupted atomic write.
	tmpName := ".job-aaaa11112222.json.tmp-99999"
	if err := os.WriteFile(filepath.Join(dir, tmpName), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	m := newTestManager(t, Options{StateDir: dir, Workers: 1})

	quarantinedWithReason(t, dir, "job-bbbb11112222.json", "zero-byte")
	quarantinedWithReason(t, dir, "job-cccc11112222.json", "aaaa11112222")
	quarantinedWithReason(t, dir, "job-dddd11112222.ckpt", "orphan checkpoint")
	quarantinedWithReason(t, dir, "job-ffff11112222.json", "envelope verification failed")
	quarantinedWithReason(t, dir, "job-eeee11112222.json", "unsupported record version")

	if _, err := os.Stat(filepath.Join(dir, tmpName)); !os.IsNotExist(err) {
		t.Errorf("stale temp file survived the fsck (stat err: %v)", err)
	}

	// Exactly the survivor was recovered, with its history intact.
	j := m.Get("aaaa11112222")
	if j == nil || j.State() != StateDone || j.Result() == nil {
		t.Fatalf("survivor not recovered: %+v", j)
	}
	if got := len(m.Jobs()); got != 1 {
		t.Errorf("recovered %d jobs, want 1", got)
	}
}

// TestFsckRunningRecordWithoutCheckpoint: a job recorded as running
// whose checkpoint never made it to disk is requeued and restarts from
// scratch — the record alone is enough to not lose the job.
func TestFsckRunningRecordWithoutCheckpoint(t *testing.T) {
	dir := t.TempDir()
	rec := jobRecord{
		Version: jobRecordVersion, ID: "abcd11112222", Deck: testDeck,
		Options: JobOptions{Seed: 1, MaxMoves: 3000, Runs: 1},
		Created: time.Now(), State: StateRunning, Attempts: 1,
		History: []JobFailure{{Attempt: 1, Error: "stalled", Time: time.Now()}},
	}
	writeSealedRecord(t, dir, "job-abcd11112222.json", rec)

	m := newTestManager(t, Options{StateDir: dir, Workers: 1})
	j := m.Get("abcd11112222")
	if j == nil {
		t.Fatal("running record without checkpoint was not recovered")
	}
	j.mu.Lock()
	resume := j.resume
	attempts := j.attempts
	j.mu.Unlock()
	if resume != nil {
		t.Error("no checkpoint exists, yet a resume snapshot appeared")
	}
	if attempts != 1 {
		t.Errorf("supervision attempts not restored: got %d, want 1", attempts)
	}
	// Nothing to quarantine in this scenario.
	if _, err := os.Stat(filepath.Join(dir, quarantineDir)); !os.IsNotExist(err) {
		t.Errorf("unexpected quarantine directory (stat err: %v)", err)
	}
	// The restarted-from-scratch run completes normally.
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) && !j.State().terminal() {
		time.Sleep(20 * time.Millisecond)
	}
	if got := j.State(); got != StateDone {
		t.Errorf("requeued job ended %s, want done", got)
	}
}

// TestFsckQuarantinesLegacyRecords: the daemon writes only sealed
// records at jobRecordVersion, so a raw-JSON record from before the
// envelope and a sealed record of an older version are quarantined with
// their reasons — kept for inspection, never dropped — and startup goes
// on without them.
func TestFsckQuarantinesLegacyRecords(t *testing.T) {
	dir := t.TempDir()
	raw := jobRecord{
		Version: 1, ID: "1234aaaabbbb", Deck: testDeck,
		Created: time.Now(), State: StateFailed, Error: "legacy failure",
		Result: &JobResult{ID: "1234aaaabbbb", State: StateFailed, Error: "legacy failure"},
	}
	data, err := json.MarshalIndent(&raw, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "job-1234aaaabbbb.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	v2 := jobRecord{Version: 2, ID: "5678aaaabbbb", Deck: testDeck,
		Created: time.Now(), State: StateQueued, Options: JobOptions{Seed: 1, MaxMoves: 3000, Runs: 1}}
	writeSealedRecord(t, dir, "job-5678aaaabbbb.json", v2)

	m := newTestManager(t, Options{StateDir: dir, Workers: 1})
	quarantinedWithReason(t, dir, "job-1234aaaabbbb.json", "no envelope header")
	quarantinedWithReason(t, dir, "job-5678aaaabbbb.json", "unsupported record version 2")
	if got := len(m.Jobs()); got != 0 {
		t.Errorf("recovered %d jobs from legacy records, want 0", got)
	}
}

// TestFsckCheckpointWithoutAnnealState: a running job's checkpoint that
// has the right version but no annealer state, sealed or raw, is
// quarantined and the job restarts from scratch; recovery must never
// read the move of an annealer state that is not there.
func TestFsckCheckpointWithoutAnnealState(t *testing.T) {
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"sealed", durable.Seal([]byte(`{"version":1}`))},
		{"raw", []byte(`{"version":1}`)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			rec := jobRecord{
				Version: jobRecordVersion, ID: "abcd33334444", Deck: testDeck,
				Options: JobOptions{Seed: 1, MaxMoves: 3000, Runs: 1},
				Created: time.Now(), State: StateRunning, Tenant: "default",
			}
			writeSealedRecord(t, dir, "job-abcd33334444.json", rec)
			if err := os.WriteFile(filepath.Join(dir, "job-abcd33334444.ckpt"), tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			m := newTestManager(t, Options{StateDir: dir, ExternalExec: true})
			quarantinedWithReason(t, dir, "job-abcd33334444.ckpt", "unreadable checkpoint")
			j := m.Get("abcd33334444")
			if j == nil || j.State() != StateQueued {
				t.Fatalf("job not requeued: %v", j)
			}
			if m.ResumePayload(j) != nil {
				t.Error("job resumes from a quarantined checkpoint")
			}
		})
	}
}

// FuzzJobRecord holds the job-record reader to never panicking, and to
// accepting only sealed records at jobRecordVersion whose ID matches the
// file name.
func FuzzJobRecord(f *testing.F) {
	good := func(rec jobRecord) []byte {
		data, err := json.Marshal(&rec)
		if err != nil {
			f.Fatal(err)
		}
		return durable.Seal(data)
	}
	f.Add("job-aaaa11112222.json", good(jobRecord{Version: jobRecordVersion, ID: "aaaa11112222",
		Deck: testDeck, State: StateDone, Tenant: "default"}))
	f.Add("job-aaaa11112222.json", good(jobRecord{Version: 2, ID: "aaaa11112222", State: StateQueued}))
	f.Add("job-bbbb.json", good(jobRecord{Version: jobRecordVersion, ID: "aaaa11112222"}))
	f.Add("job-aaaa11112222.json", []byte(`{"version":3,"id":"aaaa11112222","state":"done"}`))
	f.Add("job-.json", good(jobRecord{Version: jobRecordVersion}))
	f.Add("job-x.json", []byte{})
	f.Fuzz(func(t *testing.T, name string, data []byte) {
		rec, why := loadRecord(name, data)
		if rec == nil {
			if why == "" {
				t.Fatal("refused record without a reason")
			}
			return
		}
		payload, err := durable.Open(data)
		if err != nil {
			t.Fatalf("accepted an unsealed record: %v", err)
		}
		var raw struct {
			Version int `json:"version"`
		}
		if err := json.Unmarshal(payload, &raw); err != nil || raw.Version != jobRecordVersion {
			t.Fatalf("accepted record version %d (err %v), want %d", raw.Version, err, jobRecordVersion)
		}
		if rec.Version != jobRecordVersion || rec.ID == "" || name != "job-"+rec.ID+".json" {
			t.Fatalf("accepted record version %d ID %q as %q", rec.Version, rec.ID, name)
		}
	})
}
