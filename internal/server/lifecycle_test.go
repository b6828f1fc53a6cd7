package server

import (
	"context"
	"os"
	"testing"
	"time"

	"astrx/internal/netlist"
	"astrx/internal/oblx"
	"astrx/internal/retry"
)

// shippedCheckpoint is the smallest checkpoint payload DecodeCheckpoint
// accepts, standing in for one a fleet worker ships.
const shippedCheckpoint = `{"version":1,"seed":1,"max_moves":3000,"vars":2,"anneal":{"move":100},"weights":{}}`

// claimWithCheckpoint submits a job to an external-exec manager, claims
// it, and stores a shipped checkpoint for it, as a fleet leaseholder
// would.
func claimWithCheckpoint(t *testing.T, m *Manager) *Job {
	t.Helper()
	j, err := m.Submit(testDeck, JobOptions{Seed: 1, MaxMoves: 3000}, Origin{})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.ClaimQueued(); got != j {
		t.Fatalf("claimed %v, want the submitted job", got)
	}
	if err := m.PutCheckpointPayload(j, []byte(shippedCheckpoint)); err != nil {
		t.Fatal(err)
	}
	return j
}

// checkpointExists reports whether the job's checkpoint is on disk.
func checkpointExists(t *testing.T, m *Manager, j *Job) bool {
	t.Helper()
	_, err := os.Stat(m.checkpointPath(j.ID))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return err == nil
}

// finishedCount reads oblxd_jobs_finished_total for one state.
func finishedCount(m *Manager, st State) int64 {
	return m.reg.Counter("oblxd_jobs_finished_total", "state", string(st)).Value()
}

// TestCompleteExternalRecordsFailures: a fleet commit counts the
// failures its run absorbed, as a local run does.
func TestCompleteExternalRecordsFailures(t *testing.T) {
	m := newTestManager(t, Options{ExternalExec: true, StateDir: t.TempDir()})
	j := claimWithCheckpoint(t, m)
	view := &oblx.ResultView{Degraded: true}
	view.Failures.Unstable = 7
	view.Failures.Corners = map[string]oblx.CornerFailures{"slow": {Fails: 3, Quarantined: true}}
	if err := m.CompleteExternal(j, &JobResult{State: StateDone, Result: view}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		got  int64
		want int64
	}{
		{"oblxd_eval_unstable_total", m.reg.Counter("oblxd_eval_unstable_total").Value(), 7},
		{`oblxd_corner_eval_failures_total{corner="slow"}`,
			m.reg.Counter("oblxd_corner_eval_failures_total", "corner", "slow").Value(), 3},
		{"oblxd_jobs_degraded_total", m.reg.Counter("oblxd_jobs_degraded_total").Value(), 1},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d after a fleet commit, want %d", c.name, c.got, c.want)
		}
	}
}

// TestRejectedCompletionKeepsCheckpoint: a late commit for a job a
// worker released is refused with no side effect, so the checkpoint the
// next claimant resumes from stays on disk.
func TestRejectedCompletionKeepsCheckpoint(t *testing.T) {
	m := newTestManager(t, Options{ExternalExec: true, StateDir: t.TempDir()})
	j := claimWithCheckpoint(t, m)
	m.ReleaseExternal(j)
	if err := m.CompleteExternal(j, &JobResult{State: StateDone}); err == nil {
		t.Fatal("commit for a released (queued) job accepted")
	}
	if !checkpointExists(t, m, j) {
		t.Error("a rejected commit deleted the checkpoint")
	}
	if got := j.State(); got != StateQueued {
		t.Errorf("job is %s after a rejected commit, want queued", got)
	}
	if got := finishedCount(m, StateDone); got != 0 {
		t.Errorf("a rejected commit counted %d finished jobs", got)
	}
}

// TestCancelQueuedRemovesCheckpoint: a queued job with a checkpoint (here
// left by a released lease) is cancelled like any other terminal
// transition: its checkpoint goes and the job is counted.
func TestCancelQueuedRemovesCheckpoint(t *testing.T) {
	m := newTestManager(t, Options{ExternalExec: true, StateDir: t.TempDir()})
	j := claimWithCheckpoint(t, m)
	m.ReleaseExternal(j)
	if !checkpointExists(t, m, j) {
		t.Fatal("release dropped the checkpoint")
	}
	if err := m.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	if got := j.State(); got != StateCancelled {
		t.Fatalf("job is %s after cancel, want cancelled", got)
	}
	if checkpointExists(t, m, j) {
		t.Error("cancelled job kept its checkpoint")
	}
	if got := finishedCount(m, StateCancelled); got != 1 {
		t.Errorf(`oblxd_jobs_finished_total{state="cancelled"} = %d, want 1`, got)
	}
	if m.ClaimQueued() != nil {
		t.Error("a cancelled job was claimed")
	}
}

// terminalView is what a watcher finds the instant a job's terminal
// event reaches it.
type terminalView struct {
	state    State
	counted  int64
	ckptGone bool
}

// watchTerminal subscribes to j and, when the terminal event arrives,
// reports the finished count for its state and whether the checkpoint
// is gone. The watcher stops at the end of the test.
func watchTerminal(t *testing.T, m *Manager, j *Job) <-chan terminalView {
	replay, ch, cancel := j.Subscribe()
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	out := make(chan terminalView, 1)
	reported := func(ev Event) bool {
		if ev.Type != "state" || !ev.State.terminal() {
			return false
		}
		_, err := os.Stat(m.checkpointPath(j.ID))
		out <- terminalView{ev.State, finishedCount(m, ev.State), os.IsNotExist(err)}
		return true
	}
	go func() {
		defer cancel()
		for _, ev := range replay {
			if reported(ev) {
				return
			}
		}
		for {
			select {
			case ev := <-ch:
				if reported(ev) {
					return
				}
			case <-stop:
				return
			}
		}
	}()
	return out
}

// checkTerminalView waits for the watcher's report: the job must
// already be counted, and its checkpoint gone, when its terminal event
// is published.
func checkTerminalView(t *testing.T, views <-chan terminalView, want State) {
	t.Helper()
	select {
	case v := <-views:
		if v.state != want {
			t.Fatalf("terminal event %s, want %s", v.state, want)
		}
		if v.counted != 1 {
			t.Errorf("at the %s event, oblxd_jobs_finished_total counts %d, want 1", v.state, v.counted)
		}
		if !v.ckptGone {
			t.Errorf("at the %s event, the checkpoint is still on disk", v.state)
		}
	case <-time.After(2 * time.Minute):
		t.Fatalf("no terminal event")
	}
}

// TestTerminalEventFollowsBookkeeping: for a local run, a fleet commit
// and a poisoning alike, a subscriber that receives the terminal event
// finds the job counted and its checkpoint removed.
func TestTerminalEventFollowsBookkeeping(t *testing.T) {
	t.Run("local", func(t *testing.T) {
		m := newTestManager(t, Options{StateDir: t.TempDir(), Workers: 1, CheckpointEvery: 200})
		j, err := m.Submit(testDeck, JobOptions{Seed: 1, MaxMoves: 3000}, Origin{})
		if err != nil {
			t.Fatal(err)
		}
		checkTerminalView(t, watchTerminal(t, m, j), StateDone)
	})
	t.Run("fleet", func(t *testing.T) {
		m := newTestManager(t, Options{ExternalExec: true, StateDir: t.TempDir()})
		j := claimWithCheckpoint(t, m)
		views := watchTerminal(t, m, j)
		if err := m.CompleteExternal(j, &JobResult{State: StateDone}); err != nil {
			t.Fatal(err)
		}
		checkTerminalView(t, views, StateDone)
	})
	t.Run("poison", func(t *testing.T) {
		orig := synthesize
		t.Cleanup(func() { synthesize = orig })
		// A run that checkpoints, then hangs until the watchdog kills it.
		synthesize = oneRun(func(ctx context.Context, deck *netlist.Deck, opt oblx.Options) (*oblx.Result, error) {
			ck, err := oblx.DecodeCheckpoint([]byte(shippedCheckpoint))
			if err == nil {
				err = oblx.SaveCheckpoint(opt.CheckpointPath, ck)
			}
			if err != nil {
				return nil, err
			}
			<-ctx.Done()
			return nil, ctx.Err()
		})
		m := newTestManager(t, Options{
			StateDir:     t.TempDir(),
			Workers:      1,
			StallTimeout: 60 * time.Millisecond,
			Retry:        retry.Policy{Base: 10 * time.Millisecond, Max: 20 * time.Millisecond, Multiplier: 2, MaxAttempts: 1},
		})
		j, err := m.Submit(testDeck, JobOptions{Seed: 1, MaxMoves: 3000}, Origin{})
		if err != nil {
			t.Fatal(err)
		}
		checkTerminalView(t, watchTerminal(t, m, j), StatePoisoned)
	})
}

// TestJobsNewestFirst: the job list is sorted by creation time, newest
// first.
func TestJobsNewestFirst(t *testing.T) {
	m := newTestManager(t, Options{ExternalExec: true})
	base := time.Now()
	m.mu.Lock()
	for i, d := range []int{3, 1, 4, 0, 2} {
		id := string(rune('a' + i))
		m.jobs[id] = &Job{ID: id, Created: base.Add(time.Duration(d) * time.Second)}
	}
	m.mu.Unlock()
	jobs := m.Jobs()
	if len(jobs) != 5 {
		t.Fatalf("%d jobs listed, want 5", len(jobs))
	}
	for i := 1; i < len(jobs); i++ {
		if jobs[i].Created.After(jobs[i-1].Created) {
			t.Fatalf("job %d (%s) is newer than job %d (%s)", i, jobs[i].Created, i-1, jobs[i-1].Created)
		}
	}
}

// TestConcurrentCompletionsFinishOnce races commits of one fleet job:
// exactly one makes it terminal and counts it.
func TestConcurrentCompletionsFinishOnce(t *testing.T) {
	m := newTestManager(t, Options{ExternalExec: true, StateDir: t.TempDir()})
	j := claimWithCheckpoint(t, m)
	const n = 8
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() { errs <- m.CompleteExternal(j, &JobResult{State: StateDone}) }()
	}
	ok := 0
	for i := 0; i < n; i++ {
		if <-errs == nil {
			ok++
		}
	}
	if ok != 1 {
		t.Errorf("%d of %d racing commits succeeded, want 1", ok, n)
	}
	if got := finishedCount(m, StateDone); got != 1 {
		t.Errorf(`oblxd_jobs_finished_total{state="done"} = %d, want 1`, got)
	}
	if busy := m.Health().WorkersBusy; busy != 0 {
		t.Errorf("%d running slots held after the commit, want 0", busy)
	}
}

// TestCancelRacesClaim races a cancel against a fleet claim of the same
// queued job. Either the cancel wins and the job is cancelled and never
// claimed, or the claim wins and the running job is marked for cancel.
func TestCancelRacesClaim(t *testing.T) {
	m := newTestManager(t, Options{ExternalExec: true})
	cancelled, running := 0, 0
	for i := 0; i < 20; i++ {
		j, err := m.Submit(testDeck, JobOptions{Seed: int64(i + 1), MaxMoves: 3000}, Origin{})
		if err != nil {
			t.Fatal(err)
		}
		claimed := make(chan *Job, 1)
		go func() { claimed <- m.ClaimQueued() }()
		if err := m.Cancel(j.ID); err != nil {
			t.Fatal(err)
		}
		switch c := <-claimed; {
		case c == nil && j.State() == StateCancelled:
			cancelled++
		case c == j && j.State() == StateRunning && j.UserCancelled():
			running++
			if err := m.CompleteExternal(j, &JobResult{State: StateCancelled}); err != nil {
				t.Fatal(err)
			}
		default:
			t.Fatalf("claim returned %v, job %s (user cancelled %v)", c, j.State(), j.UserCancelled())
		}
	}
	if got := finishedCount(m, StateCancelled); got != int64(cancelled+running) {
		t.Errorf(`oblxd_jobs_finished_total{state="cancelled"} = %d, want %d`, got, cancelled+running)
	}
	if busy := m.Health().WorkersBusy; busy != 0 {
		t.Errorf("%d running slots held after every job finished, want 0", busy)
	}
}
