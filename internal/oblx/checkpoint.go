package oblx

import (
	"encoding/json"
	"fmt"

	"astrx/internal/anneal"
	"astrx/internal/astrx"
	"astrx/internal/durable"
)

// checkpointVersion guards the on-disk format; bump on incompatible
// changes so a stale file fails loudly instead of resuming garbage.
const checkpointVersion = 1

// Checkpoint is the on-disk snapshot of an interrupted synthesis run:
// the annealer's complete state plus the stateful pieces OBLX layers on
// top of it (adaptive constraint weights, evaluation and failure
// counters, elapsed wall time). Resuming from it reproduces the same
// final result as the uninterrupted run with the same seed.
type Checkpoint struct {
	Version  int   `json:"version"`
	Seed     int64 `json:"seed"`
	MaxMoves int   `json:"max_moves"`
	// Vars is the total annealing-variable count (user + node voltages),
	// a cheap structural guard that the checkpoint matches the deck it
	// is resumed into.
	Vars int `json:"vars"`

	Anneal  *anneal.Checkpoint  `json:"anneal"`
	Weights *astrx.WeightsState `json:"weights"`

	Evals       int `json:"evals"`
	Panics      int `json:"panics"`
	NonFinite   int `json:"non_finite"`
	Retries     int `json:"retries"`
	Quarantined int `json:"quarantined"`
	// Unstable is the nominal lane's Padé-instability counter; each
	// corner's rides in Corners. A nominal-only run is the one-lane set,
	// so its checkpoint carries this count alone.
	Unstable int `json:"unstable,omitempty"`

	// Corners carries the per-corner failure state of a worst-case run,
	// in lane order. Resuming requires the same corner selection: the
	// lane names must match exactly, and a nominal-only run refuses a
	// checkpoint that carries corner state (and vice versa — the master
	// variable count differs, so the Vars guard catches that direction).
	Corners []CornerCheckpoint `json:"corners,omitempty"`

	ElapsedNS int64 `json:"elapsed_ns"`
}

// CornerCheckpoint is one corner's resumable failure state.
type CornerCheckpoint struct {
	Name        string `json:"name"`
	Fails       int    `json:"fails"`
	Retries     int    `json:"retries"`
	Consec      int    `json:"consec"`
	Quarantined bool   `json:"quarantined"`
	Unstable    int    `json:"unstable,omitempty"`
}

// validate checks what every resumable checkpoint has, whatever deck it
// is resumed into: the current version and the annealer and weight state.
func (ck *Checkpoint) validate() error {
	switch {
	case ck.Version != checkpointVersion:
		return fmt.Errorf("oblx: checkpoint version %d, want %d", ck.Version, checkpointVersion)
	case ck.Anneal == nil || ck.Weights == nil:
		return fmt.Errorf("oblx: checkpoint missing annealer or weight state")
	}
	return nil
}

// check validates the checkpoint against the compiled problem.
func (ck *Checkpoint) check(nVars int) error {
	if err := ck.validate(); err != nil {
		return err
	}
	if ck.Vars != nVars {
		return fmt.Errorf("oblx: checkpoint has %d variables, deck compiles to %d — wrong deck?",
			ck.Vars, nVars)
	}
	return nil
}

// SaveCheckpoint durably writes a checkpoint: the JSON is sealed in a
// checksummed envelope and committed atomically (temp file, fsync,
// rename, directory fsync), so neither a crash mid-write nor a torn
// rename can leave a resumable-looking but corrupt checkpoint behind.
func SaveCheckpoint(path string, ck *Checkpoint) error {
	return SaveCheckpointFS(nil, path, ck)
}

// SaveCheckpointFS is SaveCheckpoint through an explicit filesystem; a
// nil fsys uses the real one. Fault-injection tests substitute a
// fault-wrapped filesystem here.
func SaveCheckpointFS(fsys durable.FS, path string, ck *Checkpoint) error {
	data, err := json.Marshal(ck)
	if err != nil {
		return fmt.Errorf("oblx: marshal checkpoint: %w", err)
	}
	if err := durable.WriteSealedAtomic(fsys, path, data); err != nil {
		return fmt.Errorf("oblx: checkpoint: %w", err)
	}
	return nil
}

// DecodeCheckpoint parses a checkpoint payload (raw JSON, no envelope)
// and validates its version and structure. Checkpoints read from disk
// and checkpoints shipped between fleet nodes both pass through it. The
// variable-count guard still runs at resume time, when the deck is
// compiled.
func DecodeCheckpoint(payload []byte) (*Checkpoint, error) {
	ck := &Checkpoint{}
	if err := json.Unmarshal(payload, ck); err != nil {
		return nil, fmt.Errorf("oblx: parse checkpoint: %w", err)
	}
	if err := ck.validate(); err != nil {
		return nil, err
	}
	return ck, nil
}

// LoadCheckpoint reads a checkpoint written by SaveCheckpoint. The file
// must be a sealed envelope holding a checkpoint DecodeCheckpoint
// accepts; unsealed JSON is refused.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	return LoadCheckpointFS(nil, path)
}

// LoadCheckpointFS is LoadCheckpoint through an explicit filesystem; a
// nil fsys uses the real one.
func LoadCheckpointFS(fsys durable.FS, path string) (*Checkpoint, error) {
	payload, err := durable.ReadSealed(fsys, path)
	if err != nil {
		return nil, fmt.Errorf("oblx: load checkpoint: %w", err)
	}
	ck, err := DecodeCheckpoint(payload)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ck, nil
}
