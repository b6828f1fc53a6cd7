// Package durable is the integrity layer under the synthesis service's
// persisted state: every file that must survive a crash (job records,
// annealer checkpoints) is wrapped in a versioned, CRC32C-checksummed
// envelope and written atomically — temp file, fsync, rename, directory
// fsync — through a pluggable filesystem so fault-injection tests can
// tear writes apart deliberately.
//
// The envelope is a single ASCII header line followed by the payload:
//
//	%OBLX-ENV1 <payload-length> <crc32c-hex>\n<payload>
//
// Open rejects anything whose length or checksum disagrees with the
// header, so a torn rename, a short write, or bit rot is detected at
// read time instead of being resumed from as garbage. The payload keeps
// its own schema version (job records and checkpoints already carry
// one); the envelope only guarantees the bytes are whole.
package durable

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// envelope header magic; the trailing "1" is the envelope format version.
const magic = "%OBLX-ENV1 "

// crcTable is the Castagnoli (CRC32C) polynomial table — the checksum
// with hardware support on every platform this service targets.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Typed corruption errors, distinguishable by errors.Is so a recovery
// fsck can report *why* a file was quarantined.
var (
	// ErrNotSealed marks data without a well-formed envelope header
	// (unsealed or foreign files, or a corrupted header).
	ErrNotSealed = errors.New("durable: no envelope header")
	// ErrTruncated marks an envelope whose payload is shorter than the
	// header promises — the classic torn-write signature.
	ErrTruncated = errors.New("durable: truncated payload")
	// ErrChecksum marks a whole-length payload whose CRC32C disagrees
	// with the header.
	ErrChecksum = errors.New("durable: checksum mismatch")
)

// header renders the one envelope header Seal writes and Open accepts.
func header(n int, sum uint32) string {
	return fmt.Sprintf("%s%d %08x\n", magic, n, sum)
}

// Seal wraps payload in a checksummed envelope.
func Seal(payload []byte) []byte {
	hdr := header(len(payload), crc32.Checksum(payload, crcTable))
	out := make([]byte, 0, len(hdr)+len(payload))
	out = append(out, hdr...)
	return append(out, payload...)
}

// IsSealed reports whether data begins with an envelope header.
func IsSealed(data []byte) bool {
	return strings.HasPrefix(string(data[:min(len(data), len(magic))]), magic)
}

// Open verifies an envelope and returns its payload. The header must be
// exactly the one Seal writes: one space between the fields, a decimal
// length without sign or leading zeros, eight lower-case hex digits.
// Errors wrap ErrNotSealed, ErrTruncated, or ErrChecksum.
func Open(data []byte) ([]byte, error) {
	if !IsSealed(data) {
		return nil, ErrNotSealed
	}
	rest := data[len(magic):]
	nl := strings.IndexByte(string(rest[:min(len(rest), 64)]), '\n')
	if nl < 0 {
		return nil, fmt.Errorf("%w: unterminated header", ErrNotSealed)
	}
	length, sum, _ := strings.Cut(string(rest[:nl]), " ")
	n, err := strconv.Atoi(length)
	if err != nil || n < 0 {
		return nil, fmt.Errorf("%w: bad length %q", ErrNotSealed, length)
	}
	want, err := strconv.ParseUint(sum, 16, 32)
	if err != nil {
		return nil, fmt.Errorf("%w: bad checksum %q", ErrNotSealed, sum)
	}
	if hdr := data[:len(magic)+nl+1]; string(hdr) != header(n, uint32(want)) {
		return nil, fmt.Errorf("%w: malformed header %q", ErrNotSealed, hdr)
	}
	payload := rest[nl+1:]
	if len(payload) < n {
		return nil, fmt.Errorf("%w: have %d of %d payload bytes", ErrTruncated, len(payload), n)
	}
	payload = payload[:n]
	if got := crc32.Checksum(payload, crcTable); got != uint32(want) {
		return nil, fmt.Errorf("%w: crc32c %08x, header says %08x", ErrChecksum, got, want)
	}
	return payload, nil
}

// File is the writable handle WriteFileAtomic drives; *os.File satisfies
// it, and fault injectors wrap it.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
	Name() string
}

// FS is the filesystem seam under the durability layer. Production code
// uses OS; chaos tests substitute a fault-injecting wrapper (see
// faults.FS). Only the operations the persistence paths need are
// present.
type FS interface {
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	ReadFile(name string) ([]byte, error)
	// WriteFile is the non-atomic write — used for writability probes
	// and by fault injectors simulating partially committed files; the
	// durable path is WriteFileAtomic.
	WriteFile(name string, data []byte, perm os.FileMode) error
	ReadDir(name string) ([]fs.DirEntry, error)
	MkdirAll(path string, perm os.FileMode) error
	// SyncDir fsyncs a directory, making a preceding rename durable.
	SyncDir(dir string) error
}

// OS is the real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	return os.WriteFile(name, data, perm)
}
func (osFS) ReadDir(name string) ([]fs.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	// Directory fsync is advisory on some filesystems; a sync error on a
	// directory handle is reported, not ignored, because losing the
	// rename is exactly the failure this layer exists to surface.
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// WriteFileAtomic durably replaces path with data: write to a temp file
// in the same directory, fsync it, rename over path, fsync the
// directory. A crash at any point leaves either the old file or the new
// one — never a partial — and a fault at any step removes the temp file
// and reports the error.
func WriteFileAtomic(fsys FS, path string, data []byte) error {
	if fsys == nil {
		fsys = OS
	}
	dir := filepath.Dir(path)
	f, err := fsys.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("durable: create temp: %w", err)
	}
	tmp := f.Name()
	cleanup := func(e error) error {
		f.Close()
		fsys.Remove(tmp)
		return e
	}
	if n, err := f.Write(data); err != nil {
		return cleanup(fmt.Errorf("durable: write %s: %w", path, err))
	} else if n < len(data) {
		return cleanup(fmt.Errorf("durable: write %s: short write (%d of %d bytes)", path, n, len(data)))
	}
	if err := f.Sync(); err != nil {
		return cleanup(fmt.Errorf("durable: fsync %s: %w", path, err))
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("durable: close %s: %w", path, err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("durable: commit %s: %w", path, err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("durable: sync dir %s: %w", dir, err)
	}
	return nil
}

// WriteSealedAtomic seals payload in an envelope and writes it
// atomically — the one-call form the persistence paths use.
func WriteSealedAtomic(fsys FS, path string, payload []byte) error {
	return WriteFileAtomic(fsys, path, Seal(payload))
}

// ReadSealed reads path through fsys and verifies its envelope,
// returning the payload.
func ReadSealed(fsys FS, path string) ([]byte, error) {
	if fsys == nil {
		fsys = OS
	}
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, err
	}
	payload, err := Open(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return payload, nil
}
