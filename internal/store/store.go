// Package store is the daemon's durable state store: an fsync'd
// append-only write-ahead log of placement-controller mutations plus
// periodic compacting snapshots. Every record and snapshot is versioned
// and CRC-guarded; recovery replays snapshot+WAL, truncating a torn
// final record (an interrupted append) while failing loudly — with the
// byte offset — on mid-log corruption, which can only mean the file was
// damaged after it was written.
//
// On-disk layout inside the state directory:
//
//	wal.log       magic "DPWAL01\n", then framed records
//	snapshot.dat  magic "DPSNP01\n", then one framed State
//
// Each frame is [4-byte LE payload length][4-byte LE CRC-32C][payload],
// where the payload is the JSON encoding of a Record or State. A
// snapshot is written atomically (temp file, fsync, rename, directory
// fsync) and then the WAL is rotated; if the process dies between the
// two, recovery skips WAL records the snapshot already covers by
// sequence number, so the pair is crash-consistent in every
// interleaving.
package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"dynplace/internal/obs"
)

const (
	walMagic  = "DPWAL01\n"
	snapMagic = "DPSNP01\n"

	walName  = "wal.log"
	snapName = "snapshot.dat"

	frameHeader = 8 // 4-byte length + 4-byte CRC
	// maxFrameBytes bounds a single record; anything larger is treated
	// as corruption rather than an allocation request.
	maxFrameBytes = 1 << 28
)

// ErrCorrupt reports on-disk state that is damaged beyond the
// recoverable torn-tail case: a CRC mismatch or impossible frame inside
// the committed region of the log or snapshot. The error message carries
// the byte offset of the damage.
var ErrCorrupt = errors.New("store: corrupt state")

// ErrVersion reports a record or snapshot written by a newer schema
// version than this binary understands.
var ErrVersion = errors.New("store: unsupported schema version")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Info summarizes a store's durability state for status endpoints.
type Info struct {
	Dir string `json:"dir"`
	// Seq is the last assigned WAL sequence number.
	Seq uint64 `json:"seq"`
	// WALBytes is the current WAL file size; WALRecords the number of
	// records appended to it since the last rotation.
	WALBytes   int64 `json:"walBytes"`
	WALRecords int   `json:"walRecords"`
	// SnapshotSeq is the sequence the last snapshot covers (0 = none);
	// SnapshotBytes its file size; SnapshotTime the virtual-time instant
	// it describes.
	SnapshotSeq   uint64  `json:"snapshotSeq"`
	SnapshotBytes int64   `json:"snapshotBytes"`
	SnapshotTime  float64 `json:"snapshotTime"`
	// Failed carries the poison reason after an unrecoverable journal
	// error; empty while the store is healthy.
	Failed string `json:"failed,omitempty"`
}

// Store is one state directory holding a WAL and its compacting
// snapshot. Methods are not safe for concurrent use; the daemon
// serializes access under its own lock.
type Store struct {
	dir string
	wal *os.File
	// failed, once set, poisons the store: a journal write or fsync left
	// the WAL in a state we cannot vouch for, so every further Append and
	// WriteSnapshot is refused rather than appending after garbage and
	// making already-acknowledged history unrecoverable.
	failed error
	// failedReason mirrors failed's message for lock-free readers: the
	// daemon's health endpoint reports the poison reason without taking
	// the daemon lock, so it must not go through Info.
	failedReason atomic.Pointer[string]

	// appendHist, fsyncHist and snapHist observe write-path latencies
	// in seconds when installed via Instrument; nil instruments are
	// no-ops.
	appendHist *obs.Histogram
	fsyncHist  *obs.Histogram
	snapHist   *obs.Histogram

	seq        uint64
	walBytes   int64
	walRecords int

	snapSeq   uint64
	snapBytes int64
	snapTime  float64

	// loaded holds the parse performed by Open until Load consumes it.
	loadedState   *State
	loadedRecords []Record
	loadConsumed  bool
}

// Open opens (creating if necessary) the state directory, validates the
// snapshot and WAL, and truncates a torn WAL tail so the log ends on a
// record boundary. The parsed state is retained for Load.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty state directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir}
	// Sweep debris from a crash between writeFileAtomic's create and
	// rename: the temp file was never part of the durable state, and
	// leaving it would accumulate stale *.tmp files across crashes.
	for _, stale := range []string{walName + ".tmp", snapName + ".tmp"} {
		if err := os.Remove(filepath.Join(dir, stale)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("store: removing stale %s: %w", stale, err)
		}
	}
	if err := s.loadSnapshot(); err != nil {
		return nil, err
	}
	if err := s.loadWAL(); err != nil {
		return nil, err
	}
	// Position the append point: the WAL continues after the last valid
	// record, and sequence numbers continue after everything seen.
	f, err := os.OpenFile(s.walPath(), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.wal = f
	return s, nil
}

func (s *Store) walPath() string  { return filepath.Join(s.dir, walName) }
func (s *Store) snapPath() string { return filepath.Join(s.dir, snapName) }

// Info reports the store's current durability gauges.
func (s *Store) Info() Info {
	info := Info{
		Dir:           s.dir,
		Seq:           s.seq,
		WALBytes:      s.walBytes,
		WALRecords:    s.walRecords,
		SnapshotSeq:   s.snapSeq,
		SnapshotBytes: s.snapBytes,
		SnapshotTime:  s.snapTime,
	}
	if s.failed != nil {
		info.Failed = s.failed.Error()
	}
	return info
}

// loadSnapshot reads and validates snapshot.dat if present.
func (s *Store) loadSnapshot() error {
	data, err := os.ReadFile(s.snapPath())
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if len(data) < len(snapMagic) || string(data[:len(snapMagic)]) != snapMagic {
		return fmt.Errorf("%w: %s: bad magic", ErrCorrupt, snapName)
	}
	payload, next, err := readFrame(data, len(snapMagic))
	if err != nil {
		return fmt.Errorf("%w (%s)", err, snapName)
	}
	if payload == nil || next != len(data) {
		return fmt.Errorf("%w: %s: snapshot frame incomplete or trailing bytes at offset %d",
			ErrCorrupt, snapName, next)
	}
	var st State
	if err := json.Unmarshal(payload, &st); err != nil {
		return fmt.Errorf("%w: %s: %w", ErrCorrupt, snapName, err)
	}
	if st.V > SchemaVersion {
		return fmt.Errorf("%w: snapshot v%d, this binary understands v%d", ErrVersion, st.V, SchemaVersion)
	}
	s.loadedState = &st
	s.seq = st.Seq
	s.snapSeq = st.Seq
	s.snapBytes = int64(len(data))
	s.snapTime = st.Time
	return nil
}

// loadWAL reads wal.log, creating it when absent, truncating a torn
// tail, and failing loudly on mid-log corruption.
func (s *Store) loadWAL() error {
	data, err := os.ReadFile(s.walPath())
	if errors.Is(err, os.ErrNotExist) {
		if _, err := s.createWAL(); err != nil {
			return err
		}
		s.walBytes = int64(len(walMagic))
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if len(data) < len(walMagic) || string(data[:len(walMagic)]) != walMagic {
		// A zero-length or half-written magic can only be a crash during
		// WAL creation/rotation with nothing committed: recreate.
		if allPrefixOf(data, walMagic) {
			if _, err := s.createWAL(); err != nil {
				return err
			}
			s.walBytes = int64(len(walMagic))
			return nil
		}
		return fmt.Errorf("%w: %s: bad magic", ErrCorrupt, walName)
	}

	off := len(walMagic)
	for off < len(data) {
		payload, next, err := readFrame(data, off)
		if err != nil {
			return fmt.Errorf("%w (%s)", err, walName)
		}
		if payload == nil {
			// Torn tail: an append was interrupted mid-write. Truncate
			// back to the last complete record — the only place an
			// fsync'd log can legitimately end mid-frame.
			if err := os.Truncate(s.walPath(), int64(off)); err != nil {
				return fmt.Errorf("store: truncating torn tail at %d: %w", off, err)
			}
			data = data[:off]
			break
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("%w: %s: record at offset %d: %w", ErrCorrupt, walName, off, err)
		}
		if rec.V > SchemaVersion {
			return fmt.Errorf("%w: record seq %d is v%d, this binary understands v%d",
				ErrVersion, rec.Seq, rec.V, SchemaVersion)
		}
		if rec.Seq <= s.snapSeq {
			// Covered by the snapshot (the process died between snapshot
			// rename and WAL rotation): already applied, skip.
			off = next
			continue
		}
		if rec.Seq != s.seq+1 {
			return fmt.Errorf("%w: %s: record at offset %d has seq %d, want %d",
				ErrCorrupt, walName, off, rec.Seq, s.seq+1)
		}
		s.seq = rec.Seq
		s.loadedRecords = append(s.loadedRecords, rec)
		s.walRecords++
		off = next
	}
	s.walBytes = int64(len(data))
	return nil
}

// allPrefixOf reports whether data is a (possibly empty) prefix of
// magic — the signature of a crash during file creation.
func allPrefixOf(data []byte, magic string) bool {
	return len(data) < len(magic) && string(data) == magic[:len(data)]
}

// readFrame parses one frame at off. It returns (nil, off, nil) when the
// remaining bytes cannot hold a complete frame (a torn tail) and an
// ErrCorrupt when a complete frame fails its CRC.
func readFrame(data []byte, off int) (payload []byte, next int, err error) {
	if len(data)-off < frameHeader {
		return nil, off, nil
	}
	length := binary.LittleEndian.Uint32(data[off:])
	sum := binary.LittleEndian.Uint32(data[off+4:])
	if length > maxFrameBytes {
		// An impossible length with a full header present: if the frame
		// would extend past EOF treat it as a torn header write,
		// otherwise as corruption.
		if off+frameHeader+int(length) > len(data) {
			return nil, off, nil
		}
		return nil, off, fmt.Errorf("%w: frame at offset %d claims %d bytes", ErrCorrupt, off, length)
	}
	end := off + frameHeader + int(length)
	if end > len(data) {
		return nil, off, nil
	}
	payload = data[off+frameHeader : end]
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, off, fmt.Errorf("%w: CRC mismatch at offset %d", ErrCorrupt, off)
	}
	return payload, end, nil
}

// recordHead is a Record without its cycle's placement, cycleHead a
// CycleRecord without it and stateHead a State without it: a nil field
// at depth zero hides the embedded field of the same JSON name, and
// omitempty drops it. Each field keeps its place, so a head encodes as
// json.Marshal encodes the record with no placement.
type recordHead struct {
	*Record
	Cycle *cycleHead `json:"cycle,omitempty"`
}

type cycleHead struct {
	*CycleRecord
	Placement *struct{} `json:"placement,omitempty"`
}

type stateHead struct {
	*State
	Placement *struct{} `json:"placement,omitempty"`
}

// frameRecord returns prefix followed by rec's frame.
func frameRecord(prefix string, rec *Record) ([]byte, error) {
	head := recordHead{Record: rec}
	var p Placement
	if rec.Cycle != nil {
		head.Cycle = &cycleHead{CycleRecord: rec.Cycle}
		p = rec.Cycle.Placement
	}
	// The placement is the cycle's last field and the cycle the
	// record's, so it goes in before two closing braces.
	return frame(prefix, "record", &head, p, len("}}"))
}

// frameState returns prefix followed by st's frame.
func frameState(prefix string, st *State) ([]byte, error) {
	return frame(prefix, "snapshot", &stateHead{State: st}, st.Placement, len("}"))
}

// placementKey introduces the placement, which follows at least the
// always-present first field of its object.
const placementKey = `,"placement":`

// frame returns prefix followed by one frame whose payload is head's
// encoding with placementKey and p's bytes spliced in before its last
// closers bytes. For a placement PlacementOf wrapped, that payload is
// byte for byte what json.Marshal gives for the record with the
// placement as a json.RawMessage, but the placement bytes are copied
// once instead of scanned and compacted again: a Placement is valid by
// construction. Header and payload are built in one buffer, sized
// exactly.
func frame(prefix, kind string, head any, p Placement, closers int) ([]byte, error) {
	enc, err := json.Marshal(head)
	if err != nil {
		return nil, fmt.Errorf("store: marshal %s: %w", kind, err)
	}
	n := len(enc)
	if p.b != nil {
		n += len(placementKey) + len(p.b)
	}
	if err := checkFrameSize(kind, n); err != nil {
		return nil, err
	}
	buf := make([]byte, len(prefix)+frameHeader, len(prefix)+frameHeader+n)
	copy(buf, prefix)
	if p.b == nil {
		buf = append(buf, enc...)
	} else {
		cut := len(enc) - closers
		buf = append(buf, enc[:cut]...)
		buf = append(buf, placementKey...)
		buf = append(buf, p.b...)
		buf = append(buf, enc[cut:]...)
	}
	hdr, payload := buf[len(prefix):], buf[len(prefix)+frameHeader:]
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, castagnoli))
	return buf, nil
}

// Load returns the state recovered by Open: the last snapshot (nil when
// none was written) and the WAL records after it, in append order. It
// may be called once per Open; the parse is released afterwards.
func (s *Store) Load() (*State, []Record, error) {
	if s.loadConsumed {
		return nil, nil, errors.New("store: Load already consumed")
	}
	s.loadConsumed = true
	st, recs := s.loadedState, s.loadedRecords
	s.loadedState, s.loadedRecords = nil, nil
	return st, recs, nil
}

// usable reports whether the store can accept writes.
func (s *Store) usable() error {
	if s.failed != nil {
		return fmt.Errorf("store: unusable after journal error: %w", s.failed)
	}
	if s.wal == nil {
		return errors.New("store: closed")
	}
	return nil
}

// poison marks the store permanently failed and releases the WAL handle.
func (s *Store) poison(err error) {
	s.failed = err
	reason := err.Error()
	s.failedReason.Store(&reason)
	if s.wal != nil {
		s.wal.Close()
		s.wal = nil
	}
}

// FailedReason returns the poison reason, or "" while the store is
// healthy. Unlike the other methods it is safe to call concurrently
// with writes — health endpoints read it without any lock.
func (s *Store) FailedReason() string {
	if r := s.failedReason.Load(); r != nil {
		return *r
	}
	return ""
}

// Instrument installs write-path latency histograms: appendH observes
// each Append call end to end, fsyncH the WAL fsync alone, and snapH
// each WriteSnapshot. Any histogram may be nil. Call before the store
// starts serving; the fields are read by the (serialized) write path.
func (s *Store) Instrument(appendH, fsyncH, snapH *obs.Histogram) {
	s.appendHist = appendH
	s.fsyncHist = fsyncH
	s.snapHist = snapH
}

// checkFrameSize refuses payloads the reader would reject as corrupt:
// maxFrameBytes must be enforced on the write path, or a
// too-large-but-valid payload turns the state directory unbootable at
// the next Open.
func checkFrameSize(kind string, n int) error {
	if n > maxFrameBytes {
		return fmt.Errorf("store: %s payload is %d bytes, over the %d-byte frame limit", kind, n, maxFrameBytes)
	}
	return nil
}

// Append assigns the record the next sequence number, frames it, writes
// it to the WAL and fsyncs before returning — once Append returns nil
// the mutation survives kill -9.
//
// A failed write is rolled back by truncating the file to the last
// known-good record boundary so the log stays appendable; if that
// truncate fails, or the fsync fails (after which the kernel may have
// dropped the dirty pages, leaving the on-disk tail unknowable), the
// store is poisoned and refuses all further writes — appending after a
// torn or half-synced frame would make every later acknowledged record
// unrecoverable.
func (s *Store) Append(rec Record) (uint64, error) {
	if err := s.usable(); err != nil {
		return 0, err
	}
	//dynplace:ignore clockhygiene WAL append latency histogram; durability and contents are unaffected
	begin := time.Now()
	defer s.appendHist.ObserveSince(begin)
	rec.V = SchemaVersion
	rec.Seq = s.seq + 1
	frame, err := frameRecord("", &rec)
	if err != nil {
		return 0, err
	}
	if _, err := s.wal.Write(frame); err != nil {
		if terr := s.wal.Truncate(s.walBytes); terr != nil {
			s.poison(fmt.Errorf("append failed (%w), truncate to offset %d failed (%w)", err, s.walBytes, terr))
		}
		return 0, fmt.Errorf("store: append: %w", err)
	}
	//dynplace:ignore clockhygiene fsync latency histogram; telemetry only
	fsyncBegin := time.Now()
	err = s.wal.Sync()
	s.fsyncHist.ObserveSince(fsyncBegin)
	if err != nil {
		// The frame is fully written but its durability is unknowable, and
		// the caller will treat the mutation as failed — best-effort drop
		// it so a restart does not replay a record the API refused. The
		// poison stands regardless: after a failed fsync the kernel may
		// have dropped dirty pages anywhere in the file.
		_ = s.wal.Truncate(s.walBytes)
		s.poison(fmt.Errorf("fsync failed at seq %d: %w", rec.Seq, err))
		return 0, fmt.Errorf("store: fsync: %w", err)
	}
	s.seq = rec.Seq
	s.walBytes += int64(len(frame))
	s.walRecords++
	return rec.Seq, nil
}

// WriteSnapshot persists st as the new compaction point (stamping it
// with the current schema version and sequence number), then rotates
// the WAL. The snapshot lands atomically; a crash at any point leaves
// either the old snapshot+WAL or the new snapshot with a WAL whose
// covered records are skipped on recovery.
func (s *Store) WriteSnapshot(st *State) error {
	if err := s.usable(); err != nil {
		return err
	}
	//dynplace:ignore clockhygiene snapshot-write latency histogram; telemetry only
	begin := time.Now()
	defer s.snapHist.ObserveSince(begin)
	st.V = SchemaVersion
	st.Seq = s.seq
	data, err := frameState(snapMagic, st)
	if err != nil {
		return err
	}
	if _, err := s.writeFileAtomic(s.snapPath(), data); err != nil {
		// Either snapshot (old or new) recovers consistently with the
		// un-rotated WAL, so a failed snapshot write never poisons.
		return err
	}
	s.snapSeq = st.Seq
	s.snapBytes = int64(len(data))
	s.snapTime = st.Time
	return s.rotateWAL()
}

// writeFileAtomic writes data to path via a temp file, fsync and rename,
// then fsyncs the directory so the rename itself is durable. The
// replaced flag reports whether the target may already have been
// swapped when an error occurred: failures before the rename provably
// leave the old file intact, failures at or after it (a rename error is
// ambiguous, a directory-fsync error follows a successful rename) do
// not — callers holding a handle on the old file must treat it as
// possibly unlinked.
func (s *Store) writeFileAtomic(path string, data []byte) (replaced bool, err error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return false, fmt.Errorf("store: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return false, fmt.Errorf("store: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return false, fmt.Errorf("store: %w", err)
	}
	if err := f.Close(); err != nil {
		return false, fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return true, fmt.Errorf("store: %w", err)
	}
	return true, s.syncDir()
}

func (s *Store) syncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: fsync dir: %w", err)
	}
	return nil
}

// createWAL writes a fresh WAL containing only the magic, durably. The
// replaced flag has writeFileAtomic's meaning: on error, whether the
// previous wal.log may already have been unlinked by the rename.
func (s *Store) createWAL() (replaced bool, err error) {
	return s.writeFileAtomic(s.walPath(), []byte(walMagic))
}

// rotateWAL replaces the log with a fresh one after a snapshot. If the
// fresh log cannot be reopened the store fails stop — the old handle
// now points at an unlinked inode, and appending there would
// acknowledge mutations that no longer exist on disk.
func (s *Store) rotateWAL() error {
	if replaced, err := s.createWAL(); err != nil {
		if replaced {
			// The rename may have landed (or the directory fsync after it
			// failed), leaving s.wal on an unlinked inode; poison rather
			// than risk acknowledging mutations into it.
			s.poison(fmt.Errorf("rotating WAL: %w", err))
		}
		// A pre-rename failure (e.g. ENOSPC writing the temp file) leaves
		// the old WAL intact and appendable: report it without poisoning.
		return err
	}
	old := s.wal
	f, err := os.OpenFile(s.walPath(), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		// poison closes old (still held in s.wal): subsequent Appends
		// error instead of vanishing into the unlinked inode.
		s.poison(fmt.Errorf("reopening rotated WAL: %w", err))
		return fmt.Errorf("store: reopening rotated WAL: %w", err)
	}
	s.wal = f
	s.walBytes = int64(len(walMagic))
	s.walRecords = 0
	if old != nil {
		old.Close()
	}
	return nil
}

// Close releases the WAL file handle. It does not snapshot; callers
// wanting a clean compaction point call WriteSnapshot first.
func (s *Store) Close() error {
	if s.wal == nil {
		return nil
	}
	err := s.wal.Close()
	s.wal = nil
	return err
}
