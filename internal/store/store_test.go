package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dynplace"
)

func testRecord(i int) Record {
	return Record{
		Time: float64(i) * 60,
		Op:   OpSubmitJob,
		Job: &dynplace.JobSpec{
			Name:        fmt.Sprintf("job-%d", i),
			WorkMcycles: 1000,
			MaxSpeedMHz: 3000,
			MemoryMB:    512,
			Deadline:    3600,
		},
	}
}

func openStore(t testing.TB, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestAppendLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	st, recs, err := s.Load()
	if err != nil || st != nil || len(recs) != 0 {
		t.Fatalf("fresh store: state=%v recs=%d err=%v", st, len(recs), err)
	}
	for i := 0; i < 5; i++ {
		seq, err := s.Append(testRecord(i))
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
	}
	s.Close()

	s2 := openStore(t, dir)
	st, recs, err = s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if st != nil {
		t.Fatalf("unexpected snapshot: %+v", st)
	}
	if len(recs) != 5 {
		t.Fatalf("replayed %d records, want 5", len(recs))
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) || rec.Op != OpSubmitJob || rec.Job.Name != fmt.Sprintf("job-%d", i) {
			t.Fatalf("record %d mismatch: %+v", i, rec)
		}
	}
	// Appends continue the sequence.
	seq, err := s2.Append(testRecord(5))
	if err != nil || seq != 6 {
		t.Fatalf("continued append: seq=%d err=%v", seq, err)
	}
}

func TestSnapshotCompactsWAL(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	for i := 0; i < 3; i++ {
		if _, err := s.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.WriteSnapshot(&State{Time: 180, Cycles: 3}); err != nil {
		t.Fatal(err)
	}
	// Post-snapshot records replay on top of the snapshot.
	if _, err := s.Append(testRecord(3)); err != nil {
		t.Fatal(err)
	}
	info := s.Info()
	if info.SnapshotSeq != 3 || info.WALRecords != 1 {
		t.Fatalf("info = %+v, want snapshotSeq 3, walRecords 1", info)
	}
	s.Close()

	s2 := openStore(t, dir)
	st, recs, err := s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if st == nil || st.Seq != 3 || st.Cycles != 3 || st.Time != 180 {
		t.Fatalf("snapshot = %+v", st)
	}
	if len(recs) != 1 || recs[0].Seq != 4 {
		t.Fatalf("tail records = %+v, want single seq 4", recs)
	}
}

// TestSnapshotWithoutRotationSkipsCoveredRecords simulates a crash
// between the snapshot rename and the WAL rotation: the old WAL still
// holds records the snapshot covers, which recovery must skip.
func TestSnapshotWithoutRotationSkipsCoveredRecords(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	for i := 0; i < 3; i++ {
		if _, err := s.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Write the snapshot by hand without rotating the WAL.
	st := &State{Time: 180}
	st.V = SchemaVersion
	st.Seq = s.seq
	data, err := frameState(snapMagic, st)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.writeFileAtomic(s.snapPath(), data); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := openStore(t, dir)
	got, recs, err := s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Seq != 3 {
		t.Fatalf("snapshot = %+v", got)
	}
	if len(recs) != 0 {
		t.Fatalf("covered records replayed: %+v", recs)
	}
	if seq, err := s2.Append(testRecord(3)); err != nil || seq != 4 {
		t.Fatalf("append after covered WAL: seq=%d err=%v", seq, err)
	}
}

func TestTornFinalRecordTruncated(t *testing.T) {
	for _, cut := range []int{1, 5, 9} { // inside header, inside payload
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			s := openStore(t, dir)
			for i := 0; i < 3; i++ {
				if _, err := s.Append(testRecord(i)); err != nil {
					t.Fatal(err)
				}
			}
			s.Close()
			path := filepath.Join(dir, walName)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			intact := data // record boundaries
			// Find the start of the last record by re-walking frames.
			off := len(walMagic)
			last := off
			for off < len(intact) {
				length := binary.LittleEndian.Uint32(intact[off:])
				last = off
				off += frameHeader + int(length)
			}
			torn := intact[:last+cut]
			if err := os.WriteFile(path, torn, 0o644); err != nil {
				t.Fatal(err)
			}

			s2 := openStore(t, dir)
			_, recs, err := s2.Load()
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 2 {
				t.Fatalf("replayed %d records after torn tail, want 2", len(recs))
			}
			// The tail was physically truncated and the log accepts new
			// appends at the right sequence.
			if seq, err := s2.Append(testRecord(9)); err != nil || seq != 3 {
				t.Fatalf("append after truncation: seq=%d err=%v", seq, err)
			}
			s2.Close()
			s3 := openStore(t, dir)
			_, recs, err = s3.Load()
			if err != nil || len(recs) != 3 {
				t.Fatalf("reload after truncate+append: recs=%d err=%v", len(recs), err)
			}
		})
	}
}

func TestMidLogCorruptionFailsLoudlyWithOffset(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	for i := 0; i < 3; i++ {
		if _, err := s.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	path := filepath.Join(dir, walName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of the second record.
	off := len(walMagic)
	first := binary.LittleEndian.Uint32(data[off:])
	second := off + frameHeader + int(first)
	data[second+frameHeader+2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = Open(dir)
	if err == nil {
		t.Fatal("mid-log corruption not detected")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error = %v, want ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("offset %d", second)) {
		t.Fatalf("error %q does not name byte offset %d", err, second)
	}
}

func TestCorruptSnapshotFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if _, err := s.Append(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot(&State{Time: 60}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	path := filepath.Join(dir, snapName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt snapshot: err = %v, want ErrCorrupt", err)
	}
}

func TestNewerSchemaRefused(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	rec := testRecord(0)
	// Bypass Append's stamping to write a future version.
	rec.V = SchemaVersion + 1
	rec.Seq = 1
	frame, err := frameRecord("", &rec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.wal.Write(frame); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := Open(dir); !errors.Is(err, ErrVersion) {
		t.Fatalf("future record version: err = %v, want ErrVersion", err)
	}
}

// TestOpenRemovesStaleTempFiles: a crash between writeFileAtomic's
// create and rename leaves a *.tmp behind; the next Open sweeps it
// instead of letting debris accumulate across crashes.
func TestOpenRemovesStaleTempFiles(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if _, err := s.Append(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	stale := []string{walName + ".tmp", snapName + ".tmp"}
	for _, name := range stale {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("half-written"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2 := openStore(t, dir)
	if _, recs, err := s2.Load(); err != nil || len(recs) != 1 {
		t.Fatalf("load with stale temp files: recs=%d err=%v", len(recs), err)
	}
	for _, name := range stale {
		if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("stale %s survived Open (err=%v)", name, err)
		}
	}
}

// TestAppendErrorPoisonsStore: when a journal write fails in a way the
// store cannot roll back, every further Append and WriteSnapshot must be
// refused — appending after a torn frame would make acknowledged history
// unrecoverable — while records acknowledged before the failure stay
// loadable from a fresh Open.
func TestAppendErrorPoisonsStore(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	for i := 0; i < 2; i++ {
		if _, err := s.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Sabotage the WAL handle: a read-only descriptor fails the write and
	// the fallback truncate, which must poison the store.
	s.wal.Close()
	ro, err := os.Open(s.walPath())
	if err != nil {
		t.Fatal(err)
	}
	s.wal = ro
	if _, err := s.Append(testRecord(2)); err == nil {
		t.Fatal("append over a read-only WAL handle succeeded")
	}
	if s.failed == nil {
		t.Fatal("store not poisoned after unrecoverable append error")
	}
	if _, err := s.Append(testRecord(3)); err == nil || !strings.Contains(err.Error(), "unusable") {
		t.Fatalf("append on poisoned store: err = %v, want unusable", err)
	}
	if err := s.WriteSnapshot(&State{Time: 60}); err == nil || !strings.Contains(err.Error(), "unusable") {
		t.Fatalf("snapshot on poisoned store: err = %v, want unusable", err)
	}
	if info := s.Info(); info.Failed == "" {
		t.Fatal("Info does not surface the poison reason")
	}

	// Everything acknowledged before the failure is still recoverable.
	s2 := openStore(t, dir)
	if _, recs, err := s2.Load(); err != nil || len(recs) != 2 {
		t.Fatalf("reload after poison: recs=%d err=%v", len(recs), err)
	}
}

// TestFrameSizeEnforcedAtWriteTime: a payload larger than the reader
// accepts must fail on the write path — writing it would turn a valid
// state into an unbootable directory at the next Open.
func TestFrameSizeEnforcedAtWriteTime(t *testing.T) {
	if err := checkFrameSize("record", maxFrameBytes); err != nil {
		t.Fatalf("limit-sized payload refused: %v", err)
	}
	err := checkFrameSize("record", maxFrameBytes+1)
	if err == nil || !strings.Contains(err.Error(), "frame limit") {
		t.Fatalf("oversize payload: err = %v, want frame-limit error", err)
	}
}
