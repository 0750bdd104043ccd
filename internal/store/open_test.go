package store

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dynplace/internal/obs"
)

// frameBytes frames payload as Append would, CRC and all, so a test can
// hand Open a well-framed payload the decoder must still refuse.
func frameBytes(magic, payload string) []byte {
	out := append([]byte(magic), make([]byte, frameHeader)...)
	out = append(out, payload...)
	hdr, body := out[len(magic):], out[len(magic)+frameHeader:]
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(body, castagnoli))
	return out
}

// TestOpenRefusesWhatItCannotRead: every way a state directory can be
// unreadable fails Open with an error naming it, ErrCorrupt or
// ErrVersion where the bytes are at fault, and a WAL whose magic was
// cut short by a crash at creation is recreated instead.
func TestOpenRefusesWhatItCannotRead(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("Open(\"\") succeeded")
	}
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(file); err == nil {
		t.Fatal("Open of a regular file succeeded")
	}

	for _, tc := range []struct {
		name      string
		wal, snap []byte
		want      error
	}{
		{"snapshot magic", nil, []byte("DPSNP99\n"), ErrCorrupt},
		{"snapshot trailing bytes", nil, append(frameBytes(snapMagic, `{"v":1}`), 'x'), ErrCorrupt},
		{"snapshot torn", nil, frameBytes(snapMagic, `{"v":1}`)[:len(snapMagic)+4], ErrCorrupt},
		{"snapshot not JSON", nil, frameBytes(snapMagic, `{"v":`), ErrCorrupt},
		{"snapshot from a newer schema", nil, frameBytes(snapMagic, `{"v":2}`), ErrVersion},
		{"snapshot CRC", nil, func() []byte {
			b := frameBytes(snapMagic, `{"v":1}`)
			b[len(b)-1] ^= 1
			return b
		}(), ErrCorrupt},
		{"WAL magic", []byte("DPWAL99\nxxxx"), nil, ErrCorrupt},
		{"WAL record not JSON", frameBytes(walMagic, `{"seq":`), nil, ErrCorrupt},
		{"WAL sequence gap", frameBytes(walMagic, `{"v":1,"seq":2,"op":"set-load"}`), nil, ErrCorrupt},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if tc.wal != nil {
				if err := os.WriteFile(filepath.Join(dir, walName), tc.wal, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if tc.snap != nil {
				if err := os.WriteFile(filepath.Join(dir, snapName), tc.snap, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := Open(dir); !errors.Is(err, tc.want) {
				t.Fatalf("Open = %v, want %v", err, tc.want)
			}
		})
	}

	// A WAL cut short inside its magic holds nothing committed.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walName), []byte(walMagic[:3]), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openStore(t, dir)
	if seq, err := s.Append(testRecord(0)); err != nil || seq != 1 {
		t.Fatalf("append to a recreated WAL: seq=%d err=%v", seq, err)
	}

	// A header that claims more than any frame may hold, cut off by
	// EOF, is a torn header write: truncated, not refused.
	dir = t.TempDir()
	torn := append(frameBytes(walMagic, `{"v":1,"seq":1,"op":"remove-app","name":"a"}`), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0)
	if err := os.WriteFile(filepath.Join(dir, walName), torn, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, recs, err := openStore(t, dir).Load(); err != nil || len(recs) != 1 {
		t.Fatalf("oversized torn header: %d records, err %v; want 1", len(recs), err)
	}
}

// TestLoadOnce: Load hands the parse over once and releases it.
func TestLoadOnce(t *testing.T) {
	s := openStore(t, t.TempDir())
	if _, _, err := s.Load(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Load(); err == nil {
		t.Fatal("second Load succeeded")
	}
}

// TestInstrumentObservesWritePath: the histograms Instrument installs
// see every Append, every WAL fsync and every WriteSnapshot, and a
// healthy store reports no poison reason.
func TestInstrumentObservesWritePath(t *testing.T) {
	s := openStore(t, t.TempDir())
	bounds := []float64{0.001, 0.01, 0.1, 1}
	appendH, fsyncH, snapH := obs.NewHistogram(bounds), obs.NewHistogram(bounds), obs.NewHistogram(bounds)
	s.Instrument(appendH, fsyncH, snapH)
	for i := 0; i < 2; i++ {
		if _, err := s.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.WriteSnapshot(&State{Time: 120}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		h    *obs.Histogram
		want uint64
	}{{"append", appendH, 2}, {"fsync", fsyncH, 2}, {"snapshot", snapH, 1}} {
		if got := c.h.Snapshot().Count; got != c.want {
			t.Errorf("%s histogram counted %d, want %d", c.name, got, c.want)
		}
	}
	if r := s.FailedReason(); r != "" {
		t.Fatalf("healthy store reports poison %q", r)
	}
}

// TestUnencodableRecordRefused: a record encoding/json refuses fails
// Append before anything reaches the WAL, and the store stays usable.
func TestUnencodableRecordRefused(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if _, err := s.Append(Record{Op: OpSetLoad, Name: "a", Rate: math.NaN()}); err == nil || !strings.Contains(err.Error(), "marshal record") {
		t.Fatalf("append of a NaN rate: err = %v, want a marshal error", err)
	}
	if err := s.WriteSnapshot(&State{Time: math.Inf(1)}); err == nil || !strings.Contains(err.Error(), "marshal snapshot") {
		t.Fatalf("snapshot at +Inf: err = %v, want a marshal error", err)
	}
	if seq, err := s.Append(testRecord(0)); err != nil || seq != 1 {
		t.Fatalf("append after refusals: seq=%d err=%v", seq, err)
	}
}

// TestFailedSnapshotWritesDoNotPoison: a snapshot that cannot be
// written, or a WAL rotation that fails before its rename, leaves the
// old WAL intact, so the store reports the error without poisoning and
// recovery loses nothing acknowledged.
func TestFailedSnapshotWritesDoNotPoison(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if _, err := s.Append(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	// A directory in the temp file's place fails writeFileAtomic's
	// create, before any rename.
	for _, tmp := range []string{snapName + ".tmp", walName + ".tmp"} {
		if err := os.Mkdir(filepath.Join(dir, tmp), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteSnapshot(&State{Time: 60}); err == nil {
			t.Fatalf("snapshot with %s blocked succeeded", tmp)
		}
		if s.FailedReason() != "" {
			t.Fatalf("blocked %s poisoned the store: %s", tmp, s.FailedReason())
		}
		if err := os.Remove(filepath.Join(dir, tmp)); err != nil {
			t.Fatal(err)
		}
	}
	if seq, err := s.Append(testRecord(1)); err != nil || seq != 2 {
		t.Fatalf("append after failed snapshots: seq=%d err=%v", seq, err)
	}
	s.Close()
	st, recs, err := openStore(t, dir).Load()
	if err != nil {
		t.Fatal(err)
	}
	// The second attempt's snapshot landed (seq 1) before its rotation
	// failed, so only the record after it replays.
	if st == nil || st.Seq != 1 || len(recs) != 1 || recs[0].Seq != 2 {
		t.Fatalf("recovered snapshot %+v and %d records, want snapshot seq 1 and record 2", st, len(recs))
	}
}

// TestOpenFailsOnUnremovableDebris: a stale temp file Open cannot
// sweep fails Open rather than being left behind.
func TestOpenFailsOnUnremovableDebris(t *testing.T) {
	dir := t.TempDir()
	blocked := filepath.Join(dir, walName+".tmp")
	if err := os.MkdirAll(filepath.Join(blocked, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "removing stale") {
		t.Fatalf("Open with a non-empty %s: err = %v", blocked, err)
	}
}
