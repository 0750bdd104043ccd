package store

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzLoad feeds arbitrary bytes in as wal.log and snapshot.dat. Open
// and Load must refuse what they cannot read without panicking, and
// whatever they load must survive the write path: the snapshot and
// records written to a fresh store with WriteSnapshot and Append load
// back deep-equal, restamped with the fresh store's version and
// sequence numbers. Regressions land as seed corpus entries in
// testdata/fuzz/FuzzLoad, which every plain `go test` replays.
func FuzzLoad(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	corpus := frameCorpus(f)
	if err := s.WriteSnapshot(corpusState(f, corpus[8].Cycle.Placement)); err != nil {
		f.Fatal(err)
	}
	for _, rec := range corpus {
		if _, err := s.Append(rec); err != nil {
			f.Fatal(err)
		}
	}
	s.Close()
	wal, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		f.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(dir, snapName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wal, snap)
	f.Add(wal, []byte(nil))
	f.Add(wal[:len(wal)-3], snap)
	f.Add([]byte(walMagic), snap[:len(snap)-1])
	f.Add([]byte(nil), []byte(nil))

	f.Fuzz(func(t *testing.T, wal, snap []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walName), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		if len(snap) > 0 {
			if err := os.WriteFile(filepath.Join(dir, snapName), snap, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, err := Open(dir)
		if err != nil {
			return // refused without panicking: the contract holds
		}
		st, recs, err := s.Load()
		s.Close()
		if err != nil {
			t.Fatal(err)
		}

		fresh := t.TempDir()
		s2, err := Open(fresh)
		if err != nil {
			t.Fatal(err)
		}
		if st != nil {
			// WriteSnapshot stamps st with the fresh store's version
			// and sequence number, which the reload must then show.
			if err := s2.WriteSnapshot(st); err != nil {
				t.Fatalf("loaded snapshot does not write back: %v", err)
			}
		}
		for i := range recs {
			if _, err := s2.Append(recs[i]); err != nil {
				t.Fatalf("loaded record %d does not append: %v", i, err)
			}
			recs[i].V, recs[i].Seq = SchemaVersion, uint64(i+1)
		}
		s2.Close()
		s3, err := Open(fresh)
		if err != nil {
			t.Fatalf("written back, the state does not open: %v", err)
		}
		defer s3.Close()
		st2, recs2, err := s3.Load()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs2) != len(recs) {
			t.Fatalf("%d records written back, %d reloaded", len(recs), len(recs2))
		}
		dropEmpty(reflect.ValueOf(&st).Elem())
		dropEmpty(reflect.ValueOf(&st2).Elem())
		if !reflect.DeepEqual(st, st2) {
			t.Fatalf("snapshot changed in the round trip:\n got %+v\nwant %+v", st2, st)
		}
		for i := range recs {
			dropEmpty(reflect.ValueOf(&recs[i]).Elem())
			dropEmpty(reflect.ValueOf(&recs2[i]).Elem())
			if !reflect.DeepEqual(recs[i], recs2[i]) {
				t.Fatalf("record %d changed in the round trip:\n got %+v\nwant %+v", i, recs2[i], recs[i])
			}
		}
	})
}

// dropEmpty sets every empty slice and map under v to nil. omitempty
// writes both as an absent field, which decodes as nil, so an empty
// collection in the input comes back nil without anything being lost.
func dropEmpty(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			dropEmpty(v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).CanSet() {
				dropEmpty(v.Field(i))
			}
		}
	case reflect.Slice:
		if v.Len() == 0 {
			v.SetZero()
		}
		for i := 0; i < v.Len(); i++ {
			dropEmpty(v.Index(i))
		}
	case reflect.Map:
		if v.Len() == 0 {
			v.SetZero()
		}
	}
}
