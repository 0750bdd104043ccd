package dynplace

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// FuzzSpecRoundTrip decodes arbitrary bytes as a JobSpec and as a
// WebAppSpec, as the API decodes request bodies. Whenever one compiles,
// compiling its decompiled spec must give the same object again, field
// by field with floats compared by their bits. A job is first shifted
// by offset, as the daemon shifts a relative submission onto its clock;
// a shifted job that no longer compiles is one the daemon refuses. The
// daemon journals the decompiled spec and applies what compiling it
// yields, live and on replay, so a lossy round trip would change live
// decisions. Seeds and regressions live in
// testdata/fuzz/FuzzSpecRoundTrip, which every plain `go test` replays.
func FuzzSpecRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, offset float64) {
		var js JobSpec
		if json.Unmarshal(data, &js) == nil && !math.IsNaN(offset) && !math.IsInf(offset, 0) {
			if job, err := CompileJob(js); err == nil {
				job.Submit += offset
				job.DesiredStart += offset
				job.Deadline += offset
				again, err := CompileJob(JobSpecOf(job))
				if err != nil && offset == 0 {
					t.Fatalf("%s: decompiled job does not compile: %v", data, err)
				}
				if err == nil {
					if field := bitDiff(reflect.ValueOf(job), reflect.ValueOf(again), "job"); field != "" {
						t.Fatalf("%s shifted by %v: round trip changed %s:\n%+v\n%+v", data, offset, field, job, again)
					}
				}
			}
		}
		var ws WebAppSpec
		if json.Unmarshal(data, &ws) == nil {
			if app, err := CompileWebApp(ws); err == nil {
				again, err := CompileWebApp(WebAppSpecOf(app))
				if err != nil {
					t.Fatalf("%s: decompiled web app does not compile: %v", data, err)
				}
				if field := bitDiff(reflect.ValueOf(app), reflect.ValueOf(again), "app"); field != "" {
					t.Fatalf("%s: round trip changed %s:\n%+v\n%+v", data, field, app, again)
				}
			}
		}
	})
}

// bitDiff returns the path of the first field where a and b differ, or
// "" when they agree. Floats are compared by their bits, so -0 and 0
// differ and a NaN equals itself; a nil and an empty slice agree.
func bitDiff(a, b reflect.Value, path string) string {
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path
			}
			return ""
		}
		return bitDiff(a.Elem(), b.Elem(), path)
	case reflect.Struct:
		for i := range a.NumField() {
			if d := bitDiff(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name); d != "" {
				return d
			}
		}
		return ""
	case reflect.Slice:
		if a.Len() != b.Len() {
			return path
		}
		for i := range a.Len() {
			if d := bitDiff(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
		return ""
	case reflect.Float32, reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return path
		}
		return ""
	default:
		if !a.Equal(b) {
			return path
		}
		return ""
	}
}
