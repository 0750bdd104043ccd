package cluster

import (
	"strconv"
	"strings"
	"testing"
)

// FuzzParseNodes feeds arbitrary strings to ParseNodes. It must refuse
// what it cannot parse without panicking or exhausting memory, and
// whatever it accepts must be a usable cluster: every node has finite,
// positive CPU and memory, and there are exactly as many nodes as the
// groups' counts add up to, at most maxNodes. Regressions land as seed
// corpus entries in testdata/fuzz/FuzzParseNodes, which every plain
// `go test` replays.
func FuzzParseNodes(f *testing.F) {
	for _, spec := range []string{
		"4x3000/4096,1x6400/8192",
		" 2x 1e3 / 512 , 7/7 ,, ",
		"0x1/1", "1x1", "x1/1", "1/1/1", "1e309/1", "0x1p4/0x10",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		nodes, err := ParseNodes(spec)
		if err != nil {
			return
		}
		for i, n := range nodes {
			if !finitePositive(n.CPUMHz) || !finitePositive(n.MemMB) {
				t.Fatalf("%q: node %d has %v MHz, %v MB", spec, i, n.CPUMHz, n.MemMB)
			}
		}
		want := 0
		for _, group := range strings.Split(spec, ",") {
			group = strings.TrimSpace(group)
			if group == "" {
				continue
			}
			count := 1
			if x := strings.IndexByte(group, 'x'); x >= 0 {
				if count, err = strconv.Atoi(strings.TrimSpace(group[:x])); err != nil {
					t.Fatalf("%q: accepted group %q with count %q", spec, group, group[:x])
				}
			}
			want += count
		}
		if len(nodes) != want || want > maxNodes {
			t.Fatalf("%q: %d nodes, groups count %d (cap %d)", spec, len(nodes), want, maxNodes)
		}
	})
}
