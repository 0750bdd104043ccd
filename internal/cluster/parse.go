package cluster

import (
	"fmt"
	"strconv"
	"strings"
)

// maxNodes caps the nodes one spec may describe: ten times the largest
// cluster the repository runs, so a mistyped count fails at once rather
// than allocating until the process dies.
const maxNodes = 100000

// ParseNodes builds node definitions from a compact inventory string:
// comma-separated groups of the form "COUNTxCPU/MEM" (CPU in MHz, memory
// in MB), with a bare "CPU/MEM" meaning one node. For example
// "4x3000/4096,1x6400/8192" describes four small nodes and one large one.
// This is the format the dynplaced daemon and the library's
// WithClusterSpec option accept on their command lines.
func ParseNodes(spec string) ([]Node, error) {
	var nodes []Node
	for _, group := range strings.Split(spec, ",") {
		group = strings.TrimSpace(group)
		if group == "" {
			continue
		}
		count := 1
		rest := group
		if x := strings.IndexByte(group, 'x'); x >= 0 {
			n, err := strconv.Atoi(strings.TrimSpace(group[:x]))
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("%w: bad count in group %q", ErrBadNode, group)
			}
			count = n
			rest = group[x+1:]
		}
		cpuStr, memStr, ok := strings.Cut(rest, "/")
		if !ok {
			return nil, fmt.Errorf("%w: group %q needs CPU/MEM", ErrBadNode, group)
		}
		cpu, err := strconv.ParseFloat(strings.TrimSpace(cpuStr), 64)
		if err != nil || !finitePositive(cpu) {
			return nil, fmt.Errorf("%w: bad CPU MHz in group %q", ErrBadNode, group)
		}
		mem, err := strconv.ParseFloat(strings.TrimSpace(memStr), 64)
		if err != nil || !finitePositive(mem) {
			return nil, fmt.Errorf("%w: bad memory MB in group %q", ErrBadNode, group)
		}
		if count > maxNodes-len(nodes) {
			return nil, fmt.Errorf("%w: group %q takes the spec past maxNodes = %d", ErrBadNode, group, maxNodes)
		}
		for i := 0; i < count; i++ {
			nodes = append(nodes, Node{CPUMHz: cpu, MemMB: mem})
		}
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("%w: empty cluster spec %q", ErrBadNode, spec)
	}
	return nodes, nil
}

// Parse builds a cluster directly from a compact inventory string (see
// ParseNodes for the format).
func Parse(spec string) (*Cluster, error) {
	nodes, err := ParseNodes(spec)
	if err != nil {
		return nil, err
	}
	return New(nodes...)
}
