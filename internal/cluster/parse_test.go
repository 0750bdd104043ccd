package cluster

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestParseMixedGroups(t *testing.T) {
	cl, err := Parse("4x3000/4096, 1x6400/8192, 2000/1024")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if cl.Len() != 6 {
		t.Fatalf("Len = %d, want 6", cl.Len())
	}
	if got := cl.TotalCPU(); got != 4*3000+6400+2000 {
		t.Errorf("TotalCPU = %v, want %v", got, 4*3000+6400+2000)
	}
	if got := cl.TotalMem(); got != 4*4096+8192+1024 {
		t.Errorf("TotalMem = %v, want %v", got, 4*4096+8192+1024)
	}
	n, ok := cl.Node(4)
	if !ok || n.CPUMHz != 6400 || n.MemMB != 8192 {
		t.Errorf("node 4 = %+v, want the 6400/8192 node", n)
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"", "  ,  ", "4x3000", "0x3000/4096", "-1x3000/4096",
		"ax3000/4096", "4x-3000/4096", "4x3000/zero", "4x3000/0",
	} {
		if _, err := Parse(spec); !errors.Is(err, ErrBadNode) {
			t.Errorf("Parse(%q) err = %v, want ErrBadNode", spec, err)
		}
	}
}

// TestParseNodeCap: a spec may describe at most maxNodes nodes in all,
// so a mistyped count fails at once instead of exhausting memory.
func TestParseNodeCap(t *testing.T) {
	nodes, err := ParseNodes(fmt.Sprintf("%dx1/1", maxNodes))
	if err != nil || len(nodes) != maxNodes {
		t.Fatalf("ParseNodes at the cap: %d nodes, err %v", len(nodes), err)
	}
	for _, spec := range []string{
		"999999999x1/1",
		fmt.Sprintf("%dx1/1", maxNodes+1),
		fmt.Sprintf("%dx1/1, 1/1", maxNodes),
	} {
		_, err := ParseNodes(spec)
		if !errors.Is(err, ErrBadNode) || !strings.Contains(err.Error(), "maxNodes") {
			t.Errorf("ParseNodes(%.20q): err = %v, want ErrBadNode naming maxNodes", spec, err)
		}
	}
}
