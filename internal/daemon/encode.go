package daemon

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"
)

// nullNodes is where json.Marshal puts the node list of a snapshot whose
// Nodes is nil. Its first match is the top-level key: the fields before
// it (cycle, time, web, jobs) have no "nodes" key, and inside a JSON
// string a quote is always escaped.
var nullNodes = []byte(`"nodes":null`)

// nodeBytesGuess is about what one node's object takes, so an encode
// from scratch rarely regrows its buffer.
const nodeBytesGuess = 128

// nodeList is one encoding's node array: the snapshot's views and, for
// each, where its object sits in the encoding. Node i's object is
// b[off[i]:off[i+1]-1]; the byte after each object is its comma or the
// array's closing bracket.
type nodeList struct {
	nodes []NodeView
	b     []byte
	off   []int
}

// encodePlacement returns json.Marshal(snap), and an error exactly when
// json.Marshal errors. The snapshot minus its node list goes through
// json.Marshal; the node list is appended by hand. A node whose view
// equals prev's at the same index is copied from prev's encoding, each
// run of such nodes with one append; the rest are encoded. prev is the
// previous encoding's node list, or nil for a full encode. The result's
// node list locates snap's nodes for the next encode; reencoded counts
// the nodes not copied.
func encodePlacement(snap *PlacementSnapshot, prev *nodeList) (out []byte, list *nodeList, reencoded int, err error) {
	rest := *snap
	rest.Nodes = nil
	head, err := json.Marshal(&rest)
	if err != nil || snap.Nodes == nil {
		return head, nil, 0, err
	}
	at := bytes.Index(head, nullNodes) + len(nullNodes) - len("null")

	nodes := snap.Nodes
	var prevNodes []NodeView
	if prev != nil {
		prevNodes = prev.nodes
	}
	// Pass one encodes the changed nodes into fresh and sizes the
	// output; off[i] holds node i's end in fresh, or -1 if it is
	// copied. Pass two writes the output and sets off to its offsets.
	off := make([]int, len(nodes)+1)
	var fresh []byte
	if prev == nil {
		fresh = make([]byte, 0, nodeBytesGuess*len(nodes))
	}
	size := len(head) - len("null") + len("[]")
	if len(nodes) > 0 {
		size += len(nodes) - 1 // commas
	}
	for i := range nodes {
		if i < len(prevNodes) && sameNode(&nodes[i], &prevNodes[i]) {
			off[i] = -1
			size += prev.off[i+1] - 1 - prev.off[i]
			continue
		}
		if fresh, err = appendNode(fresh, &nodes[i]); err != nil {
			return nil, nil, 0, err
		}
		off[i] = len(fresh)
		reencoded++
	}
	size += len(fresh)

	out = make([]byte, 0, size)
	out = append(out, head[:at]...)
	out = append(out, '[')
	freshAt := 0
	for i := 0; i < len(nodes); {
		if i > 0 {
			out = append(out, ',')
		}
		if end := off[i]; end >= 0 {
			off[i] = len(out)
			out = append(out, fresh[freshAt:end]...)
			freshAt = end
			i++
			continue
		}
		j := i + 1
		for j < len(nodes) && off[j] < 0 {
			j++
		}
		shift := len(out) - prev.off[i]
		out = append(out, prev.b[prev.off[i]:prev.off[j]-1]...)
		for k := i; k < j; k++ {
			off[k] = prev.off[k] + shift
		}
		i = j
	}
	out = append(out, ']')
	off[len(nodes)] = len(out)
	out = append(out, head[at+len("null"):]...)
	return out, &nodeList{nodes: nodes, b: out, off: off}, reencoded, nil
}

// sameNode reports whether two views encode to the same bytes. Floats
// compare by bits, so 0 and -0 differ and a NaN never matches.
func sameNode(a, b *NodeView) bool {
	return a.Name == b.Name && a.State == b.State &&
		math.Float64bits(a.CPUMHz) == math.Float64bits(b.CPUMHz) &&
		math.Float64bits(a.MemMB) == math.Float64bits(b.MemMB) &&
		a.WebInstances == b.WebInstances && a.Jobs == b.Jobs
}

// appendNode appends n's object as json.Marshal writes it.
func appendNode(b []byte, n *NodeView) ([]byte, error) {
	var err error
	b = append(b, `{"name":`...)
	b = appendString(b, n.Name)
	b = append(b, `,"state":`...)
	b = appendString(b, n.State)
	b = append(b, `,"cpuMHz":`...)
	if b, err = appendFloat(b, n.CPUMHz); err != nil {
		return nil, err
	}
	b = append(b, `,"memMB":`...)
	if b, err = appendFloat(b, n.MemMB); err != nil {
		return nil, err
	}
	b = append(b, `,"webInstances":`...)
	b = strconv.AppendInt(b, int64(n.WebInstances), 10)
	b = append(b, `,"jobs":`...)
	b = strconv.AppendInt(b, int64(n.Jobs), 10)
	return append(b, '}'), nil
}

// appendFloat appends f as encoding/json writes a float64: 'f' format,
// or 'e' below 1e-6 and from 1e21 on with a one-digit negative exponent
// unpadded; NaN and ±Inf are the error json.Marshal returns.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 becomes e-7.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string the way json.Marshal writes
// it: <, > and & escaped as \u003c, \u003e and \u0026, U+2028 and
// U+2029 escaped, and each invalid UTF-8 byte written as \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
