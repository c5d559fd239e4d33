// Package core implements heterogeneous subgraph features: the
// characteristic-sequence encoding, the rolling hash, and the rooted
// subgraph census of Spitz et al., "Heterogeneous Subgraph Features for
// Information Networks" (GRADES-NDA'18), §3.
//
// The census enumerates, for a root node v, every connected subgraph of the
// network that contains v and has at most emax edges, and counts the
// occurrences of each subgraph type. Subgraph types are identified by a
// pseudo-canonical encoding — the labelled degree sequence of the subgraph —
// rather than by exact isomorphism, which makes the equality test O(1) via
// hashing. The resulting count vector is the node's feature.
package core

import (
	"fmt"
	"sort"
	"strings"

	"hsgf/internal/graph"
)

// Sequence is the characteristic sequence of a heterogeneous subgraph
// (paper §3.1): the concatenation of per-node sequences, each of length
// k+1 where k is the number of label slots. A per-node sequence is
// (t0, t1, ..., tk) with t0 the node's label and tl the number of the
// node's subgraph-neighbours carrying label l-1. Node sequences are sorted
// in descending lexicographic order, so the Sequence is a canonical form of
// the encoding: two subgraphs have equal encodings iff their Sequences are
// equal.
//
// On an edge-typed graph (graph.TypedBuilder) with m incidence types a
// per-node sequence is (t0, t[0], ..., t[k*m-1]), where t[l*m+c] counts
// subgraph neighbours with label slot l reached over incidence code c.
// With m = 1 this is exactly the paper's encoding.
type Sequence struct {
	K      int     // number of label slots (graph labels, +1 if the root label is masked)
	M      int     // incidence types per label slot; 0 reads as 1 (untyped)
	Values []int32 // len = NumNodes * (1 + K*M)
}

// incidences returns M, reading the zero value as the untyped 1.
func (s Sequence) incidences() int { return max(s.M, 1) }

// stride returns the per-node sequence length 1 + K·M.
func (s Sequence) stride() int { return 1 + s.K*s.incidences() }

// NumNodes returns the number of nodes in the encoded subgraph.
func (s Sequence) NumNodes() int {
	if s.K == 0 {
		return 0
	}
	return len(s.Values) / s.stride()
}

// NumEdges returns the number of edges in the encoded subgraph (half the
// sum of all typed degrees).
func (s Sequence) NumEdges() int {
	sum := 0
	stride := s.stride()
	for n := 0; n < s.NumNodes(); n++ {
		for _, t := range s.Values[n*stride+1 : (n+1)*stride] {
			sum += int(t)
		}
	}
	return sum / 2
}

// Node returns the i-th per-node sequence (label, typed degrees). The
// returned slice aliases s.Values.
func (s Sequence) Node(i int) []int32 {
	stride := s.stride()
	return s.Values[i*stride : (i+1)*stride]
}

// Equal reports whether two sequences encode the same subgraph type.
func (s Sequence) Equal(o Sequence) bool {
	if s.K != o.K || s.incidences() != o.incidences() || len(s.Values) != len(o.Values) {
		return false
	}
	for i, v := range s.Values {
		if v != o.Values[i] {
			return false
		}
	}
	return true
}

// normalize sorts the per-node sequences in descending lexicographic order,
// establishing the canonical form. It mutates s in place.
func (s *Sequence) normalize() {
	stride := s.stride()
	n := s.NumNodes()
	rows := make([][]int32, n)
	for i := 0; i < n; i++ {
		rows[i] = s.Values[i*stride : (i+1)*stride]
	}
	sort.Slice(rows, func(a, b int) bool { return lexGreater(rows[a], rows[b]) })
	out := make([]int32, 0, len(s.Values))
	for _, r := range rows {
		out = append(out, r...)
	}
	s.Values = out
}

func lexGreater(a, b []int32) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] > b[i]
		}
	}
	return false
}

// MaskedLabelName is the display name used for the artificial root label
// when root-label masking is enabled (paper §4.3.2).
const MaskedLabelName = "*"

// String renders the sequence in the paper's compact notation when
// possible (single-character label names and single-digit counts, e.g.
// "z010z010y002"), falling back to an unambiguous delimited form otherwise.
// labelName maps a label slot to its display name; slot K-1 may be the
// masked root label. Typed sequences render through typedString.
func (s Sequence) String(labelName func(int) string) string {
	stride := s.K + 1
	compact := true
	for i := 0; i < s.K; i++ {
		if len(labelName(i)) != 1 {
			compact = false
			break
		}
	}
	if compact {
		for _, v := range s.Values {
			if v > 9 {
				compact = false
				break
			}
		}
	}
	var b strings.Builder
	for n := 0; n < s.NumNodes(); n++ {
		row := s.Values[n*stride : (n+1)*stride]
		if compact {
			b.WriteString(labelName(int(row[0])))
			for _, t := range row[1:] {
				fmt.Fprintf(&b, "%d", t)
			}
		} else {
			if n > 0 {
				b.WriteByte(';')
			}
			b.WriteString(labelName(int(row[0])))
			b.WriteByte('|')
			for j, t := range row[1:] {
				if j > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "%d", t)
			}
		}
	}
	return b.String()
}

// typedString renders a typed sequence with named label slots and
// incidence codes, listing only non-zero counts: "p|p/cites<:2" is a
// "p" node with two "p" neighbours citing it.
func (s Sequence) typedString(slotName func(int) string, incName func(int32) string) string {
	m := s.incidences()
	var b strings.Builder
	for n := 0; n < s.NumNodes(); n++ {
		if n > 0 {
			b.WriteByte(';')
		}
		row := s.Node(n)
		b.WriteString(slotName(int(row[0])))
		b.WriteByte('|')
		first := true
		for i, t := range row[1:] {
			if t == 0 {
				continue
			}
			if !first {
				b.WriteByte(',')
			}
			first = false
			fmt.Fprintf(&b, "%s/%s:%d", slotName(i/m), incName(int32(i%m)), t)
		}
	}
	return b.String()
}

// SequenceOf computes the canonical characteristic sequence of an explicit
// subgraph of g, given by its node set and edge set (pairs of nodes). It is
// the reference implementation used to validate the incremental census and
// to encode user-supplied subgraphs. rootLabelOverride, if >= 0, replaces
// the label of root (root-label masking); pass root < 0 to disable.
//
// k is the number of label slots the encoding should use; it must be at
// least g.NumLabels(), and at least rootLabelOverride+1.
func SequenceOf(g *graph.Graph, nodes []graph.NodeID, edges [][2]graph.NodeID, k int, root graph.NodeID, rootLabelOverride graph.Label) Sequence {
	stride := k + 1
	idx := make(map[graph.NodeID]int, len(nodes))
	vals := make([]int32, len(nodes)*stride)
	labelOf := func(v graph.NodeID) graph.Label {
		if rootLabelOverride >= 0 && v == root {
			return rootLabelOverride
		}
		return g.Label(v)
	}
	for i, v := range nodes {
		idx[v] = i
		vals[i*stride] = int32(labelOf(v))
	}
	for _, e := range edges {
		a, b := idx[e[0]], idx[e[1]]
		vals[a*stride+1+int(labelOf(e[1]))]++
		vals[b*stride+1+int(labelOf(e[0]))]++
	}
	s := Sequence{K: k, Values: vals}
	s.normalize()
	return s
}

// ParseCompact parses a sequence in the compact notation produced by
// String for single-character alphabets (e.g. "z010z010y002"). It is the
// inverse used by tooling that round-trips feature names. labelIndex maps
// a single-character label name to its slot.
func ParseCompact(enc string, k int, labelIndex func(string) (int, bool)) (Sequence, error) {
	stride := k + 1
	if len(enc)%stride != 0 {
		return Sequence{}, fmt.Errorf("core: encoding %q length %d not divisible by node width %d", enc, len(enc), stride)
	}
	n := len(enc) / stride
	vals := make([]int32, 0, n*stride)
	for i := 0; i < n; i++ {
		chunk := enc[i*stride : (i+1)*stride]
		l, ok := labelIndex(chunk[:1])
		if !ok {
			return Sequence{}, fmt.Errorf("core: unknown label %q in encoding %q", chunk[:1], enc)
		}
		vals = append(vals, int32(l))
		for _, c := range chunk[1:] {
			if c < '0' || c > '9' {
				return Sequence{}, fmt.Errorf("core: bad count digit %q in encoding %q", c, enc)
			}
			vals = append(vals, int32(c-'0'))
		}
	}
	s := Sequence{K: k, Values: vals}
	s.normalize()
	return s, nil
}
