package graph

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The TSV exchange format is line-oriented:
//
//	# comment
//	n <TAB> <label-name> [<TAB> <node-name>]
//	e <TAB> <u> <TAB> <v>
//
// Node IDs are assigned in order of appearance of "n" lines, starting at 0.
// Edge lines reference those implicit IDs. Blank lines are ignored.
//
// The typed format of edge-typed graphs opens with a type record and
// labels every edge; for directed graphs an edge line is the arc u -> v:
//
//	t <TAB> directed|undirected
//	n <TAB> <label-name> [<TAB> <node-name>]
//	e <TAB> <u> <TAB> <v> <TAB> <edge-label-name>
//
// A "t" record anywhere but first is an error, so the two formats never
// mix.

// WriteTSV serializes g in the TSV exchange format. Write failures are
// surfaced at the line that hit them — "writing node 17" rather than a
// bare flush error after the damage — so a mid-stream I/O error on a
// large export names where the output ends.
func WriteTSV(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	var err error
	if g.Typed() {
		mode := "undirected"
		if g.Directed() {
			mode = "directed"
		}
		_, err = fmt.Fprintf(bw, "# hsgf typed graph: %d nodes, %d edges, %d node labels, %d edge labels\nt\t%s\n",
			g.NumNodes(), g.NumEdges(), g.NumLabels(), g.NumEdgeLabels(), mode)
	} else {
		_, err = fmt.Fprintf(bw, "# hsgf graph: %d nodes, %d edges, %d labels\n",
			g.NumNodes(), g.NumEdges(), g.NumLabels())
	}
	if err != nil {
		return fmt.Errorf("graph: writing header: %w", err)
	}
	for v := NodeID(0); int(v) < g.NumNodes(); v++ {
		var err error
		if name := g.Name(v); name != "" {
			_, err = fmt.Fprintf(bw, "n\t%s\t%s\n", g.Alphabet().Name(g.Label(v)), name)
		} else {
			_, err = fmt.Fprintf(bw, "n\t%s\n", g.Alphabet().Name(g.Label(v)))
		}
		if err != nil {
			return fmt.Errorf("graph: writing node %d: %w", v, err)
		}
	}
	var failedEdge [2]NodeID
	if g.Typed() {
		for e := EdgeID(0); int(e) < g.NumEdges(); e++ {
			u, v := g.EdgeEndpoints(e)
			if _, err = fmt.Fprintf(bw, "e\t%d\t%d\t%s\n", u, v, g.edgeAlpha.Name(g.edgeLabels[e])); err != nil {
				failedEdge = [2]NodeID{u, v}
				break
			}
		}
	} else {
		g.Edges(func(u, v NodeID) bool {
			if _, err = fmt.Fprintf(bw, "e\t%d\t%d\n", u, v); err != nil {
				failedEdge = [2]NodeID{u, v}
				return false
			}
			return true
		})
	}
	if err != nil {
		return fmt.Errorf("graph: writing edge %d-%d: %w", failedEdge[0], failedEdge[1], err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("graph: flushing output: %w", err)
	}
	return nil
}

// ReadTSV parses a graph in the TSV exchange format, or in the typed
// format when the first record is a "t" record.
func ReadTSV(r io.Reader) (*Graph, error) {
	b := NewBuilder()
	var tb *TypedBuilder // set by a leading "t" record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo, records := 0, 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimRight(sc.Text(), "\r\n")
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		records++
		fields := strings.Split(line, "\t")
		switch fields[0] {
		case "t":
			if records != 1 {
				return nil, fmt.Errorf("graph: line %d: type record must be the first record", lineNo)
			}
			if len(fields) != 2 || (fields[1] != "directed" && fields[1] != "undirected") {
				return nil, fmt.Errorf("graph: line %d: malformed type record, want directed or undirected", lineNo)
			}
			tb = NewTypedBuilder(fields[1] == "directed")
			b = tb.nodes
		case "n":
			if len(fields) < 2 || len(fields) > 3 {
				return nil, fmt.Errorf("graph: line %d: malformed node line", lineNo)
			}
			name := ""
			if len(fields) == 3 {
				name = fields[2]
			}
			if _, err := b.AddNamedNode(fields[1], name); err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
			}
		case "e":
			want := 3
			if tb != nil {
				want = 4 // plus the edge label
			}
			if len(fields) != want {
				return nil, fmt.Errorf("graph: line %d: malformed edge line", lineNo)
			}
			u, err := parseNodeID(fields[1])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
			}
			v, err := parseNodeID(fields[2])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
			}
			if tb != nil {
				err = tb.AddEdge(u, v, fields[3])
			} else {
				err = b.AddEdge(u, v)
			}
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
			}
		default:
			return nil, fmt.Errorf("graph: line %d: unknown record type %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		// A scanner failure is the input stream dying (I/O error,
		// oversized line), not a malformed record; name it as such so
		// it cannot be mistaken for a parse error in the data.
		return nil, fmt.Errorf("graph: reading input after line %d: %w", lineNo, err)
	}
	if tb != nil {
		return tb.Build()
	}
	return b.Build()
}

// parseNodeID parses a decimal node ID within NodeID's 32-bit range;
// converting a wider integer would wrap it onto an unrelated node. Atoi
// keeps its fast path for short inputs, which ParseInt(s, 10, 32) lacks.
func parseNodeID(s string) (NodeID, error) {
	id, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("bad node id %q: %w", s, errors.Unwrap(err))
	}
	if int(NodeID(id)) != id {
		return 0, fmt.Errorf("bad node id %q: %w", s, strconv.ErrRange)
	}
	return NodeID(id), nil
}
