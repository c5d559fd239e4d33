package graph

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadTSV checks that arbitrary input never panics the parser and
// that anything it accepts is a valid graph that round-trips.
func FuzzReadTSV(f *testing.F) {
	f.Add("n\tauthor\nn\tpaper\ne\t0\t1\n")
	f.Add("# comment\nn\ta\tnamed node\n\nn\ta\ne\t0\t1\n")
	f.Add("e\t0\t1\n")
	f.Add("n\t\n")
	f.Add("x\n")
	f.Add(strings.Repeat("n\ta\n", 50) + "e\t0\t49\n")
	// Typed format: directed, multiplex, antiparallel arcs, and a type
	// record after a node record (which must be rejected).
	f.Add("t\tdirected\nn\tp\nn\tp\nn\ta\ne\t1\t0\tcites\ne\t2\t0\twrote\n")
	f.Add("# multiplex\nt\tundirected\nn\tp\tbob\nn\tp\ne\t0\t1\tfriend\ne\t1\t0\tcolleague\ne\t0\t1\tfriend\n")
	f.Add("t\tdirected\nn\ta\nn\ta\ne\t0\t1\tx\ne\t1\t0\tx\n")
	f.Add("n\ta\nt\tdirected\nn\ta\ne\t0\t1\tx\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadTSV(strings.NewReader(input))
		if err != nil {
			return
		}
		if verr := g.Validate(); verr != nil {
			t.Fatalf("accepted graph fails validation: %v", verr)
		}
		var buf bytes.Buffer
		if err := WriteTSV(&buf, g); err != nil {
			t.Fatalf("accepted graph fails to serialise: %v", err)
		}
		g2, err := ReadTSV(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() ||
			g2.Typed() != g.Typed() || g2.Directed() != g.Directed() {
			t.Fatalf("round trip changed shape: %v vs %v", g2, g)
		}
	})
}

// FuzzDecodeGraphBinary checks that arbitrary bytes never panic the
// binary decoder and that anything it accepts is safe to traverse and
// re-encodes to a decodable payload.
func FuzzDecodeGraphBinary(f *testing.F) {
	// Seed with real encodings so the fuzzer starts inside the format.
	b := NewBuilderWithAlphabet(MustAlphabet("author", "paper"))
	for i := 0; i < 8; i++ {
		b.AddLabeledNode(Label(i % 2))
	}
	b.SetName(3, "named")
	for _, e := range [][2]NodeID{{0, 1}, {0, 3}, {2, 5}, {4, 7}, {1, 6}} {
		b.AddEdge(e[0], e[1])
	}
	seedGraph := b.MustBuild()
	if payload, err := EncodeBinary(seedGraph, 0); err == nil {
		f.Add(payload)
		f.Add(payload[:len(payload)/2])
	}
	if payload, err := EncodeBinary(NewBuilder().MustBuild(), 0); err == nil {
		f.Add(payload)
	}
	f.Add([]byte(binMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, _, err := DecodeBinary(data, false)
		if err != nil {
			return
		}
		// Accepted payloads must be safe to traverse in full...
		for v := NodeID(0); int(v) < g.NumNodes(); v++ {
			g.Label(v)
			g.Name(v)
			g.Neighbors(v)
			g.IncidentEdges(v)
			g.NeighborLabelRuns(v)
		}
		g.Edges(func(u, v NodeID) bool { return true })
		// ...and survive a re-encode/decode cycle unchanged in shape.
		payload, err := EncodeBinary(g, 0)
		if err != nil {
			t.Fatalf("accepted graph fails to re-encode: %v", err)
		}
		g2, _, err := DecodeBinary(payload, false)
		if err != nil {
			t.Fatalf("re-encoded payload rejected: %v", err)
		}
		if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() || g2.NumLabels() != g.NumLabels() {
			t.Fatalf("re-encode changed shape: %v vs %v", g2, g)
		}
	})
}
