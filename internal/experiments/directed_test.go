package experiments

import (
	"testing"

	"hsgf/internal/datagen"
	"hsgf/internal/graph"
)

func TestRunDirectedTypedBeatsUndirected(t *testing.T) {
	cfg := DefaultDirectedConfig()
	cfg.Citation.Papers = 400
	cfg.PerRole = 40
	cfg.Repeats = 5
	res, err := RunDirected(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SampleSize == 0 || res.Roles != datagen.NumRoles {
		t.Fatalf("bad result shape: %+v", res)
	}
	if res.DirectedF1 < 0 || res.DirectedF1 > 1 || res.UndirectedF1 < 0 || res.UndirectedF1 > 1 {
		t.Fatalf("F1 out of range: %+v", res)
	}
	// The §5 conjecture at work: roles are constructed so only edge
	// directions separate them; the typed census must clearly win.
	if res.DirectedF1 <= res.UndirectedF1+0.1 {
		t.Errorf("directed F1 %.3f does not clearly beat undirected %.3f",
			res.DirectedF1, res.UndirectedF1)
	}
	if res.DirectedF1 < 0.7 {
		t.Errorf("directed F1 %.3f unexpectedly weak", res.DirectedF1)
	}
}

func TestGenerateCitationValidation(t *testing.T) {
	bad := datagen.DefaultCitationConfig()
	bad.Papers = 5
	if _, err := datagen.GenerateCitation(bad); err == nil {
		t.Error("tiny network must fail")
	}
	bad = datagen.DefaultCitationConfig()
	bad.SurveyFrac = 0.7
	bad.ClassicFrac = 0.5
	if _, err := datagen.GenerateCitation(bad); err == nil {
		t.Error("role fractions >= 1 must fail")
	}
}

func TestCitationNetworkRoles(t *testing.T) {
	cfg := datagen.DefaultCitationConfig()
	cfg.Papers = 300
	net, err := datagen.GenerateCitation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(net.Roles) != cfg.Papers {
		t.Fatalf("roles = %d, want %d", len(net.Roles), cfg.Papers)
	}
	counts := make([]int, datagen.NumRoles)
	for _, r := range net.Roles {
		counts[r]++
	}
	for r, c := range counts {
		if c == 0 {
			t.Errorf("role %s absent", datagen.RoleNames[r])
		}
	}
	if !net.Graph.Directed() {
		t.Fatal("citation network must be directed")
	}
	// Surveys must out-cite classics on average (out-degree signal).
	outDeg := func(role int) float64 {
		var sum, n float64
		for i, r := range net.Roles {
			if r != role {
				continue
			}
			v := graph.NodeID(i)
			for _, e := range net.Graph.IncidentEdges(v) {
				if net.Graph.IncidenceCode(e, v)%2 == 0 { // outgoing
					sum++
				}
			}
			n++
		}
		return sum / n
	}
	if outDeg(datagen.RoleSurvey) <= outDeg(datagen.RoleClassic) {
		t.Error("surveys should out-cite classics")
	}

	und, err := net.Undirected()
	if err != nil {
		t.Fatal(err)
	}
	if und.NumNodes() != net.Graph.NumNodes() || und.NumEdges() != net.Graph.NumEdges() {
		t.Fatal("undirected collapse changes sizes")
	}
}
