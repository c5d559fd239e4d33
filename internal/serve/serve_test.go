package serve

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hsgf/internal/core"
	"hsgf/internal/graph"
)

// testGraph builds a small labelled graph with enough structure that
// every census is non-trivial.
func testGraph(t testing.TB, n int) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	b := graph.NewBuilderWithAlphabet(graph.MustAlphabet("a", "b", "c"))
	for i := 0; i < n; i++ {
		if _, err := b.AddLabeledNode(graph.Label(rng.Intn(3))); err != nil {
			t.Fatal(err)
		}
	}
	for v := 0; v < n; v++ {
		for k := 0; k < 3; k++ {
			u := rng.Intn(n)
			if u != v {
				if err := b.AddEdge(graph.NodeID(v), graph.NodeID(u)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return b.MustBuild()
}

// newTestServer builds a server over a fresh small graph.
func newTestServer(t testing.TB, cfg Config) (*Server, *core.Extractor) {
	t.Helper()
	ex, err := core.NewExtractor(testGraph(t, 30), core.Options{MaxEdges: 3})
	if err != nil {
		t.Fatal(err)
	}
	return NewServer(ex, cfg), ex
}

// doJSON issues one request against the server's handler and decodes the
// JSON response into out (if non-nil).
func doJSON(t testing.TB, s *Server, method, path, body string, out any) *httptest.ResponseRecorder {
	t.Helper()
	var r *http.Request
	if body == "" {
		r = httptest.NewRequest(method, path, nil)
	} else {
		r = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if out != nil {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: undecodable body %q: %v", method, path, w.Body.String(), err)
		}
	}
	return w
}

// errorBody decodes the shared error envelope WriteJSONError emits.
type errorBody struct {
	Error        ErrorDetail `json:"error"`
	Reason       string      `json:"reason"`
	RetryAfterMS int64       `json:"retry_after_ms"`
}

func errorCode(t testing.TB, w *httptest.ResponseRecorder) string {
	t.Helper()
	var body errorBody
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatalf("undecodable error body %q: %v", w.Body.String(), err)
	}
	return body.Error.Code
}

func TestFeaturesHappyPath(t *testing.T) {
	s, ex := newTestServer(t, Config{})
	var resp FeaturesResponse
	w := doJSON(t, s, http.MethodPost, "/v1/features", `{"roots":[0,1,2]}`, &resp)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if len(resp.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(resp.Rows))
	}
	if resp.Degraded {
		t.Error("unconstrained extraction reported degraded")
	}
	for i, row := range resp.Rows {
		if row.Root != int64(i) {
			t.Errorf("row %d root = %d", i, row.Root)
		}
		if row.Flags != "ok" {
			t.Errorf("row %d flags = %q, want ok", i, row.Flags)
		}
		if row.Subgraphs <= 0 || len(row.Counts) == 0 {
			t.Errorf("row %d empty: %+v", i, row)
		}
	}

	// The responses agree with a direct census on the same extractor.
	direct := ex.Census(0)
	if resp.Rows[0].Subgraphs != direct.Subgraphs {
		t.Errorf("served %d subgraphs for root 0, direct census %d", resp.Rows[0].Subgraphs, direct.Subgraphs)
	}

	if got := s.Stats().completed.Load(); got != 1 {
		t.Errorf("completed = %d, want 1", got)
	}
}

func TestFeaturesBadRequests(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxRootsPerRequest: 4})
	cases := []struct {
		name, body string
		header     map[string]string
	}{
		{name: "invalid JSON", body: `{`},
		{name: "unknown field", body: `{"roots":[0],"bogus":1}`},
		{name: "empty roots", body: `{"roots":[]}`},
		{name: "missing roots", body: `{}`},
		{name: "too many roots", body: `{"roots":[0,1,2,3,4]}`},
		{name: "negative root", body: `{"roots":[-1]}`},
		{name: "root out of range", body: `{"roots":[99999]}`},
		{name: "bad deadline header", body: `{"roots":[0]}`, header: map[string]string{"X-Deadline-Ms": "soon"}},
	}
	for _, tc := range cases {
		r := httptest.NewRequest(http.MethodPost, "/v1/features", strings.NewReader(tc.body))
		for k, v := range tc.header {
			r.Header.Set(k, v)
		}
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, r)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, w.Code)
		}
		if code := errorCode(t, w); code != "bad_request" {
			t.Errorf("%s: code %q, want bad_request", tc.name, code)
		}
	}
	if got := s.Stats().badReq.Load(); got != int64(len(cases)) {
		t.Errorf("badReq = %d, want %d", got, len(cases))
	}
}

func TestFeaturesMethodNotAllowed(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	w := doJSON(t, s, http.MethodGet, "/v1/features", "", nil)
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status %d, want 405", w.Code)
	}
	if code := errorCode(t, w); code != "method_not_allowed" {
		t.Errorf("code %q", code)
	}
}

func TestFeaturesBudgetTruncationIsDegradedNotFailed(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	var resp FeaturesResponse
	w := doJSON(t, s, http.MethodPost, "/v1/features", `{"roots":[0,1],"root_budget":1}`, &resp)
	if w.Code != http.StatusOK {
		t.Fatalf("budget truncation must stay HTTP 200, got %d: %s", w.Code, w.Body.String())
	}
	if !resp.Degraded {
		t.Fatal("response not marked degraded")
	}
	for i, row := range resp.Rows {
		if !strings.Contains(row.Flags, "budget-exceeded") || !row.Truncated {
			t.Errorf("row %d = %+v, want budget-exceeded + truncated", i, row)
		}
	}
	// Budget truncation is deterministic degradation, not overload: the
	// breaker must not count it as a failure.
	if s.Breaker().State() != BreakerClosed {
		t.Errorf("breaker %v after budget truncation, want closed", s.Breaker().State())
	}
	if got := s.Stats().degraded.Load(); got != 1 {
		t.Errorf("degraded = %d, want 1", got)
	}
}

func TestClientCannotExceedServerRootLimits(t *testing.T) {
	s, _ := newTestServer(t, Config{RootBudget: 1})
	var resp FeaturesResponse
	// The client asks for a far larger budget; the server's bound wins.
	doJSON(t, s, http.MethodPost, "/v1/features", `{"roots":[0],"root_budget":1000000}`, &resp)
	if !resp.Degraded || !strings.Contains(resp.Rows[0].Flags, "budget-exceeded") {
		t.Errorf("server RootBudget not enforced: %+v", resp.Rows[0])
	}
}

func TestMeta(t *testing.T) {
	s, ex := newTestServer(t, Config{})
	var meta MetaResponse
	w := doJSON(t, s, http.MethodGet, "/v1/meta", "", &meta)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	g := ex.Graph()
	if meta.Nodes != g.NumNodes() || meta.Edges != g.NumEdges() {
		t.Errorf("meta shape %d/%d, graph %d/%d", meta.Nodes, meta.Edges, g.NumNodes(), g.NumEdges())
	}
	if len(meta.Fingerprint) != 16 {
		t.Errorf("fingerprint %q, want 16 hex chars", meta.Fingerprint)
	}
	if len(meta.SlotNames) != ex.LabelSlots() {
		t.Errorf("slot names %v", meta.SlotNames)
	}
	if meta.MaxEdges != 3 || meta.MaxRootsPerRequest != 256 {
		t.Errorf("limits %+v", meta)
	}

	if w := doJSON(t, s, http.MethodPost, "/v1/meta", "", nil); w.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/meta status %d, want 405", w.Code)
	}

	// Same graph + options ⇒ same fingerprint across servers.
	s2 := NewServer(ex, Config{})
	var meta2 MetaResponse
	doJSON(t, s2, http.MethodGet, "/v1/meta", "", &meta2)
	if meta2.Fingerprint != meta.Fingerprint {
		t.Error("fingerprint not stable across servers over the same extractor")
	}
}

// TestFingerprintCoversEdgeTypes: a typed graph's direction and edge
// labels change feature semantics, so they must change the fingerprint;
// untyped fingerprints are pinned byte-for-byte.
func TestFingerprintCoversEdgeTypes(t *testing.T) {
	labels := []string{"a", "b", "a"}
	untyped := graph.NewBuilder()
	for _, l := range labels {
		untyped.AddNode(l)
	}
	untyped.AddEdge(0, 1)
	untyped.AddEdge(1, 2)
	typed := func(directed bool, el0, el1 string) *graph.Graph {
		b := graph.NewTypedBuilder(directed)
		for _, l := range labels {
			b.AddNode(l)
		}
		b.AddEdge(0, 1, el0)
		b.AddEdge(1, 2, el1)
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	fp := func(g *graph.Graph) string {
		ex, err := core.NewExtractor(g, core.Options{MaxEdges: 2})
		if err != nil {
			t.Fatal(err)
		}
		return fingerprint(ex)
	}

	const pinned = "bdc04c450d22b61d"
	if got := fp(untyped.MustBuild()); got != pinned {
		t.Errorf("untyped fingerprint %s, want %s", got, pinned)
	}
	seen := map[string]string{pinned: "untyped"}
	for name, g := range map[string]*graph.Graph{
		"directed x,y":   typed(true, "x", "y"),
		"undirected x,y": typed(false, "x", "y"),
		"directed x,x":   typed(true, "x", "x"),
	} {
		got := fp(g)
		if prev, dup := seen[got]; dup {
			t.Errorf("%s shares fingerprint %s with %s", name, got, prev)
		}
		seen[got] = name
	}
}

func TestHealthAndReadiness(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	var health map[string]string
	if w := doJSON(t, s, http.MethodGet, "/healthz", "", &health); w.Code != http.StatusOK || health["status"] != "ok" {
		t.Errorf("healthz = %d %v", w.Code, health)
	}
	var ready map[string]any
	if w := doJSON(t, s, http.MethodGet, "/readyz", "", &ready); w.Code != http.StatusOK || ready["status"] != "ready" || ready["breaker"] != "closed" {
		t.Errorf("readyz = %d %v", w.Code, ready)
	}

	s.draining.Store(true)
	if w := doJSON(t, s, http.MethodGet, "/readyz", "", &ready); w.Code != http.StatusServiceUnavailable || ready["status"] != "draining" {
		t.Errorf("draining readyz = %d %v", w.Code, ready)
	}
	// Liveness holds through a drain.
	if w := doJSON(t, s, http.MethodGet, "/healthz", "", &health); w.Code != http.StatusOK {
		t.Errorf("healthz while draining = %d", w.Code)
	}
}

func TestFeaturesRejectedWhileDraining(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	s.draining.Store(true)
	w := doJSON(t, s, http.MethodPost, "/v1/features", `{"roots":[0]}`, nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", w.Code)
	}
	if code := errorCode(t, w); code != "draining" {
		t.Errorf("code %q, want draining", code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("draining rejection missing Retry-After")
	}
}

func TestFeaturesRejectedWhileBreakerOpen(t *testing.T) {
	s, _ := newTestServer(t, Config{Breaker: BreakerConfig{Window: 2, MinSamples: 1, TripRatio: 0.5, Cooldown: time.Hour}})
	// Trip the breaker directly.
	done, ok := s.Breaker().Acquire()
	if !ok {
		t.Fatal("closed breaker refused")
	}
	done(true)
	if s.Breaker().State() != BreakerOpen {
		t.Fatal("breaker not open")
	}

	w := doJSON(t, s, http.MethodPost, "/v1/features", `{"roots":[0]}`, nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", w.Code)
	}
	if code := errorCode(t, w); code != "breaker_open" {
		t.Errorf("code %q, want breaker_open", code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("breaker rejection missing Retry-After")
	}
	if got := s.Stats().tripped.Load(); got != 1 {
		t.Errorf("tripped = %d, want 1", got)
	}
	// Meta and health stay reachable with the breaker open.
	if w := doJSON(t, s, http.MethodGet, "/v1/meta", "", nil); w.Code != http.StatusOK {
		t.Errorf("meta with open breaker = %d", w.Code)
	}
	var ready map[string]any
	if w := doJSON(t, s, http.MethodGet, "/readyz", "", &ready); w.Code != http.StatusOK || ready["breaker"] != "open" {
		t.Errorf("readyz with open breaker = %d %v (open breaker alone must not fail readiness)", w.Code, ready)
	}
}

func TestPanicInHandlerRecovered(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	mux := http.NewServeMux()
	mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) { panic("kaboom") })
	h := s.recoverPanics(mux)

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/boom", nil))
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", w.Code)
	}
	if code := errorCode(t, w); code != "panic" {
		t.Errorf("code %q, want panic", code)
	}
	if got := s.Stats().panicked.Load(); got != 1 {
		t.Errorf("panicked = %d, want 1", got)
	}
}

func TestDebugStats(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	doJSON(t, s, http.MethodPost, "/v1/features", `{"roots":[0,1]}`, nil)
	doJSON(t, s, http.MethodPost, "/v1/features", `{"roots":[]}`, nil)

	var snap StatsSnapshot
	w := doJSON(t, s, http.MethodGet, "/debug/stats", "", &snap)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	if snap.Accepted != 1 || snap.Completed != 1 || snap.BadReq != 1 {
		t.Errorf("snapshot %+v", snap)
	}
	if snap.BreakerState != "closed" || snap.Draining {
		t.Errorf("snapshot state %+v", snap)
	}
	if l := snap.Latency; l.Samples != 1 || l.P50US <= 0 || l.P99US != l.P50US {
		t.Errorf("latency = %+v, want the one completed request", l)
	}
}

func TestRequestDeadlineClamping(t *testing.T) {
	s, _ := newTestServer(t, Config{DefaultDeadline: 10 * time.Second, MaxDeadline: 30 * time.Second})
	if d := s.requestDeadline(0); d != 10*time.Second {
		t.Errorf("default deadline %v", d)
	}
	if d := s.requestDeadline(5000); d != 5*time.Second {
		t.Errorf("client deadline %v", d)
	}
	if d := s.requestDeadline(600000); d != 30*time.Second {
		t.Errorf("uncapped deadline %v", d)
	}
}

func TestRootLimitsResolution(t *testing.T) {
	s, _ := newTestServer(t, Config{RootBudget: 100, RootDeadline: time.Second})
	lim := s.rootLimits(0, 0)
	if lim.Budget != 100 || lim.Deadline != time.Second {
		t.Errorf("defaults %+v", lim)
	}
	lim = s.rootLimits(10, 100)
	if lim.Budget != 10 || lim.Deadline != 100*time.Millisecond {
		t.Errorf("tightened %+v", lim)
	}
	lim = s.rootLimits(1000, 10000)
	if lim.Budget != 100 || lim.Deadline != time.Second {
		t.Errorf("client exceeded server bounds: %+v", lim)
	}
}
