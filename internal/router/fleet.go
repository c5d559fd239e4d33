package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"hsgf/internal/serve"
)

// Fleet-wide zero-downtime reload.
//
// POST /v1/admin/reload on the router upgrades every shard replica to
// its store's newest verified generation in two phases:
//
//  1. Verify: every replica of every shard runs a verify-only reload
//     (POST /v1/admin/reload?verify=1) — the next generation is built,
//     checksummed and validated off the request path, but NOT swapped
//     in. Every replica of every shard must also agree on what it
//     verified (same generation and fingerprint), since every shard
//     serves the one graph. If anything fails, the protocol aborts here
//     and NOTHING anywhere has changed: a half-upgraded fleet is
//     unrepresentable.
//
//  2. Flip: only after a fully green verify phase, replicas swap
//     shard-by-shard, one replica at a time, so each shard always has
//     replicas serving (the daemon-side swap is itself RCU — in-flight
//     requests finish on their old generation). A flip failure (a
//     replica crashed between phases) aborts the remaining flips and
//     the response reports exactly how far the fleet got.
//
// The whole protocol is single-flight; a concurrent trigger gets 409.

// FleetReloadResponse is the POST /v1/admin/reload body on the router.
type FleetReloadResponse struct {
	// Outcome: "ok", "verify_failed", or "flip_aborted".
	Outcome   string             `json:"outcome"`
	ElapsedMS int64              `json:"elapsed_ms"`
	Shards    []ShardReloadState `json:"shards"`
	// Error describes the first failure for non-ok outcomes.
	Error string `json:"error,omitempty"`
}

// ShardReloadState reports one shard's progress through the protocol.
type ShardReloadState struct {
	Shard    int                  `json:"shard"`
	Replicas []ReplicaReloadState `json:"replicas"`
}

// ReplicaReloadState reports one replica's verify and flip outcomes.
type ReplicaReloadState struct {
	URL string `json:"url"`
	// Verified generation/fingerprint from phase 1.
	Generation  uint64 `json:"generation,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	// Flipped is true once phase 2 swapped this replica.
	Flipped bool   `json:"flipped"`
	Error   string `json:"error,omitempty"`
}

// adminReload performs one reload call against one replica.
func (s *Server) adminReload(ctx context.Context, url string, verifyOnly bool) (*serve.ReloadResponse, error) {
	ctx, cancel := context.WithTimeout(ctx, s.cfg.ReloadTimeout)
	defer cancel()
	target := url + "/v1/admin/reload"
	if verifyOnly {
		target += "?verify=1"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target, bytes.NewReader(nil))
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer drainBody(resp)
	if resp.StatusCode != http.StatusOK {
		reason, _ := parseTypedError(resp)
		return nil, fmt.Errorf("%s: %d %s", target, resp.StatusCode, reason)
	}
	var rr serve.ReloadResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&rr); err != nil {
		return nil, fmt.Errorf("%s: undecodable response: %w", target, err)
	}
	return &rr, nil
}

func (s *Server) handleFleetReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use POST", 0)
		return
	}
	if s.draining.Load() {
		s.writeError(w, http.StatusServiceUnavailable, "draining", "router is draining", time.Second)
		return
	}
	if !s.reloadMu.TryLock() {
		s.writeError(w, http.StatusConflict, "reload_in_progress", "a fleet reload is already running", time.Second)
		return
	}
	defer s.reloadMu.Unlock()

	s.stats.fleetReloads.Add(1)
	start := time.Now()
	resp := s.fleetReload(r.Context())
	resp.ElapsedMS = time.Since(start).Milliseconds()

	status := http.StatusOK
	if resp.Outcome != "ok" {
		s.stats.fleetReloadFailed.Add(1)
		status = http.StatusBadGateway
		s.logf("router: fleet reload %s after %dms: %s", resp.Outcome, resp.ElapsedMS, resp.Error)
	} else {
		s.stats.fleetReloadOK.Add(1)
		s.logf("router: fleet reload ok in %dms", resp.ElapsedMS)
	}
	writeJSON(w, status, resp)
}

// fleetReload runs the two-phase protocol and reports per-replica state.
func (s *Server) fleetReload(ctx context.Context) *FleetReloadResponse {
	resp := &FleetReloadResponse{Outcome: "ok"}
	resp.Shards = make([]ShardReloadState, len(s.shards))
	for i, sh := range s.shards {
		resp.Shards[i].Shard = i
		resp.Shards[i].Replicas = make([]ReplicaReloadState, len(sh.replicas))
		for j, rep := range sh.replicas {
			resp.Shards[i].Replicas[j].URL = rep.url
		}
	}

	// Phase 1: verify everywhere, in parallel across the whole fleet.
	var wg sync.WaitGroup
	for i, sh := range s.shards {
		for j, rep := range sh.replicas {
			wg.Add(1)
			go func(i, j int, rep *replica) {
				defer wg.Done()
				st := &resp.Shards[i].Replicas[j]
				rr, err := s.adminReload(ctx, rep.url, true)
				if err != nil {
					st.Error = err.Error()
					return
				}
				st.Generation, st.Fingerprint = rr.Generation, rr.Fingerprint
			}(i, j, rep)
		}
	}
	wg.Wait()
	for i := range resp.Shards {
		for j := range resp.Shards[i].Replicas {
			if st := &resp.Shards[i].Replicas[j]; st.Error != "" {
				resp.Outcome = "verify_failed"
				resp.Error = fmt.Sprintf("shard %d replica %s failed verification: %s — nothing was flipped", i, st.URL, st.Error)
				return resp
			}
		}
	}
	// Every shard serves the one graph; disagreement on what the next
	// generation is means the stores diverged — refuse to flip.
	first := resp.Shards[0].Replicas[0]
	for i := range resp.Shards {
		for _, st := range resp.Shards[i].Replicas {
			if st.Generation != first.Generation || st.Fingerprint != first.Fingerprint {
				resp.Outcome = "verify_failed"
				resp.Error = fmt.Sprintf(
					"replicas disagree on the next generation (shard 0 %s: %d/%s, shard %d %s: %d/%s) — nothing was flipped",
					first.URL, first.Generation, first.Fingerprint, i, st.URL, st.Generation, st.Fingerprint)
				return resp
			}
		}
	}

	// Phase 2: flip shard-by-shard, one replica at a time, so every
	// shard keeps serving replicas throughout.
	for i, sh := range s.shards {
		for j, rep := range sh.replicas {
			st := &resp.Shards[i].Replicas[j]
			rr, err := s.adminReload(ctx, rep.url, false)
			if err != nil {
				st.Error = err.Error()
				resp.Outcome = "flip_aborted"
				resp.Error = fmt.Sprintf("shard %d replica %s failed to flip after a green verify phase: %v — remaining flips aborted", i, rep.url, err)
				return resp
			}
			st.Flipped = true
			st.Generation, st.Fingerprint = rr.Generation, rr.Fingerprint
			rep.generation.Store(rr.Generation)
			fp := rr.Fingerprint
			rep.fingerprint.Store(&fp)
		}
	}
	return resp
}
