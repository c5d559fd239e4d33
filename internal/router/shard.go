package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"hsgf/internal/latency"
	"hsgf/internal/retry"
	"hsgf/internal/serve"
)

// shard is the router's client-side view of one partition: its replica
// set, a circuit breaker guarding the whole replica set, and the latency
// histogram feeding the hedging policy.
type shard struct {
	idx      int
	replicas []*replica
	brk      *serve.Breaker
	lat      latency.Histogram // successful shard-call latencies
	rr       atomic.Uint32     // round-robin replica cursor
}

// healthyReplicas returns the currently-healthy replicas, excluding
// skip. When none are healthy it falls back to the full set (minus
// skip): probes lag real recovery, and sending a request to a
// possibly-dead replica is how passive accounting finds out it is back.
func (sh *shard) healthyReplicas(skip *replica) []*replica {
	out := make([]*replica, 0, len(sh.replicas))
	for _, r := range sh.replicas {
		if r != skip && r.healthy.Load() {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		for _, r := range sh.replicas {
			if r != skip {
				out = append(out, r)
			}
		}
	}
	return out
}

// shardError is a classified failure of one attempt against one
// replica. transport distinguishes connection-level failures (process
// unreachable: counts against replica health) from typed HTTP errors
// (process alive but refusing: 429/503).
type shardError struct {
	replica   string
	status    int
	reason    string
	err       error
	transport bool
}

func (e *shardError) Error() string {
	if e.err != nil {
		return fmt.Sprintf("replica %s: %v", e.replica, e.err)
	}
	return fmt.Sprintf("replica %s: %d %s", e.replica, e.status, e.reason)
}

func (e *shardError) Unwrap() error { return e.err }

// errNoReplicas is the permanent error of a hedged call against a shard
// with no replicas to try; callers key partial-result degradation on
// the call failing, not on this sentinel.
var errNoReplicas = errors.New("router: shard has no replicas")

// attemptOnce sends one POST /v1/features to one replica and classifies
// the outcome:
//   - 200: success; replica marked healthy, latency observed by caller.
//     The body is read whole and scanned (parseShardReply); a body that
//     does not parse counts against the replica like a transport error.
//   - 400: permanent (retrying a malformed request cannot help).
//   - 429/503: retryable with the server's Retry-After hint attached, so
//     the backoff honours the hint instead of its own schedule. The
//     replica answered, so this does NOT count against its health.
//   - transport error / 5xx: retryable; counts toward the replica's
//     consecutive-failure trip wire.
func (s *Server) attemptOnce(ctx context.Context, rep *replica, body []byte) (*shardReply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rep.url+"/v1/features", bytes.NewReader(body))
	if err != nil {
		return nil, retry.Permanent(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			// Cancelled or deadline: not the replica's fault.
			return nil, &shardError{replica: rep.url, err: err}
		}
		rep.reportFailure(s.cfg.FailAfter)
		return nil, &shardError{replica: rep.url, err: err, transport: true}
	}
	defer drainBody(resp)

	if resp.StatusCode == http.StatusOK {
		raw, err := readShardBody(resp)
		if err != nil {
			if ctx.Err() != nil {
				return nil, &shardError{replica: rep.url, err: err}
			}
			rep.reportFailure(s.cfg.FailAfter)
			return nil, &shardError{replica: rep.url, err: err, transport: true}
		}
		reply, fellBack, err := parseShardReply(raw)
		if err != nil {
			rep.reportFailure(s.cfg.FailAfter)
			return nil, &shardError{replica: rep.url, err: fmt.Errorf("undecodable response: %w", err), transport: true}
		}
		if fellBack {
			s.stats.spliceFallbacks.Add(1)
		}
		rep.reportSuccess()
		if reply.generation != 0 {
			rep.generation.Store(reply.generation)
		}
		if cur := rep.fingerprint.Load(); reply.fingerprint != "" && (cur == nil || *cur != reply.fingerprint) {
			fp := reply.fingerprint
			rep.fingerprint.Store(&fp)
		}
		return reply, nil
	}

	reason, hint := parseTypedError(resp)
	se := &shardError{replica: rep.url, status: resp.StatusCode, reason: reason}
	switch {
	case resp.StatusCode == http.StatusBadRequest:
		rep.reportSuccess()
		return nil, retry.Permanent(se)
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		// The process answered; alive, just refusing. Honour its hint.
		rep.reportSuccess()
		if hint > 0 {
			return nil, retry.WithHint(se, hint)
		}
		return nil, se
	default:
		rep.reportFailure(s.cfg.FailAfter)
		se.transport = true
		return nil, se
	}
}

// maxShardResponseBytes bounds a single shard response body (64 MiB);
// a corrupted or adversarial body cannot OOM the router.
const maxShardResponseBytes = 64 << 20

// parseTypedError extracts the stable reason code and retry hint from a
// typed hsgfd error body, falling back to the Retry-After header.
func parseTypedError(resp *http.Response) (reason string, hint time.Duration) {
	var body struct {
		Reason       string `json:"reason"`
		RetryAfterMS int64  `json:"retry_after_ms"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&body); err == nil {
		reason = body.Reason
		if body.RetryAfterMS > 0 {
			hint = time.Duration(body.RetryAfterMS) * time.Millisecond
		}
	}
	if reason == "" {
		reason = http.StatusText(resp.StatusCode)
	}
	if hint == 0 {
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			hint = time.Duration(secs) * time.Second
		}
	}
	return reason, hint
}

// minHedgeSamples gates the estimator: below this, p95 of a handful of
// calls is noise and the configured default delay is used instead.
const minHedgeSamples = 8

// hedgeDelay returns how long to wait on the primary before firing the
// hedge: the p95 of the shard's recent successful calls when enough
// exist (clamped to [HedgeMinDelay, HedgeMaxDelay]), else the
// configured default. A hedge then fires only when the primary is
// slower than 95% of recent calls, so steady-state hedge volume is ~5%
// of requests: enough to cut tail latency, cheap enough to leave on.
func (s *Server) hedgeDelay(sh *shard) time.Duration {
	d, n := sh.lat.Quantile(0.95)
	if n < minHedgeSamples {
		return s.cfg.HedgeDelay
	}
	return min(max(d, s.cfg.HedgeMinDelay), s.cfg.HedgeMaxDelay)
}

// hedgedCall runs one logical attempt against a shard: a primary
// request to one replica and — if the primary has not resolved within
// the p95-derived hedge delay and another replica exists — a hedge to a
// different replica. The first success wins and the loser's context is
// cancelled; if every leg fails, the primary's error is returned (it
// carries the most representative classification for the retry loop).
func (s *Server) hedgedCall(ctx context.Context, sh *shard, body []byte) (*shardReply, error) {
	reps := sh.healthyReplicas(nil)
	if len(reps) == 0 {
		return nil, retry.Permanent(errNoReplicas)
	}
	primary := reps[int(sh.rrNext())%len(reps)]

	type legResult struct {
		reply *shardReply
		err   error
		hedge bool // the leg the hedge timer launched
	}
	ctx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()

	results := make(chan legResult, 2)
	launch := func(rep *replica, hedge bool) {
		start := time.Now()
		reply, err := s.attemptOnce(ctx, rep, body)
		if err == nil {
			sh.lat.Observe(time.Since(start))
		}
		results <- legResult{reply, err, hedge}
	}
	go launch(primary, false)

	legs := 1
	var hedgeTimer *time.Timer
	var hedgeC <-chan time.Time
	if len(sh.replicas) > 1 {
		hedgeTimer = time.NewTimer(s.hedgeDelay(sh))
		defer hedgeTimer.Stop()
		hedgeC = hedgeTimer.C
	}

	var firstErr error
	for {
		select {
		case <-hedgeC:
			hedgeC = nil
			alts := sh.healthyReplicas(primary)
			if len(alts) == 0 {
				continue
			}
			s.stats.hedges.Add(1)
			legs++
			go launch(alts[int(sh.rrNext())%len(alts)], true)
		case res := <-results:
			if res.err == nil {
				// A win is the hedge leg answering first — not the
				// primary answering after the hedge fired.
				if res.hedge {
					s.stats.hedgeWins.Add(1)
				}
				return res.reply, nil
			}
			if firstErr == nil {
				firstErr = res.err
			}
			legs--
			if legs == 0 {
				// Every in-flight leg failed. If the hedge never fired,
				// fire it now as an immediate failover rather than
				// waiting out the timer against a dead primary.
				if hedgeC != nil {
					hedgeC = nil
					if alts := sh.healthyReplicas(primary); len(alts) > 0 {
						s.stats.failovers.Add(1)
						legs++
						go launch(alts[int(sh.rrNext())%len(alts)], false)
						continue
					}
				}
				return nil, firstErr
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// callShard resolves one shard's slice of a batch: run the hedged call
// under the shard's breaker with bounded full-jitter retries, and check
// that the reply holds exactly the requested roots in order. A reply
// failing that check is a failed call.
func (s *Server) callShard(ctx context.Context, sh *shard, roots []int64, req *serve.FeaturesRequest) (*shardReply, error) {
	done, ok := sh.brk.Acquire()
	if !ok {
		s.stats.breakerRejects.Add(1)
		return nil, fmt.Errorf("router: shard %d breaker open", sh.idx)
	}

	body, err := json.Marshal(serve.FeaturesRequest{
		Roots:          roots,
		DeadlineMS:     req.DeadlineMS,
		RootBudget:     req.RootBudget,
		RootDeadlineMS: req.RootDeadlineMS,
	})
	if err != nil {
		done(false)
		return nil, err
	}

	var reply *shardReply
	pol := s.retryPolicy()
	err = pol.Do(ctx, func(ctx context.Context, attempt int) error {
		if attempt > 1 {
			s.stats.retries.Add(1)
		}
		ctx, cancel := context.WithTimeout(ctx, s.cfg.ShardTimeout)
		defer cancel()
		var aerr error
		reply, aerr = s.hedgedCall(ctx, sh, body)
		return aerr
	})
	if err != nil {
		done(true)
		return nil, err
	}
	if len(reply.rows) != len(roots) {
		done(true)
		return nil, fmt.Errorf("router: shard %d returned %d rows for %d roots", sh.idx, len(reply.rows), len(roots))
	}
	for i := range reply.rows {
		if got := reply.rows[i].root; got != roots[i] {
			done(true)
			return nil, fmt.Errorf("router: shard %d row %d is root %d, want %d", sh.idx, i, got, roots[i])
		}
	}
	done(false)
	s.stats.shardCalls.Add(1)
	return reply, nil
}

func (sh *shard) rrNext() uint32 { return sh.rr.Add(1) - 1 }
