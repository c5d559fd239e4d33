package core

import "hash/fnv"

// The rolling hash of paper §3.2 ("Hashing Optimization"): every label l
// has its own base b_l, and the raw rolling value of a subgraph node v
// with per-node sequence (t0, t1, ..., tk) is
//
//	h(s_v) = Σ_{i=1..k} t_i · b_{λ(v)}^i  (mod 2^64),
//
// maintained incrementally with precomputed powers exactly as in the
// paper. The paper sums the raw h(s_v) directly; because that sum is
// linear in the typed degrees, structurally common subgraph pairs collide
// (e.g. a claw and a path over the same labels aggregate to the same sum),
// which the paper resolves by comparing encodings inside hash buckets.
// This implementation instead finalises each node's raw value through a
// SplitMix64 mix, salted by the node's label, before summing:
//
//	H(G') = Σ_v mix(h(s_v) ⊕ salt_{λ(v)}).
//
// The mixed sum is still order independent and still updates in O(1) per
// edge (subtract the two endpoints' old mixed contributions, adjust their
// raw values, add the new mixed contributions), but equals for two
// subgraphs only if the multisets of per-node sequences agree — i.e. iff
// the encodings are identical — up to a ~2^-64 accidental collision, so
// the mixed hash can serve directly as the census key.
//
// On an edge-typed graph with m incidence types the per-node sequence
// has k·m typed degrees, t[l·m+c] for neighbour slot l over incidence
// code c, and the exponent of t[i] is i+1. With m = 1 this is the
// formula above: untyped keys do not depend on the generalisation.

// hashSeed seeds the deterministic generation of per-label bases. Bases
// are fixed across runs so feature keys are stable artifacts.
const hashSeed = 0x9e3779b97f4a7c15

// splitmix64 is the SplitMix64 mixing function, used to derive
// deterministic pseudo-random odd bases.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// powerTable precomputes b_l^i for every label slot l and exponent
// i in 0..k·m, where k is the number of label slots and m the number of
// incidence types, along with the per-label salts used by the mixed
// finalisation.
type powerTable struct {
	pow  [][]uint64 // pow[l][i] = base_l^i mod 2^64
	salt []uint64   // salt[l] xor-ed into raw values before mixing
}

func newPowerTable(k, m int) *powerTable {
	t := &powerTable{pow: make([][]uint64, k), salt: make([]uint64, k)}
	for l := 0; l < k; l++ {
		base := splitmix64(hashSeed+uint64(l)) | 1 // odd => full period mod 2^64
		row := make([]uint64, k*m+1)
		row[0] = 1
		for i := 1; i <= k*m; i++ {
			row[i] = row[i-1] * base
		}
		t.pow[l] = row
		t.salt[l] = splitmix64(hashSeed ^ (0xabcd<<32 + uint64(l)))
	}
	return t
}

// term returns the raw rolling-value contribution of one unit in typed
// degree column col (the neighbour's label slot when untyped) for a node
// with label slot nodeLabel, i.e. b_{nodeLabel}^{col+1}.
func (t *powerTable) term(nodeLabel, col int32) uint64 {
	return t.pow[nodeLabel][col+1]
}

// mix finalises a node's raw rolling value into its contribution to the
// subgraph hash.
func (t *powerTable) mix(raw uint64, nodeLabel int32) uint64 {
	return splitmix64(raw ^ t.salt[nodeLabel])
}

// hashSequence computes the mixed subgraph hash of a canonical sequence
// from scratch. The census never calls this in its hot path; it exists so
// tests can verify that incremental maintenance matches a from-scratch
// computation.
func (t *powerTable) hashSequence(s Sequence) uint64 {
	var h uint64
	for n := 0; n < s.NumNodes(); n++ {
		row := s.Node(n)
		var raw uint64
		for col, c := range row[1:] {
			if c != 0 {
				raw += uint64(c) * t.term(row[0], int32(col))
			}
		}
		h += t.mix(raw, row[0])
	}
	return h
}

// fnvSequence hashes the canonical byte rendering of a sequence with
// FNV-64a. This is the "string hashing" alternative the paper describes as
// the straightforward but slower strategy; it is kept as the comparator
// for the hashing ablation.
func fnvSequence(s Sequence) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, v := range s.Values {
		buf[0] = byte(v)
		buf[1] = byte(v >> 8)
		buf[2] = byte(v >> 16)
		buf[3] = byte(v >> 24)
		h.Write(buf[:])
	}
	return h.Sum64()
}
