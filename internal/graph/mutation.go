package graph

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// This file is the mutation layer of the streaming-ingest subsystem: a
// typed Mutation record, a compact binary codec for batches of them
// (the payload the write-ahead log frames), and an Overlay — a mutable
// view over the immutable CSR Graph that validates each mutation
// against the combined base+delta state with the same invariants
// Graph.Validate enforces (no self loops, no parallel edges, in-range
// endpoints, known labels) and freezes back into a Graph on demand.

// MutationOp enumerates the streaming graph mutations.
type MutationOp uint8

const (
	// OpAddNode appends a node carrying Label (and optional Name).
	OpAddNode MutationOp = iota + 1
	// OpAddEdge inserts the undirected edge U-V.
	OpAddEdge
	// OpRemoveEdge deletes the undirected edge U-V.
	OpRemoveEdge
	// OpRelabel changes node U's label to Label.
	OpRelabel
)

// String returns the wire name of the operation (the JSON "op" field of
// the ingest API).
func (op MutationOp) String() string {
	switch op {
	case OpAddNode:
		return "add_node"
	case OpAddEdge:
		return "add_edge"
	case OpRemoveEdge:
		return "remove_edge"
	case OpRelabel:
		return "relabel"
	default:
		return fmt.Sprintf("MutationOp(%d)", uint8(op))
	}
}

// ParseMutationOp inverts MutationOp.String.
func ParseMutationOp(s string) (MutationOp, error) {
	switch s {
	case "add_node":
		return OpAddNode, nil
	case "add_edge":
		return OpAddEdge, nil
	case "remove_edge":
		return OpRemoveEdge, nil
	case "relabel":
		return OpRelabel, nil
	default:
		return 0, fmt.Errorf("graph: unknown mutation op %q", s)
	}
}

// Mutation is one streaming graph mutation.
type Mutation struct {
	Op MutationOp
	// U, V are the endpoints for OpAddEdge/OpRemoveEdge; U is the
	// target node for OpRelabel. Both are unused for OpAddNode (the new
	// node's ID is assigned by application order).
	U, V NodeID
	// Label is the label name for OpAddNode and OpRelabel.
	Label string
	// Name is the optional node name for OpAddNode.
	Name string
}

// Mutation-batch codec limits. Bounds exist so the decoder never
// allocates proportionally to attacker-controlled lengths it has not
// yet verified against the remaining input.
const (
	mutationCodecVersion = 1
	// MaxBatchID bounds the client idempotency key.
	MaxBatchID = 128
	// maxMutationString bounds label and node names inside a batch.
	maxMutationString = 4096
)

// ErrBadMutationBatch marks a mutation-batch payload that does not
// decode; every DecodeMutations failure wraps it.
var ErrBadMutationBatch = errors.New("graph: bad mutation batch")

func badBatchf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadMutationBatch, fmt.Sprintf(format, args...))
}

// EncodeMutations serialises a batch — the client's idempotency key and
// its mutations, in application order — into the canonical binary
// payload framed by the write-ahead log:
//
//	version u8 | idLen u16 | batchID | count u32
//	per mutation: op u8 | fields
//	  add_node:    labelLen u16 | label | nameLen u16 | name
//	  add_edge:    u u32 | v u32
//	  remove_edge: u u32 | v u32
//	  relabel:     u u32 | labelLen u16 | label
//
// All integers are little-endian. The encoding is canonical: decoding
// and re-encoding an accepted payload reproduces the input bytes,
// which the WAL fuzz harness relies on.
func EncodeMutations(batchID string, muts []Mutation) ([]byte, error) {
	if batchID == "" || len(batchID) > MaxBatchID {
		return nil, fmt.Errorf("graph: batch id must be 1-%d bytes, got %d", MaxBatchID, len(batchID))
	}
	buf := make([]byte, 0, 8+len(batchID)+len(muts)*10)
	buf = append(buf, mutationCodecVersion)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(batchID)))
	buf = append(buf, batchID...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(muts)))
	appendString := func(s string) error {
		if len(s) > maxMutationString {
			return fmt.Errorf("graph: mutation string of %d bytes exceeds the %d limit", len(s), maxMutationString)
		}
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
		buf = append(buf, s...)
		return nil
	}
	for i, m := range muts {
		buf = append(buf, byte(m.Op))
		switch m.Op {
		case OpAddNode:
			if m.Label == "" {
				return nil, fmt.Errorf("graph: mutation %d: add_node needs a label", i)
			}
			if err := appendString(m.Label); err != nil {
				return nil, err
			}
			if err := appendString(m.Name); err != nil {
				return nil, err
			}
		case OpAddEdge, OpRemoveEdge:
			if m.U < 0 || m.V < 0 {
				return nil, fmt.Errorf("graph: mutation %d: negative endpoint", i)
			}
			buf = binary.LittleEndian.AppendUint32(buf, uint32(m.U))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(m.V))
		case OpRelabel:
			if m.U < 0 {
				return nil, fmt.Errorf("graph: mutation %d: negative node", i)
			}
			if m.Label == "" {
				return nil, fmt.Errorf("graph: mutation %d: relabel needs a label", i)
			}
			buf = binary.LittleEndian.AppendUint32(buf, uint32(m.U))
			if err := appendString(m.Label); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("graph: mutation %d: unknown op %d", i, m.Op)
		}
	}
	return buf, nil
}

// DecodeMutations parses a payload written by EncodeMutations. It
// never panics on arbitrary input: every length is checked against the
// remaining bytes before use, unknown ops and trailing garbage are
// errors, and all failures wrap ErrBadMutationBatch.
func DecodeMutations(data []byte) (batchID string, muts []Mutation, err error) {
	pos := 0
	need := func(n int) bool { return len(data)-pos >= n }
	if !need(3) {
		return "", nil, badBatchf("%d bytes is shorter than the smallest batch header", len(data))
	}
	if v := data[pos]; v != mutationCodecVersion {
		return "", nil, badBatchf("codec version %d, reader supports %d", v, mutationCodecVersion)
	}
	pos++
	idLen := int(binary.LittleEndian.Uint16(data[pos:]))
	pos += 2
	if idLen == 0 || idLen > MaxBatchID || !need(idLen) {
		return "", nil, badBatchf("batch id length %d out of range", idLen)
	}
	batchID = string(data[pos : pos+idLen])
	pos += idLen
	if !need(4) {
		return "", nil, badBatchf("truncated mutation count")
	}
	count := int(binary.LittleEndian.Uint32(data[pos:]))
	pos += 4
	// Every mutation occupies at least one op byte; anything claiming
	// more mutations than remaining bytes is corrupt, and the bound
	// keeps the slice allocation honest.
	if count > len(data)-pos {
		return "", nil, badBatchf("mutation count %d exceeds remaining %d bytes", count, len(data)-pos)
	}
	readString := func(what string) (string, error) {
		if !need(2) {
			return "", badBatchf("truncated %s length", what)
		}
		n := int(binary.LittleEndian.Uint16(data[pos:]))
		pos += 2
		if n > maxMutationString || !need(n) {
			return "", badBatchf("%s length %d out of range", what, n)
		}
		s := string(data[pos : pos+n])
		pos += n
		return s, nil
	}
	muts = make([]Mutation, 0, count)
	for i := 0; i < count; i++ {
		if !need(1) {
			return "", nil, badBatchf("mutation %d: truncated op", i)
		}
		m := Mutation{Op: MutationOp(data[pos])}
		pos++
		switch m.Op {
		case OpAddNode:
			if m.Label, err = readString("label"); err != nil {
				return "", nil, err
			}
			if m.Label == "" {
				return "", nil, badBatchf("mutation %d: empty add_node label", i)
			}
			if m.Name, err = readString("name"); err != nil {
				return "", nil, err
			}
		case OpAddEdge, OpRemoveEdge:
			if !need(8) {
				return "", nil, badBatchf("mutation %d: truncated endpoints", i)
			}
			m.U = NodeID(binary.LittleEndian.Uint32(data[pos:]))
			m.V = NodeID(binary.LittleEndian.Uint32(data[pos+4:]))
			pos += 8
			if m.U < 0 || m.V < 0 {
				return "", nil, badBatchf("mutation %d: endpoint outside NodeID range", i)
			}
		case OpRelabel:
			if !need(4) {
				return "", nil, badBatchf("mutation %d: truncated node", i)
			}
			m.U = NodeID(binary.LittleEndian.Uint32(data[pos:]))
			pos += 4
			if m.U < 0 {
				return "", nil, badBatchf("mutation %d: node outside NodeID range", i)
			}
			if m.Label, err = readString("label"); err != nil {
				return "", nil, err
			}
			if m.Label == "" {
				return "", nil, badBatchf("mutation %d: empty relabel label", i)
			}
		default:
			return "", nil, badBatchf("mutation %d: unknown op %d", i, uint8(m.Op))
		}
		muts = append(muts, m)
	}
	if pos != len(data) {
		return "", nil, badBatchf("%d trailing bytes after the last mutation", len(data)-pos)
	}
	return batchID, muts, nil
}

// Overlay is a mutable delta over an immutable base Graph: added nodes,
// added and removed edges, and relabels, validated mutation by mutation
// against the combined state. An Overlay is not safe for concurrent
// use. Materialize freezes the combined state into a fresh immutable
// Graph; the base is never modified.
//
// The overlay deliberately cannot grow the label alphabet: the census
// encoding's label-slot count k is part of feature semantics (and of
// every persisted FeatureSet), so a label unknown to the base graph's
// alphabet is a validation error, exactly like Builder with a fixed
// alphabet.
type Overlay struct {
	base *Graph

	// labels covers all nodes, base and added; the base prefix is copied
	// once at construction (O(V), far below Materialize's cost). names
	// holds only the added nodes' names, at v - base.NumNodes(): base
	// nodes keep theirs in base, since no mutation renames a node.
	labels []Label
	names  []string

	added   map[[2]NodeID]struct{} // normalised u < v
	removed map[[2]NodeID]struct{}

	touched map[NodeID]struct{}
}

// NewOverlay returns an empty overlay over base.
func NewOverlay(base *Graph) *Overlay {
	o := &Overlay{
		base:    base,
		labels:  make([]Label, base.NumNodes()),
		added:   make(map[[2]NodeID]struct{}),
		removed: make(map[[2]NodeID]struct{}),
		touched: make(map[NodeID]struct{}),
	}
	for v := range o.labels {
		o.labels[v] = base.Label(NodeID(v))
	}
	return o
}

// NumNodes returns the node count of the combined state.
func (o *Overlay) NumNodes() int { return len(o.labels) }

// NumEdges returns the edge count of the combined state.
func (o *Overlay) NumEdges() int { return o.base.NumEdges() - len(o.removed) + len(o.added) }

// Label returns node v's effective label.
func (o *Overlay) Label(v NodeID) Label { return o.labels[v] }

// name returns node v's name, "" when it has none.
func (o *Overlay) name(v NodeID) string {
	if nb := NodeID(o.base.NumNodes()); v >= nb {
		return o.names[v-nb]
	}
	return o.base.Name(v)
}

// EdgeEdits returns how many edge entries the overlay holds: edges
// added over the base plus base edges removed. Beside the O(V) label
// copy, they are what an overlay's memory grows with.
func (o *Overlay) EdgeEdits() int { return len(o.added) + len(o.removed) }

// HasEdge reports adjacency in the combined state.
func (o *Overlay) HasEdge(u, v NodeID) bool {
	if u == v || int(u) >= o.NumNodes() || int(v) >= o.NumNodes() || u < 0 || v < 0 {
		return false
	}
	k := edgeKey(u, v)
	if _, ok := o.added[k]; ok {
		return true
	}
	if _, ok := o.removed[k]; ok {
		return false
	}
	if int(u) >= o.base.NumNodes() || int(v) >= o.base.NumNodes() {
		return false
	}
	return o.base.HasEdge(u, v)
}

func edgeKey(u, v NodeID) [2]NodeID {
	if u > v {
		u, v = v, u
	}
	return [2]NodeID{u, v}
}

// AddNode appends a node with the given label name (which must exist in
// the base alphabet) and optional name, returning its ID.
func (o *Overlay) AddNode(labelName, nodeName string) (NodeID, error) {
	l, ok := o.base.Alphabet().Lookup(labelName)
	if !ok {
		return 0, fmt.Errorf("graph: unknown label %q", labelName)
	}
	id := NodeID(len(o.labels))
	o.labels = append(o.labels, l)
	o.names = append(o.names, nodeName)
	o.touched[id] = struct{}{}
	return id, nil
}

// checkEndpoints validates an edge mutation's endpoints against the
// combined state, mirroring Builder.AddEdge and Graph.Validate.
func (o *Overlay) checkEndpoints(u, v NodeID) error {
	if u == v {
		return fmt.Errorf("graph: self loop at node %d", u)
	}
	n := NodeID(len(o.labels))
	if u < 0 || v < 0 || u >= n || v >= n {
		return fmt.Errorf("graph: edge %d-%d references unknown node (have %d nodes)", u, v, n)
	}
	return nil
}

// AddEdge inserts the undirected edge u-v. A duplicate of an existing
// edge is an error — a streaming source re-sending an edge is a bug the
// caller must surface, not silently coalesce (batch-level idempotency
// lives in the write-ahead log, not here).
func (o *Overlay) AddEdge(u, v NodeID) error {
	if err := o.checkEndpoints(u, v); err != nil {
		return err
	}
	if o.HasEdge(u, v) {
		return fmt.Errorf("graph: duplicate edge %d-%d", u, v)
	}
	k := edgeKey(u, v)
	if _, ok := o.removed[k]; ok {
		delete(o.removed, k) // re-adding a removed base edge
	} else {
		o.added[k] = struct{}{}
	}
	o.touched[u] = struct{}{}
	o.touched[v] = struct{}{}
	return nil
}

// RemoveEdge deletes the undirected edge u-v; removing an absent edge
// is an error.
func (o *Overlay) RemoveEdge(u, v NodeID) error {
	if err := o.checkEndpoints(u, v); err != nil {
		return err
	}
	if !o.HasEdge(u, v) {
		return fmt.Errorf("graph: edge %d-%d does not exist", u, v)
	}
	k := edgeKey(u, v)
	if _, ok := o.added[k]; ok {
		delete(o.added, k) // removing an overlay-added edge
	} else {
		o.removed[k] = struct{}{}
	}
	o.touched[u] = struct{}{}
	o.touched[v] = struct{}{}
	return nil
}

// Relabel changes node v's label. Relabelling to the node's current
// label is a no-op (and does not mark v touched).
func (o *Overlay) Relabel(v NodeID, labelName string) error {
	if v < 0 || int(v) >= len(o.labels) {
		return fmt.Errorf("graph: relabel of unknown node %d (have %d nodes)", v, len(o.labels))
	}
	l, ok := o.base.Alphabet().Lookup(labelName)
	if !ok {
		return fmt.Errorf("graph: unknown label %q", labelName)
	}
	if o.labels[v] == l {
		return nil
	}
	o.labels[v] = l
	o.touched[v] = struct{}{}
	return nil
}

// Apply dispatches one Mutation. On error the overlay is unchanged.
// Mutations carry no edge label or direction, so an overlay over a
// typed base refuses them (ErrEdgeTyped).
func (o *Overlay) Apply(m Mutation) error {
	if err := o.base.RequireUntyped("graph: overlay"); err != nil {
		return err
	}
	switch m.Op {
	case OpAddNode:
		_, err := o.AddNode(m.Label, m.Name)
		return err
	case OpAddEdge:
		return o.AddEdge(m.U, m.V)
	case OpRemoveEdge:
		return o.RemoveEdge(m.U, m.V)
	case OpRelabel:
		return o.Relabel(m.U, m.Label)
	default:
		return fmt.Errorf("graph: unknown mutation op %d", uint8(m.Op))
	}
}

// Check reports whether Apply would accept every mutation of muts in
// order, without changing the overlay: the same invariants, including
// references to nodes the batch itself adds and edges it adds or
// removes earlier in the batch. The first refused mutation's error is
// returned, numbered by its index in muts. The router checks each
// client batch this way before the batch takes a fleet sequence: once
// sequenced, a batch must apply cleanly on every shard.
func (o *Overlay) Check(muts []Mutation) error {
	if err := o.base.RequireUntyped("graph: overlay"); err != nil {
		return err
	}
	next := NodeID(len(o.labels))
	// edits maps each edge the batch touched to its presence after the
	// mutations checked so far.
	edits := make(map[[2]NodeID]bool)
	for i, m := range muts {
		switch m.Op {
		case OpAddNode:
			if _, ok := o.base.Alphabet().Lookup(m.Label); !ok {
				return fmt.Errorf("mutation %d: unknown label %q", i, m.Label)
			}
			next++
		case OpAddEdge, OpRemoveEdge:
			if m.U == m.V {
				return fmt.Errorf("mutation %d: self loop at node %d", i, m.U)
			}
			if m.U < 0 || m.V < 0 || m.U >= next || m.V >= next {
				return fmt.Errorf("mutation %d: edge %d-%d references unknown node (have %d nodes)", i, m.U, m.V, next)
			}
			k := edgeKey(m.U, m.V)
			present, ok := edits[k]
			if !ok {
				present = o.HasEdge(m.U, m.V)
			}
			if m.Op == OpAddEdge && present {
				return fmt.Errorf("mutation %d: duplicate edge %d-%d", i, m.U, m.V)
			}
			if m.Op == OpRemoveEdge && !present {
				return fmt.Errorf("mutation %d: edge %d-%d does not exist", i, m.U, m.V)
			}
			edits[k] = m.Op == OpAddEdge
		case OpRelabel:
			if m.U < 0 || m.U >= next {
				return fmt.Errorf("mutation %d: relabel of unknown node %d (have %d nodes)", i, m.U, next)
			}
			if _, ok := o.base.Alphabet().Lookup(m.Label); !ok {
				return fmt.Errorf("mutation %d: unknown label %q", i, m.Label)
			}
		default:
			return fmt.Errorf("mutation %d: unknown op %d", i, uint8(m.Op))
		}
	}
	return nil
}

// Dirty reports whether any mutation changed the combined state.
func (o *Overlay) Dirty() bool { return len(o.touched) > 0 }

// Touched returns the nodes whose incident structure or label changed —
// edge endpoints, relabelled nodes, added nodes — in ascending order.
// This is the seed set of the delta-census dirty ball.
func (o *Overlay) Touched() []NodeID {
	out := make([]NodeID, 0, len(o.touched))
	for v := range o.touched {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Materialize freezes the combined state into a fresh immutable Graph
// with the base's alphabet. The overlay remains usable afterwards. The
// result is untyped, so a typed base is refused (ErrEdgeTyped).
func (o *Overlay) Materialize() (*Graph, error) {
	if err := o.base.RequireUntyped("graph: overlay"); err != nil {
		return nil, err
	}
	b := NewBuilderWithAlphabet(o.base.Alphabet())
	for v := range o.labels {
		if _, err := b.AddLabeledNode(o.labels[v]); err != nil {
			return nil, err
		}
		b.SetName(NodeID(v), o.name(NodeID(v)))
	}
	var err error
	o.base.Edges(func(u, v NodeID) bool {
		if _, gone := o.removed[edgeKey(u, v)]; gone {
			return true
		}
		err = b.AddEdge(u, v)
		return err == nil
	})
	if err != nil {
		return nil, err
	}
	for k := range o.added {
		if err := b.AddEdge(k[0], k[1]); err != nil {
			return nil, err
		}
	}
	return b.Build()
}
