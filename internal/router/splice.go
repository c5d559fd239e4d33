package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"hsgf/internal/core"
	"hsgf/internal/serve"
)

// shardReply is one replica's 200 /v1/features body, scanned rather
// than decoded: each row keeps its bytes after the root value, which
// the router forwards to the client unchanged.
type shardReply struct {
	rows        []splicedRow
	generation  uint64
	fingerprint string
}

// splicedRow is one row of a client response: the root, whether the
// row's flags are "ok", and the row's bytes after the root value
// through its closing brace.
type splicedRow struct {
	root int64
	ok   bool
	tail []byte
}

// unavailableTail is the tail of a shard-unavailable placeholder row:
// the bytes encoding/json writes for a FeatureRow flagged
// shard-unavailable, truncated, with no counts.
var unavailableTail = []byte(`,"flags":"` + core.FlagShardUnavailable.String() + `","truncated":true,"subgraphs":0,"counts":{}}`)

// readShardBody reads a 200 body whole, capped at maxShardResponseBytes.
func readShardBody(resp *http.Response) ([]byte, error) {
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxShardResponseBytes+1))
	if err == nil && len(body) > maxShardResponseBytes {
		err = errShardBodyTooLarge
	}
	return body, err
}

var errShardBodyTooLarge = fmt.Errorf("response exceeds %d bytes", maxShardResponseBytes)

// parseShardReply scans a replica body in the shape serve writes. A
// valid body in any other shape (an extra field, indentation: a replica
// of another version) is decoded by encoding/json once and each of its
// rows re-marshalled and scanned, so one writer serves both; fellBack
// reports that path. A body encoding/json refuses is an error.
func parseShardReply(body []byte) (reply *shardReply, fellBack bool, err error) {
	if reply, ok := scanShardReply(body); ok {
		return reply, false, nil
	}
	var fr serve.FeaturesResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		return nil, false, err
	}
	reply = &shardReply{rows: make([]splicedRow, len(fr.Rows)), generation: fr.Generation, fingerprint: fr.Fingerprint}
	for i, row := range fr.Rows {
		if row.Counts == nil {
			row.Counts = map[string]int64{} // serve always writes an object
		}
		b, err := json.Marshal(row)
		if err != nil {
			return nil, false, err
		}
		s := replyScanner{b: b}
		var ok bool
		if reply.rows[i], ok = s.row(); !ok || s.i != len(b) {
			return nil, false, fmt.Errorf("row %d does not scan once re-encoded", i)
		}
	}
	return reply, true, nil
}

// scanShardReply accepts exactly the body serve's writeFeaturesResponse
// writes: compact, fields in serve.FeaturesResponse and FeatureRow
// order, truncated and generation optional, trailing whitespace
// allowed. Every byte it forwards is checked: strings must be valid
// JSON strings of valid UTF-8, and numbers JSON integers that fit their
// Go field, so the router never emits a body encoding/json would
// refuse.
func scanShardReply(body []byte) (*shardReply, bool) {
	s := replyScanner{b: body}
	reply := &shardReply{}
	if !s.lit(`{"rows":[`) {
		return nil, false
	}
	if !s.lit("]") {
		for {
			row, ok := s.row()
			if !ok {
				return nil, false
			}
			reply.rows = append(reply.rows, row)
			if s.lit("]") {
				break
			}
			if !s.lit(",") {
				return nil, false
			}
		}
	}
	if !s.lit(`,"degraded":`) || !s.boolean() || !s.lit(`,"elapsed_ms":`) {
		return nil, false
	}
	if _, ok := s.int64(); !ok || !s.lit(`,"fingerprint":`) {
		return nil, false
	}
	fp, ok := s.str()
	if !ok {
		return nil, false
	}
	reply.fingerprint = fp.value()
	if s.lit(`,"generation":`) {
		if reply.generation, ok = s.uint64(); !ok {
			return nil, false
		}
	}
	if !s.lit("}") {
		return nil, false
	}
	for ; s.i < len(s.b); s.i++ {
		if c := s.b[s.i]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return nil, false
		}
	}
	return reply, true
}

// replyScanner walks a replica body; i is the next unread byte.
type replyScanner struct {
	b []byte
	i int
}

// lit consumes lit if the unread input starts with it.
func (s *replyScanner) lit(lit string) bool {
	if len(s.b)-s.i < len(lit) || string(s.b[s.i:s.i+len(lit)]) != lit {
		return false
	}
	s.i += len(lit)
	return true
}

// row scans one FeatureRow object.
func (s *replyScanner) row() (splicedRow, bool) {
	var row splicedRow
	var ok bool
	if !s.lit(`{"root":`) {
		return row, false
	}
	if row.root, ok = s.int64(); !ok {
		return row, false
	}
	start := s.i
	if !s.lit(`,"flags":`) {
		return row, false
	}
	flags, ok := s.str()
	if !ok {
		return row, false
	}
	row.ok = flags.equals("ok")
	if s.lit(`,"truncated":`) && !s.boolean() {
		return row, false
	}
	if !s.lit(`,"subgraphs":`) {
		return row, false
	}
	if _, ok := s.int64(); !ok || !s.lit(`,"counts":{`) {
		return row, false
	}
	if !s.lit("}") {
		for {
			if _, ok := s.str(); !ok || !s.lit(":") {
				return row, false
			}
			if _, ok := s.int64(); !ok {
				return row, false
			}
			if s.lit("}") {
				break
			}
			if !s.lit(",") {
				return row, false
			}
		}
	}
	if !s.lit("}") {
		return row, false
	}
	row.tail = s.b[start:s.i]
	return row, true
}

func (s *replyScanner) boolean() bool {
	return s.lit("true") || s.lit("false")
}

// digits consumes a JSON integer, -?(0|[1-9][0-9]*), returning its sign
// and magnitude; it refuses magnitudes past 1<<64-1.
func (s *replyScanner) digits() (neg bool, mag uint64, ok bool) {
	if s.i < len(s.b) && s.b[s.i] == '-' {
		neg = true
		s.i++
	}
	start := s.i
	for ; s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9'; s.i++ {
		d := uint64(s.b[s.i] - '0')
		if mag > (math.MaxUint64-d)/10 {
			return false, 0, false
		}
		mag = mag*10 + d
	}
	n := s.i - start
	if n == 0 || (n > 1 && s.b[start] == '0') {
		return false, 0, false
	}
	return neg, mag, true
}

func (s *replyScanner) int64() (int64, bool) {
	neg, mag, ok := s.digits()
	switch {
	case !ok:
		return 0, false
	case neg && mag <= 1<<63:
		return int64(-mag), true
	case !neg && mag <= math.MaxInt64:
		return int64(mag), true
	}
	return 0, false
}

func (s *replyScanner) uint64() (uint64, bool) {
	neg, mag, ok := s.digits()
	return mag, ok && !neg
}

// jsonString is a scanned JSON string: quoted is its bytes quotes
// included, escaped whether any escape sequence occurs in it.
type jsonString struct {
	quoted  []byte
	escaped bool
}

// value returns the string's decoded value.
func (q jsonString) value() string {
	if !q.escaped {
		return string(q.quoted[1 : len(q.quoted)-1])
	}
	var v string
	_ = json.Unmarshal(q.quoted, &v) // the scanner validated the string
	return v
}

// equals reports whether the string's value is v, without allocating
// unless the string holds an escape.
func (q jsonString) equals(v string) bool {
	if !q.escaped {
		return string(q.quoted[1:len(q.quoted)-1]) == v
	}
	return q.value() == v
}

// str consumes a JSON string: no raw control characters, only the
// escapes JSON defines, and valid UTF-8 throughout.
func (s *replyScanner) str() (jsonString, bool) {
	var q jsonString
	if s.i >= len(s.b) || s.b[s.i] != '"' {
		return q, false
	}
	start := s.i
	s.i++
	for s.i < len(s.b) {
		c := s.b[s.i]
		switch {
		case c == '"':
			s.i++
			q.quoted = s.b[start:s.i]
			return q, true
		case c == '\\':
			q.escaped = true
			if s.i+1 >= len(s.b) {
				return q, false
			}
			switch s.b[s.i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				s.i += 2
			case 'u':
				if len(s.b)-s.i < 6 {
					return q, false
				}
				for _, h := range s.b[s.i+2 : s.i+6] {
					if !('0' <= h && h <= '9' || 'a' <= h && h <= 'f' || 'A' <= h && h <= 'F') {
						return q, false
					}
				}
				s.i += 6
			default:
				return q, false
			}
		case c < 0x20:
			return q, false
		case c < utf8.RuneSelf:
			s.i++
		default:
			r, size := utf8.DecodeRune(s.b[s.i:])
			if r == utf8.RuneError && size == 1 {
				return q, false
			}
			s.i += size
		}
	}
	return q, false
}

// respBufPool recycles client response buffers across requests.
var respBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeFeatures writes a 200 /v1/features body: exactly the bytes
// json.NewEncoder(w).Encode(FeaturesResponse{...}) writes for these
// rows and reports, with each row assembled as {"root":<root> followed
// by its forwarded tail.
func writeFeatures(w http.ResponseWriter, rows []splicedRow, degraded bool, elapsedMS int64, reports []ShardReport) {
	buf := respBufPool.Get().(*bytes.Buffer)
	defer respBufPool.Put(buf)
	buf.Reset()
	buf.WriteString(`{"rows":[`)
	for i := range rows {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.WriteString(`{"root":`)
		buf.Write(strconv.AppendInt(buf.AvailableBuffer(), rows[i].root, 10))
		buf.Write(rows[i].tail)
	}
	buf.WriteString(`],"degraded":`)
	buf.WriteString(strconv.FormatBool(degraded))
	buf.WriteString(`,"elapsed_ms":`)
	buf.Write(strconv.AppendInt(buf.AvailableBuffer(), elapsedMS, 10))
	buf.WriteString(`,"shards":`)
	shards, err := json.Marshal(reports)
	if err != nil {
		// Unreachable: a ShardReport holds only ints, bools and strings.
		panic(fmt.Sprintf("router: marshal shard reports: %v", err))
	}
	buf.Write(shards)
	buf.WriteString("}\n")
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes()) // a client gone mid-response has nothing to retry
}
