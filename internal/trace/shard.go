package trace

import "repro/internal/mem"

// This file implements the routing stage of the block-sharded
// classification pipeline: each of N shard consumers opens its own
// equivalent stream and filters it down to its subsequence with a
// ShardReader, so N block-partitioned consumers can classify one big trace
// concurrently.
//
// Routing rules:
//
//   - Every data reference (load/store) is kept by exactly one shard,
//     chosen by the ShardFunc. Sharding by cache block (BlockShard) is the
//     canonical choice: the classifiers' and simulators' state is keyed by
//     block, so a block partition splits them into independent machines.
//   - Every synchronization and phase reference is kept by every shard,
//     in stream order relative to the data references, so that
//     schedule-sensitive consumers (RD/SD/SRD/MAX buffer stores or
//     invalidations until an acquire or release) observe the same
//     synchronization points as a serial run.
//
// Within each shard the kept references are a subsequence of the original
// stream, in original order.

// ShardFunc maps a data reference to a shard index in [0, n). It is only
// consulted for loads and stores; synchronization and phase references are
// kept by every shard.
type ShardFunc func(Ref) int

// BlockShard returns the canonical ShardFunc for n shards: data references
// are routed by g.BlockOf(addr) % n, so all references to one cache block
// land on one shard.
func BlockShard(g mem.Geometry, n int) ShardFunc {
	return func(r Ref) int { return int(uint64(g.BlockOf(r.Addr)) % uint64(n)) }
}

// ShardReader filters one trace stream down to a single shard's
// subsequence under the routing rules above. N ShardReaders over N
// equivalent streams (fresh deterministic generations, independent readers
// over a cached trace, or segment-skipping packed-trace readers) partition
// the trace's data references among them. ShardReader implements
// BatchReader (filtering whole source batches per call) and io.Closer
// (closing the source, which stops a generator-backed stream promptly).
type ShardReader struct {
	src   Reader
	br    BatchReader // non-nil when src batches
	shard int
	key   ShardFunc
	buf   []Ref
}

// NewShardReader returns a ShardReader over src for the given shard. It
// panics if key is nil or shard is negative.
func NewShardReader(src Reader, shard int, key ShardFunc) *ShardReader {
	if key == nil {
		panic("trace: nil ShardFunc")
	}
	if shard < 0 {
		panic("trace: negative shard index")
	}
	br, _ := src.(BatchReader)
	return &ShardReader{src: src, br: br, shard: shard, key: key}
}

// NumProcs implements Reader.
func (s *ShardReader) NumProcs() int { return s.src.NumProcs() }

// keep reports whether the shard's stream includes r.
func (s *ShardReader) keep(r Ref) bool {
	return !r.Kind.IsData() || s.key(r) == s.shard
}

// Next implements Reader.
func (s *ShardReader) Next() (Ref, error) {
	for {
		r, err := s.src.Next()
		if err != nil {
			return Ref{}, err
		}
		if s.keep(r) {
			return r, nil
		}
	}
}

// NextBatch implements BatchReader: it reads source batches and compacts
// the shard's subsequence into buf, returning as soon as at least one
// reference is kept. Like every BatchReader, the prefix is valid even when
// err is non-nil.
func (s *ShardReader) NextBatch(buf []Ref) (int, error) {
	if len(buf) == 0 {
		return 0, nil
	}
	if s.buf == nil {
		s.buf = make([]Ref, driveBatch)
	}
	for {
		// Read at most len(buf) source refs so the kept subsequence always
		// fits the caller's buffer.
		in := s.buf
		if len(buf) < len(in) {
			in = in[:len(buf)]
		}
		var cnt int
		var err error
		if s.br != nil {
			cnt, err = s.br.NextBatch(in)
		} else {
			cnt, err = fill(s.src, in)
		}
		n := 0
		for _, r := range in[:cnt] {
			if s.keep(r) {
				buf[n] = r
				n++
			}
		}
		if err != nil || n > 0 {
			return n, err
		}
	}
}

// Close implements io.Closer by closing the source reader (stopping a
// generator-backed source promptly). Closing a source that does not
// implement io.Closer is a no-op.
func (s *ShardReader) Close() error { return CloseReader(s.src) }
