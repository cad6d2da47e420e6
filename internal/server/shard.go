package server

import (
	"fmt"
	"sync"

	"optiql/internal/art"
	"optiql/internal/btree"
	"optiql/internal/locks"
	"optiql/internal/server/wire"
	"optiql/internal/wal"
)

// Index is the per-shard substrate surface the server needs: point
// ops plus an ordered scan appending pairs. *btree.Tree and *art.Tree
// are adapted below. A PUT maps to Insert (which overwrites an
// existing key and reports whether the key was new), so the server
// needs no separate Update.
type Index interface {
	Lookup(c *locks.Ctx, k uint64) (uint64, bool)
	Insert(c *locks.Ctx, k, v uint64) bool
	Delete(c *locks.Ctx, k uint64) bool
	Scan(c *locks.Ctx, start uint64, max int, out []wire.KV) []wire.KV
	Len() int
}

// Both substrates' scan pair types alias the repo-wide kv.KV, as does
// wire.KV, so the adapters forward the output buffer straight through —
// no per-pair copy, no intermediate slice.

type btreeIndex struct{ t *btree.Tree }

func (b btreeIndex) Lookup(c *locks.Ctx, k uint64) (uint64, bool) { return b.t.Lookup(c, k) }
func (b btreeIndex) Insert(c *locks.Ctx, k, v uint64) bool        { return b.t.Insert(c, k, v) }
func (b btreeIndex) Delete(c *locks.Ctx, k uint64) bool           { return b.t.Delete(c, k) }
func (b btreeIndex) Len() int                                     { return b.t.Len() }
func (b btreeIndex) Scan(c *locks.Ctx, start uint64, max int, out []wire.KV) []wire.KV {
	return b.t.Scan(c, start, max, out)
}

type artIndex struct{ t *art.Tree }

func (a artIndex) Lookup(c *locks.Ctx, k uint64) (uint64, bool) { return a.t.Lookup(c, k) }
func (a artIndex) Insert(c *locks.Ctx, k, v uint64) bool        { return a.t.Insert(c, k, v) }
func (a artIndex) Delete(c *locks.Ctx, k uint64) bool           { return a.t.Delete(c, k) }
func (a artIndex) Len() int                                     { return a.t.Len() }
func (a artIndex) Scan(c *locks.Ctx, start uint64, max int, out []wire.KV) []wire.KV {
	return a.t.Scan(c, start, max, out)
}

// newIndex builds one shard's index instance.
func newIndex(kind string, scheme *locks.Scheme, nodeSize int) (Index, error) {
	switch kind {
	case "btree":
		t, err := btree.New(btree.Config{Scheme: scheme, NodeSize: nodeSize})
		if err != nil {
			return nil, err
		}
		return btreeIndex{t}, nil
	case "art":
		t, err := art.New(art.Config{Scheme: scheme})
		if err != nil {
			return nil, err
		}
		return artIndex{t}, nil
	}
	return nil, fmt.Errorf("server: unknown index kind %q", kind)
}

// shard is one partition: an index instance, the executor that
// serializes and batches its writes, and — when durability is on — its
// write-ahead log plus the lock context the checkpoint scanner uses.
type shard struct {
	idx  Index
	exec *executor
	// wal is the shard's write-ahead log (nil without Config.WALDir).
	wal *wal.Log
	// ckptCtx is the checkpoint snapshot scanner's lock context; it runs
	// concurrently with the executor so it cannot share the executor's.
	ckptCtx *locks.Ctx
}

// shardHash is the splitmix64 finalizer; it spreads dense keys across
// shards so consecutive keys don't all land on one partition.
func shardHash(k uint64) uint64 {
	k += 0x9E3779B97F4A7C15
	k = (k ^ (k >> 30)) * 0xBF58476D1CE4E5B9
	k = (k ^ (k >> 27)) * 0x94D049BB133111EB
	return k ^ (k >> 31)
}

// shardFor routes a key to its partition.
func (s *Server) shardFor(k uint64) *shard {
	return s.shards[shardHash(k)%uint64(len(s.shards))]
}

// scanBuf is a pooled scan buffer. kvs stages the per-shard runs back
// to back, runs holds the merge cursors into them and out the merged
// result. A response's Pairs alias out from dispatch until the writer
// has encoded the response frame, at which point the pending releases
// the buffer (conn.go). All three grow as needed (several shards can
// each contribute up to max pairs) and are pooled at their grown size.
type scanBuf struct {
	kvs  []wire.KV
	runs []scanRun
	out  []wire.KV
}

// scanRun is a merge cursor: the unconsumed part kvs[pos:end] of one
// shard's ascending run.
type scanRun struct{ pos, end int }

var scanBufPool = sync.Pool{New: func() any {
	return &scanBuf{kvs: make([]wire.KV, 0, wire.MaxScan)}
}}

// scanAll merges per-shard scans into one globally ordered result of
// up to max pairs, staged in a pooled buffer the caller must hand back
// (pending.release) once the response is encoded. Keys are
// hash-partitioned, so a range covers every shard: each shard
// contributes its first max pairs >= start, already in key order, and
// a k-way merge of those runs stops after the smallest max overall.
// The result is not a snapshot — shards are scanned one after another
// — matching the per-leaf (rather than whole-range) consistency the
// underlying scans provide.
func (s *Server) scanAll(c *locks.Ctx, start uint64, max int) ([]wire.KV, *scanBuf) {
	sb := scanBufPool.Get().(*scanBuf)
	kvs, runs := sb.kvs[:0], sb.runs[:0]
	for _, sh := range s.shards {
		lo := len(kvs)
		kvs = sh.idx.Scan(c, start, max, kvs)
		if len(kvs) > lo {
			runs = append(runs, scanRun{lo, len(kvs)})
		}
	}
	out := sb.out[:0]
	for len(out) < max && len(runs) > 1 {
		// Shards hold disjoint keys, so the smallest head is unique.
		m := 0
		for i := 1; i < len(runs); i++ {
			if kvs[runs[i].pos].Key < kvs[runs[m].pos].Key {
				m = i
			}
		}
		out = append(out, kvs[runs[m].pos])
		if runs[m].pos++; runs[m].pos == runs[m].end {
			runs[m] = runs[len(runs)-1]
			runs = runs[:len(runs)-1]
		}
	}
	if len(runs) == 1 && len(out) < max {
		r := runs[0]
		out = append(out, kvs[r.pos:min(r.end, r.pos+max-len(out))]...)
	}
	sb.kvs, sb.runs, sb.out = kvs, runs, out // keep any growth for reuse
	return out, sb
}

// putScanBuf returns a scan buffer to the pool.
func putScanBuf(sb *scanBuf) {
	sb.kvs, sb.runs, sb.out = sb.kvs[:0], sb.runs[:0], sb.out[:0]
	scanBufPool.Put(sb)
}
