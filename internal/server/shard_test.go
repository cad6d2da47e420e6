package server

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"optiql/internal/locks"
	"optiql/internal/server/wire"
)

// scanAllReference is the merge scanAll replaced: collect every
// shard's first max pairs, sort the lot, keep the smallest max.
func scanAllReference(s *Server, c *locks.Ctx, start uint64, max int) []wire.KV {
	var all []wire.KV
	for _, sh := range s.shards {
		all = sh.idx.Scan(c, start, max, all)
	}
	slices.SortFunc(all, func(a, b wire.KV) int {
		switch {
		case a.Key < b.Key:
			return -1
		case a.Key > b.Key:
			return 1
		}
		return 0
	})
	return all[:min(len(all), max)]
}

// TestScanAllMatchesSortReference checks the k-way merge against the
// sort-and-truncate reference over 1..8 shards, result limits from 1
// to MaxScan, empty shards (fewer keys than shards, and none at all)
// and ranges holding fewer than max pairs.
func TestScanAllMatchesSortReference(t *testing.T) {
	maxes := []int{1, 2, 3, 5, 8, 15, 16, 17, 31, 64, 100, 257, 1000, 2047, wire.MaxScan - 1, wire.MaxScan}
	for shards := 1; shards <= 8; shards++ {
		for _, nkeys := range []int{0, shards / 2, 3000} {
			t.Run(fmt.Sprintf("shards=%d/keys=%d", shards, nkeys), func(t *testing.T) {
				s, err := New(Config{Shards: shards, Scheme: testScheme()})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() {
					ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
					defer cancel()
					s.Shutdown(ctx)
				})
				c := locks.NewCtx(s.pool, 8)
				defer c.Close()
				rng := rand.New(rand.NewPCG(uint64(shards), uint64(nkeys)))
				keys := make([]uint64, 0, nkeys)
				for len(keys) < nkeys {
					k := rng.Uint64N(1<<20) + 1
					if s.shards[s.shardIdx(k)].idx.Insert(c, k, k^0x5a5a) {
						keys = append(keys, k)
					}
				}
				slices.Sort(keys)
				starts := []uint64{0, 1 << 21} // everything, nothing
				for i := 0; i < 4 && len(keys) > 0; i++ {
					starts = append(starts, keys[rng.IntN(len(keys))], keys[len(keys)-1-i%len(keys)])
				}
				for _, start := range starts {
					for _, max := range maxes {
						want := scanAllReference(s, c, start, max)
						got, sb := s.scanAll(c, start, max)
						if !slices.Equal(got, want) {
							t.Fatalf("start=%d max=%d: merge returned %d pairs, reference %d (first difference at %d)",
								start, max, len(got), len(want), firstDiff(got, want))
						}
						putScanBuf(sb)
					}
				}
			})
		}
	}
}

// firstDiff returns the first index where a and b differ.
func firstDiff(a, b []wire.KV) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
