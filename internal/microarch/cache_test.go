package microarch

import (
	"testing"
	"testing/quick"

	"github.com/repro/aegis/internal/rng"
)

func TestCacheHitAfterFill(t *testing.T) {
	c := NewCache(CacheConfig{Sets: 4, Ways: 2, LineSize: 64})
	if c.Access(0x1000) {
		t.Error("first access hit an empty cache")
	}
	if !c.Access(0x1000) {
		t.Error("second access to same address missed")
	}
	if !c.Access(0x1010) {
		t.Error("access within same line missed")
	}
}

// TestCacheFillFirstFreeElseLastWay pins the replacement policy the
// simulator has: a miss fills the first invalid way, else overwrites the
// last way, and hits never reorder a set. It is not LRU — the last case
// evicts the most recently used line.
func TestCacheFillFirstFreeElseLastWay(t *testing.T) {
	const a, b, c, d = 0x0, 0x40, 0x80, 0xc0 // 1 set: every line conflicts
	cache := NewCache(CacheConfig{Sets: 1, Ways: 2, LineSize: 64})
	cache.Access(a) // way 0
	cache.Access(b) // way 1
	cache.Access(a) // hit; a is MRU, b sits in the last way
	cache.Access(c) // full: overwrites the last way (b)
	if !cache.Contains(a) || cache.Contains(b) || !cache.Contains(c) {
		t.Fatalf("after a,b,a,c: resident a=%v b=%v c=%v, want a and c",
			cache.Contains(a), cache.Contains(b), cache.Contains(c))
	}

	// c is now the most recently used line and sits in the last way. True
	// LRU would evict a here; this policy evicts c.
	cache.Access(c)
	cache.Access(d)
	if !cache.Contains(a) || cache.Contains(c) || !cache.Contains(d) {
		t.Fatalf("after c,d: resident a=%v c=%v d=%v, want a and d (MRU c evicted)",
			cache.Contains(a), cache.Contains(c), cache.Contains(d))
	}

	// A flushed way is the first invalid one, so the next fill takes it
	// without evicting anything.
	cache.Flush(a)
	cache.Access(b)
	if !cache.Contains(b) || !cache.Contains(d) {
		t.Fatalf("fill after flush evicted d: resident b=%v d=%v", cache.Contains(b), cache.Contains(d))
	}
	if _, _, evictions := cache.Stats(); evictions != 2 {
		t.Errorf("evictions = %d, want 2 (c over b, d over c; b refilled a flushed way)", evictions)
	}
}

func TestCacheFlush(t *testing.T) {
	c := NewCache(CacheConfig{Sets: 8, Ways: 2, LineSize: 64})
	c.Access(0x2000)
	if !c.Flush(0x2000) {
		t.Error("flush of resident line returned false")
	}
	if c.Contains(0x2000) {
		t.Error("line still resident after flush")
	}
	if c.Flush(0x2000) {
		t.Error("flush of absent line returned true")
	}
}

func TestCacheFlushAll(t *testing.T) {
	c := NewCache(CacheConfig{Sets: 8, Ways: 2, LineSize: 64})
	for i := uint64(0); i < 16; i++ {
		c.Access(i * 64)
	}
	c.FlushAll()
	for i := uint64(0); i < 16; i++ {
		if c.Contains(i * 64) {
			t.Fatalf("line %d survived FlushAll", i)
		}
	}
}

func TestCacheInsertDoesNotCountAccess(t *testing.T) {
	c := NewCache(CacheConfig{Sets: 4, Ways: 2, LineSize: 64})
	c.Insert(0x3000)
	accesses, misses, _ := c.Stats()
	if accesses != 0 || misses != 0 {
		t.Errorf("Insert counted as access: a=%d m=%d", accesses, misses)
	}
	if !c.Contains(0x3000) {
		t.Error("inserted line not resident")
	}
}

func TestCacheStats(t *testing.T) {
	c := NewCache(CacheConfig{Sets: 1, Ways: 1, LineSize: 64})
	c.Access(0x0)
	c.Access(0x0)
	c.Access(0x40) // evicts
	accesses, misses, evictions := c.Stats()
	if accesses != 3 || misses != 2 || evictions != 1 {
		t.Errorf("stats = %d/%d/%d, want 3/2/1", accesses, misses, evictions)
	}
}

func TestCacheWorkingSetProperty(t *testing.T) {
	// Property: a working set no larger than one set's capacity never
	// misses after the first pass.
	if err := quick.Check(func(seed uint64) bool {
		c := NewCache(CacheConfig{Sets: 16, Ways: 4, LineSize: 64})
		r := rng.New(seed)
		// 4 lines all in set 0 (stride = 16*64).
		addrs := make([]uint64, 4)
		for i := range addrs {
			addrs[i] = uint64(i) * 16 * 64
		}
		for _, a := range addrs {
			c.Access(a)
		}
		for i := 0; i < 100; i++ {
			if !c.Access(addrs[r.Intn(len(addrs))]) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestCacheContainsInvariant(t *testing.T) {
	// Property: immediately after Access(a), Contains(a) is true.
	if err := quick.Check(func(addrs []uint64) bool {
		c := NewCache(CacheConfig{Sets: 8, Ways: 2, LineSize: 64})
		for _, a := range addrs {
			c.Access(a)
			if !c.Contains(a) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTLBHitMiss(t *testing.T) {
	tlb := NewTLB(4, 4096)
	if tlb.Access(0x1000) {
		t.Error("empty TLB hit")
	}
	if !tlb.Access(0x1fff) {
		t.Error("same page missed")
	}
	if tlb.Access(0x2000) {
		t.Error("new page hit")
	}
}

// TestTLBFillFirstFreeElseLastEntry pins the TLB's policy, which matches
// Cache's: fill the first invalid entry, else overwrite the last one, even
// when it holds the most recently used page.
func TestTLBFillFirstFreeElseLastEntry(t *testing.T) {
	tlb := NewTLB(2, 4096)
	tlb.Access(0x0000) // page 0 -> entry 0
	tlb.Access(0x1000) // page 1 -> entry 1
	tlb.Access(0x1000) // hit; page 1 is MRU, in the last entry
	tlb.Access(0x2000) // full: page 2 overwrites page 1
	if !tlb.Access(0x0000) {
		t.Error("page 0 (LRU, entry 0) was evicted; the policy overwrites the last entry")
	}
	if tlb.Access(0x1000) {
		t.Error("page 1 (MRU, last entry) survived a fill into a full TLB")
	}
	// That miss refilled page 1 over page 2 in the last entry.
	if tlb.Access(0x2000) {
		t.Error("page 2 survived page 1's refill of the last entry")
	}
	if accesses, misses := tlb.Stats(); accesses != 7 || misses != 5 {
		t.Errorf("stats = %d/%d, want 7/5", accesses, misses)
	}
}

func TestTLBFlush(t *testing.T) {
	tlb := NewTLB(8, 4096)
	tlb.Access(0x5000)
	tlb.Flush()
	if tlb.Access(0x5000) {
		t.Error("entry survived flush")
	}
}

func TestBranchPredictorLearnsBias(t *testing.T) {
	bp := NewBranchPredictor(64)
	pc := uint64(0x400100)
	// Always-taken branch: after warmup, mispredict rate must vanish.
	for i := 0; i < 10; i++ {
		bp.Resolve(pc, true)
	}
	mispredicts := 0
	for i := 0; i < 100; i++ {
		if bp.Resolve(pc, true) {
			mispredicts++
		}
	}
	if mispredicts != 0 {
		t.Errorf("biased branch mispredicted %d/100 after warmup", mispredicts)
	}
}

func TestBranchPredictorAlternating(t *testing.T) {
	bp := NewBranchPredictor(64)
	pc := uint64(0x400200)
	mispredicts := 0
	taken := false
	for i := 0; i < 100; i++ {
		taken = !taken
		if bp.Resolve(pc, taken) {
			mispredicts++
		}
	}
	// A bimodal predictor does badly on alternating patterns.
	if mispredicts < 30 {
		t.Errorf("alternating branch mispredicted only %d/100", mispredicts)
	}
}

func TestBranchPredictorStats(t *testing.T) {
	bp := NewBranchPredictor(16)
	for i := 0; i < 10; i++ {
		bp.Resolve(uint64(i)*4096, i%2 == 0)
	}
	preds, _ := bp.Stats()
	if preds != 10 {
		t.Errorf("predictions = %d, want 10", preds)
	}
}

func TestZeroConfigNormalised(t *testing.T) {
	c := NewCache(CacheConfig{})
	if c.Access(0) {
		t.Error("zero-config cache hit on first access")
	}
	if !c.Access(0) {
		t.Error("zero-config cache missed on second access")
	}
	tlb := NewTLB(0, 0)
	tlb.Access(0x1000)
}
