package microarch

// The parent implementation of Cache and TLB, kept verbatim (renamed to
// refCache/refTLB) as the differential oracle for the flat kernel in
// cache.go: cache_diff_test.go drives both with the same seeded op streams
// and requires identical results. Its lru ranks never leave 0 (touch only
// bumps ranks below the touched way's rank, which is itself 0), so the
// effective policy is "first invalid way, else the last way" — exactly what
// the flat kernel implements without the bookkeeping. The doc comments
// below are the parent's too, including its inaccurate LRU claims.

// refCache is a set-associative cache with true-LRU replacement.
type refCache struct {
	name     string
	sets     int
	ways     int
	lineBits uint
	// lines[set][way] holds the cached line tag; lru[set][way] holds the
	// recency rank (0 = most recent).
	lines [][]uint64
	valid [][]bool
	lru   [][]uint8

	// Stats.
	accesses  uint64
	misses    uint64
	evictions uint64
}

// newRefCache builds a cache. Invalid configurations are normalised to small
// positive values so a zero-value config still yields a working cache.
func newRefCache(cfg CacheConfig) *refCache {
	if cfg.Sets < 1 {
		cfg.Sets = 1
	}
	if cfg.Ways < 1 {
		cfg.Ways = 1
	}
	if cfg.LineSize < 1 {
		cfg.LineSize = 64
	}
	bits := uint(0)
	for 1<<bits < cfg.LineSize {
		bits++
	}
	c := &refCache{
		name:     cfg.Name,
		sets:     cfg.Sets,
		ways:     cfg.Ways,
		lineBits: bits,
	}
	c.lines = make([][]uint64, cfg.Sets)
	c.valid = make([][]bool, cfg.Sets)
	c.lru = make([][]uint8, cfg.Sets)
	for s := 0; s < cfg.Sets; s++ {
		c.lines[s] = make([]uint64, cfg.Ways)
		c.valid[s] = make([]bool, cfg.Ways)
		c.lru[s] = make([]uint8, cfg.Ways)
	}
	return c
}

// line returns the line address (tag) and set index for addr.
func (c *refCache) line(addr uint64) (tag uint64, set int) {
	tag = addr >> c.lineBits
	set = int(tag % uint64(c.sets))
	return tag, set
}

// Access touches addr and returns whether it hit. On a miss the line is
// filled, evicting the LRU way if the set is full.
func (c *refCache) Access(addr uint64) bool {
	c.accesses++
	tag, set := c.line(addr)
	for w := 0; w < c.ways; w++ {
		if c.valid[set][w] && c.lines[set][w] == tag {
			c.touch(set, w)
			return true
		}
	}
	c.misses++
	c.fill(set, tag)
	return false
}

// Contains reports whether addr's line is cached, without updating LRU or
// statistics (a probe, not an access).
func (c *refCache) Contains(addr uint64) bool {
	tag, set := c.line(addr)
	for w := 0; w < c.ways; w++ {
		if c.valid[set][w] && c.lines[set][w] == tag {
			return true
		}
	}
	return false
}

// Flush evicts addr's line if present and reports whether it was cached.
func (c *refCache) Flush(addr uint64) bool {
	tag, set := c.line(addr)
	for w := 0; w < c.ways; w++ {
		if c.valid[set][w] && c.lines[set][w] == tag {
			c.valid[set][w] = false
			return true
		}
	}
	return false
}

// FlushAll invalidates every line (WBINVD analog).
func (c *refCache) FlushAll() {
	for s := range c.valid {
		for w := range c.valid[s] {
			c.valid[s][w] = false
		}
	}
}

// Insert fills addr's line without counting an access (prefetch/refill path).
func (c *refCache) Insert(addr uint64) {
	tag, set := c.line(addr)
	for w := 0; w < c.ways; w++ {
		if c.valid[set][w] && c.lines[set][w] == tag {
			c.touch(set, w)
			return
		}
	}
	c.fill(set, tag)
}

// fill installs tag into set, evicting the LRU victim if needed.
func (c *refCache) fill(set int, tag uint64) {
	victim := -1
	for w := 0; w < c.ways; w++ {
		if !c.valid[set][w] {
			victim = w
			break
		}
	}
	if victim < 0 {
		// Evict the way with the highest recency rank.
		var worst uint8
		for w := 0; w < c.ways; w++ {
			if c.lru[set][w] >= worst {
				worst = c.lru[set][w]
				victim = w
			}
		}
		c.evictions++
	}
	c.lines[set][victim] = tag
	c.valid[set][victim] = true
	c.touch(set, victim)
}

// touch marks way as most recently used within set.
func (c *refCache) touch(set, way int) {
	old := c.lru[set][way]
	for w := 0; w < c.ways; w++ {
		if c.valid[set][w] && c.lru[set][w] < old {
			c.lru[set][w]++
		}
	}
	c.lru[set][way] = 0
}

// Stats returns the access/miss/eviction counts since construction.
func (c *refCache) Stats() (accesses, misses, evictions uint64) {
	return c.accesses, c.misses, c.evictions
}

// Name returns the cache's configured name.
func (c *refCache) Name() string { return c.name }

// refTLB is a fully-associative translation lookaside buffer with LRU
// replacement over page numbers.
type refTLB struct {
	entries  int
	pageBits uint
	pages    []uint64
	valid    []bool
	lru      []uint8

	accesses uint64
	misses   uint64
}

// newRefTLB builds a refTLB with the given entry count and page size.
func newRefTLB(entries, pageSize int) *refTLB {
	if entries < 1 {
		entries = 1
	}
	if pageSize < 1 {
		pageSize = 4096
	}
	bits := uint(0)
	for 1<<bits < pageSize {
		bits++
	}
	return &refTLB{
		entries:  entries,
		pageBits: bits,
		pages:    make([]uint64, entries),
		valid:    make([]bool, entries),
		lru:      make([]uint8, entries),
	}
}

// Access translates addr and returns whether the page entry was resident.
func (t *refTLB) Access(addr uint64) bool {
	t.accesses++
	page := addr >> t.pageBits
	for i := 0; i < t.entries; i++ {
		if t.valid[i] && t.pages[i] == page {
			t.touch(i)
			return true
		}
	}
	t.misses++
	victim := -1
	for i := 0; i < t.entries; i++ {
		if !t.valid[i] {
			victim = i
			break
		}
	}
	if victim < 0 {
		var worst uint8
		for i := 0; i < t.entries; i++ {
			if t.lru[i] >= worst {
				worst = t.lru[i]
				victim = i
			}
		}
	}
	t.pages[victim] = page
	t.valid[victim] = true
	t.touch(victim)
	return false
}

// Flush invalidates every entry (context-switch analog).
func (t *refTLB) Flush() {
	for i := range t.valid {
		t.valid[i] = false
	}
}

func (t *refTLB) touch(entry int) {
	old := t.lru[entry]
	for i := 0; i < t.entries; i++ {
		if t.valid[i] && t.lru[i] < old {
			t.lru[i]++
		}
	}
	t.lru[entry] = 0
}

// Stats returns the access and miss counts since construction.
func (t *refTLB) Stats() (accesses, misses uint64) {
	return t.accesses, t.misses
}
