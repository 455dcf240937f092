// Package microarch simulates the micro-architectural state of one CPU core:
// set-associative caches, a TLB, a branch predictor and an execution engine
// that retires instruction variants from the isa package while accounting
// every raw micro-event (dispatches, refills, mispredicts, ...). The hpc
// package derives its performance-counter events from these raw counts, so
// instruction gadgets perturb HPC events through the same mechanistic paths
// as on real hardware: a CLFLUSH analog actually evicts the line a
// subsequent load will miss on.
package microarch

// lookup returns the index of the valid way holding tag, or -1. tags and
// valid are the same-length views of one set (or of a whole TLB).
func lookup(tags []uint64, valid []bool, tag uint64) int {
	valid = valid[:len(tags)]
	for w := range tags {
		if tags[w] == tag && valid[w] {
			return w
		}
	}
	return -1
}

// install writes tag into the first invalid way, or over the last way when
// every one is valid, and reports whether it overwrote a line.
func install(tags []uint64, valid []bool, tag uint64) (evicted bool) {
	victim := len(tags) - 1
	for w := range valid {
		if !valid[w] {
			victim = w
			break
		}
	}
	evicted = valid[victim]
	tags[victim] = tag
	valid[victim] = true
	return evicted
}

// Cache is a set-associative cache. A miss fills the first invalid way of
// its set; when the set is full it overwrites the last way. Hits do not
// reorder the set, so the replacement policy is not LRU: a line living in
// the last way is evicted by the next miss however recently it was used.
type Cache struct {
	name     string
	sets     int
	ways     int
	lineBits uint
	// tags and valid hold every set's ways contiguously: way w of set s
	// is index s*ways+w.
	tags  []uint64
	valid []bool

	// Stats.
	accesses  uint64
	misses    uint64
	evictions uint64
}

// CacheConfig sizes a cache.
type CacheConfig struct {
	Name     string
	Sets     int
	Ways     int
	LineSize int // bytes; must be a power of two
}

// NewCache builds a cache. Invalid configurations are normalised to small
// positive values so a zero-value config still yields a working cache.
func NewCache(cfg CacheConfig) *Cache {
	if cfg.Sets < 1 {
		cfg.Sets = 1
	}
	if cfg.Ways < 1 {
		cfg.Ways = 1
	}
	if cfg.LineSize < 1 {
		cfg.LineSize = 64
	}
	return &Cache{
		name:     cfg.Name,
		sets:     cfg.Sets,
		ways:     cfg.Ways,
		lineBits: log2Ceil(cfg.LineSize),
		tags:     make([]uint64, cfg.Sets*cfg.Ways),
		valid:    make([]bool, cfg.Sets*cfg.Ways),
	}
}

// log2Ceil returns the smallest b with 1<<b >= n.
func log2Ceil(n int) uint {
	b := uint(0)
	for 1<<b < n {
		b++
	}
	return b
}

// set returns addr's line tag and the ways of the set it maps to.
func (c *Cache) set(addr uint64) (tag uint64, tags []uint64, valid []bool) {
	tag = addr >> c.lineBits
	lo := int(tag%uint64(c.sets)) * c.ways
	hi := lo + c.ways
	return tag, c.tags[lo:hi], c.valid[lo:hi]
}

// Access touches addr and returns whether it hit. On a miss the line is
// filled.
//
//aegis:hotpath
func (c *Cache) Access(addr uint64) bool {
	c.accesses++
	tag, tags, valid := c.set(addr)
	if lookup(tags, valid, tag) >= 0 {
		return true
	}
	c.misses++
	c.fill(tags, valid, tag)
	return false
}

// Contains reports whether addr's line is cached, without updating
// statistics (a probe, not an access).
func (c *Cache) Contains(addr uint64) bool {
	tag, tags, valid := c.set(addr)
	return lookup(tags, valid, tag) >= 0
}

// Flush evicts addr's line if present and reports whether it was cached.
func (c *Cache) Flush(addr uint64) bool {
	tag, tags, valid := c.set(addr)
	w := lookup(tags, valid, tag)
	if w < 0 {
		return false
	}
	valid[w] = false
	return true
}

// FlushAll invalidates every line (WBINVD analog).
func (c *Cache) FlushAll() {
	clear(c.valid)
}

// Insert fills addr's line without counting an access (prefetch/refill path).
func (c *Cache) Insert(addr uint64) {
	tag, tags, valid := c.set(addr)
	if lookup(tags, valid, tag) < 0 {
		c.fill(tags, valid, tag)
	}
}

// fill installs tag into a set, counting an eviction when it overwrites a
// valid line.
func (c *Cache) fill(tags []uint64, valid []bool, tag uint64) {
	if install(tags, valid, tag) {
		c.evictions++
	}
}

// Stats returns the access/miss/eviction counts since construction.
func (c *Cache) Stats() (accesses, misses, evictions uint64) {
	return c.accesses, c.misses, c.evictions
}

// Name returns the cache's configured name.
func (c *Cache) Name() string { return c.name }

// TLB is a fully-associative translation lookaside buffer over page
// numbers, with the same replacement policy as Cache: a miss fills the
// first invalid entry, else overwrites the last one.
type TLB struct {
	pageBits uint
	pages    []uint64
	valid    []bool

	accesses uint64
	misses   uint64
}

// NewTLB builds a TLB with the given entry count and page size.
func NewTLB(entries, pageSize int) *TLB {
	if entries < 1 {
		entries = 1
	}
	if pageSize < 1 {
		pageSize = 4096
	}
	return &TLB{
		pageBits: log2Ceil(pageSize),
		pages:    make([]uint64, entries),
		valid:    make([]bool, entries),
	}
}

// Access translates addr and returns whether the page entry was resident.
//
//aegis:hotpath
func (t *TLB) Access(addr uint64) bool {
	t.accesses++
	page := addr >> t.pageBits
	if lookup(t.pages, t.valid, page) >= 0 {
		return true
	}
	t.misses++
	install(t.pages, t.valid, page)
	return false
}

// Flush invalidates every entry (context-switch analog).
func (t *TLB) Flush() {
	clear(t.valid)
}

// Stats returns the access and miss counts since construction.
func (t *TLB) Stats() (accesses, misses uint64) {
	return t.accesses, t.misses
}
