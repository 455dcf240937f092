package microarch

import (
	"fmt"
	"math"
	"testing"

	"github.com/repro/aegis/internal/isa"
	"github.com/repro/aegis/internal/rng"
)

// Differential oracle: the flat Cache/TLB kernel must match the reference
// implementation (cache_ref_test.go) on every op of seeded random streams —
// same return values, same Stats, same residency and the same line in the
// same way — so replacing the kernel re-pins no determinism golden.

const diffSeeds = 4

// probeLines returns line-aligned addresses that crowd a few sets (2*ways+1
// lines each, so streams overflow them) plus the top of the address space,
// where a tag+1 encoding would wrap.
func probeLines(sets, ways int, lineBits uint) []uint64 {
	var out []uint64
	for s := 0; s < min(sets, 3); s++ {
		for k := 0; k <= 2*ways; k++ {
			out = append(out, uint64(s+k*sets)<<lineBits)
		}
	}
	top := uint64(math.MaxUint64) &^ (1<<lineBits - 1)
	return append(out, top, top-1<<lineBits, top-uint64(sets)<<lineBits)
}

// drawAddr picks a probe line and a random byte within it.
func drawAddr(r *rng.Source, lines []uint64, lineBits uint) uint64 {
	return lines[r.Intn(len(lines))] | r.Uint64()&(1<<lineBits-1)
}

// requireSameCache fails unless got and want agree on Stats and on the
// line held by every way, which fixes residency and all future evictions.
func requireSameCache(t *testing.T, where string, got *Cache, want *refCache) {
	t.Helper()
	ga, gm, ge := got.Stats()
	wa, wm, we := want.Stats()
	if ga != wa || gm != wm || ge != we {
		t.Fatalf("%s: %s stats %d/%d/%d, reference %d/%d/%d", where, got.Name(), ga, gm, ge, wa, wm, we)
	}
	for s := 0; s < want.sets; s++ {
		for w := 0; w < want.ways; w++ {
			i := s*got.ways + w
			if got.valid[i] != want.valid[s][w] || (want.valid[s][w] && got.tags[i] != want.lines[s][w]) {
				t.Fatalf("%s: %s set %d way %d holds (%v, %#x), reference (%v, %#x)",
					where, got.Name(), s, w, got.valid[i], got.tags[i], want.valid[s][w], want.lines[s][w])
			}
		}
	}
}

// requireSameTLB fails unless got and want agree on Stats and on the page
// held by every entry.
func requireSameTLB(t *testing.T, where string, got *TLB, want *refTLB) {
	t.Helper()
	ga, gm := got.Stats()
	wa, wm := want.Stats()
	if ga != wa || gm != wm {
		t.Fatalf("%s: TLB stats %d/%d, reference %d/%d", where, ga, gm, wa, wm)
	}
	for i := range want.valid {
		if got.valid[i] != want.valid[i] || (want.valid[i] && got.pages[i] != want.pages[i]) {
			t.Fatalf("%s: TLB entry %d holds (%v, %#x), reference (%v, %#x)",
				where, i, got.valid[i], got.pages[i], want.valid[i], want.pages[i])
		}
	}
}

func TestCacheMatchesReference(t *testing.T) {
	def := DefaultCoreConfig()
	configs := []CacheConfig{
		{Name: "1set", Sets: 1, Ways: 4, LineSize: 64},
		{Name: "1way", Sets: 8, Ways: 1, LineSize: 64},
		{Name: "1x1", Sets: 1, Ways: 1, LineSize: 64},
		{Name: "odd-sets", Sets: 7, Ways: 3, LineSize: 32},
		{Name: "byte-lines", Sets: 1, Ways: 2, LineSize: 1},
		{Name: "byte-lines-odd", Sets: 3, Ways: 2, LineSize: 1},
		{Name: "zero-config"},
		{Name: "L1D", Sets: def.L1DSets, Ways: def.L1DWays, LineSize: def.LineSize},
		{Name: "L2", Sets: def.L2Sets, Ways: def.L2Ways, LineSize: def.LineSize},
	}
	for _, cfg := range configs {
		for seed := uint64(1); seed <= diffSeeds; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", cfg.Name, seed), func(t *testing.T) {
				got, want := NewCache(cfg), newRefCache(cfg)
				probes := probeLines(want.sets, want.ways, want.lineBits)
				r := rng.New(seed)
				for step := 0; step < 3000; step++ {
					addr := drawAddr(r, probes, want.lineBits)
					var op string
					switch k := r.Intn(100); {
					case k < 50:
						op = "Access"
						if g, w := got.Access(addr), want.Access(addr); g != w {
							t.Fatalf("step %d: Access(%#x) = %v, reference %v", step, addr, g, w)
						}
					case k < 65:
						op = "Insert"
						got.Insert(addr)
						want.Insert(addr)
					case k < 80:
						op = "Contains"
						if g, w := got.Contains(addr), want.Contains(addr); g != w {
							t.Fatalf("step %d: Contains(%#x) = %v, reference %v", step, addr, g, w)
						}
					case k < 98:
						op = "Flush"
						if g, w := got.Flush(addr), want.Flush(addr); g != w {
							t.Fatalf("step %d: Flush(%#x) = %v, reference %v", step, addr, g, w)
						}
					default:
						op = "FlushAll"
						got.FlushAll()
						want.FlushAll()
					}
					requireSameCache(t, fmt.Sprintf("step %d %s(%#x)", step, op, addr), got, want)
				}
			})
		}
	}
}

func TestTLBMatchesReference(t *testing.T) {
	configs := []struct {
		name              string
		entries, pageSize int
	}{
		{"1entry", 1, 4096},
		{"odd", 5, 4096},
		{"default", DefaultCoreConfig().TLBEntries, 4096},
		{"byte-pages", 3, 1},
		{"zero-config", 0, 0},
	}
	for _, cfg := range configs {
		for seed := uint64(1); seed <= diffSeeds; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", cfg.name, seed), func(t *testing.T) {
				got, want := NewTLB(cfg.entries, cfg.pageSize), newRefTLB(cfg.entries, cfg.pageSize)
				probes := probeLines(1, want.entries, want.pageBits)
				r := rng.New(seed)
				for step := 0; step < 3000; step++ {
					addr := drawAddr(r, probes, want.pageBits)
					op := "Access"
					if r.Intn(50) == 0 {
						op = "Flush"
						got.Flush()
						want.Flush()
					} else if g, w := got.Access(addr), want.Access(addr); g != w {
						t.Fatalf("step %d: Access(%#x) = %v, reference %v", step, addr, g, w)
					}
					requireSameTLB(t, fmt.Sprintf("step %d %s(%#x)", step, op, addr), got, want)
				}
			})
		}
	}
}

// refSide mirrors one core's private hierarchy on the reference kernel.
type refSide struct {
	l1d, l1i *refCache
	tlb      *refTLB
	ctrs     Counters // the cache-derived counters the core should report
}

// dataAccess replays Core.dataAccess's cache traffic on the reference.
func (s *refSide) dataAccess(l2 *refCache, addr uint64) {
	if !s.tlb.Access(addr) {
		s.ctrs.DTLBMisses++
	}
	if !s.l1d.Access(addr) {
		s.ctrs.L1DMisses++
		if !l2.Access(addr) {
			s.ctrs.L2Misses++
		}
	}
}

// execute replays Core.Execute's cache traffic for one memory-class
// variant on the reference.
func (s *refSide) execute(l2 *refCache, v isa.Variant, pc, addr uint64) {
	if !s.l1i.Access(pc) {
		s.ctrs.L1IMisses++
		if !l2.Access(pc) {
			s.ctrs.L2Misses++
		}
	}
	for i := 0; i < v.MemReads+v.MemWrites; i++ {
		s.dataAccess(l2, addr)
	}
	switch v.Class {
	case isa.ClassPrefetch:
		if !s.l1d.Contains(addr) {
			l2.Insert(addr)
			s.l1d.Insert(addr)
		}
	case isa.ClassFlush:
		s.l1d.Flush(addr)
		l2.Flush(addr)
	}
}

// TestSharedL2MatchesReference drives two cores sharing one L2 through
// Core.Execute and requires every cache, TLB and cache-derived counter to
// match the reference hierarchy replaying the same traffic.
func TestSharedL2MatchesReference(t *testing.T) {
	small := CoreConfig{
		L1DSets: 4, L1DWays: 2, L1ISets: 2, L1IWays: 2, L2Sets: 6, L2Ways: 3,
		LineSize: 64, TLBEntries: 4, PredictorEntries: 16,
	}
	variants := []isa.Variant{
		variantOf(t, isa.ClassLoad), variantOf(t, isa.ClassStore),
		variantOf(t, isa.ClassLoadStore), variantOf(t, isa.ClassPrefetch),
		variantOf(t, isa.ClassFlush),
	}
	for _, tc := range []struct {
		name string
		cfg  CoreConfig
	}{{"small", small}, {"default", DefaultCoreConfig()}} {
		name, cfg := tc.name, tc.cfg
		for seed := uint64(1); seed <= diffSeeds; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				l2cfg := CacheConfig{Name: "L2", Sets: cfg.L2Sets, Ways: cfg.L2Ways, LineSize: cfg.LineSize}
				l2, refL2 := NewCache(l2cfg), newRefCache(l2cfg)
				cores := make([]*Core, 2)
				ctxs := make([]*ExecContext, 2)
				refs := make([]*refSide, 2)
				for k := range cores {
					cores[k] = NewCoreWithL2(k, cfg, nil, l2)
					ctxs[k] = NewScratchContext(0)
					refs[k] = &refSide{
						l1d: newRefCache(CacheConfig{Name: "L1D", Sets: cfg.L1DSets, Ways: cfg.L1DWays, LineSize: cfg.LineSize}),
						l1i: newRefCache(CacheConfig{Name: "L1I", Sets: cfg.L1ISets, Ways: cfg.L1IWays, LineSize: cfg.LineSize}),
						tlb: newRefTLB(cfg.TLBEntries, 4096),
					}
				}
				probes := probeLines(refL2.sets, refL2.ways, refL2.lineBits)
				r := rng.New(seed)
				for step := 0; step < 2000; step++ {
					k := r.Intn(2)
					v := variants[r.Intn(len(variants))]
					ctx := ctxs[k]
					ctx.Base = drawAddr(r, probes, refL2.lineBits)
					if r.Intn(4) == 0 {
						ctx.PC = drawAddr(r, probes, refL2.lineBits) - 4
					}
					pc := ctx.PC + 4
					if err := cores[k].Execute(v, ctx); err != nil {
						t.Fatal(err)
					}
					refs[k].execute(refL2, v, pc, ctx.Base)

					where := fmt.Sprintf("step %d core %d %s @%#x", step, k, v.Key(), ctx.Base)
					requireSameCache(t, where, l2, refL2)
					for j, c := range cores {
						ref := refs[j]
						requireSameCache(t, where, c.L1D, ref.l1d)
						requireSameCache(t, where, c.L1I, ref.l1i)
						requireSameTLB(t, where, c.TLB, ref.tlb)
						got := c.Counters()
						if got.DTLBMisses != ref.ctrs.DTLBMisses || got.L1DMisses != ref.ctrs.L1DMisses ||
							got.L1IMisses != ref.ctrs.L1IMisses || got.L2Misses != ref.ctrs.L2Misses {
							t.Fatalf("%s: core %d misses dtlb/l1d/l1i/l2 = %d/%d/%d/%d, reference %d/%d/%d/%d", where, j,
								got.DTLBMisses, got.L1DMisses, got.L1IMisses, got.L2Misses,
								ref.ctrs.DTLBMisses, ref.ctrs.L1DMisses, ref.ctrs.L1IMisses, ref.ctrs.L2Misses)
						}
					}
				}
			})
		}
	}
}
