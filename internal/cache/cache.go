// Package cache implements the sectored set-associative cache used for the
// GPU L1s, the shared L2, and CacheCraft's dedicated redundancy cache.
// Outstanding-miss tracking (MSHRs) belongs to each cache's owner.
//
// The cache is a tag store only: the repository's simulator is
// trace-driven, so no data bytes flow through it. Lines are divided into
// sectors with independent valid and dirty bits — a GPU L2 fills at sector
// (32B) grain even though tags cover a full 128B line.
package cache

import (
	"fmt"

	"cachecraft/internal/stats"
)

// Policy selects the replacement policy.
type Policy int

const (
	// LRU evicts the least recently used way.
	LRU Policy = iota
	// SRRIP is static re-reference interval prediction (2-bit), which
	// resists thrashing better than LRU for streaming fills.
	SRRIP
)

// String renders the policy name.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "lru"
	case SRRIP:
		return "srrip"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Config sizes a cache.
type Config struct {
	Name        string
	SizeBytes   int
	Ways        int
	LineBytes   int
	SectorBytes int
	Repl        Policy
	// HashSets XOR-folds the line number into the set index, the standard
	// GPU L2 defense against power-of-two stride conflict thrashing.
	HashSets bool
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.Ways <= 0 || c.LineBytes <= 0 || c.SectorBytes <= 0:
		return fmt.Errorf("cache %q: sizes must be positive", c.Name)
	case c.LineBytes%c.SectorBytes != 0:
		return fmt.Errorf("cache %q: line %dB not a multiple of sector %dB", c.Name, c.LineBytes, c.SectorBytes)
	case c.LineBytes/c.SectorBytes > 64:
		return fmt.Errorf("cache %q: more than 64 sectors per line", c.Name)
	case c.SizeBytes%(c.LineBytes*c.Ways) != 0:
		return fmt.Errorf("cache %q: size %d not divisible by ways*line", c.Name, c.SizeBytes)
	}
	sets := c.SizeBytes / (c.LineBytes * c.Ways)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %q: set count %d not a power of two", c.Name, sets)
	}
	return nil
}

const maxRRPV = 3 // 2-bit SRRIP

// Cache is a sectored set-associative tag store. It is not safe for
// concurrent use; the simulator is single-threaded by design.
//
// The store is struct-of-arrays within each set: one block of words per
// set holding Ways tags, then Ways LRU stamps, then Ways valid masks, then
// Ways dirty masks (then, under SRRIP only, Ways rrpv values). A way is
// named by the index of its tag word, and its other fields sit at fixed
// offsets from it (see stamp, valid, dirty, rrpv), so a tag match or an
// LRU victim scan reads one contiguous run of 8-byte words (128 B for 16
// ways) and a fill touches one block. A tag word holds the line number
// plus one, with 0 marking an invalid way, which folds the valid bit into
// the tag compare. An invalid way holds no sector masks; its stamp and
// rrpv are never read, because a fill takes an invalid way before any
// replacement decision.
type Cache struct {
	cfg            Config
	words          []uint64
	stride         int // words per set block: 4*Ways, or 5*Ways under SRRIP
	ways           int
	setsMask       uint64
	setBits        uint
	sectorsPerLine int
	clock          uint64
	Stats          *stats.Counters

	// Pre-resolved counter handles for the per-access hot path. They
	// resolve lazily so the Stats creation order still follows first touch.
	stAccesses       stats.Handle
	stHits           stats.Handle
	stMisses         stats.Handle
	stSectorMisses   stats.Handle
	stSectorFills    stats.Handle
	stLineFills      stats.Handle
	stEvictions      stats.Handle
	stDirtyEvictions stats.Handle
}

// Outcome classifies a lookup.
type Outcome int

const (
	// Miss: the line's tag is absent.
	Miss Outcome = iota
	// SectorMiss: the tag is present but the requested sector is invalid.
	SectorMiss
	// Hit: the sector is present.
	Hit
)

// String renders the outcome.
func (o Outcome) String() string {
	switch o {
	case Miss:
		return "miss"
	case SectorMiss:
		return "sector-miss"
	case Hit:
		return "hit"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Eviction describes a victim line removed by a fill.
type Eviction struct {
	LineAddr  uint64
	ValidMask uint64 // sectors that were present
	DirtyMask uint64 // sectors that must be written back
}

// New builds an empty cache. It panics on an invalid configuration, which
// is static setup, not runtime input.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	numSets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	stride := 4 * cfg.Ways
	if cfg.Repl == SRRIP {
		stride += cfg.Ways
	}
	setBits := uint(0)
	for 1<<setBits < numSets {
		setBits++
	}
	if setBits == 0 {
		setBits = 1 // avoid zero shifts in the hash fold
	}
	c := &Cache{
		cfg:            cfg,
		words:          make([]uint64, numSets*stride),
		stride:         stride,
		ways:           cfg.Ways,
		setsMask:       uint64(numSets - 1),
		setBits:        setBits,
		sectorsPerLine: cfg.LineBytes / cfg.SectorBytes,
		Stats:          stats.NewCounters(),
	}
	c.stAccesses = c.Stats.Handle("accesses")
	c.stHits = c.Stats.Handle("hits")
	c.stMisses = c.Stats.Handle("misses")
	c.stSectorMisses = c.Stats.Handle("sector_misses")
	c.stSectorFills = c.Stats.Handle("sector_fills")
	c.stLineFills = c.Stats.Handle("line_fills")
	c.stEvictions = c.Stats.Handle("evictions")
	c.stDirtyEvictions = c.Stats.Handle("dirty_evictions")
	return c
}

// Config reports the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// SectorsPerLine reports the line's sector count.
func (c *Cache) SectorsPerLine() int { return c.sectorsPerLine }

// LineAddr aligns an address down to its line base.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr - addr%uint64(c.cfg.LineBytes)
}

// SectorIndex reports which sector of its line the address falls in.
func (c *Cache) SectorIndex(addr uint64) int {
	return int(addr % uint64(c.cfg.LineBytes) / uint64(c.cfg.SectorBytes))
}

// SectorMask returns the single-sector mask for addr.
func (c *Cache) SectorMask(addr uint64) uint64 { return 1 << c.SectorIndex(addr) }

// setAndTag maps an address to its set index and tag. The tag is the full
// line number plus one: simulation spends no storage on tags, the full
// line number keeps the mapping trivially invertible under set hashing,
// and the plus one leaves 0 to mark an invalid way.
func (c *Cache) setAndTag(addr uint64) (set uint64, tag uint64) {
	lineNum := addr / uint64(c.cfg.LineBytes)
	idx := lineNum
	if c.cfg.HashSets {
		idx ^= idx >> c.setBits
		idx ^= idx >> (2 * c.setBits)
		idx ^= idx >> (4 * c.setBits)
	}
	return idx & c.setsMask, lineNum + 1
}

// Field offsets of way i (the index of its tag word).
func (c *Cache) stamp(i int) *uint64 { return &c.words[i+c.ways] }
func (c *Cache) valid(i int) *uint64 { return &c.words[i+2*c.ways] }
func (c *Cache) dirty(i int) *uint64 { return &c.words[i+3*c.ways] }
func (c *Cache) rrpv(i int) *uint64  { return &c.words[i+4*c.ways] }

// findWay returns the way holding tag in set, or -1.
func (c *Cache) findWay(set uint64, tag uint64) int {
	base := int(set) * c.stride
	for w, t := range c.words[base : base+c.ways] {
		if t == tag {
			return base + w
		}
	}
	return -1
}

// Probe reports the lookup outcome without touching replacement state or
// statistics.
func (c *Cache) Probe(addr uint64) Outcome {
	set, tag := c.setAndTag(addr)
	w := c.findWay(set, tag)
	if w < 0 {
		return Miss
	}
	if *c.valid(w)&c.SectorMask(addr) == 0 {
		return SectorMiss
	}
	return Hit
}

// Access performs a lookup for a read or write, updating replacement state
// and statistics. A write hit marks the sector dirty. Writes to absent
// sectors are misses (the cache is write-allocate: the controller fills and
// then calls MarkDirty).
func (c *Cache) Access(addr uint64, write bool) Outcome {
	set, tag := c.setAndTag(addr)
	c.clock++
	c.stAccesses.Inc()
	w := c.findWay(set, tag)
	if w < 0 {
		c.stMisses.Inc()
		return Miss
	}
	if *c.valid(w)&c.SectorMask(addr) == 0 {
		c.stSectorMisses.Inc()
		return SectorMiss
	}
	*c.stamp(w) = c.clock
	if c.cfg.Repl == SRRIP {
		*c.rrpv(w) = 0
	}
	if write {
		*c.dirty(w) |= c.SectorMask(addr)
	}
	c.stHits.Inc()
	return Hit
}

// Fill inserts the given sectors of a line, allocating (and possibly
// evicting) as needed. dirty sectors in dirtyMask are marked dirty. The
// returned eviction is non-nil whenever a valid line was displaced, clean
// or dirty; its DirtyMask says what must be written back. Filling sectors
// that are already present leaves their dirty bits intact (a fill never
// cleans newer data).
func (c *Cache) Fill(lineAddr uint64, sectorMask, dirtyMask uint64) *Eviction {
	var ev Eviction
	if c.FillInto(lineAddr, sectorMask, dirtyMask, &ev) {
		return &ev
	}
	return nil
}

// FillInto is Fill writing any victim into ev (which callers can keep on
// the stack and reuse); it reports whether a valid line was displaced. ev
// is left unchanged when the fill evicts nothing.
func (c *Cache) FillInto(lineAddr uint64, sectorMask, dirtyMask uint64, ev *Eviction) bool {
	if lineAddr%uint64(c.cfg.LineBytes) != 0 {
		panic(fmt.Sprintf("cache %q: misaligned fill %#x", c.cfg.Name, lineAddr))
	}
	set, tag := c.setAndTag(lineAddr)
	c.clock++
	if w := c.findWay(set, tag); w >= 0 {
		newSectors := sectorMask &^ *c.valid(w)
		*c.valid(w) |= sectorMask
		*c.dirty(w) |= dirtyMask & sectorMask
		*c.stamp(w) = c.clock
		if newSectors != 0 {
			c.stSectorFills.Inc()
		}
		return false
	}
	w := c.chooseVictim(set)
	evicted := false
	if c.words[w] != 0 {
		c.stEvictions.Inc()
		evicted = true
		*ev = Eviction{
			LineAddr:  c.lineAddrOf(c.words[w]),
			ValidMask: *c.valid(w),
			DirtyMask: *c.dirty(w),
		}
		if *c.dirty(w) != 0 {
			c.stDirtyEvictions.Inc()
		}
	}
	c.words[w] = tag
	*c.valid(w) = sectorMask
	*c.dirty(w) = dirtyMask & sectorMask
	*c.stamp(w) = c.clock
	if c.cfg.Repl == SRRIP {
		*c.rrpv(w) = maxRRPV - 1 // SRRIP long re-reference insertion
	}
	c.stLineFills.Inc()
	return evicted
}

func (c *Cache) lineAddrOf(tag uint64) uint64 {
	return (tag - 1) * uint64(c.cfg.LineBytes)
}

// chooseVictim returns the way a fill into set replaces.
func (c *Cache) chooseVictim(set uint64) int {
	base := int(set) * c.stride
	// Prefer an invalid way.
	for w, t := range c.words[base : base+c.ways] {
		if t == 0 {
			return base + w
		}
	}
	switch c.cfg.Repl {
	case SRRIP:
		rrpv := c.words[base+4*c.ways : base+5*c.ways]
		for {
			for w, r := range rrpv {
				if r >= maxRRPV {
					return base + w
				}
			}
			for w := range rrpv {
				rrpv[w]++
			}
		}
	default: // LRU
		stamps := c.words[base+c.ways : base+2*c.ways]
		victim := 0
		for w, s := range stamps {
			if s < stamps[victim] {
				victim = w
			}
		}
		return base + victim
	}
}

// MarkDirty sets the dirty bit for addr's sector; the sector must be
// present.
func (c *Cache) MarkDirty(addr uint64) {
	set, tag := c.setAndTag(addr)
	w := c.findWay(set, tag)
	if w < 0 || *c.valid(w)&c.SectorMask(addr) == 0 {
		panic(fmt.Sprintf("cache %q: MarkDirty on absent sector %#x", c.cfg.Name, addr))
	}
	*c.dirty(w) |= c.SectorMask(addr)
}

// CleanSector clears the dirty bit for addr's sector if present (used when
// a writeback completes or a coalescing buffer absorbs the sector).
func (c *Cache) CleanSector(addr uint64) {
	set, tag := c.setAndTag(addr)
	if w := c.findWay(set, tag); w >= 0 {
		*c.dirty(w) &^= c.SectorMask(addr)
	}
}

// InvalidateLine drops a line, returning its dirty mask (0 if absent or
// clean).
func (c *Cache) InvalidateLine(lineAddr uint64) uint64 {
	set, tag := c.setAndTag(lineAddr)
	w := c.findWay(set, tag)
	if w < 0 {
		return 0
	}
	d := *c.dirty(w)
	c.words[w], *c.valid(w), *c.dirty(w) = 0, 0, 0
	return d
}

// ValidMask reports the valid-sector mask of a line (0 if absent).
func (c *Cache) ValidMask(lineAddr uint64) uint64 {
	set, tag := c.setAndTag(lineAddr)
	if w := c.findWay(set, tag); w >= 0 {
		return *c.valid(w)
	}
	return 0
}

// DirtyMask reports the dirty-sector mask of a line (0 if absent).
func (c *Cache) DirtyMask(lineAddr uint64) uint64 {
	set, tag := c.setAndTag(lineAddr)
	if w := c.findWay(set, tag); w >= 0 {
		return *c.dirty(w)
	}
	return 0
}

// CheckConsistency verifies the tag store's structural invariants: every
// dirty bit covers a valid sector, valid lines hold at least one valid
// sector, invalid ways carry no sector state, and no mask uses bits beyond
// the line's sector count. It returns the first violation found, or nil.
// The invariant-audit layer calls it at end of simulation.
func (c *Cache) CheckConsistency() error {
	limit := uint64(1)<<c.sectorsPerLine - 1
	for i := range c.words {
		if i%c.stride >= c.ways {
			continue // not a tag word
		}
		tag, v, d := c.words[i], *c.valid(i), *c.dirty(i)
		if tag == 0 {
			if v != 0 || d != 0 {
				return fmt.Errorf("cache %q: invalid way set %d way %d carries masks v=%#x d=%#x",
					c.cfg.Name, i/c.stride, i%c.stride, v, d)
			}
			continue
		}
		addr := c.lineAddrOf(tag)
		switch {
		case v == 0:
			return fmt.Errorf("cache %q: valid line %#x has no valid sectors", c.cfg.Name, addr)
		case v&^limit != 0 || d&^limit != 0:
			return fmt.Errorf("cache %q: line %#x mask exceeds %d sectors (v=%#x d=%#x)",
				c.cfg.Name, addr, c.sectorsPerLine, v, d)
		case d&^v != 0:
			return fmt.Errorf("cache %q: line %#x dirty sectors not valid (v=%#x d=%#x)",
				c.cfg.Name, addr, v, d)
		}
	}
	return nil
}

// Walk visits every valid line (for drain/flush at end of simulation).
func (c *Cache) Walk(visit func(lineAddr uint64, vmask, dmask uint64)) {
	for i := range c.words {
		if i%c.stride < c.ways && c.words[i] != 0 {
			visit(c.lineAddrOf(c.words[i]), *c.valid(i), *c.dirty(i))
		}
	}
}
