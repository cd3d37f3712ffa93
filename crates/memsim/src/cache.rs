//! A single set-associative cache level with true-LRU replacement.

use std::fmt;

/// Geometry and policy of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Line size in bytes; must be a power of two of at least 4.
    pub line_size: u32,
    /// Number of sets; must be a power of two.
    pub sets: u32,
    /// Associativity (ways per set); must be non-zero.
    pub ways: u32,
}

impl CacheConfig {
    /// Creates a config, validating the geometry.
    ///
    /// # Panics
    ///
    /// Panics if `line_size` or `sets` is not a power of two, if
    /// `line_size` is below 4 (a way keeps its valid and dirty flags in the
    /// line-offset bits of its address), or if `ways` is 0.
    pub fn new(line_size: u32, sets: u32, ways: u32) -> Self {
        let config = Self {
            line_size,
            sets,
            ways,
        };
        config.validate();
        config
    }

    /// Panics as [`CacheConfig::new`] documents. The fields are public, so
    /// [`Cache::new`] checks again what a struct literal skipped.
    fn validate(&self) {
        assert!(
            self.line_size.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(self.line_size >= 4, "line size must be at least 4 bytes");
        assert!(
            self.sets.is_power_of_two(),
            "set count must be a power of two"
        );
        assert!(self.ways > 0, "associativity must be non-zero");
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.line_size as u64 * self.sets as u64 * self.ways as u64
    }
}

/// Cumulative statistics for one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups performed.
    pub accesses: u64,
    /// Lookups that found the line resident.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Resident lines displaced to make room.
    pub evictions: u64,
    /// Dirty lines written back on eviction or flush.
    pub writebacks: u64,
    /// Lines invalidated by flush operations.
    pub flushes: u64,
}

impl CacheStats {
    /// Miss ratio in `0.0..=1.0`; zero when no accesses occurred.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Counts `n` lookups that hit, without visiting a set: all a replay of
    /// hits on resident lines, in the order they were last touched, would
    /// change. The caller vouches for that order.
    #[inline]
    pub(crate) fn count_hits(&mut self, n: u64) {
        self.accesses += n;
        self.hits += n;
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accesses, {} hits, {} misses ({:.2}% miss)",
            self.accesses,
            self.hits,
            self.misses,
            self.miss_ratio() * 100.0
        )
    }
}

/// Flag bits of a way's address word. They live in the line-offset bits,
/// which a line address always has clear (lines are at least 4 bytes).
/// The offset bits above them are free for the sharer bits of a shared
/// LLC (see [`Hierarchy`](crate::Hierarchy)).
const VALID: u64 = 1;
const DIRTY: u64 = 2;

/// The bits a lookup or fill for a write sets in a way's word.
#[inline]
pub(crate) const fn dirty_if(write: bool) -> u64 {
    if write {
        DIRTY
    } else {
        0
    }
}

/// One way of a set: 16 bytes, so an 8-way set spans two host cache lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Way {
    /// The line's byte address with [`VALID`], [`DIRTY`] and any sharer
    /// bits in its low bits; 0 for an invalid way.
    word: u64,
    /// Value of the cache's clock at the line's last touch, for LRU.
    lru: u64,
}

/// Where a missed line goes: the index of a way in the cache, found by the
/// lookup that missed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Slot(usize);

/// The outcome of [`Sets::lookup`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lookup {
    /// The line was resident.
    Hit,
    /// The line was not resident; a fill belongs in this slot.
    Miss(Slot),
}

/// The ways of one cache level and its LRU clock: a level without its
/// statistics. Every operation counts into the [`CacheStats`] its caller
/// passes, so the one LLC of a [`Hierarchy`](crate::Hierarchy) counts each
/// core's traffic into that core's statistics.
///
/// The valid ways of every set form a prefix of it, so a scan stops at the
/// first invalid way, and one pass over a set both probes for a line and
/// picks where a missing one goes: the first invalid way, else the least
/// recently used.
#[derive(Debug, Clone)]
pub(crate) struct Sets {
    config: CacheConfig,
    /// The ways of every set, in set order, from index `first` on.
    ways: Vec<Way>,
    /// The ways skipped before the first host cache line boundary in
    /// `ways`, so that no set spans more host cache lines than its size
    /// needs, whatever address the allocator returned: a misaligned
    /// 16-way set spans five 64-byte lines instead of four.
    first: usize,
    clock: u64,
    line_shift: u32,
    set_mask: u64,
    /// Every line-offset bit but [`VALID`]: the bits a way's word may carry
    /// beyond its key.
    flags: u64,
}

impl Sets {
    /// Empty sets of the given geometry.
    ///
    /// # Panics
    ///
    /// Panics on a geometry [`CacheConfig::new`] would reject, also when
    /// `config` was built as a struct literal.
    pub(crate) fn new(config: CacheConfig) -> Self {
        config.validate();
        const PER_HOST_LINE: usize = 64 / std::mem::size_of::<Way>();
        let ways = vec![Way::default(); (config.sets * config.ways) as usize + PER_HOST_LINE - 1];
        let past_boundary = ways.as_ptr() as usize % 64 / std::mem::size_of::<Way>();
        Self {
            config,
            ways,
            first: (PER_HOST_LINE - past_boundary) % PER_HOST_LINE,
            clock: 0,
            line_shift: config.line_size.trailing_zeros(),
            set_mask: (config.sets - 1) as u64,
            flags: (config.line_size - 1) as u64 & !VALID,
        }
    }

    /// The word a valid, clean way holding `addr`'s line carries with no
    /// sharer bits. Any line-offset bits of `addr` are ignored, so a way's
    /// word names its own line.
    #[inline]
    fn key(&self, addr: u64) -> u64 {
        (addr >> self.line_shift << self.line_shift) | VALID
    }

    /// Index of the first way of the set `addr` maps to.
    #[inline]
    fn set_start(&self, addr: u64) -> usize {
        self.first
            + ((addr >> self.line_shift) & self.set_mask) as usize * self.config.ways as usize
    }

    /// Looks `addr` up in one pass over its set. A hit refreshes the line's
    /// LRU stamp and sets the bits of `mark` (dirty, sharer) in its word; a
    /// miss returns the slot a fill of the line must use. Counts one access.
    #[inline]
    pub(crate) fn lookup(&mut self, addr: u64, mark: u64, stats: &mut CacheStats) -> Lookup {
        self.clock += 1;
        stats.accesses += 1;
        let clock = self.clock;
        let key = self.key(addr);
        let flags = self.flags;
        let start = self.set_start(addr);
        let set = &mut self.ways[start..start + self.config.ways as usize];
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for (i, way) in set.iter_mut().enumerate() {
            if way.word & !flags == key {
                way.lru = clock;
                way.word |= mark;
                stats.hits += 1;
                return Lookup::Hit;
            }
            if way.word == 0 {
                // The first invalid way: the line is not resident, and an
                // empty way always takes a fill before any eviction.
                victim = i;
                break;
            }
            let older = way.lru < oldest;
            victim = if older { i } else { victim };
            oldest = if older { way.lru } else { oldest };
        }
        stats.misses += 1;
        Lookup::Miss(Slot(start + victim))
    }

    /// Installs `addr`'s line with the bits of `mark` in `slot`, which a
    /// missed [`Sets::lookup`] of the same line returned (or
    /// [`Sets::back_invalidate`] moved), and returns the word of the way it
    /// evicted, if any: the evicted line's address with its flag and sharer
    /// bits.
    #[inline]
    pub(crate) fn install(
        &mut self,
        slot: Slot,
        addr: u64,
        mark: u64,
        stats: &mut CacheStats,
    ) -> Option<u64> {
        self.clock += 1;
        let new = Way {
            word: self.key(addr) | mark,
            lru: self.clock,
        };
        let old = std::mem::replace(&mut self.ways[slot.0], new).word;
        if old == 0 {
            return None;
        }
        stats.evictions += 1;
        stats.writebacks += u64::from(old & DIRTY != 0);
        Some(old)
    }

    /// Invalidates `victim`'s line to keep an outer level's eviction
    /// inclusive, and returns where the pending fill of `slot` goes now: if
    /// the invalidation emptied a way in `slot`'s set, that way, since a
    /// fill takes an empty way before evicting.
    pub(crate) fn back_invalidate(
        &mut self,
        victim: u64,
        slot: Slot,
        stats: &mut CacheStats,
    ) -> Slot {
        let (first, ways) = (self.first, self.config.ways as usize);
        let set = |way: usize| (way - first) / ways;
        match self.remove(victim, stats) {
            Some(hole) if set(hole) == set(slot.0) => Slot(hole),
            _ => slot,
        }
    }

    /// Invalidates `addr`'s line, if resident, and returns the index of the
    /// way that became invalid. The set's last valid way moves into the
    /// hole, so the valid ways stay a prefix of the set.
    pub(crate) fn remove(&mut self, addr: u64, stats: &mut CacheStats) -> Option<usize> {
        let key = self.key(addr);
        let flags = self.flags;
        let start = self.set_start(addr);
        let set = &mut self.ways[start..start + self.config.ways as usize];
        let hit = set
            .iter()
            .take_while(|w| w.word != 0)
            .position(|w| w.word & !flags == key)?;
        let last = hit + set[hit + 1..].iter().take_while(|w| w.word != 0).count();
        let dirty = set[hit].word & DIRTY != 0;
        set[hit] = set[last];
        set[last] = Way::default();
        stats.writebacks += u64::from(dirty);
        stats.flushes += 1;
        Some(start + last)
    }

    /// Checks residency without updating LRU or statistics.
    pub(crate) fn contains(&self, addr: u64) -> bool {
        let key = self.key(addr);
        let start = self.set_start(addr);
        self.ways[start..start + self.config.ways as usize]
            .iter()
            .take_while(|w| w.word != 0)
            .any(|w| w.word & !self.flags == key)
    }

    /// Invalidates everything (e.g. simulating `wbinvd`).
    pub(crate) fn flush_all(&mut self, stats: &mut CacheStats) {
        for way in &mut self.ways {
            if way.word != 0 {
                stats.writebacks += u64::from(way.word & DIRTY != 0);
                stats.flushes += 1;
            }
            *way = Way::default();
        }
    }

    /// Number of currently valid lines.
    fn resident_lines(&self) -> usize {
        self.ways.iter().filter(|w| w.word != 0).count()
    }
}

/// One set-associative cache level.
///
/// Addresses are byte addresses; the cache works on aligned lines
/// internally.
#[derive(Debug, Clone)]
pub struct Cache {
    sets: Sets,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics on a geometry [`CacheConfig::new`] would reject, also when
    /// `config` was built as a struct literal.
    pub fn new(config: CacheConfig) -> Self {
        Self {
            sets: Sets::new(config),
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.sets.config
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets statistics without touching cache contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Looks up `addr`; returns `true` on hit. On hit the line's LRU stamp is
    /// refreshed and, if `write`, the line is marked dirty. **Does not fill**
    /// on miss — the hierarchy decides fills so it can model inclusion.
    pub fn probe(&mut self, addr: u64, write: bool) -> bool {
        self.sets.lookup(addr, dirty_if(write), &mut self.stats) == Lookup::Hit
    }

    /// Standalone single-level access: probes and fills on miss.
    ///
    /// Returns `true` on hit. Use [`Hierarchy`](crate::Hierarchy) for
    /// multi-level behaviour; this is for using one cache level directly.
    pub fn access(&mut self, addr: u64, write: bool) -> bool {
        match self.sets.lookup(addr, dirty_if(write), &mut self.stats) {
            Lookup::Hit => true,
            Lookup::Miss(slot) => {
                self.sets
                    .install(slot, addr, dirty_if(write), &mut self.stats);
                false
            }
        }
    }

    /// Checks residency without updating LRU or statistics.
    pub fn contains(&self, addr: u64) -> bool {
        self.sets.contains(addr)
    }

    /// Invalidates the line containing `addr` (the `clflush` primitive).
    ///
    /// Returns `true` if a line was present; dirty lines count a writeback.
    pub fn flush_line(&mut self, addr: u64) -> bool {
        self.sets.remove(addr, &mut self.stats).is_some()
    }

    /// Invalidates everything (e.g. simulating `wbinvd`).
    pub fn flush_all(&mut self) {
        self.sets.flush_all(&mut self.stats);
    }

    /// Number of currently valid lines.
    pub fn resident_lines(&self) -> usize {
        self.sets.resident_lines()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 64B lines = 256 B.
        Cache::new(CacheConfig::new(64, 2, 2))
    }

    /// Misses on `addr` and installs its line, as a hierarchy fill does;
    /// returns the evicted line.
    fn fill(c: &mut Cache, addr: u64, write: bool) -> Option<u64> {
        match c.sets.lookup(addr, dirty_if(write), &mut c.stats) {
            Lookup::Miss(slot) => c
                .sets
                .install(slot, addr, dirty_if(write), &mut c.stats)
                .map(|word| word >> 6 << 6),
            Lookup::Hit => panic!("{addr:#x} is already resident"),
        }
    }

    #[test]
    fn capacity() {
        assert_eq!(CacheConfig::new(64, 64, 8).capacity_bytes(), 32 * 1024);
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_line_panics() {
        CacheConfig::new(48, 2, 2);
    }

    #[test]
    #[should_panic(expected = "at least 4 bytes")]
    fn line_below_four_bytes_panics() {
        CacheConfig::new(2, 2, 2);
    }

    // A struct literal skips `CacheConfig::new`; `Cache::new` must not
    // trust it. Unchecked, a 2-byte line keeps the same line resident
    // twice, 3 sets never use set 1, and 0 ways panic on the first fill.

    #[test]
    #[should_panic(expected = "line size must be a power of two")]
    fn literal_with_non_power_of_two_line_panics() {
        Cache::new(CacheConfig {
            line_size: 48,
            sets: 2,
            ways: 2,
        });
    }

    #[test]
    #[should_panic(expected = "at least 4 bytes")]
    fn literal_with_line_below_four_bytes_panics() {
        Cache::new(CacheConfig {
            line_size: 2,
            sets: 1,
            ways: 4,
        });
    }

    #[test]
    #[should_panic(expected = "set count must be a power of two")]
    fn literal_with_non_power_of_two_sets_panics() {
        Cache::new(CacheConfig {
            line_size: 64,
            sets: 3,
            ways: 2,
        });
    }

    #[test]
    #[should_panic(expected = "associativity must be non-zero")]
    fn literal_with_zero_ways_panics() {
        Cache::new(CacheConfig {
            line_size: 64,
            sets: 2,
            ways: 0,
        });
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x100, false));
        assert!(c.access(0x100, false));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn probe_does_not_fill() {
        let mut c = tiny();
        assert!(!c.probe(0x100, false));
        assert!(!c.contains(0x100));
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn same_line_different_bytes_hit() {
        let mut c = tiny();
        c.access(0x100, false);
        assert!(c.probe(0x13F, false), "byte 63 of the same 64B line");
        assert!(!c.probe(0x140, false), "next line misses");
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Addresses with (addr >> 6) even map to set 0: 0x000, 0x100, 0x200.
        fill(&mut c, 0x000, false);
        fill(&mut c, 0x100, false);
        assert!(c.probe(0x000, false)); // refresh 0x000; 0x100 becomes LRU
        assert_eq!(fill(&mut c, 0x200, false), Some(0x100));
        assert!(c.contains(0x000));
        assert!(!c.contains(0x100));
        assert!(c.contains(0x200));
    }

    #[test]
    fn fill_prefers_invalid_ways() {
        let mut c = tiny();
        fill(&mut c, 0x000, false);
        assert_eq!(fill(&mut c, 0x100, false), None);
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = tiny();
        fill(&mut c, 0x000, true); // dirty
        fill(&mut c, 0x100, false);
        // Evicts dirty 0x000 (LRU).
        assert_eq!(fill(&mut c, 0x200, false), Some(0x000));
        assert_eq!(c.stats().writebacks, 1);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny();
        fill(&mut c, 0x000, false);
        assert!(c.probe(0x000, true));
        fill(&mut c, 0x100, false);
        assert_eq!(fill(&mut c, 0x200, false), Some(0x000));
        assert_eq!(c.stats().writebacks, 1, "write hit dirtied the line");
    }

    #[test]
    fn flush_line_invalidates() {
        let mut c = tiny();
        fill(&mut c, 0x000, false);
        assert!(c.flush_line(0x020)); // same line, different byte
        assert!(!c.contains(0x000));
        assert!(!c.flush_line(0x000), "second flush finds nothing");
        assert_eq!(c.stats().flushes, 1);
    }

    #[test]
    fn flush_in_a_full_set_keeps_valid_ways_a_prefix() {
        // One set of 4 ways; lines 0x000, 0x040, 0x080, 0x0C0.
        let mut c = Cache::new(CacheConfig::new(64, 1, 4));
        for line in 0..4 {
            fill(&mut c, line * 0x40, line == 1);
        }
        assert!(c.flush_line(0x040), "flush the dirty line in way 1");
        assert_eq!(c.stats().writebacks, 1);
        // The last way moved into the hole; the hole is now the last way.
        let first = c.sets.first;
        assert_eq!(c.sets.ways[first + 1].word, 0x0C0 | VALID);
        assert_eq!(c.sets.ways[first + 3], Way::default());
        for line in [0x000, 0x080, 0x0C0] {
            assert!(c.contains(line));
        }
        // The next miss fills the emptied way and evicts nothing.
        let hole = Slot(first + 3);
        assert_eq!(c.sets.lookup(0x100, 0, &mut c.stats), Lookup::Miss(hole));
        assert_eq!(c.sets.install(hole, 0x100, 0, &mut c.stats), None);
        // LRU order survived the move: 0x000 is the oldest.
        assert_eq!(fill(&mut c, 0x140, false), Some(0x000));
    }

    #[test]
    fn back_invalidation_redirects_a_fill_in_the_same_set() {
        let mut c = Cache::new(CacheConfig::new(64, 2, 2));
        fill(&mut c, 0x000, false);
        fill(&mut c, 0x080, false);
        let Cache { sets, stats } = &mut c;
        let Lookup::Miss(lru) = sets.lookup(0x100, 0, stats) else {
            panic!("0x100 is not resident");
        };
        assert_eq!(lru, Slot(sets.first), "the full set's LRU way");
        // Invalidating a line of the same set frees a way for the fill.
        let slot = sets.back_invalidate(0x080, lru, stats);
        assert_eq!(slot, Slot(sets.first + 1));
        assert_eq!(sets.install(slot, 0x100, 0, stats), None);
        assert!(c.contains(0x000) && c.contains(0x100));
        // A line of another set, or one not resident, leaves the slot.
        fill(&mut c, 0x040, false);
        let Cache { sets, stats } = &mut c;
        let Lookup::Miss(slot) = sets.lookup(0x180, 0, stats) else {
            panic!("0x180 is not resident");
        };
        assert_eq!(sets.back_invalidate(0x040, slot, stats), slot);
        assert_eq!(sets.back_invalidate(0x200, slot, stats), slot);
    }

    #[test]
    fn sharer_bits_do_not_change_a_line_s_identity() {
        // Bits above VALID and DIRTY in a 64-byte line's offset: a word
        // carrying them still names its line.
        let mut c = Cache::new(CacheConfig::new(64, 2, 2));
        let Cache { sets, stats } = &mut c;
        let Lookup::Miss(slot) = sets.lookup(0x000, 0, stats) else {
            panic!("cold");
        };
        assert_eq!(sets.install(slot, 0x000, 0x3C, stats), None);
        assert_eq!(sets.lookup(0x010, DIRTY, stats), Lookup::Hit);
        assert!(sets.contains(0x000));
        assert_eq!(sets.ways[sets.first].word, 0x3C | DIRTY | VALID);
        fill(&mut c, 0x080, false);
        // The evicted word carries the sharer bits; its line is 0x000.
        let Cache { sets, stats } = &mut c;
        let Lookup::Miss(slot) = sets.lookup(0x100, 0, stats) else {
            panic!("0x100 is not resident");
        };
        assert_eq!(
            sets.install(slot, 0x100, 0, stats),
            Some(0x3C | DIRTY | VALID)
        );
        assert_eq!(c.stats().writebacks, 1);
        assert!(c.flush_line(0x080));
        assert!(!c.contains(0x000));
    }

    #[test]
    fn sets_start_on_a_host_cache_line() {
        for ways in [1, 2, 4, 8, 16] {
            let c = Cache::new(CacheConfig::new(64, 8, ways));
            let start = c.sets.ways[c.sets.first..].as_ptr() as usize;
            // The allocator returns memory aligned to 16 bytes or more on
            // the platforms this runs on; the skip does the rest.
            if (c.sets.ways.as_ptr() as usize).is_multiple_of(16) {
                assert_eq!(start % 64, 0, "{ways} ways");
            }
            assert!(c.sets.first + 8 * ways as usize <= c.sets.ways.len());
        }
    }

    #[test]
    fn flush_all_clears_everything() {
        let mut c = tiny();
        fill(&mut c, 0x000, true);
        fill(&mut c, 0x040, false);
        c.flush_all();
        assert_eq!(c.resident_lines(), 0);
        assert_eq!(c.stats().writebacks, 1);
        assert_eq!(c.stats().flushes, 2);
    }

    #[test]
    fn contains_does_not_disturb_lru_or_stats() {
        let mut c = tiny();
        fill(&mut c, 0x000, false);
        fill(&mut c, 0x100, false);
        let before = c.stats();
        assert!(c.contains(0x000));
        assert_eq!(c.stats(), before);
        // 0x000 is still LRU (contains didn't refresh it).
        assert_eq!(fill(&mut c, 0x200, false), Some(0x000));
    }

    #[test]
    fn sets_isolate_addresses() {
        let mut c = tiny();
        // Set 1 addresses: 0x040, 0x0C0, 0x140...
        fill(&mut c, 0x040, false);
        fill(&mut c, 0x0C0, false);
        fill(&mut c, 0x140, false); // evicts within set 1 only
        assert!(c.contains(0x140));
        // Set 0 untouched.
        fill(&mut c, 0x000, false);
        assert!(c.contains(0x000));
    }

    #[test]
    fn miss_ratio() {
        let mut c = tiny();
        c.access(0x0, false);
        c.access(0x0, false);
        assert!((c.stats().miss_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(CacheStats::default().miss_ratio(), 0.0);
    }
}
