//! Three-level inclusive cache hierarchy, private L1d and L2 per core over
//! one shared LLC, with a latency model.

use crate::cache::{dirty_if, CacheConfig, CacheStats, Lookup, Sets};
use crate::pattern::AccessPattern;

/// Whether a memory access reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Load.
    Read,
    /// Store.
    Write,
}

impl AccessKind {
    /// True for [`AccessKind::Write`].
    pub(crate) const fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

/// Access latencies per level, in core cycles.
///
/// Defaults approximate the paper's Core i7-920 (Nehalem).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    /// L1d hit latency.
    pub l1_hit: u32,
    /// L2 hit latency.
    pub l2_hit: u32,
    /// LLC hit latency.
    pub llc_hit: u32,
    /// Main-memory latency.
    pub memory: u32,
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self {
            l1_hit: 4,
            l2_hit: 11,
            llc_hit: 38,
            memory: 200,
        }
    }
}

/// Geometry of the full hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// Level-1 data cache.
    pub l1d: CacheConfig,
    /// Level-2 unified cache.
    pub l2: CacheConfig,
    /// Last-level cache.
    pub llc: CacheConfig,
    /// Latency model.
    pub latency: LatencyModel,
}

impl HierarchyConfig {
    /// Intel Core i7-920 geometry (the paper's local machine): 32 KiB
    /// 8-way L1d, 256 KiB 8-way L2, 8 MiB 16-way shared LLC, 64-byte lines.
    pub fn i7_920() -> Self {
        Self {
            l1d: CacheConfig::new(64, 64, 8),
            l2: CacheConfig::new(64, 512, 8),
            llc: CacheConfig::new(64, 8192, 16),
            latency: LatencyModel::default(),
        }
    }

    /// Intel Xeon Platinum 8259CL (Cascade Lake) geometry — the paper's AWS
    /// verification machine: 32 KiB 8-way L1d, 1 MiB 16-way L2, and a large
    /// shared LLC (modelled at 32 MiB, 11-way rounded to 16), with slightly
    /// different latencies (bigger L2, non-inclusive slower LLC).
    pub fn xeon_8259cl() -> Self {
        Self {
            l1d: CacheConfig::new(64, 64, 8),
            l2: CacheConfig::new(64, 1024, 16),
            llc: CacheConfig::new(64, 32768, 16),
            latency: LatencyModel {
                l1_hit: 4,
                l2_hit: 14,
                llc_hit: 50,
                memory: 220,
            },
        }
    }

    /// A deliberately small geometry for fast unit tests: 1 KiB L1,
    /// 4 KiB L2, 16 KiB LLC.
    pub fn tiny() -> Self {
        Self {
            l1d: CacheConfig::new(64, 8, 2),
            l2: CacheConfig::new(64, 16, 4),
            llc: CacheConfig::new(64, 64, 4),
            latency: LatencyModel::default(),
        }
    }
}

/// Per-access outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Hit in L1d.
    pub l1_hit: bool,
    /// Hit in L2 (only meaningful when L1 missed).
    pub l2_hit: bool,
    /// Hit in LLC (only meaningful when L2 missed).
    pub llc_hit: bool,
    /// Total latency in core cycles.
    pub latency_cycles: u32,
}

impl AccessResult {
    #[inline]
    const fn at(l1_hit: bool, l2_hit: bool, llc_hit: bool, latency_cycles: u32) -> Self {
        Self {
            l1_hit,
            l2_hit,
            llc_hit,
            latency_cycles,
        }
    }

    /// True if the access had to go to main memory.
    pub const fn memory_access(&self) -> bool {
        !self.l1_hit && !self.l2_hit && !self.llc_hit
    }
}

/// Cumulative event-relevant statistics of one core's accesses.
///
/// `llc_references` counts accesses that *reached* the LLC (i.e. missed L2),
/// which is how the architectural `LONGEST_LAT_CACHE.REFERENCE` event counts.
/// [`CoreView::stats`] derives every field from the core's per-level
/// counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemStats {
    /// Total accesses issued.
    pub accesses: u64,
    /// L1d misses.
    pub l1d_misses: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// Accesses that reached the LLC.
    pub llc_references: u64,
    /// LLC misses (went to memory).
    pub llc_misses: u64,
    /// Sum of access latencies, in cycles.
    pub total_latency_cycles: u64,
}

/// Statistics of one core's accesses at each level.
#[derive(Debug, Clone, Copy, Default)]
struct Levels {
    l1d: CacheStats,
    l2: CacheStats,
    /// The core's own traffic through the shared LLC: its lookups, the
    /// evictions its fills caused and the lines its `clflush` removed.
    llc: CacheStats,
}

/// One core's private levels.
#[derive(Debug, Clone)]
struct Private {
    l1d: Sets,
    l2: Sets,
    stats: Levels,
    /// The core's sharer bit in an LLC way's word; 0 in a one-core
    /// hierarchy, whose LLC words carry none.
    sharer: u64,
    /// The pattern the core's last [`Hierarchy::run_on`] played, kept while
    /// a replay of it would only hit L1d: every access of it did, the core
    /// has played nothing since, and no line has left its L1d since.
    repeat: Option<AccessPattern>,
}

impl Private {
    /// Drops `addr`'s line from L2 and L1d, as an LLC eviction or `clflush`
    /// does. A line leaving L1d forgets the remembered pattern.
    fn invalidate(&mut self, addr: u64) {
        self.l2.remove(addr, &mut self.stats.l2);
        if self.l1d.remove(addr, &mut self.stats.l1d).is_some() {
            self.repeat = None;
        }
    }
}

/// N private L1d/L2 pairs over one shared LLC.
///
/// Inclusion is enforced downward: evicting a line from the LLC
/// back-invalidates it from L2 and L1 of every core holding it, as on real
/// inclusive Intel designs. This matters for Flush+Reload, where the
/// attacker evicts through the LLC.
///
/// An LLC way keeps the core-valid bits of Nehalem's inclusive L3: one
/// sharer bit per core, in the line-offset bits above the valid and dirty
/// flags, set when the core fills the line from the LLC. A core that
/// silently drops the line from its own levels leaves its bit set, which
/// only costs a back-invalidation that finds nothing. An LLC eviction
/// back-invalidates the filling core, as with one core, and the other
/// cores whose bit the line carries. A one-core hierarchy sets no bits.
///
/// [`Hierarchy::new`] builds one core, and the plain methods
/// ([`Hierarchy::access`], [`Hierarchy::clflush`], [`Hierarchy::stats`])
/// act for and report core 0. [`Hierarchy::with_cores`] builds several; the `_on` methods and
/// [`Hierarchy::core`] name the core.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    cores: Vec<Private>,
    llc: Sets,
    /// The sharer bits of every core.
    sharers: u64,
    latency: LatencyModel,
}

impl Hierarchy {
    /// Builds a one-core hierarchy from an explicit configuration.
    pub fn new(config: HierarchyConfig) -> Self {
        Self::with_cores(config, 1)
    }

    /// Builds `cores` private L1d/L2 pairs over one shared LLC.
    ///
    /// # Panics
    ///
    /// Panics on a geometry [`CacheConfig::new`] would reject, if `cores`
    /// is 0, or if the LLC's line-offset bits above the valid and dirty
    /// flags have no room for a sharer bit per core: a 64-byte line has
    /// room for 4 cores.
    pub fn with_cores(config: HierarchyConfig, cores: usize) -> Self {
        let llc = Sets::new(config.llc);
        let room = config.llc.line_size.trailing_zeros() as usize - 2;
        assert!(cores > 0, "a hierarchy needs at least one core");
        assert!(
            cores == 1 || cores <= room,
            "a {}-byte LLC line has room for {room} sharer bits, not {cores}",
            config.llc.line_size
        );
        // Bit 2 is the first offset bit above VALID and DIRTY.
        let sharer = |core: usize| if cores == 1 { 0 } else { 4 << core };
        Self {
            cores: (0..cores)
                .map(|core| Private {
                    l1d: Sets::new(config.l1d),
                    l2: Sets::new(config.l2),
                    stats: Levels::default(),
                    sharer: sharer(core),
                    repeat: None,
                })
                .collect(),
            llc,
            sharers: (0..cores).map(sharer).fold(0, |all, bit| all | bit),
            latency: config.latency,
        }
    }

    /// Small geometry for tests.
    pub fn tiny() -> Self {
        Self::new(HierarchyConfig::tiny())
    }

    /// One core's view: its statistics.
    ///
    /// # Panics
    ///
    /// Panics if the hierarchy has no core `core`.
    pub fn core(&self, core: usize) -> CoreView<'_> {
        CoreView {
            private: &self.cores[core],
            latency: self.latency,
        }
    }

    /// Performs one access on core 0; see [`Hierarchy::access_on`].
    #[inline]
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> AccessResult {
        self.access_on(0, addr, kind)
    }

    /// Performs one access on `core`, updating every level and the core's
    /// statistics.
    ///
    /// Each level's set is scanned once: a lookup that misses already knows
    /// where the line will be installed on the way back in.
    #[inline]
    pub fn access_on(&mut self, core: usize, addr: u64, kind: AccessKind) -> AccessResult {
        self.cores[core].repeat = None;
        self.play(core, addr, kind)
    }

    /// [`Hierarchy::access_on`], leaving the remembered pattern to the
    /// caller.
    #[inline]
    fn play(&mut self, core: usize, addr: u64, kind: AccessKind) -> AccessResult {
        let dirty = dirty_if(kind.is_write());
        let lat = self.latency;
        let me = &mut self.cores[core];
        let Lookup::Miss(mut l1_slot) = me.l1d.lookup(addr, dirty, &mut me.stats.l1d) else {
            return AccessResult::at(true, false, false, lat.l1_hit);
        };
        let Lookup::Miss(mut l2_slot) = me.l2.lookup(addr, dirty, &mut me.stats.l2) else {
            me.l1d.install(l1_slot, addr, dirty, &mut me.stats.l1d);
            return AccessResult::at(false, true, false, lat.l2_hit);
        };
        let mark = dirty | me.sharer;
        let Lookup::Miss(llc_slot) = self.llc.lookup(addr, mark, &mut me.stats.llc) else {
            me.l2.install(l2_slot, addr, dirty, &mut me.stats.l2);
            me.l1d.install(l1_slot, addr, dirty, &mut me.stats.l1d);
            return AccessResult::at(false, false, true, lat.llc_hit);
        };
        // Memory access: fill every level (inclusive).
        let evicted = self.llc.install(llc_slot, addr, mark, &mut me.stats.llc);
        if let Some(victim) = evicted {
            l2_slot = me.l2.back_invalidate(victim, l2_slot, &mut me.stats.l2);
            l1_slot = me.l1d.back_invalidate(victim, l1_slot, &mut me.stats.l1d);
        }
        me.l2.install(l2_slot, addr, dirty, &mut me.stats.l2);
        me.l1d.install(l1_slot, addr, dirty, &mut me.stats.l1d);
        if let Some(victim) = evicted {
            // The other cores that took the line from the LLC. None when the
            // filling core is its only sharer, as always with one core.
            let others = victim & self.sharers & !me.sharer;
            if others != 0 {
                self.back_invalidate(others, victim);
            }
        }
        AccessResult::at(false, false, false, lat.memory)
    }

    /// Drops `victim`'s line from the private levels of every core whose
    /// sharer bit `sharers` carries.
    fn back_invalidate(&mut self, sharers: u64, victim: u64) {
        for core in &mut self.cores {
            if sharers & core.sharer != 0 {
                core.invalidate(victim);
            }
        }
    }

    /// Runs `pattern` on core 0; see [`Hierarchy::run_on`].
    #[cfg(test)]
    pub(crate) fn run(&mut self, pattern: &AccessPattern) {
        self.run_on(0, pattern);
    }

    /// Performs every access of `pattern` on `core`, in order, exactly as
    /// [`Hierarchy::access_on`] would; the effect shows in the core's
    /// [`CoreView::stats`].
    ///
    /// An exact repeat visits no set. If the core's previous call ran an
    /// equal pattern, every access of it hit L1d, the core played nothing
    /// in between and no line left its L1d since (by its own or another
    /// core's `clflush`, by another core's fill back-invalidating it, or by
    /// `flush_all`), then a replay would hit the same resident lines in the
    /// same order: it would set no new dirty bit, leave every set's recency
    /// order as it is and reach no outer level. So the call only adds the
    /// pattern's length to L1d's accesses and hits, and every later result,
    /// statistic and eviction is the same.
    pub fn run_on(&mut self, core: usize, pattern: &AccessPattern) {
        let me = &mut self.cores[core];
        if me.repeat == Some(*pattern) {
            me.stats.l1d.count_hits(pattern.len());
            return;
        }
        let misses = me.stats.l1d.misses;
        for (addr, kind) in pattern.cursor() {
            self.play(core, addr, kind);
        }
        let me = &mut self.cores[core];
        me.repeat = (me.stats.l1d.misses == misses).then_some(*pattern);
    }

    /// Flushes the line containing `addr` on behalf of core 0; see
    /// [`Hierarchy::clflush_on`].
    pub fn clflush(&mut self, addr: u64) {
        self.clflush_on(0, addr);
    }

    /// Flushes the line containing `addr` from every level of every core
    /// and from the LLC (`clflush` on `core`, which counts the LLC flush).
    pub fn clflush_on(&mut self, core: usize, addr: u64) {
        for private in &mut self.cores {
            private.invalidate(addr);
        }
        self.llc.remove(addr, &mut self.cores[core].stats.llc);
    }

    /// Flushes all levels entirely (`wbinvd` on core 0, which counts the
    /// LLC's flushes).
    #[cfg(test)]
    pub(crate) fn flush_all(&mut self) {
        for private in &mut self.cores {
            private.l1d.flush_all(&mut private.stats.l1d);
            private.l2.flush_all(&mut private.stats.l2);
            private.repeat = None;
        }
        self.llc.flush_all(&mut self.cores[0].stats.llc);
    }

    /// True if the line containing `addr` is resident anywhere.
    pub fn is_cached(&self, addr: u64) -> bool {
        self.llc.contains(addr)
            || self
                .cores
                .iter()
                .any(|c| c.l1d.contains(addr) || c.l2.contains(addr))
    }

    /// Core 0's statistics; see [`CoreView::stats`].
    pub fn stats(&self) -> MemStats {
        self.core(0).stats()
    }

    /// Core 0's per-level statistics; see [`CoreView::level_stats`].
    #[cfg(test)]
    pub(crate) fn level_stats(&self) -> (CacheStats, CacheStats, CacheStats) {
        self.core(0).level_stats()
    }

    /// Resets every core's statistics (cache contents retained).
    #[cfg(test)]
    pub(crate) fn reset_stats(&mut self) {
        for private in &mut self.cores {
            private.stats = Levels::default();
        }
    }

    /// The latency model in use.
    pub fn latency_model(&self) -> LatencyModel {
        self.latency
    }

    /// Whether `core`'s L1d and L2 hold `addr`'s line.
    #[cfg(test)]
    pub(crate) fn holds(&self, core: usize, addr: u64) -> (bool, bool) {
        let private = &self.cores[core];
        (private.l1d.contains(addr), private.l2.contains(addr))
    }

    /// The pattern `core`'s next equal run would not replay.
    #[cfg(test)]
    pub(crate) fn remembered(&self, core: usize) -> Option<AccessPattern> {
        self.cores[core].repeat
    }
}

/// One core's view of a [`Hierarchy`]: the statistics of its private
/// levels and of its own traffic through the shared LLC, so that each
/// core's PMU sees only that core's events.
#[derive(Debug, Clone, Copy)]
pub struct CoreView<'a> {
    private: &'a Private,
    latency: LatencyModel,
}

impl CoreView<'_> {
    /// Cumulative statistics, derived from the per-level counters: every
    /// access looks up L1d, every L1d miss L2, every L2 miss the LLC, and an
    /// access costs the latency of the level it hit (memory on an LLC miss).
    pub fn stats(&self) -> MemStats {
        let (l1, l2, llc) = self.level_stats();
        let lat = self.latency;
        MemStats {
            accesses: l1.accesses,
            l1d_misses: l1.misses,
            l2_misses: l2.misses,
            llc_references: llc.accesses,
            llc_misses: llc.misses,
            total_latency_cycles: l1.hits * lat.l1_hit as u64
                + l2.hits * lat.l2_hit as u64
                + llc.hits * lat.llc_hit as u64
                + llc.misses * lat.memory as u64,
        }
    }

    /// Per-level raw statistics `(l1d, l2, llc)`. The LLC's are this core's
    /// share: its lookups, which are its L2 misses, its hits and misses,
    /// the evictions its fills caused and the lines its `clflush` removed.
    pub fn level_stats(&self) -> (CacheStats, CacheStats, CacheStats) {
        let s = self.private.stats;
        (s.l1d, s.l2, s.llc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_access_goes_to_memory() {
        let mut h = Hierarchy::tiny();
        let r = h.access(0x4000, AccessKind::Read);
        assert!(r.memory_access());
        assert_eq!(r.latency_cycles, 200);
        assert_eq!(h.stats().llc_misses, 1);
        assert_eq!(h.stats().llc_references, 1);
    }

    #[test]
    fn second_access_hits_l1() {
        let mut h = Hierarchy::tiny();
        h.access(0x4000, AccessKind::Read);
        let r = h.access(0x4000, AccessKind::Read);
        assert!(r.l1_hit);
        assert_eq!(r.latency_cycles, 4);
        assert_eq!(h.stats().llc_references, 1, "hit never reached LLC");
    }

    #[test]
    fn l1_eviction_falls_back_to_l2() {
        let mut h = Hierarchy::tiny();
        // Tiny L1: 8 sets x 2 ways. Fill 3 lines mapping to the same L1 set
        // (stride = 8 sets * 64B = 512B) to evict the first.
        h.access(0x0000, AccessKind::Read);
        h.access(0x0200, AccessKind::Read);
        h.access(0x0400, AccessKind::Read);
        let r = h.access(0x0000, AccessKind::Read);
        assert!(!r.l1_hit);
        assert!(r.l2_hit, "evicted from L1 but still in L2");
    }

    #[test]
    fn clflush_forces_memory_access() {
        let mut h = Hierarchy::tiny();
        h.access(0x4000, AccessKind::Read);
        assert!(h.is_cached(0x4000));
        h.clflush(0x4000);
        assert!(!h.is_cached(0x4000));
        let r = h.access(0x4000, AccessKind::Read);
        assert!(r.memory_access());
    }

    #[test]
    fn flush_reload_distinguishes_by_latency() {
        // The core Flush+Reload primitive: after flushing, a reload of a
        // line the victim touched is fast; an untouched line is slow.
        let mut h = Hierarchy::tiny();
        let touched = 0x1_0000u64;
        let untouched = 0x2_0000u64;
        h.clflush(touched);
        h.clflush(untouched);
        // Victim touches one line.
        h.access(touched, AccessKind::Read);
        // Attacker reloads both and times them.
        let fast = h.access(touched, AccessKind::Read);
        let slow = h.access(untouched, AccessKind::Read);
        assert!(fast.latency_cycles < slow.latency_cycles);
    }

    #[test]
    fn llc_eviction_back_invalidates_inner_levels() {
        // Fill one LLC set past its associativity and check the victim is
        // gone from L1/L2 too (inclusive hierarchy).
        let mut h = Hierarchy::tiny();
        // Tiny LLC: 64 sets x 4 ways, stride for one set = 64*64 = 4096B.
        let base = 0u64;
        for i in 0..5 {
            h.access(base + i * 4096, AccessKind::Read);
        }
        // First line was evicted from LLC; inclusion says nowhere else either.
        assert!(!h.is_cached(base));
    }

    #[test]
    fn stats_accumulate() {
        let mut h = Hierarchy::tiny();
        for i in 0..10 {
            h.access(i * 64, AccessKind::Read);
        }
        for i in 0..10 {
            h.access(i * 64, AccessKind::Read);
        }
        let s = h.stats();
        assert_eq!(s.accesses, 20);
        assert_eq!(s.llc_misses, 10);
        assert!(s.total_latency_cycles >= 10 * 200 + 10 * 4);
        h.reset_stats();
        assert_eq!(h.stats(), MemStats::default());
    }

    #[test]
    fn write_then_evict_produces_writeback() {
        let mut h = Hierarchy::tiny();
        h.access(0x0000, AccessKind::Write);
        // Evict through L1 set (stride 512).
        h.access(0x0200, AccessKind::Write);
        h.access(0x0400, AccessKind::Write);
        let (l1, _, _) = h.level_stats();
        assert!(l1.writebacks >= 1);
    }

    #[test]
    fn run_remembers_a_pattern_while_its_replay_would_hit_l1() {
        let mut h = Hierarchy::tiny();
        let p = AccessPattern::Sequential {
            base: 0,
            stride: 64,
            count: 4,
            kind: AccessKind::Write,
        };
        let repeat = |h: &Hierarchy| h.cores[0].repeat;
        h.run(&p);
        assert_eq!(repeat(&h), None, "the cold run missed");
        h.run(&p);
        assert_eq!(repeat(&h), Some(p));
        h.reset_stats();
        h.run(&p);
        assert_eq!(repeat(&h), Some(p), "statistics do not decide hits");
        let (l1, l2, _) = h.level_stats();
        assert_eq!((l1.accesses, l1.hits, l2.accesses), (4, 4, 0));
        h.access(0, AccessKind::Read);
        assert_eq!(repeat(&h), None);
        h.run(&p);
        h.clflush(0x4000);
        assert_eq!(repeat(&h), Some(p), "a line L1d does not hold");
        h.clflush(0x40);
        assert_eq!(repeat(&h), None);
        h.run(&p);
        h.run(&p);
        h.flush_all();
        assert_eq!(repeat(&h), None);
    }

    #[test]
    fn i7_920_capacities() {
        let cfg = HierarchyConfig::i7_920();
        assert_eq!(cfg.l1d.capacity_bytes(), 32 * 1024);
        assert_eq!(cfg.l2.capacity_bytes(), 256 * 1024);
        assert_eq!(cfg.llc.capacity_bytes(), 8 * 1024 * 1024);
    }

    #[test]
    fn working_set_larger_than_llc_keeps_missing() {
        let mut h = Hierarchy::tiny(); // 16 KiB LLC
        let lines = 2 * 16 * 1024 / 64; // 2x LLC capacity in lines
                                        // Two sequential passes over a 32 KiB working set: with LRU, the
                                        // second pass still misses everywhere (classic streaming pattern).
        for _ in 0..2 {
            for i in 0..lines {
                h.access(i as u64 * 64, AccessKind::Read);
            }
        }
        let s = h.stats();
        assert_eq!(s.llc_misses, s.accesses, "streaming over 2x LLC never hits");
    }

    #[test]
    fn working_set_smaller_than_llc_settles() {
        let mut h = Hierarchy::tiny(); // 16 KiB LLC
        let lines = 8 * 1024 / 64; // half of LLC
        for _ in 0..4 {
            for i in 0..lines {
                h.access(i as u64 * 64, AccessKind::Read);
            }
        }
        let s = h.stats();
        assert_eq!(s.llc_misses, lines as u64, "only the cold pass misses");
    }
}
