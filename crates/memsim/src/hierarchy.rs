//! Three-level inclusive cache hierarchy with a latency model.

use crate::cache::{Cache, CacheConfig, CacheStats, Lookup};
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
    pub const fn is_write(self) -> bool {
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

/// Cumulative event-relevant statistics across the hierarchy.
///
/// `llc_references` counts accesses that *reached* the LLC (i.e. missed L2),
/// which is how the architectural `LONGEST_LAT_CACHE.REFERENCE` event counts.
/// [`Hierarchy::stats`] derives every field from the per-level counters.
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

/// The three-level hierarchy.
///
/// Inclusion is enforced downward: evicting a line from the LLC
/// back-invalidates it from L2 and L1, as on real inclusive Intel designs —
/// this matters for Flush+Reload, where the attacker evicts through the LLC.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    l1d: Cache,
    l2: Cache,
    llc: Cache,
    latency: LatencyModel,
}

impl Hierarchy {
    /// Builds a hierarchy from an explicit configuration.
    pub fn new(config: HierarchyConfig) -> Self {
        Self {
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
            llc: Cache::new(config.llc),
            latency: config.latency,
        }
    }

    /// The paper's Core i7-920 geometry.
    pub fn i7_920() -> Self {
        Self::new(HierarchyConfig::i7_920())
    }

    /// Small geometry for tests.
    pub fn tiny() -> Self {
        Self::new(HierarchyConfig::tiny())
    }

    /// Performs one access, updating every level and the statistics.
    ///
    /// Each level's set is scanned once: a lookup that misses already knows
    /// where the line will be installed on the way back in.
    #[inline]
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> AccessResult {
        let write = kind.is_write();
        let lat = self.latency;
        let Lookup::Miss(mut l1_slot) = self.l1d.lookup(addr, write) else {
            return AccessResult::at(true, false, false, lat.l1_hit);
        };
        let Lookup::Miss(mut l2_slot) = self.l2.lookup(addr, write) else {
            self.l1d.install(l1_slot, addr, write);
            return AccessResult::at(false, true, false, lat.l2_hit);
        };
        let Lookup::Miss(llc_slot) = self.llc.lookup(addr, write) else {
            self.l2.install(l2_slot, addr, write);
            self.l1d.install(l1_slot, addr, write);
            return AccessResult::at(false, false, true, lat.llc_hit);
        };
        // Memory access: fill every level (inclusive).
        if let Some(victim) = self.llc.install(llc_slot, addr, write) {
            l2_slot = self.l2.back_invalidate(victim, l2_slot);
            l1_slot = self.l1d.back_invalidate(victim, l1_slot);
        }
        self.l2.install(l2_slot, addr, write);
        self.l1d.install(l1_slot, addr, write);
        AccessResult::at(false, false, false, lat.memory)
    }

    /// Performs every access of `pattern`, in order, exactly as
    /// [`Hierarchy::access`] would; the effect shows in [`Hierarchy::stats`].
    pub fn run(&mut self, pattern: &AccessPattern) {
        for (addr, kind) in pattern.cursor() {
            self.access(addr, kind);
        }
    }

    /// Flushes the line containing `addr` from every level (`clflush`).
    pub fn clflush(&mut self, addr: u64) {
        self.l1d.flush_line(addr);
        self.l2.flush_line(addr);
        self.llc.flush_line(addr);
    }

    /// Flushes all levels entirely.
    pub fn flush_all(&mut self) {
        self.l1d.flush_all();
        self.l2.flush_all();
        self.llc.flush_all();
    }

    /// True if the line containing `addr` is resident anywhere.
    pub fn is_cached(&self, addr: u64) -> bool {
        self.l1d.contains(addr) || self.l2.contains(addr) || self.llc.contains(addr)
    }

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

    /// Per-level raw statistics `(l1d, l2, llc)`.
    pub fn level_stats(&self) -> (CacheStats, CacheStats, CacheStats) {
        (self.l1d.stats(), self.l2.stats(), self.llc.stats())
    }

    /// Resets statistics (cache contents retained).
    pub fn reset_stats(&mut self) {
        self.l1d.reset_stats();
        self.l2.reset_stats();
        self.llc.reset_stats();
    }

    /// The latency model in use.
    pub fn latency_model(&self) -> LatencyModel {
        self.latency
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
