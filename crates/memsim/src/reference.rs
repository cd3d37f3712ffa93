//! A straightforward two-pass model of the same hierarchy, kept as the
//! oracle the single-pass [`Cache`](crate::Cache) and
//! [`Hierarchy`](crate::Hierarchy) are checked against.
//!
//! Each way holds its tag, valid and dirty flags and an LRU timestamp. A
//! probe scans the set for the tag; a fill scans it again for the first
//! invalid way, else the way with the oldest timestamp. Invalid ways may
//! sit anywhere in a set, and every core keeps its own `MemStats`. An LLC
//! eviction flushes the line from every core, with no sharer bits, and a
//! run of a pattern plays its accesses one by one.

use crate::cache::{CacheConfig, CacheStats};
use crate::hierarchy::{AccessKind, AccessResult, HierarchyConfig, LatencyModel, MemStats};
use crate::pattern::AccessPattern;

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    lru: u64,
}

#[derive(Debug, Clone)]
pub(crate) struct RefCache {
    config: CacheConfig,
    lines: Vec<Line>,
    clock: u64,
    stats: CacheStats,
}

impl RefCache {
    pub(crate) fn new(config: CacheConfig) -> Self {
        Self {
            config,
            lines: vec![Line::default(); (config.sets * config.ways) as usize],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    pub(crate) fn stats(&self) -> CacheStats {
        self.stats
    }

    fn split(&self, addr: u64) -> (u64, usize) {
        let line_addr = addr >> self.config.line_size.trailing_zeros();
        let set = (line_addr & (self.config.sets as u64 - 1)) as usize;
        (line_addr >> self.config.sets.trailing_zeros(), set)
    }

    fn set_range(&self, set: usize) -> std::ops::Range<usize> {
        let ways = self.config.ways as usize;
        set * ways..(set + 1) * ways
    }

    pub(crate) fn probe(&mut self, addr: u64, write: bool) -> bool {
        self.clock += 1;
        self.stats.accesses += 1;
        let (tag, set) = self.split(addr);
        for i in self.set_range(set) {
            let line = &mut self.lines[i];
            if line.valid && line.tag == tag {
                line.lru = self.clock;
                line.dirty |= write;
                self.stats.hits += 1;
                return true;
            }
        }
        self.stats.misses += 1;
        false
    }

    /// Installs `addr`, returning the address of the line it evicted.
    pub(crate) fn fill(&mut self, addr: u64, write: bool) -> Option<u64> {
        self.clock += 1;
        let (tag, set) = self.split(addr);
        let mut victim = set * self.config.ways as usize;
        let mut best_lru = u64::MAX;
        for i in self.set_range(set) {
            let line = &self.lines[i];
            if !line.valid {
                victim = i;
                break;
            }
            if line.lru < best_lru {
                best_lru = line.lru;
                victim = i;
            }
        }
        let old = self.lines[victim];
        self.lines[victim] = Line {
            tag,
            valid: true,
            dirty: write,
            lru: self.clock,
        };
        if !old.valid {
            return None;
        }
        self.stats.evictions += 1;
        self.stats.writebacks += u64::from(old.dirty);
        let line_addr = (old.tag << self.config.sets.trailing_zeros()) | set as u64;
        Some(line_addr << self.config.line_size.trailing_zeros())
    }

    pub(crate) fn access(&mut self, addr: u64, write: bool) -> bool {
        let hit = self.probe(addr, write);
        if !hit {
            self.fill(addr, write);
        }
        hit
    }

    pub(crate) fn contains(&self, addr: u64) -> bool {
        let (tag, set) = self.split(addr);
        self.set_range(set)
            .any(|i| self.lines[i].valid && self.lines[i].tag == tag)
    }

    pub(crate) fn flush_line(&mut self, addr: u64) -> bool {
        let (tag, set) = self.split(addr);
        for i in self.set_range(set) {
            let line = &mut self.lines[i];
            if line.valid && line.tag == tag {
                self.stats.writebacks += u64::from(line.dirty);
                self.stats.flushes += 1;
                *line = Line::default();
                return true;
            }
        }
        false
    }

    pub(crate) fn flush_all(&mut self) {
        for line in &mut self.lines {
            if line.valid {
                self.stats.writebacks += u64::from(line.dirty);
                self.stats.flushes += 1;
            }
            *line = Line::default();
        }
    }

    pub(crate) fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    pub(crate) fn resident_lines(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }
}

/// One core of [`RefHierarchy`]: its private levels and its counters.
#[derive(Debug, Clone)]
struct RefCore {
    l1d: RefCache,
    l2: RefCache,
    /// The core's share of the LLC's counters.
    llc: CacheStats,
    stats: MemStats,
}

/// Private L1d/L2 pairs over one LLC. An LLC eviction flushes the line
/// from every core's L2 and L1d, and a core's LLC counters are the changes
/// its own operations made to the LLC's.
#[derive(Debug, Clone)]
pub(crate) struct RefHierarchy {
    cores: Vec<RefCore>,
    llc: RefCache,
    latency: LatencyModel,
}

impl RefHierarchy {
    pub(crate) fn new(config: HierarchyConfig, cores: usize) -> Self {
        Self {
            cores: (0..cores)
                .map(|_| RefCore {
                    l1d: RefCache::new(config.l1d),
                    l2: RefCache::new(config.l2),
                    llc: CacheStats::default(),
                    stats: MemStats::default(),
                })
                .collect(),
            llc: RefCache::new(config.llc),
            latency: config.latency,
        }
    }

    /// Runs `op` on the LLC and adds what it changed in the LLC's counters
    /// to `core`'s share.
    fn on_llc<R>(&mut self, core: usize, op: impl FnOnce(&mut RefCache) -> R) -> R {
        let before = self.llc.stats();
        let r = op(&mut self.llc);
        let after = self.llc.stats();
        let share = &mut self.cores[core].llc;
        share.accesses += after.accesses - before.accesses;
        share.hits += after.hits - before.hits;
        share.misses += after.misses - before.misses;
        share.evictions += after.evictions - before.evictions;
        share.writebacks += after.writebacks - before.writebacks;
        share.flushes += after.flushes - before.flushes;
        r
    }

    pub(crate) fn access(&mut self, core: usize, addr: u64, kind: AccessKind) -> AccessResult {
        let write = kind.is_write();
        let lat = self.latency;
        let result = |l1_hit, l2_hit, llc_hit, latency_cycles| AccessResult {
            l1_hit,
            l2_hit,
            llc_hit,
            latency_cycles,
        };
        let r = if self.cores[core].l1d.probe(addr, write) {
            result(true, false, false, lat.l1_hit)
        } else if self.cores[core].l2.probe(addr, write) {
            self.cores[core].l1d.fill(addr, write);
            result(false, true, false, lat.l2_hit)
        } else if self.on_llc(core, |llc| llc.probe(addr, write)) {
            self.cores[core].l2.fill(addr, write);
            self.cores[core].l1d.fill(addr, write);
            result(false, false, true, lat.llc_hit)
        } else {
            if let Some(victim) = self.on_llc(core, |llc| llc.fill(addr, write)) {
                for c in &mut self.cores {
                    c.l2.flush_line(victim);
                    c.l1d.flush_line(victim);
                }
            }
            self.cores[core].l2.fill(addr, write);
            self.cores[core].l1d.fill(addr, write);
            result(false, false, false, lat.memory)
        };
        let stats = &mut self.cores[core].stats;
        stats.accesses += 1;
        stats.l1d_misses += u64::from(!r.l1_hit);
        stats.l2_misses += u64::from(!r.l1_hit && !r.l2_hit);
        stats.llc_references += u64::from(!r.l1_hit && !r.l2_hit);
        stats.llc_misses += u64::from(r.memory_access());
        stats.total_latency_cycles += r.latency_cycles as u64;
        r
    }

    pub(crate) fn run(&mut self, core: usize, pattern: &AccessPattern) {
        for (addr, kind) in pattern.cursor() {
            self.access(core, addr, kind);
        }
    }

    pub(crate) fn clflush(&mut self, core: usize, addr: u64) {
        for c in &mut self.cores {
            c.l1d.flush_line(addr);
            c.l2.flush_line(addr);
        }
        self.on_llc(core, |llc| llc.flush_line(addr));
    }

    pub(crate) fn flush_all(&mut self) {
        for c in &mut self.cores {
            c.l1d.flush_all();
            c.l2.flush_all();
        }
        self.on_llc(0, RefCache::flush_all);
    }

    pub(crate) fn is_cached(&self, addr: u64) -> bool {
        self.llc.contains(addr)
            || self
                .cores
                .iter()
                .any(|c| c.l1d.contains(addr) || c.l2.contains(addr))
    }

    /// Whether `core`'s L1d and L2 hold `addr`'s line.
    pub(crate) fn holds(&self, core: usize, addr: u64) -> (bool, bool) {
        let c = &self.cores[core];
        (c.l1d.contains(addr), c.l2.contains(addr))
    }

    pub(crate) fn stats(&self, core: usize) -> MemStats {
        self.cores[core].stats
    }

    pub(crate) fn level_stats(&self, core: usize) -> (CacheStats, CacheStats, CacheStats) {
        let c = &self.cores[core];
        (c.l1d.stats(), c.l2.stats(), c.llc)
    }

    pub(crate) fn reset_stats(&mut self) {
        for c in &mut self.cores {
            c.stats = MemStats::default();
            c.llc = CacheStats::default();
            c.l1d.reset_stats();
            c.l2.reset_stats();
        }
    }
}

mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::cache::Cache;
    use crate::{AccessPattern, Hierarchy};

    /// One step of a random interleaving; the first field of an access, a
    /// run and a `clflush` is the core that issues it.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Access(usize, u64, AccessKind),
        Run(usize, AccessPattern),
        Clflush(usize, u64),
        FlushAll,
        ResetStats,
    }

    /// Builds an op stream over three groups of `lines` candidate lines,
    /// each step issued by core `core % cores` of its draw. `stride` is the
    /// distance between two addresses in the same LLC set, so the lines of
    /// one group compete for one LLC set (and one L2 and one L1d set, which
    /// has `ways` ways). Half of the draws stay within a group's first 12
    /// lines, so inner levels hit too.
    ///
    /// A run draw plays a pattern starting at a candidate line, and five in
    /// nine play it again on the same core: right away, or after an access
    /// to the next line of its set, a `clflush` of its first line, a
    /// `flush_all` or a `reset_stats`. The access and the `clflush` come
    /// from the same core or from the next one. Patterns that fill the L1d
    /// set exactly or overflow it make repeats that miss.
    fn ops(
        draws: &[(u32, u64, u64, usize)],
        cores: usize,
        stride: u64,
        lines: u64,
        ways: u64,
    ) -> Vec<(Op, u64)> {
        draws
            .iter()
            .flat_map(|&(op, pick, other, core)| {
                let line = |x: u64| {
                    let group = x % 3;
                    let k = (x / 3) % if x & (1 << 40) != 0 { 12 } else { lines };
                    group * 64 + k * stride + (x >> 48) % 64
                };
                let addr = line(pick);
                let other = line(other);
                let core = core % cores;
                let op = match op {
                    0..=49 => Op::Access(core, addr, AccessKind::Read),
                    50..=74 => Op::Access(core, addr, AccessKind::Write),
                    75..=81 => Op::Clflush(core, addr),
                    82 => Op::ResetStats,
                    83 => Op::FlushAll,
                    _ => {
                        let run = (Op::Run(core, pattern(pick, addr, stride, ways)), other);
                        let by = (core + (pick >> 30) as usize % 2) % cores;
                        let between = match (pick >> 24) % 9 {
                            0..=3 => return vec![run],
                            4 => vec![],
                            5 => {
                                let next = addr + ways * stride;
                                vec![(Op::Access(by, next, AccessKind::Read), other)]
                            }
                            6 => vec![(Op::Clflush(by, addr), other)],
                            7 => vec![(Op::FlushAll, other)],
                            _ => vec![(Op::ResetStats, other)],
                        };
                        return [vec![run], between, vec![run]].concat();
                    }
                };
                vec![(op, other)]
            })
            .collect()
    }

    /// A pattern starting at `base`, drawn from bits 16 to 23 of `x`: one
    /// access, a few consecutive lines, `ways - 1` to `ways + 1` lines of
    /// one L1d set, or a few random addresses from one of four seeds.
    fn pattern(x: u64, base: u64, stride: u64, ways: u64) -> AccessPattern {
        let kind = if x & (1 << 16) != 0 {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let n = (x >> 17) % 8;
        match (x >> 20) % 4 {
            0 => AccessPattern::Single { addr: base, kind },
            1 => AccessPattern::Sequential {
                base,
                stride: 64,
                count: 1 + n,
                kind,
            },
            2 => AccessPattern::Sequential {
                base,
                stride,
                count: ways - 1 + n % 3,
                kind,
            },
            _ => AccessPattern::Random {
                base,
                extent: ways * stride,
                count: 1 + n,
                seed: (x >> 22) % 4,
                kind,
            },
        }
    }

    /// Runs `ops` through both hierarchies of `cores` cores, comparing
    /// every result, and every core's statistics and residency, after each
    /// step.
    fn compare(config: HierarchyConfig, cores: usize, ops: &[(Op, u64)]) {
        let mut fast = Hierarchy::with_cores(config, cores);
        let mut oracle = RefHierarchy::new(config, cores);
        for (step, &(op, other)) in ops.iter().enumerate() {
            let mut touched = vec![other];
            match op {
                Op::Access(core, addr, kind) => {
                    assert_eq!(
                        fast.access_on(core, addr, kind),
                        oracle.access(core, addr, kind),
                        "step {step}: {op:?}"
                    );
                    touched.push(addr);
                }
                Op::Run(core, pattern) => {
                    fast.run_on(core, &pattern);
                    oracle.run(core, &pattern);
                    touched.extend(pattern.cursor().map(|(addr, _)| addr));
                }
                Op::Clflush(core, addr) => {
                    fast.clflush_on(core, addr);
                    oracle.clflush(core, addr);
                    touched.push(addr);
                }
                Op::FlushAll => {
                    fast.flush_all();
                    oracle.flush_all();
                }
                Op::ResetStats => {
                    fast.reset_stats();
                    oracle.reset_stats();
                }
            }
            for core in 0..cores {
                let view = fast.core(core);
                assert_eq!(
                    view.level_stats(),
                    oracle.level_stats(core),
                    "step {step}: core {core}"
                );
                assert_eq!(view.stats(), oracle.stats(core), "step {step}: core {core}");
                for &a in &touched {
                    assert_eq!(fast.holds(core, a), oracle.holds(core, a), "step {step}");
                }
            }
            for a in touched {
                assert_eq!(fast.is_cached(a), oracle.is_cached(a), "step {step}");
            }
        }
    }

    fn draws() -> impl Strategy<Value = Vec<(u32, u64, u64, usize)>> {
        proptest::collection::vec((0u32..100, any::<u64>(), any::<u64>(), 0usize..4), 1..1500)
    }

    /// Tiny: LLC 64 sets x 4 ways of 64 B; L1d 2 ways.
    fn tiny_ops(draws: &[(u32, u64, u64, usize)], cores: usize) -> Vec<(Op, u64)> {
        ops(draws, cores, 64 * 64, 24, 2)
    }

    /// i7-920: LLC 8192 sets x 16 ways of 64 B; L1d 8 ways.
    fn i7_920_ops(draws: &[(u32, u64, u64, usize)], cores: usize) -> Vec<(Op, u64)> {
        ops(draws, cores, 8192 * 64, 40, 8)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn tiny_matches_the_reference(draws in draws()) {
            compare(HierarchyConfig::tiny(), 1, &tiny_ops(&draws, 1));
        }

        #[test]
        fn i7_920_matches_the_reference(draws in draws()) {
            compare(HierarchyConfig::i7_920(), 1, &i7_920_ops(&draws, 1));
        }

        #[test]
        fn two_tiny_cores_match_the_reference(draws in draws()) {
            compare(HierarchyConfig::tiny(), 2, &tiny_ops(&draws, 2));
        }

        #[test]
        fn four_i7_920_cores_match_the_reference(draws in draws()) {
            compare(HierarchyConfig::i7_920(), 4, &i7_920_ops(&draws, 4));
        }

        #[test]
        fn one_level_matches_the_reference(draws in draws()) {
            let config = CacheConfig::new(64, 4, 4);
            let mut fast = Cache::new(config);
            let mut oracle = RefCache::new(config);
            for (step, &(op, other)) in ops(&draws, 1, 4 * 64, 12, 4).iter().enumerate() {
                // Even addresses access (and fill on a miss); odd ones probe.
                // A run accesses every address of its pattern.
                match op {
                    Op::Access(_, addr, kind) if addr & 1 == 0 => assert_eq!(
                        fast.access(addr, kind.is_write()),
                        oracle.access(addr, kind.is_write()),
                        "step {step}"
                    ),
                    Op::Access(_, addr, kind) => assert_eq!(
                        fast.probe(addr, kind.is_write()),
                        oracle.probe(addr, kind.is_write()),
                        "step {step}"
                    ),
                    Op::Run(_, pattern) => {
                        for (addr, kind) in pattern.cursor() {
                            assert_eq!(
                                fast.access(addr, kind.is_write()),
                                oracle.access(addr, kind.is_write()),
                                "step {step}"
                            );
                        }
                    }
                    Op::Clflush(_, addr) => {
                        assert_eq!(fast.flush_line(addr), oracle.flush_line(addr));
                    }
                    Op::FlushAll => {
                        fast.flush_all();
                        oracle.flush_all();
                    }
                    Op::ResetStats => {
                        fast.reset_stats();
                        oracle.reset_stats();
                    }
                }
                assert_eq!(fast.stats(), oracle.stats(), "step {step}");
                assert_eq!(fast.resident_lines(), oracle.resident_lines());
                assert_eq!(fast.contains(other), oracle.contains(other));
            }
        }
    }

    /// A `clflush` in the middle of a full set moves the set's last way
    /// into the hole; later fills and evictions must not notice.
    #[test]
    fn clflush_in_the_middle_of_a_full_set_matches_the_reference() {
        for config in [HierarchyConfig::tiny(), HierarchyConfig::i7_920()] {
            let stride = config.llc.sets as u64 * config.llc.line_size as u64;
            let ways = config.llc.ways as u64;
            let access = |addr, kind| Op::Access(0, addr, kind);
            let mut ops = Vec::new();
            // Fill one LLC set (and the L1 and L2 sets it maps to) fully,
            // writing every third line so flushed and evicted ways differ
            // in dirtiness.
            for k in 0..ways {
                let kind = if k % 3 == 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                ops.push((access(k * stride, kind), 0));
            }
            // Flush a middle way, then keep missing into the set, re-touching
            // early lines so LRU order differs from fill order.
            ops.push((Op::Clflush(0, ways / 2 * stride), 0));
            for k in ways..3 * ways {
                ops.push((access(k * stride, AccessKind::Read), 0));
                ops.push((access((k % 3) * stride, AccessKind::Read), 0));
                if k % 5 == 0 {
                    ops.push((Op::Clflush(0, (k - 2) * stride), (k - 1) * stride));
                }
            }
            compare(config, 1, &ops);
        }
    }

    /// Every way a remembered run is replayed or forgotten, on both
    /// geometries: an immediate repeat, repeats after each op that does or
    /// does not change what the replay finds in L1d, a run that hit
    /// everywhere but once and whose replay misses throughout, and a
    /// different run in between.
    #[test]
    fn repeated_runs_match_the_reference() {
        for config in [HierarchyConfig::tiny(), HierarchyConfig::i7_920()] {
            // Lines `l1` apart share an L1d set.
            let l1 = config.l1d.sets as u64 * config.l1d.line_size as u64;
            let ways = config.l1d.ways as u64;
            let set = |count, kind| AccessPattern::Sequential {
                base: 0,
                stride: l1,
                count,
                kind,
            };
            // Fills one L1d set exactly; `next` is the set's next line.
            let full = set(ways, AccessKind::Read);
            let dirty = set(ways, AccessKind::Write);
            let next = ways * l1;
            let run = |p| (Op::Run(0, p), next);
            let ops = [
                // Cold, then hitting throughout (remembered), then repeated.
                run(full),
                run(full),
                run(full),
                (Op::ResetStats, 0),
                run(full),
                // The access evicts `full`'s oldest line.
                (Op::Access(0, next, AccessKind::Read), 0),
                run(full),
                run(full),
                (Op::Clflush(0, l1), 0),
                run(full),
                run(full),
                // A line L1d does not hold leaves the remembered run.
                (Op::Clflush(0, next), 0),
                run(full),
                (Op::FlushAll, 0),
                run(full),
                run(full),
                // Hits on `full`'s lines, then one miss evicts the oldest
                // of them, so every replay misses throughout.
                run(set(ways + 1, AccessKind::Write)),
                run(set(ways + 1, AccessKind::Write)),
                run(dirty),
                run(dirty),
                run(dirty),
                run(AccessPattern::Single {
                    addr: next,
                    kind: AccessKind::Read,
                }),
                run(dirty),
                run(set(ways + 1, AccessKind::Read)),
            ];
            compare(config, 1, &ops);
        }
    }

    /// Lines `stride` apart share an LLC set of `config`; `ways` of them
    /// fill it.
    fn llc_set(config: HierarchyConfig) -> (u64, u64) {
        let stride = config.llc.sets as u64 * config.llc.line_size as u64;
        (stride, config.llc.ways as u64)
    }

    /// Core 1 streams through the LLC set of a line core 0 holds in L1d,
    /// L2 and the LLC: the LLC evicts the line, and core 0 loses it at
    /// every level, so its next access goes to memory.
    #[test]
    fn one_core_s_streaming_evicts_another_core_s_line_at_every_level() {
        for (config, cores) in [(HierarchyConfig::tiny(), 2), (HierarchyConfig::i7_920(), 4)] {
            let (stride, ways) = llc_set(config);
            let line = 0x40;
            let mut fast = Hierarchy::with_cores(config, cores);
            fast.access_on(0, line, AccessKind::Write);
            assert_eq!(fast.holds(0, line), (true, true));
            let mut ops = vec![(Op::Access(0, line, AccessKind::Write), line)];
            for k in 1..=ways {
                let streamed = line + k * stride;
                fast.access_on(cores - 1, streamed, AccessKind::Read);
                ops.push((Op::Access(cores - 1, streamed, AccessKind::Read), line));
            }
            assert_eq!(fast.holds(0, line), (false, false));
            assert!(!fast.is_cached(line));
            let (l1d, l2, _) = fast.core(0).level_stats();
            // The dirty line left each private level as a flush with a
            // writeback, which core 0's statistics carry.
            assert_eq!((l1d.flushes, l1d.writebacks), (1, 1));
            assert_eq!((l2.flushes, l2.writebacks), (1, 1));
            let (_, _, llc) = fast.core(cores - 1).level_stats();
            assert_eq!((llc.evictions, llc.writebacks), (1, 1));
            assert!(fast.access_on(0, line, AccessKind::Read).memory_access());
            ops.push((Op::Access(0, line, AccessKind::Read), line));
            compare(config, cores, &ops);
        }
    }

    /// The exactness trap of the remembered run: core 0 remembers a run
    /// that hit L1d throughout, then core 1's fills evict one of its lines
    /// from the LLC, which back-invalidates it in core 0's L1d. Core 0's
    /// next run of the pattern must replay, and miss on that line.
    #[test]
    fn another_core_s_fill_ends_a_remembered_run() {
        for (config, cores) in [(HierarchyConfig::tiny(), 2), (HierarchyConfig::i7_920(), 4)] {
            let (stride, ways) = llc_set(config);
            let pattern = AccessPattern::Sequential {
                base: 0,
                stride: 64,
                count: 4,
                kind: AccessKind::Read,
            };
            let mut ops = vec![(Op::Run(0, pattern), 0), (Op::Run(0, pattern), 0)];
            for k in 1..=ways {
                ops.push((Op::Access(1, k * stride, AccessKind::Read), 0));
            }
            ops.push((Op::Run(0, pattern), 0));
            compare(config, cores, &ops);
            let mut fast = Hierarchy::with_cores(config, cores);
            for &(op, _) in &ops[..ops.len() - 1] {
                match op {
                    Op::Run(core, p) => fast.run_on(core, &p),
                    Op::Access(core, addr, kind) => drop(fast.access_on(core, addr, kind)),
                    _ => unreachable!(),
                }
            }
            assert_eq!(fast.holds(0, 0), (false, false), "back-invalidated");
            let misses = fast.core(0).stats().l1d_misses;
            fast.run_on(0, &pattern);
            assert_eq!(fast.core(0).stats().l1d_misses, misses + 1);
        }
    }

    /// A sharer bit outlives the line in its core's own levels: core 0
    /// loads a line, then evicts it from its L1d and L2 through their sets
    /// without touching the line's LLC set. When core 1 then evicts the
    /// line from the LLC, the back-invalidation of core 0 finds nothing:
    /// it counts no flush there and leaves core 0's remembered run alone.
    #[test]
    fn a_stale_sharer_bit_is_harmless() {
        for (config, cores) in [(HierarchyConfig::tiny(), 2), (HierarchyConfig::i7_920(), 4)] {
            let (stride, ways) = llc_set(config);
            // Lines `l2` apart share an L2 set (and an L1d set); a line
            // `k * l2` away for k not a multiple of `stride / l2` lies in
            // another LLC set.
            let l2 = config.l2.sets as u64 * config.l2.line_size as u64;
            let per_llc_set = stride / l2;
            let line = 0x40;
            let evictors = (1..)
                .filter(|k| k % per_llc_set != 0)
                .take(config.l2.ways as usize)
                .map(|k| line + k * l2);
            let remembered = AccessPattern::Single {
                addr: line + 64,
                kind: AccessKind::Read,
            };
            let mut ops = vec![(Op::Access(0, line, AccessKind::Read), line)];
            ops.extend(evictors.map(|a| (Op::Access(0, a, AccessKind::Read), line)));
            ops.push((Op::Run(0, remembered), line));
            ops.push((Op::Run(0, remembered), line));
            ops.push((Op::Access(1, line, AccessKind::Read), line));
            for k in 1..=ways {
                ops.push((Op::Access(1, line + k * stride, AccessKind::Read), line));
            }
            ops.push((Op::Run(0, remembered), line));
            compare(config, cores, &ops);

            let mut fast = Hierarchy::with_cores(config, cores);
            for &(op, _) in &ops[..ops.len() - ways as usize - 2] {
                match op {
                    Op::Run(core, p) => fast.run_on(core, &p),
                    Op::Access(core, addr, kind) => drop(fast.access_on(core, addr, kind)),
                    _ => unreachable!(),
                }
            }
            assert_eq!(fast.holds(0, line), (false, false), "silently evicted");
            assert!(fast.is_cached(line), "still in the LLC, core 0's bit set");
            let before = fast.core(0).level_stats();
            fast.access_on(1, line, AccessKind::Read);
            for k in 1..=ways {
                fast.access_on(1, line + k * stride, AccessKind::Read);
            }
            assert!(!fast.is_cached(line));
            assert_eq!(fast.core(0).level_stats(), before);
            assert_eq!(fast.remembered(0), Some(remembered));
        }
    }
}
