//! A straightforward two-pass model of the same hierarchy, kept as the
//! oracle the single-pass [`Cache`](crate::Cache) and
//! [`Hierarchy`](crate::Hierarchy) are checked against.
//!
//! Each way holds its tag, valid and dirty flags and an LRU timestamp. A
//! probe scans the set for the tag; a fill scans it again for the first
//! invalid way, else the way with the oldest timestamp. Invalid ways may
//! sit anywhere in a set, and the hierarchy keeps its own `MemStats`.
//! A run of a pattern plays its accesses one by one.

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

#[derive(Debug, Clone)]
pub(crate) struct RefHierarchy {
    l1d: RefCache,
    l2: RefCache,
    llc: RefCache,
    latency: LatencyModel,
    stats: MemStats,
}

impl RefHierarchy {
    pub(crate) fn new(config: HierarchyConfig) -> Self {
        Self {
            l1d: RefCache::new(config.l1d),
            l2: RefCache::new(config.l2),
            llc: RefCache::new(config.llc),
            latency: config.latency,
            stats: MemStats::default(),
        }
    }

    pub(crate) fn access(&mut self, addr: u64, kind: AccessKind) -> AccessResult {
        let write = kind.is_write();
        let lat = self.latency;
        self.stats.accesses += 1;
        let result = |l1_hit, l2_hit, llc_hit, latency_cycles| AccessResult {
            l1_hit,
            l2_hit,
            llc_hit,
            latency_cycles,
        };
        let r = if self.l1d.probe(addr, write) {
            result(true, false, false, lat.l1_hit)
        } else if self.l2.probe(addr, write) {
            self.stats.l1d_misses += 1;
            self.l1d.fill(addr, write);
            result(false, true, false, lat.l2_hit)
        } else if self.llc.probe(addr, write) {
            self.stats.l1d_misses += 1;
            self.stats.l2_misses += 1;
            self.stats.llc_references += 1;
            self.l2.fill(addr, write);
            self.l1d.fill(addr, write);
            result(false, false, true, lat.llc_hit)
        } else {
            self.stats.l1d_misses += 1;
            self.stats.l2_misses += 1;
            self.stats.llc_references += 1;
            self.stats.llc_misses += 1;
            if let Some(victim) = self.llc.fill(addr, write) {
                self.l2.flush_line(victim);
                self.l1d.flush_line(victim);
            }
            self.l2.fill(addr, write);
            self.l1d.fill(addr, write);
            result(false, false, false, lat.memory)
        };
        self.stats.total_latency_cycles += r.latency_cycles as u64;
        r
    }

    pub(crate) fn run(&mut self, pattern: &AccessPattern) {
        for (addr, kind) in pattern.cursor() {
            self.access(addr, kind);
        }
    }

    pub(crate) fn clflush(&mut self, addr: u64) {
        self.l1d.flush_line(addr);
        self.l2.flush_line(addr);
        self.llc.flush_line(addr);
    }

    pub(crate) fn flush_all(&mut self) {
        self.l1d.flush_all();
        self.l2.flush_all();
        self.llc.flush_all();
    }

    pub(crate) fn is_cached(&self, addr: u64) -> bool {
        self.l1d.contains(addr) || self.l2.contains(addr) || self.llc.contains(addr)
    }

    pub(crate) fn stats(&self) -> MemStats {
        self.stats
    }

    pub(crate) fn level_stats(&self) -> (CacheStats, CacheStats, CacheStats) {
        (self.l1d.stats(), self.l2.stats(), self.llc.stats())
    }

    pub(crate) fn reset_stats(&mut self) {
        self.stats = MemStats::default();
        self.l1d.reset_stats();
        self.l2.reset_stats();
        self.llc.reset_stats();
    }
}

mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::{AccessPattern, Cache, Hierarchy};

    /// One step of a random interleaving.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Access(u64, AccessKind),
        Run(AccessPattern),
        Clflush(u64),
        FlushAll,
        ResetStats,
    }

    /// Builds an op stream over three groups of `lines` candidate lines.
    /// `stride` is the distance between two addresses in the same LLC set,
    /// so the lines of one group compete for one LLC set (and one L2 and
    /// one L1d set, which has `ways` ways). Half of the draws stay within a
    /// group's first 12 lines, so inner levels hit too.
    ///
    /// A run draw plays a pattern starting at a candidate line, and five in
    /// nine play it again: right away, or after an access to the next line
    /// of its set, a `clflush` of its first line, a `flush_all` or a
    /// `reset_stats`. Patterns that fill the L1d set exactly or overflow it
    /// make repeats that miss.
    fn ops(draws: &[(u32, u64, u64)], stride: u64, lines: u64, ways: u64) -> Vec<(Op, u64)> {
        draws
            .iter()
            .flat_map(|&(op, pick, other)| {
                let line = |x: u64| {
                    let group = x % 3;
                    let k = (x / 3) % if x & (1 << 40) != 0 { 12 } else { lines };
                    group * 64 + k * stride + (x >> 48) % 64
                };
                let addr = line(pick);
                let other = line(other);
                let op = match op {
                    0..=49 => Op::Access(addr, AccessKind::Read),
                    50..=74 => Op::Access(addr, AccessKind::Write),
                    75..=81 => Op::Clflush(addr),
                    82 => Op::ResetStats,
                    83 => Op::FlushAll,
                    _ => {
                        let run = (Op::Run(pattern(pick, addr, stride, ways)), other);
                        let between = match (pick >> 24) % 9 {
                            0..=3 => return vec![run],
                            4 => vec![],
                            5 => vec![(Op::Access(addr + ways * stride, AccessKind::Read), other)],
                            6 => vec![(Op::Clflush(addr), other)],
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

    /// Runs `ops` through both hierarchies, comparing every result,
    /// statistic and residency after each step.
    fn compare(config: HierarchyConfig, ops: &[(Op, u64)]) {
        let mut fast = Hierarchy::new(config);
        let mut oracle = RefHierarchy::new(config);
        for (step, &(op, other)) in ops.iter().enumerate() {
            let mut touched = vec![other];
            match op {
                Op::Access(addr, kind) => {
                    assert_eq!(
                        fast.access(addr, kind),
                        oracle.access(addr, kind),
                        "step {step}: {op:?}"
                    );
                    touched.push(addr);
                }
                Op::Run(pattern) => {
                    fast.run(&pattern);
                    oracle.run(&pattern);
                    touched.extend(pattern.cursor().map(|(addr, _)| addr));
                }
                Op::Clflush(addr) => {
                    fast.clflush(addr);
                    oracle.clflush(addr);
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
            assert_eq!(fast.level_stats(), oracle.level_stats(), "step {step}");
            assert_eq!(fast.stats(), oracle.stats(), "step {step}");
            for a in touched {
                assert_eq!(fast.is_cached(a), oracle.is_cached(a), "step {step}");
            }
        }
    }

    fn draws() -> impl Strategy<Value = Vec<(u32, u64, u64)>> {
        proptest::collection::vec((0u32..100, any::<u64>(), any::<u64>()), 1..1500)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn tiny_matches_the_reference(draws in draws()) {
            // Tiny LLC: 64 sets x 4 ways of 64 B; L1d 2 ways.
            compare(HierarchyConfig::tiny(), &ops(&draws, 64 * 64, 24, 2));
        }

        #[test]
        fn i7_920_matches_the_reference(draws in draws()) {
            // i7-920 LLC: 8192 sets x 16 ways of 64 B; L1d 8 ways.
            compare(HierarchyConfig::i7_920(), &ops(&draws, 8192 * 64, 40, 8));
        }

        #[test]
        fn one_level_matches_the_reference(draws in draws()) {
            let config = CacheConfig::new(64, 4, 4);
            let mut fast = Cache::new(config);
            let mut oracle = RefCache::new(config);
            for (step, &(op, other)) in ops(&draws, 4 * 64, 12, 4).iter().enumerate() {
                // Even addresses access (and fill on a miss); odd ones probe.
                // A run accesses every address of its pattern.
                match op {
                    Op::Access(addr, kind) if addr & 1 == 0 => assert_eq!(
                        fast.access(addr, kind.is_write()),
                        oracle.access(addr, kind.is_write()),
                        "step {step}"
                    ),
                    Op::Access(addr, kind) => assert_eq!(
                        fast.probe(addr, kind.is_write()),
                        oracle.probe(addr, kind.is_write()),
                        "step {step}"
                    ),
                    Op::Run(pattern) => {
                        for (addr, kind) in pattern.cursor() {
                            assert_eq!(
                                fast.access(addr, kind.is_write()),
                                oracle.access(addr, kind.is_write()),
                                "step {step}"
                            );
                        }
                    }
                    Op::Clflush(addr) => {
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
                ops.push((Op::Access(k * stride, kind), 0));
            }
            // Flush a middle way, then keep missing into the set, re-touching
            // early lines so LRU order differs from fill order.
            ops.push((Op::Clflush(ways / 2 * stride), 0));
            for k in ways..3 * ways {
                ops.push((Op::Access(k * stride, AccessKind::Read), 0));
                ops.push((Op::Access((k % 3) * stride, AccessKind::Read), 0));
                if k % 5 == 0 {
                    ops.push((Op::Clflush((k - 2) * stride), (k - 1) * stride));
                }
            }
            compare(config, &ops);
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
            let run = |p| (Op::Run(p), next);
            let ops = [
                // Cold, then hitting throughout (remembered), then repeated.
                run(full),
                run(full),
                run(full),
                (Op::ResetStats, 0),
                run(full),
                // The access evicts `full`'s oldest line.
                (Op::Access(next, AccessKind::Read), 0),
                run(full),
                run(full),
                (Op::Clflush(l1), 0),
                run(full),
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
            compare(config, &ops);
        }
    }
}
