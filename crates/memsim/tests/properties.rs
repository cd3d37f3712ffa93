//! Property-based tests of cache invariants.

use proptest::prelude::*;

use memsim::{AccessKind, Hierarchy};

proptest! {
    /// Inclusive hierarchy: any line in L1 is also in L2-or-LLC's reach —
    /// i.e. after arbitrary accesses, flushing through the hierarchy always
    /// leaves the line uncached everywhere.
    #[test]
    fn clflush_is_global(addrs in proptest::collection::vec(0u64..(1 << 16), 1..200)) {
        let mut mem = Hierarchy::tiny();
        for &a in &addrs {
            mem.access(a, AccessKind::Read);
        }
        for &a in &addrs {
            mem.clflush(a);
            prop_assert!(!mem.is_cached(a));
        }
    }

    /// Hit latency is always at most miss latency, and repeated access to
    /// the same line is never slower the second time.
    #[test]
    fn latency_monotonic(addr in 0u64..(1 << 20)) {
        let mut mem = Hierarchy::tiny();
        let first = mem.access(addr, AccessKind::Read);
        let second = mem.access(addr, AccessKind::Read);
        prop_assert!(second.latency_cycles <= first.latency_cycles);
        prop_assert!(second.l1_hit);
    }
}
