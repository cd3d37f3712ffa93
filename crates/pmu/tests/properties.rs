//! Property-based tests of the PMU model's invariants.

use proptest::prelude::*;

use pmu::{msr, Counter, EventCounts, EventSel, HwEvent, Pmu, Privilege, COUNTER_WIDTH_BITS};

proptest! {
    /// A counter is always below 2^48 and adding distributes over splits.
    #[test]
    fn counter_add_is_split_invariant(start in 0u64..(1 << 48), a in 0u64..1_000_000, b in 0u64..1_000_000) {
        let mut whole = Counter::new();
        whole.write(start);
        let mut split = Counter::new();
        split.write(start);
        let o1 = whole.add(a + b);
        let o2 = split.add(a) + split.add(b);
        prop_assert_eq!(whole.value(), split.value());
        prop_assert_eq!(o1, o2);
        prop_assert!(whole.value() < (1 << COUNTER_WIDTH_BITS));
    }

    /// Event-select bits round-trip through raw MSR values.
    #[test]
    fn eventsel_roundtrip(bits in any::<u64>()) {
        let sel = EventSel::from_bits(bits);
        prop_assert_eq!(sel.bits(), bits);
        // Derived predicates are consistent with the bits.
        prop_assert_eq!(sel.is_enabled(), bits & (1 << 22) != 0);
        prop_assert_eq!(sel.counts_at(Privilege::User), bits & (1 << 16) != 0);
        prop_assert_eq!(sel.counts_at(Privilege::Kernel), bits & (1 << 17) != 0);
    }

    /// The PMU's programmed counter always equals the sum of observed,
    /// privilege-matching event batches (below the 48-bit wrap).
    #[test]
    fn counting_is_additive(
        counts in proptest::collection::vec((0u64..10_000, any::<bool>()), 1..50),
    ) {
        let mut pmu = Pmu::new();
        let sel = EventSel::for_event(HwEvent::Load).usr(true).enabled(true);
        pmu.wrmsr(msr::IA32_PERFEVTSEL0, sel.bits()).unwrap();
        pmu.wrmsr(msr::IA32_PERF_GLOBAL_CTRL, 1).unwrap();
        let mut expect = 0u64;
        for (n, kernel) in counts {
            let batch = EventCounts::new().with(HwEvent::Load, n);
            if kernel {
                pmu.observe(&batch, Privilege::Kernel);
            } else {
                pmu.observe(&batch, Privilege::User);
                expect += n;
            }
        }
        prop_assert_eq!(pmu.rdpmc(0).unwrap(), expect);
        // The ledger saw everything, regardless of programming.
        let seen = pmu.ledger(Privilege::User).get(HwEvent::Load)
            + pmu.ledger(Privilege::Kernel).get(HwEvent::Load);
        prop_assert!(seen >= expect);
    }

    /// Freeze/unfreeze pairs never lose or duplicate counts.
    #[test]
    fn freeze_windows_are_leakproof(windows in proptest::collection::vec(0u64..1_000, 1..20)) {
        let mut pmu = Pmu::new();
        let sel = EventSel::for_event(HwEvent::Store).usr(true).enabled(true);
        pmu.wrmsr(msr::IA32_PERFEVTSEL0, sel.bits()).unwrap();
        pmu.wrmsr(msr::IA32_PERF_GLOBAL_CTRL, 1).unwrap();
        let mut expect = 0;
        for (i, n) in windows.iter().enumerate() {
            if i % 2 == 0 {
                pmu.observe(&EventCounts::new().with(HwEvent::Store, *n), Privilege::User);
                expect += n;
            } else {
                let saved = pmu.freeze();
                pmu.observe(&EventCounts::new().with(HwEvent::Store, *n), Privilege::User);
                pmu.unfreeze(saved);
            }
        }
        prop_assert_eq!(pmu.rdpmc(0).unwrap(), expect);
    }
}
