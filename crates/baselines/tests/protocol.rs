//! End-to-end MSR-protocol audit: every tool in the Fig. 9 comparison
//! must drive the PMU through the documented register protocol. The
//! machine runs with the PMU's runtime protocol checker attached to
//! every core; a clean run is the dynamic counterpart of klint's static
//! `M1` rule.

use baselines::{run_tool, LimitCosts, PapiCosts, PerfRecordCosts, PerfStatCosts, ToolSpec};
use kleb::KlebTuning;
use ksim::{Duration, Machine, MachineConfig};
use pmu::HwEvent;
use workloads::Synthetic;

fn checked_config(seed: u64) -> MachineConfig {
    let mut cfg = MachineConfig::test_tiny(seed);
    cfg.check_msr_protocol = true;
    cfg
}

fn all_tools() -> Vec<ToolSpec> {
    vec![
        ToolSpec::Kleb(KlebTuning::microarchitectural()),
        ToolSpec::PerfStat(PerfStatCosts::microarchitectural(), false),
        ToolSpec::PerfRecord(PerfRecordCosts::microarchitectural(), false),
        ToolSpec::Papi(PapiCosts::microarchitectural(), 100),
        ToolSpec::Limit(LimitCosts::microarchitectural(), 100),
    ]
}

#[test]
fn every_tool_is_protocol_clean() {
    let events = [HwEvent::Load, HwEvent::LlcMiss];
    for spec in all_tools() {
        let mut machine = Machine::new(checked_config(21));
        run_tool(
            &spec,
            &mut machine,
            "audit",
            Box::new(Synthetic::cpu_bound(Duration::from_millis(30))),
            &events,
            Duration::from_millis(10),
        )
        .unwrap_or_else(|e| panic!("{} failed: {e}", spec.name()));
        let violations = machine.protocol_violations();
        assert!(
            violations.is_empty(),
            "{} violated the MSR protocol: {violations:?}",
            spec.name()
        );
    }
}

#[test]
fn tools_stay_clean_with_fewer_events_than_counters() {
    // One requested event leaves three PMCs unprogrammed; tools must not
    // touch them (the bug LiMiT's burst read used to have).
    let events = [HwEvent::BranchRetired];
    for spec in all_tools() {
        let mut machine = Machine::new(checked_config(7));
        run_tool(
            &spec,
            &mut machine,
            "audit",
            Box::new(Synthetic::cpu_bound(Duration::from_millis(20))),
            &events,
            Duration::from_millis(10),
        )
        .unwrap_or_else(|e| panic!("{} failed: {e}", spec.name()));
        let violations = machine.protocol_violations();
        assert!(
            violations.is_empty(),
            "{} violated the MSR protocol with 1 event: {violations:?}",
            spec.name()
        );
    }
}

#[test]
fn multiplexed_perf_stat_is_protocol_clean() {
    // Eight events on four counters: rotation reprograms selects and
    // global-ctrl constantly; none of it may trip the checker.
    let events = [
        HwEvent::BranchRetired,
        HwEvent::BranchMiss,
        HwEvent::Load,
        HwEvent::Store,
        HwEvent::LlcReference,
        HwEvent::LlcMiss,
        HwEvent::L2Miss,
        HwEvent::DtlbMiss,
    ];
    let mut machine = Machine::new(checked_config(5));
    run_tool(
        &ToolSpec::PerfStat(PerfStatCosts::microarchitectural(), false),
        &mut machine,
        "audit",
        Box::new(Synthetic::cpu_bound(Duration::from_millis(40))),
        &events,
        Duration::from_millis(10),
    )
    .unwrap();
    let violations = machine.protocol_violations();
    assert!(
        violations.is_empty(),
        "multiplexed perf stat violated the MSR protocol: {violations:?}"
    );
}
