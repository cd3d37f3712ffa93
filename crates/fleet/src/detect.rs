//! Fan-in anomaly detection across the fleet.
//!
//! Two independent signals per machine, combined:
//!
//! 1. **Within-machine**: an [`analysis::EwmaDetector`] pass over the
//!    machine's per-sample MPKI series — how often does the machine
//!    deviate from *its own* recent behaviour?
//! 2. **Across-fleet**: the robust z-score (median/MAD,
//!    [`analysis::robust_z`]) of each machine's overall MPKI against the
//!    rest of the fleet — is this machine an outlier among its peers?
//!
//! A machine is flagged when it is a fleet-level outlier **and** its
//! absolute MPKI clears a floor (so a quiet fleet with one slightly
//! noisy member doesn't alarm). This is the scenario from the paper's
//! §IV-C Meltdown case study, scaled out: one attacker hiding among
//! N − 1 benign machines lights up both signals.

use crate::store::{FleetStore, Window};
use analysis::EwmaDetector;
use pmu::HwEvent;

/// Detection thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnomalyConfig {
    /// The event whose MPKI is scored (must be configured on the fleet).
    pub miss_event: HwEvent,
    /// Robust z-score above which a machine is a fleet-level outlier.
    pub robust_z_threshold: f64,
    /// Minimum overall MPKI for a flag — absolute floor under the
    /// relative test.
    pub mpki_floor: f64,
}

impl Default for AnomalyConfig {
    fn default() -> Self {
        Self {
            miss_event: HwEvent::LlcMiss,
            // 3.5 is the classic Iglewicz–Hoaglin cut for modified
            // z-scores.
            robust_z_threshold: 3.5,
            // Muralidhara's memory-intensity line (analysis::metrics):
            // below 10 MPKI nothing is hammering the LLC.
            mpki_floor: 10.0,
        }
    }
}

/// One machine's anomaly scores.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineVerdict {
    /// Machine (stream) index.
    pub machine: usize,
    /// Overall MPKI across the machine's retained samples.
    pub mpki: f64,
    /// Fraction of samples the EWMA detector flagged against the
    /// machine's own baseline.
    pub ewma_alarm_fraction: f64,
    /// Robust z-score of `mpki` against the fleet.
    pub robust_z: f64,
    /// The combined decision.
    pub flagged: bool,
}

/// The full fan-in pass over a fleet store.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetAnomalyReport {
    /// Per-machine scores, machine order.
    pub verdicts: Vec<MachineVerdict>,
    /// Indices of flagged machines.
    pub flagged: Vec<usize>,
}

/// Scores every machine in `store` against `config`.
///
/// Returns an empty report (nothing flagged) if the miss event is not
/// configured on this fleet.
pub fn scan_fleet(store: &FleetStore, config: &AnomalyConfig) -> FleetAnomalyReport {
    let Some(miss_lane) = store.lane_of(config.miss_event) else {
        return FleetAnomalyReport {
            verdicts: Vec::new(),
            flagged: Vec::new(),
        };
    };
    let overall: Vec<f64> = (0..store.machines())
        .map(|m| store.window_mpki(m, miss_lane, Window::all()))
        .collect();
    let z = analysis::robust_z(&overall);
    let verdicts: Vec<MachineVerdict> = (0..store.machines())
        .map(|m| {
            // The detector streams the lazy MPKI iterator; the series is
            // never materialized.
            let len = store.lane_len(m, miss_lane);
            let alarms = EwmaDetector::for_counter_series()
                .scan(store.mpki_iter(m, miss_lane))
                .len();
            let ewma_alarm_fraction = if len == 0 {
                0.0
            } else {
                alarms as f64 / len as f64
            };
            let flagged = z[m] >= config.robust_z_threshold && overall[m] >= config.mpki_floor;
            MachineVerdict {
                machine: m,
                mpki: overall[m],
                ewma_alarm_fraction,
                robust_z: z[m],
                flagged,
            }
        })
        .collect();
    let flagged = verdicts
        .iter()
        .filter(|v| v.flagged)
        .map(|v| v.machine)
        .collect();
    FleetAnomalyReport { verdicts, flagged }
}

/// Renders a per-machine verdict table (labels parallel to machines;
/// missing labels fall back to the index).
pub fn verdict_table(report: &FleetAnomalyReport, labels: &[String]) -> String {
    let mut t =
        analysis::TextTable::new(&["machine", "MPKI", "ewma alarms", "robust z", "verdict"]);
    for v in &report.verdicts {
        let label = labels
            .get(v.machine)
            .cloned()
            .unwrap_or_else(|| format!("#{}", v.machine));
        t.row_owned(vec![
            label,
            format!("{:.1}", v.mpki),
            format!("{:.0}%", v.ewma_alarm_fraction * 100.0),
            format!("{:+.1}", v.robust_z),
            if v.flagged {
                "ANOMALOUS".into()
            } else {
                "ok".into()
            },
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kleb::Sample;

    /// A synthetic fleet: `benign` machines near 7 MPKI, machine 0 at
    /// ~30 MPKI.
    fn synthetic_store(machines: usize) -> FleetStore {
        let mut store = FleetStore::new(machines, vec![HwEvent::LlcMiss], 1024);
        for m in 0..machines {
            let batch: Vec<Sample> = (0..200u64)
                .map(|i| {
                    let instr = 1_000 + (i % 13) * 10 + m as u64;
                    let mpki_target = if m == 0 { 30 } else { 7 + (m as u64 % 3) };
                    Sample {
                        timestamp_ns: (i + 1) * 100_000,
                        seq: i,
                        pid: m as u32 + 2,
                        fixed: [instr, instr * 3, instr * 2],
                        pmc: [instr * mpki_target / 1000, 0, 0, 0],
                        ..Sample::default()
                    }
                })
                .collect();
            store.ingest(m, &batch);
        }
        store
    }

    #[test]
    fn flags_exactly_the_outlier() {
        let store = synthetic_store(16);
        let report = scan_fleet(&store, &AnomalyConfig::default());
        assert_eq!(report.flagged, vec![0]);
        assert!(report.verdicts[0].robust_z > 3.5);
        assert!(report.verdicts[0].mpki > 20.0);
        for v in &report.verdicts[1..] {
            assert!(!v.flagged, "benign machine {} flagged: {v:?}", v.machine);
        }
    }

    #[test]
    fn quiet_fleet_flags_nothing() {
        let mut store = FleetStore::new(8, vec![HwEvent::LlcMiss], 256);
        for m in 0..8 {
            let batch: Vec<Sample> = (0..50u64)
                .map(|i| Sample {
                    timestamp_ns: (i + 1) * 100_000,
                    seq: i,
                    pid: 2,
                    fixed: [1_000, 3_000, 2_000],
                    pmc: [m as u64 % 4, 0, 0, 0], // ≤ 4 MPKI: below the floor
                    ..Sample::default()
                })
                .collect();
            store.ingest(m, &batch);
        }
        let report = scan_fleet(&store, &AnomalyConfig::default());
        assert!(report.flagged.is_empty(), "flagged {:?}", report.flagged);
    }

    #[test]
    fn unconfigured_event_yields_empty_report() {
        let store = synthetic_store(4);
        let cfg = AnomalyConfig {
            miss_event: HwEvent::BranchMiss,
            ..AnomalyConfig::default()
        };
        let report = scan_fleet(&store, &cfg);
        assert!(report.verdicts.is_empty());
        assert!(report.flagged.is_empty());
    }

    #[test]
    fn verdict_table_shows_labels_and_flags() {
        let store = synthetic_store(3);
        let report = scan_fleet(&store, &AnomalyConfig::default());
        let labels = vec!["attacker".to_string(), "web-1".to_string()];
        let out = verdict_table(&report, &labels);
        assert!(out.contains("attacker"));
        assert!(out.contains("web-1"));
        assert!(out.contains("#2"), "index fallback for missing label");
    }
}
