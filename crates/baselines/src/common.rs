//! Shared result types and the uniform tool runner.

use pmu::{EventCode, HwEvent};

use ksim::wire::Reader;
use ksim::{Duration, Errno, ProcessInfo};

/// Appends `codes` to an ioctl payload as a [`ksim::wire`] list of
/// `(event, umask)` byte pairs.
pub(crate) fn put_event_codes(out: &mut Vec<u8>, codes: &[EventCode]) {
    out.extend_from_slice(&(codes.len() as u32).to_le_bytes());
    out.extend(codes.iter().flat_map(|c| [c.event, c.umask]));
}

/// Reads a list written by [`put_event_codes`].
pub(crate) fn read_event_codes(r: &mut Reader<'_>) -> Option<Vec<EventCode>> {
    r.list(2, |r| Some(EventCode::new(r.u8()?, r.u8()?)))
}

/// The events a device is asked to count, or `-EINVAL` if any code is one
/// the PMU does not model.
pub(crate) fn known_events(codes: &[EventCode]) -> Result<Vec<HwEvent>, Errno> {
    codes
        .iter()
        .map(|&code| HwEvent::from_code(code))
        .collect::<Option<_>>()
        .ok_or(Errno::Inval)
}

/// One point of a tool's time series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ToolSample {
    /// Simulated time of the sample, nanoseconds.
    pub timestamp_ns: u64,
    /// Per-requested-event deltas, in request order.
    pub values: Vec<u64>,
    /// Instructions retired in the period (when the tool reads fixed
    /// counters; zero otherwise).
    pub instructions: u64,
}

/// The outcome of running a workload under one monitoring tool.
#[derive(Debug, Clone)]
pub struct ToolRun {
    /// Tool name as the paper spells it.
    pub tool: &'static str,
    /// The monitored process (timing + ground truth).
    pub target: ProcessInfo,
    /// Tool-reported totals per requested event, in request order.
    pub event_totals: Vec<(HwEvent, u64)>,
    /// Tool-reported fixed-counter totals (instructions, core cycles,
    /// reference cycles); zeros if the tool does not collect them.
    pub fixed_totals: [u64; 3],
    /// Time series, if the tool produces one (empty for counting-mode
    /// tools that only report totals).
    pub samples: Vec<ToolSample>,
    /// The sampling period asked for.
    pub requested_period: Duration,
    /// The period actually used (perf clamps to its 10 ms floor).
    pub effective_period: Duration,
}

impl ToolRun {
    /// Tool-reported total for one event.
    pub fn total(&self, event: HwEvent) -> Option<u64> {
        self.event_totals
            .iter()
            .find(|(e, _)| *e == event)
            .map(|&(_, v)| v)
    }

    /// Relative difference between the tool's reading and the ground truth
    /// for `event`, as a fraction (0.003 = 0.3%). Ground truth is the
    /// target's user-mode events (plus kernel-mode when `count_kernel`).
    ///
    /// Returns `None` when the event was not requested or the truth is zero.
    pub fn relative_error(&self, event: HwEvent, count_kernel: bool) -> Option<f64> {
        let reported = self.total(event)? as f64;
        let mut truth = self.target.true_user_events.get(event);
        if count_kernel {
            truth += self.target.true_kernel_events.get(event);
        }
        if truth == 0 {
            return None;
        }
        Some((reported - truth as f64).abs() / truth as f64)
    }

    /// Wall-clock runtime of the monitored process.
    pub fn wall_time(&self) -> Duration {
        self.target.wall_time()
    }
}

/// Overhead of a monitored run relative to an unmonitored baseline, in
/// percent (the paper's Tables II/III metric).
pub fn overhead_percent(baseline: Duration, monitored: Duration) -> f64 {
    let b = baseline.as_nanos() as f64;
    let m = monitored.as_nanos() as f64;
    (m - b) / b * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_math() {
        assert!(
            (overhead_percent(Duration::from_millis(100), Duration::from_millis(106)) - 6.0).abs()
                < 1e-9
        );
        assert!(overhead_percent(Duration::from_millis(100), Duration::from_millis(99)) < 0.0);
    }
}
