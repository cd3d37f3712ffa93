//! Fleet-level rate governance: one overhead budget, many machines.
//!
//! The per-machine AIMD loop (kleb's rate governor, set through
//! [`kleb::RatePolicy`]) holds each stream inside its own ring's
//! capacity; this module adds the fleet view the paper's deployment
//! story needs — an *aggregate* sampling budget that the collector
//! splits across machines before any of them starts.
//!
//! Two pieces:
//!
//! - [`GovernorPolicy`] — the fleet knobs: an aggregate budget in
//!   samples per second (`0` = unbounded, the default), the per-machine
//!   backoff ceiling, and the depth threshold and hysteresis every
//!   machine's [`kleb::RatePolicy`] is derived from.
//! - [`GovernorPolicy::allocate`] — the deterministic budget allocator.
//!   Every machine starts at the configured period; while the weighted
//!   aggregate rate exceeds the budget, the heaviest stream (largest
//!   `weight × rate`, lowest index on ties) has its period doubled, up
//!   to the ceiling. Pure integer arithmetic over the spec list — same
//!   specs, same allocation, every run.
//!
//! After a run, each machine's governance is summarised in a
//! [`GovernorReport`] row inside [`crate::FleetOutcome`]: the configured
//! and allocated base periods plus the live controller's
//! [`kleb::GovernorStats`].

use kleb::{GovernorStats, RatePolicy};

/// Fleet-wide governance policy: the budget and the shape of every
/// machine's derived [`RatePolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GovernorPolicy {
    /// Aggregate weighted sampling budget, samples per second across the
    /// fleet. `0` (the default) disables the allocator: every machine
    /// starts at the configured period and only live pressure retunes it.
    pub budget_samples_per_sec: u64,
    /// Per-machine period ceiling as a multiple of its allocated base
    /// (both for the allocator and for the live AIMD loop).
    pub max_period_factor: u32,
    /// Ring occupancy that counts as pressure, percent of capacity.
    pub depth_threshold_pct: u32,
    /// Consecutive calm polls before the live loop creeps the period
    /// back toward its base.
    pub hysteresis: u32,
}

impl GovernorPolicy {
    /// The default shape: unbounded budget, 16× backoff ceiling,
    /// pressure on any drop or a 3/4-full ring, 3 calm polls of
    /// hysteresis.
    pub fn new() -> Self {
        Self {
            budget_samples_per_sec: 0,
            max_period_factor: 16,
            depth_threshold_pct: 75,
            hysteresis: 3,
        }
    }

    /// Sets the aggregate weighted budget (samples per second; 0 =
    /// unbounded).
    pub fn budget(mut self, samples_per_sec: u64) -> Self {
        self.budget_samples_per_sec = samples_per_sec;
        self
    }

    /// Sets the per-machine backoff ceiling (multiple of the base
    /// period; min 1).
    pub fn max_period_factor(mut self, factor: u32) -> Self {
        self.max_period_factor = factor.max(1);
        self
    }

    /// Sets the ring-occupancy pressure threshold (percent).
    pub fn depth_threshold_pct(mut self, pct: u32) -> Self {
        self.depth_threshold_pct = pct;
        self
    }

    /// Sets the calm-poll hysteresis.
    pub fn hysteresis(mut self, polls: u32) -> Self {
        self.hysteresis = polls.max(1);
        self
    }

    /// Derives the live AIMD policy for a machine whose allocated base
    /// period is `base_period_ns`.
    pub(crate) fn rate_policy(&self, base_period_ns: u64) -> RatePolicy {
        RatePolicy::new(base_period_ns)
            .max_period(base_period_ns.saturating_mul(u64::from(self.max_period_factor.max(1))))
            .depth_threshold_pct(self.depth_threshold_pct)
            .hysteresis(self.hysteresis)
    }

    /// Splits the budget across `weights.len()` machines sampling at
    /// `base_period_ns` by default. Returns each machine's allocated
    /// base period. With an unbounded budget every machine keeps the
    /// configured period; otherwise the heaviest stream is slowed first
    /// (period doubled, up to the ceiling) until the weighted aggregate
    /// rate fits — or every machine is at its ceiling, in which case the
    /// best-effort allocation is returned.
    ///
    /// Deterministic by construction: integer arithmetic only, ties
    /// broken toward the lowest machine index.
    pub fn allocate(&self, base_period_ns: u64, weights: &[f64]) -> Vec<u64> {
        let base = base_period_ns.max(1);
        let mut periods = vec![base; weights.len()];
        if self.budget_samples_per_sec == 0 || weights.is_empty() {
            return periods;
        }
        let ceiling = base.saturating_mul(u64::from(self.max_period_factor.max(1)));
        // Milli-weights: deterministic integer costs; a weight below
        // 0.001 still costs something, so it can never hide from the
        // allocator entirely.
        let w: Vec<u128> = weights
            .iter()
            .map(|&x| ((x.max(0.0) * 1000.0) as u128).max(1))
            .collect();
        // cost = weight(milli) × rate(milli-samples/sec): micro-units.
        let cost = |w: u128, period_ns: u64| w * 1_000_000_000_000u128 / u128::from(period_ns);
        let budget_micro = u128::from(self.budget_samples_per_sec) * 1_000_000;
        loop {
            let total: u128 = periods.iter().zip(&w).map(|(&p, &wi)| cost(wi, p)).sum();
            if total <= budget_micro {
                break;
            }
            let Some(pick) = (0..periods.len())
                .filter(|&i| periods[i] < ceiling)
                .max_by_key(|&i| (cost(w[i], periods[i]), std::cmp::Reverse(i)))
            else {
                break; // every machine at its ceiling: best effort
            };
            periods[pick] = periods[pick].saturating_mul(2).min(ceiling);
        }
        periods
    }
}

impl Default for GovernorPolicy {
    fn default() -> Self {
        Self::new()
    }
}

/// One machine's governance summary, parallel to its report in
/// [`crate::FleetOutcome`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GovernorReport {
    /// The machine's label.
    pub label: String,
    /// The fleet-configured sampling period.
    pub base_period_ns: u64,
    /// The period the budget allocator assigned (equals
    /// `base_period_ns` when no budget was set).
    pub allocated_period_ns: u64,
    /// What the live AIMD loop did.
    pub stats: GovernorStats,
}

impl GovernorReport {
    /// The period in effect when the run ended: the last retuned period,
    /// or the allocated base if the governor never acted.
    pub(crate) fn final_period_ns(&self) -> u64 {
        if self.stats.last_period_ns != 0 {
            self.stats.last_period_ns
        } else {
            self.allocated_period_ns
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_budget_keeps_every_machine_at_base() {
        let alloc = GovernorPolicy::new().allocate(100_000, &[1.0, 2.0, 0.5]);
        assert_eq!(alloc, vec![100_000; 3]);
    }

    #[test]
    fn allocator_slows_the_heaviest_stream_first() {
        // 3 machines at 100 µs = 30k samples/s weighted (weights sum 3).
        // Budget 20k: the weight-2 machine must back off first.
        let policy = GovernorPolicy::new().budget(20_000);
        let alloc = policy.allocate(100_000, &[1.0, 2.0, 1.0]);
        assert!(alloc[1] > alloc[0], "heaviest slowed first: {alloc:?}");
        // The budget is met.
        let total: f64 = alloc
            .iter()
            .zip([1.0, 2.0, 1.0])
            .map(|(&p, w)| w * 1e9 / p as f64)
            .sum();
        assert!(total <= 20_000.0 + 1e-6, "total {total}");
    }

    #[test]
    fn allocation_is_deterministic_and_tie_breaks_by_index() {
        let policy = GovernorPolicy::new().budget(25_000);
        let a = policy.allocate(100_000, &[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(a, policy.allocate(100_000, &[1.0, 1.0, 1.0, 1.0]));
        // Equal weights: the earliest machines take the hit.
        assert!(a[0] >= a[3], "{a:?}");
    }

    #[test]
    fn infeasible_budget_stops_at_every_ceiling() {
        let policy = GovernorPolicy::new().budget(1).max_period_factor(4);
        let alloc = policy.allocate(100_000, &[1.0, 1.0]);
        assert_eq!(alloc, vec![400_000, 400_000], "best effort at ceiling");
    }

    #[test]
    fn derived_rate_policy_matches_the_fleet_knobs() {
        let policy = GovernorPolicy::new()
            .max_period_factor(8)
            .depth_threshold_pct(50)
            .hysteresis(2);
        let rp = policy.rate_policy(200_000);
        assert_eq!(rp.base_period_ns, 200_000);
        assert_eq!(rp.max_period_ns, 1_600_000);
        assert_eq!(rp.depth_threshold_pct, 50);
        assert_eq!(rp.hysteresis, 2);
    }

    #[test]
    fn report_final_period_prefers_the_last_retune() {
        let mut report = GovernorReport {
            label: "m0".into(),
            base_period_ns: 100_000,
            allocated_period_ns: 200_000,
            ..Default::default()
        };
        assert_eq!(report.final_period_ns(), 200_000);
        report.stats.last_period_ns = 800_000;
        assert_eq!(report.final_period_ns(), 800_000);
    }
}
