//! The per-machine closed-loop sampling-rate governor.
//!
//! The paper's central tradeoff is overhead versus sampling frequency:
//! K-LEB holds <2% overhead at 100 µs periods where timer-based user-space
//! tools degrade the target 10×. A fixed period picks one point on that
//! curve for the whole run; under bursty load the right point moves. The
//! governor closes the loop: at every status poll it folds the pressure
//! signals the pipeline already produces (drop deltas, pause deltas, ring
//! depth) into a pressure verdict and applies an AIMD control law in
//! *period space* — multiplicative period increase when pressured (back
//! off fast, the ring is losing data), additive decrease after a
//! hysteresis run of calm polls (creep back toward the configured rate).
//!
//! Determinism contract: [`RateGovernor::observe`] is a pure function of
//! `(policy × prior state × observed counters)`. It reads no clock and
//! draws no randomness, so a seeded run retunes at exactly the same status
//! polls every time, and a run with zero pressure never retunes at all —
//! byte-identical to an ungoverned run. Retunes are delivered through the
//! acked `SET_PERIOD` ioctl form, which stamps the next buffered sample
//! with the retune flag, so the schedule is recorded in the stream itself
//! and survives record→replay.

/// Factor the period is multiplied by on a pressured poll.
const INCREASE_FACTOR: u64 = 2;

/// Tuning for one machine's AIMD rate controller.
///
/// `base_period_ns` is the floor: the governor never samples *faster*
/// than the configured (or fleet-allocated) period, which is what makes a
/// zero-pressure governed run byte-identical to an ungoverned one. The
/// control law's shape is fixed: any drop is pressure, a pressured poll
/// doubles the period, and a calm run past the hysteresis steps it back
/// down by a quarter of the base.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RatePolicy {
    /// The configured sampling period: both the starting point and the
    /// floor the additive decrease creeps back to.
    pub base_period_ns: u64,
    /// Ceiling for the multiplicative increase.
    pub max_period_ns: u64,
    /// Ring occupancy that counts as pressure, as a percentage of
    /// capacity (e.g. 75 ⇒ pressured at ≥ 3/4 full).
    pub depth_threshold_pct: u32,
    /// Consecutive calm polls required before the period is decreased.
    pub hysteresis: u32,
}

impl RatePolicy {
    /// A policy anchored at `base_period_ns` with the default shape:
    /// 16× max backoff, pressure at a 3/4-full ring, 3 calm polls of
    /// hysteresis.
    pub fn new(base_period_ns: u64) -> Self {
        Self {
            base_period_ns,
            max_period_ns: base_period_ns.saturating_mul(16),
            depth_threshold_pct: 75,
            hysteresis: 3,
        }
    }

    /// Sets the period ceiling.
    pub fn max_period(mut self, max_period_ns: u64) -> Self {
        self.max_period_ns = max_period_ns;
        self
    }

    /// Sets the ring-occupancy pressure threshold (percent of capacity).
    pub fn depth_threshold_pct(mut self, pct: u32) -> Self {
        self.depth_threshold_pct = pct;
        self
    }

    /// The additive decrease per calm poll once hysteresis is satisfied:
    /// a quarter of the base period.
    fn decrease_step_ns(&self) -> u64 {
        (self.base_period_ns / 4).max(1)
    }

    /// Sets the calm-poll hysteresis.
    pub fn hysteresis(mut self, polls: u32) -> Self {
        self.hysteresis = polls.max(1);
        self
    }
}

/// Counter deltas and ring state observed at one status poll, the
/// governor's only input signal.
#[derive(Debug, Clone, Copy, Default)]
pub struct PressureSample {
    /// Samples dropped since the previous poll.
    pub drop_delta: u64,
    /// Buffer-full pauses entered since the previous poll.
    pub pause_delta: u64,
    /// Ring occupancy at the poll.
    pub buffered: u64,
    /// Usable ring capacity.
    pub capacity: u64,
}

impl PressureSample {
    /// Whether this poll counts as pressured under `policy`.
    fn pressured(&self, policy: &RatePolicy) -> bool {
        self.drop_delta > 0
            || self.pause_delta > 0
            || (self.capacity > 0
                && self.buffered * 100 >= self.capacity * u64::from(policy.depth_threshold_pct))
    }
}

/// What the controller should do after a poll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RateDecision {
    /// Keep the current period.
    Hold,
    /// Issue an acked `SET_PERIOD` for `period_ns`, tagged `seq`.
    Retune { period_ns: u64, seq: u64 },
}

/// Counters describing what the governor did over a run.
///
/// All-zero for an ungoverned run *and* for a governed run that never saw
/// pressure, which is what keeps the two byte-identical in
/// `FleetOutcome::digest()`. `last_period_ns`/`max_period_ns` are the last
/// and highest *retuned* periods (0 if no retune ever fired).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GovernorStats {
    /// Retunes issued.
    pub retunes: u32,
    /// Retunes acked by the module (retval matched the sent seq).
    pub acked: u32,
    /// Multiplicative increases cut short by the `max_period_ns` clamp.
    pub clamps: u32,
    /// Direction reversals (increase→decrease or decrease→increase).
    pub oscillations: u32,
    /// Period set by the most recent retune; 0 if never retuned.
    pub last_period_ns: u64,
    /// Highest period any retune set; 0 if never retuned.
    pub max_period_ns: u64,
}

impl GovernorStats {
    /// True when no governor ran or the governor never acted.
    pub fn is_idle(&self) -> bool {
        *self == Self::default()
    }
}

/// The AIMD state machine. One instance per governed machine, stepped at
/// every controller status poll.
#[derive(Debug, Clone)]
pub struct RateGovernor {
    policy: RatePolicy,
    /// The period currently in effect on the module.
    period_ns: u64,
    /// Consecutive calm polls since the last pressured poll or retune.
    calm_streak: u32,
    /// +1 after an increase, -1 after a decrease, 0 before any retune.
    last_direction: i8,
    /// Sequence number for the next retune.
    next_seq: u64,
    stats: GovernorStats,
}

impl RateGovernor {
    /// A governor starting at the policy's base period.
    pub fn new(policy: RatePolicy) -> Self {
        let period_ns = policy.base_period_ns;
        Self::resumed(policy, period_ns)
    }

    /// A governor resuming at a previously governed period (supervisor
    /// restart continuity: the replacement attempt must not snap back to
    /// the configured rate the ring already proved it cannot sustain).
    pub fn resumed(policy: RatePolicy, period_ns: u64) -> Self {
        Self {
            policy,
            period_ns: period_ns.clamp(policy.base_period_ns, policy.max_period_ns.max(1)),
            calm_streak: 0,
            last_direction: 0,
            next_seq: 0,
            stats: GovernorStats::default(),
        }
    }

    /// The period the governor believes is in effect.
    pub fn period_ns(&self) -> u64 {
        self.period_ns
    }

    /// The policy this governor runs.
    pub fn policy(&self) -> &RatePolicy {
        &self.policy
    }

    /// Counters so far.
    pub fn stats(&self) -> GovernorStats {
        self.stats
    }

    /// Records a module ack for a retune (retval matched the seq).
    pub fn acked(&mut self, seq: u64) {
        // Sequences are issued in order and acks arrive synchronously on
        // the ioctl return path, so any matching seq below the cursor is
        // a valid ack.
        if seq < self.next_seq {
            self.stats.acked += 1;
        }
    }

    /// Steps the control law with one poll's observations. Pure: no
    /// clocks, no randomness — identical inputs yield identical decisions.
    pub fn observe(&mut self, sample: PressureSample) -> RateDecision {
        if sample.pressured(&self.policy) {
            self.calm_streak = 0;
            let proposed = self.period_ns.saturating_mul(INCREASE_FACTOR);
            let clamped = proposed.min(self.policy.max_period_ns.max(self.policy.base_period_ns));
            if clamped < proposed {
                self.stats.clamps += 1;
            }
            if clamped == self.period_ns {
                return RateDecision::Hold; // already at the ceiling
            }
            return self.retune(clamped, 1);
        }

        self.calm_streak = self.calm_streak.saturating_add(1);
        if self.period_ns > self.policy.base_period_ns
            && self.calm_streak >= self.policy.hysteresis.max(1)
        {
            self.calm_streak = 0;
            let proposed = self
                .period_ns
                .saturating_sub(self.policy.decrease_step_ns())
                .max(self.policy.base_period_ns);
            return self.retune(proposed, -1);
        }
        RateDecision::Hold
    }

    fn retune(&mut self, period_ns: u64, direction: i8) -> RateDecision {
        if self.last_direction != 0 && self.last_direction != direction {
            self.stats.oscillations += 1;
        }
        self.last_direction = direction;
        self.period_ns = period_ns;
        self.stats.retunes += 1;
        self.stats.last_period_ns = period_ns;
        self.stats.max_period_ns = self.stats.max_period_ns.max(period_ns);
        let seq = self.next_seq;
        self.next_seq += 1;
        RateDecision::Retune { period_ns, seq }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn calm() -> PressureSample {
        PressureSample::default()
    }

    fn pressured() -> PressureSample {
        PressureSample {
            drop_delta: 5,
            ..PressureSample::default()
        }
    }

    #[test]
    fn zero_pressure_never_retunes() {
        let mut g = RateGovernor::new(RatePolicy::new(100_000));
        for _ in 0..1_000 {
            assert_eq!(g.observe(calm()), RateDecision::Hold);
        }
        assert!(g.stats().is_idle());
        assert_eq!(g.period_ns(), 100_000);
    }

    #[test]
    fn pressure_multiplies_and_clamps() {
        let policy = RatePolicy::new(100_000).max_period(400_000);
        let mut g = RateGovernor::new(policy);
        assert_eq!(
            g.observe(pressured()),
            RateDecision::Retune {
                period_ns: 200_000,
                seq: 0
            }
        );
        assert_eq!(
            g.observe(pressured()),
            RateDecision::Retune {
                period_ns: 400_000,
                seq: 1
            }
        );
        // At the ceiling: clamp counted, no further retune.
        assert_eq!(g.observe(pressured()), RateDecision::Hold);
        assert_eq!(g.stats().clamps, 1);
        assert_eq!(g.stats().max_period_ns, 400_000);
    }

    #[test]
    fn calm_decreases_only_after_hysteresis_and_floors_at_base() {
        let policy = RatePolicy::new(100_000).hysteresis(3);
        let mut g = RateGovernor::new(policy);
        g.observe(pressured()); // 200k
        assert_eq!(g.observe(calm()), RateDecision::Hold);
        assert_eq!(g.observe(calm()), RateDecision::Hold);
        // Each decrease steps a quarter of the base, down to the base.
        for (seq, period_ns) in (1..).zip([175_000, 150_000, 125_000, 100_000]) {
            if seq > 1 {
                g.observe(calm());
                g.observe(calm());
            }
            assert_eq!(g.observe(calm()), RateDecision::Retune { period_ns, seq });
        }
        // Never below the base.
        for _ in 0..10 {
            assert_eq!(g.observe(calm()), RateDecision::Hold);
        }
        assert_eq!(g.period_ns(), 100_000);
    }

    #[test]
    fn a_step_past_the_base_lands_on_the_base() {
        // A base of 100_002 steps by 25_000, so the fifth decrease from
        // 200_004 would undershoot to 75_004.
        let mut g = RateGovernor::new(RatePolicy::new(100_002).hysteresis(1));
        g.observe(pressured());
        for period_ns in [175_004, 150_004, 125_004, 100_004, 100_002] {
            assert!(matches!(g.observe(calm()), RateDecision::Retune { .. }));
            assert_eq!(g.period_ns(), period_ns);
        }
        assert_eq!(g.observe(calm()), RateDecision::Hold);
    }

    #[test]
    fn oscillations_count_direction_reversals() {
        let mut g = RateGovernor::new(RatePolicy::new(100_000).hysteresis(1));
        g.observe(pressured()); // up
        g.observe(calm()); // down: reversal 1
        g.observe(pressured()); // up: reversal 2
        assert_eq!(g.stats().oscillations, 2);
    }

    #[test]
    fn depth_and_pause_also_count_as_pressure() {
        let policy = RatePolicy::new(100_000);
        let mut g = RateGovernor::new(policy);
        let deep = PressureSample {
            buffered: 90,
            capacity: 100,
            ..PressureSample::default()
        };
        assert!(matches!(g.observe(deep), RateDecision::Retune { .. }));
        let mut g = RateGovernor::new(policy);
        let paused = PressureSample {
            pause_delta: 1,
            ..PressureSample::default()
        };
        assert!(matches!(g.observe(paused), RateDecision::Retune { .. }));
    }

    #[test]
    fn resumed_governor_starts_at_the_governed_period() {
        let g = RateGovernor::resumed(RatePolicy::new(100_000), 400_000);
        assert_eq!(g.period_ns(), 400_000);
        // Out-of-range resume periods are clamped into the policy window.
        let g = RateGovernor::resumed(RatePolicy::new(100_000), 10);
        assert_eq!(g.period_ns(), 100_000);
    }

    #[test]
    fn acks_track_issued_seqs() {
        let mut g = RateGovernor::new(RatePolicy::new(100_000));
        let RateDecision::Retune { seq, .. } = g.observe(pressured()) else {
            panic!("expected a retune");
        };
        g.acked(seq);
        g.acked(99); // unknown seq: ignored
        assert_eq!(g.stats().acked, 1);
    }

    #[test]
    fn identical_inputs_give_identical_schedules() {
        let policy = RatePolicy::new(100_000).hysteresis(2);
        let inputs: Vec<PressureSample> = (0..200)
            .map(|i| if i % 7 < 2 { pressured() } else { calm() })
            .collect();
        let run = |inputs: &[PressureSample]| {
            let mut g = RateGovernor::new(policy);
            let decisions: Vec<RateDecision> = inputs.iter().map(|s| g.observe(*s)).collect();
            (decisions, g.stats())
        };
        assert_eq!(run(&inputs), run(&inputs));
    }
}
