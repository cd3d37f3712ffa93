//! Deterministic fault injection — the chaos layer.
//!
//! The paper's robustness claim (§VI) is that K-LEB's kernel-side design
//! stays accurate *because* it tolerates the messy realities perf stumbles
//! on: timer jitter and lost expiries, context-switch races, buffer
//! pressure, and slow or failing drain syscalls. The happy-path simulator
//! never exercises any of that, so this module injects those faults on
//! demand — and only on demand.
//!
//! Two properties are load-bearing:
//!
//! 1. **Strictly opt-in.** With [`FaultPlan::NONE`] (the default in every
//!    [`crate::MachineConfig`] constructor) the fault state draws *zero*
//!    random numbers and perturbs *nothing*: every existing simulation is
//!    bit-identical to a build without this module.
//! 2. **Deterministic.** All fault decisions come from one [`StdRng`]
//!    seeded as a pure function of the machine seed (klint rule D1 applies
//!    here unchanged — no wall clocks, no entropy). Same seed + same plan
//!    ⇒ the same faults at the same simulated instants, every run.
//!
//! The fault RNG is separate from the machine's jitter RNG so that
//! enabling faults does not shift the jitter stream (and vice versa): a
//! chaos run differs from its clean twin only where a fault actually
//! fired.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Salt mixed into the machine seed to derive the fault RNG stream.
/// Arbitrary odd constant; only stability matters.
const FAULT_SEED_SALT: u64 = 0xC4A0_5F17_9E37_79B9;

/// Salt multiplied into the restart-attempt number (see
/// [`FaultState::for_attempt`]). Arbitrary odd constant.
const ATTEMPT_SEED_SALT: u64 = 0x9E6C_63D0_985B_2C35;

/// One class of injectable fault: what a draw asks (“does this fault fire
/// here?”).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// An hrtimer expiry is delivered late by a fixed extra delay
    /// (stresses the paper's §VI jitter-bounds discussion).
    TimerDelay,
    /// An hrtimer expiry interrupt is lost outright: the timer stays
    /// armed in the table but never fires. Consumers must detect the
    /// stalled stream and re-arm (K-LEB's controller kick path).
    TimerMiss,
    /// A context-switch kprobe notification is dropped for one device:
    /// the module misses a sched event (the race §III-B guards against).
    CtxswDrop,
    /// A context-switch notification is delivered late: extra kernel
    /// cycles elapse before the probe runs.
    CtxswLate,
    /// An MSR read glitches: the value freezes (subsequent reads return
    /// the stuck value) for a configured number of reads.
    MsrFreeze,
    /// A kernel ring-buffer slot is lost under pressure: the sample taken
    /// this period cannot be buffered and must be *accounted* as dropped.
    RingSlot,
    /// A drain (`read`) syscall fails with `EAGAIN` before reaching the
    /// device; the controller must retry with backoff.
    DrainFail,
    /// A drain syscall is slow: extra kernel cycles are charged before
    /// the device copies records out.
    DrainSlow,
    /// The monitoring thread itself dies: a simulated software crash in
    /// the collector path (the failure a fleet supervisor exists to
    /// contain). When drawn at a timer expiry the machine `panic!`s with
    /// a deterministic message; `fleet::supervisor` catches the unwind,
    /// books a typed `MachineFailure`, and restarts within budget.
    ThreadPanic,
}

/// Number of [`FaultClass`] variants.
const NUM_FAULT_CLASSES: usize = 9;

impl FaultClass {
    /// All classes.
    pub const ALL: [FaultClass; NUM_FAULT_CLASSES] = [
        FaultClass::TimerDelay,
        FaultClass::TimerMiss,
        FaultClass::CtxswDrop,
        FaultClass::CtxswLate,
        FaultClass::MsrFreeze,
        FaultClass::RingSlot,
        FaultClass::DrainFail,
        FaultClass::DrainSlow,
        FaultClass::ThreadPanic,
    ];

    /// Short stable name (report/table rows).
    pub const fn name(self) -> &'static str {
        match self {
            FaultClass::TimerDelay => "timer_delay",
            FaultClass::TimerMiss => "timer_miss",
            FaultClass::CtxswDrop => "ctxsw_drop",
            FaultClass::CtxswLate => "ctxsw_late",
            FaultClass::MsrFreeze => "msr_freeze",
            FaultClass::RingSlot => "ring_slot",
            FaultClass::DrainFail => "drain_fail",
            FaultClass::DrainSlow => "drain_slow",
            FaultClass::ThreadPanic => "thread_panic",
        }
    }
}

/// What to inject and how hard. Threaded through
/// [`crate::MachineConfig::faults`]; [`FaultPlan::NONE`] (the default)
/// disables everything.
///
/// Rates are per-opportunity Bernoulli probabilities in `[0, 1]`:
/// per arm for timers, per device per switch for context switches, per
/// read for MSRs, per buffered sample for the ring, per `read()` syscall
/// for drains. Magnitude fields (`*_ns`, `*_cycles`, `*_reads`,
/// `ring_shrink`) only matter when the matching rate is non-zero.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Probability an hrtimer arm picks up an extra fixed delay.
    pub timer_delay_rate: f64,
    /// The extra delay, nanoseconds.
    pub timer_delay_ns: u64,
    /// Probability an hrtimer expiry is lost outright (timer stays armed,
    /// no fire is ever delivered).
    pub timer_miss_rate: f64,
    /// Probability a context-switch probe notification is dropped, per
    /// device per switch.
    pub ctxsw_drop_rate: f64,
    /// Probability a context-switch probe is delivered late.
    pub ctxsw_late_rate: f64,
    /// Lateness of a late probe, kernel cycles charged before delivery.
    pub ctxsw_late_cycles: u64,
    /// Probability an MSR read starts a freeze (value sticks).
    pub msr_freeze_rate: f64,
    /// How many subsequent reads of that MSR return the stuck value.
    pub msr_freeze_reads: u32,
    /// Probability a ring-buffer slot is lost per sample push (the sample
    /// is taken from the counters but cannot be buffered → dropped).
    pub ring_pressure: f64,
    /// Fraction of the configured ring capacity that is unavailable
    /// (`0.25` ⇒ the module pauses at 75 % of nominal capacity).
    pub ring_shrink: f64,
    /// Probability a drain `read()` fails with `EAGAIN` before reaching
    /// the device.
    pub drain_fail_rate: f64,
    /// Probability a drain `read()` is slow.
    pub drain_slow_rate: f64,
    /// Extra kernel cycles charged on a slow drain.
    pub drain_slow_cycles: u64,
    /// Probability the monitoring thread panics, drawn once per hrtimer
    /// expiry. **Process-fatal without supervision** — deliberately *not*
    /// part of [`FaultPlan::chaos`], since chaos plans are also run
    /// through unsupervised single-machine monitors; opt in with
    /// [`FaultPlan::thread_panic`] / [`FaultPlan::with_thread_panic`].
    pub thread_panic_rate: f64,
    /// Burst-window period, nanoseconds. `0` (the default) means faults
    /// are always eligible — bit-identical to plans predating burst
    /// windowing. Non-zero confines every fault class to the first
    /// [`FaultPlan::burst_duty`] fraction of each window of this length
    /// on the simulated clock: a bursty workload (quiet stretches
    /// punctuated by pressure spikes) rather than uniform chaos.
    pub burst_period_ns: u64,
    /// Fraction of each burst window during which faults may fire, in
    /// `[0, 1]`. Only meaningful when `burst_period_ns > 0`.
    pub burst_duty: f64,
}

impl FaultPlan {
    /// No faults at all: the chaos layer is inert and draws nothing.
    pub const NONE: FaultPlan = FaultPlan {
        timer_delay_rate: 0.0,
        timer_delay_ns: 0,
        timer_miss_rate: 0.0,
        ctxsw_drop_rate: 0.0,
        ctxsw_late_rate: 0.0,
        ctxsw_late_cycles: 0,
        msr_freeze_rate: 0.0,
        msr_freeze_reads: 0,
        ring_pressure: 0.0,
        ring_shrink: 0.0,
        drain_fail_rate: 0.0,
        drain_slow_rate: 0.0,
        drain_slow_cycles: 0,
        thread_panic_rate: 0.0,
        burst_period_ns: 0,
        burst_duty: 0.0,
    };

    /// A balanced all-class plan scaled by `intensity` in `[0, 1]`:
    /// `0.0` is [`FaultPlan::NONE`]; `0.1` is a rough 10 %-of-everything
    /// chaos run (the acceptance bar's "10 % ring-pressure" scenario uses
    /// `chaos(0.1)`); `1.0` is a hostile machine.
    pub fn chaos(intensity: f64) -> FaultPlan {
        let p = intensity.clamp(0.0, 1.0);
        FaultPlan {
            timer_delay_rate: p,
            timer_delay_ns: 20_000, // 20 µs: visible at 100 µs periods
            timer_miss_rate: p / 4.0,
            ctxsw_drop_rate: p / 2.0,
            ctxsw_late_rate: p,
            ctxsw_late_cycles: 2_000,
            msr_freeze_rate: p / 4.0,
            msr_freeze_reads: 2,
            ring_pressure: p,
            ring_shrink: p / 2.0,
            drain_fail_rate: p / 2.0,
            drain_slow_rate: p,
            drain_slow_cycles: 5_000,
            // Process-fatal; never enabled implicitly (see the field doc).
            thread_panic_rate: 0.0,
            burst_period_ns: 0,
            burst_duty: 0.0,
        }
    }

    /// Ring-pressure-only plan: sample pushes fail with probability `p`.
    pub fn ring_pressure(p: f64) -> FaultPlan {
        FaultPlan {
            ring_pressure: p.clamp(0.0, 1.0),
            ..FaultPlan::NONE
        }
    }

    /// Thread-panic-only plan: each hrtimer expiry kills the monitoring
    /// thread with probability `p`. Only meaningful under a supervisor
    /// that contains the unwind (`fleet::supervisor`).
    pub fn thread_panic(p: f64) -> FaultPlan {
        FaultPlan {
            thread_panic_rate: p.clamp(0.0, 1.0),
            ..FaultPlan::NONE
        }
    }

    /// Returns this plan confined to periodic bursts: faults may fire
    /// only during the first `duty` fraction of each `period` on the
    /// simulated clock. `Duration::ZERO` (or a zero duty) disables
    /// windowing — identical to an always-on plan. The workload shape
    /// the rate governor exists for: quiet stretches where a short
    /// period is cheap, spikes where it must back off.
    pub fn bursts(self, period: crate::Duration, duty: f64) -> FaultPlan {
        FaultPlan {
            burst_period_ns: period.as_nanos(),
            burst_duty: duty.clamp(0.0, 1.0),
            ..self
        }
    }

    /// Whether `now_ns` falls inside a fault-eligible burst window.
    /// Always true when windowing is off (`burst_period_ns == 0`).
    fn in_burst(&self, now_ns: u64) -> bool {
        if self.burst_period_ns == 0 {
            return true;
        }
        let open_ns = (self.burst_period_ns as f64 * self.burst_duty) as u64;
        now_ns % self.burst_period_ns < open_ns
    }

    /// The per-opportunity probability for `class`.
    pub fn rate(&self, class: FaultClass) -> f64 {
        match class {
            FaultClass::TimerDelay => self.timer_delay_rate,
            FaultClass::TimerMiss => self.timer_miss_rate,
            FaultClass::CtxswDrop => self.ctxsw_drop_rate,
            FaultClass::CtxswLate => self.ctxsw_late_rate,
            FaultClass::MsrFreeze => self.msr_freeze_rate,
            FaultClass::RingSlot => self.ring_pressure,
            FaultClass::DrainFail => self.drain_fail_rate,
            FaultClass::DrainSlow => self.drain_slow_rate,
            FaultClass::ThreadPanic => self.thread_panic_rate,
        }
    }

    /// Whether any fault class can fire (or the ring is shrunken). When
    /// false the fault state never draws from its RNG.
    #[cfg(test)]
    fn is_active(&self) -> bool {
        self.ring_shrink > 0.0 || FaultClass::ALL.iter().any(|&c| self.rate(c) > 0.0)
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::NONE
    }
}

/// Live fault-injection state owned by a [`crate::Machine`].
///
/// Holds the plan, the derived seeded RNG and the per-`(core, msr)` freeze
/// table. All methods are cheap no-ops when the plan is inert.
#[derive(Debug)]
pub struct FaultState {
    plan: FaultPlan,
    rng: StdRng,
    /// `(core, msr) → (stuck value, remaining reads)`.
    frozen: BTreeMap<(usize, u32), (u64, u32)>,
}

impl FaultState {
    /// Builds the fault state for `plan`, deriving the fault RNG from the
    /// machine `seed` (salted so it never shares a stream with the jitter
    /// RNG).
    pub fn new(plan: FaultPlan, seed: u64) -> Self {
        Self::for_attempt(plan, seed, 0)
    }

    /// Like [`FaultState::new`], but additionally salts the RNG with a
    /// restart `attempt` number. Attempt 0 is bit-identical to
    /// [`FaultState::new`]; each later attempt gets a deterministic but
    /// *different* fault stream. Without this, a supervisor restarting a
    /// machine after an injected [`FaultClass::ThreadPanic`] would replay
    /// the identical draw sequence and crash at the same instant forever —
    /// with it, retries make progress while the whole run (including every
    /// crash point) stays a pure function of `(plan, seed)`.
    pub fn for_attempt(plan: FaultPlan, seed: u64, attempt: u32) -> Self {
        let salt = FAULT_SEED_SALT ^ u64::from(attempt).wrapping_mul(ATTEMPT_SEED_SALT);
        Self {
            plan,
            rng: StdRng::seed_from_u64(seed ^ salt),
            frozen: BTreeMap::new(),
        }
    }

    /// The plan in effect.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Draws whether `class` fires at this opportunity. Never touches the
    /// RNG when the class's rate is zero, so an inert plan consumes no
    /// randomness at all.
    fn fires(&mut self, class: FaultClass) -> bool {
        let rate = self.plan.rate(class);
        if rate <= 0.0 {
            return false;
        }
        rate >= 1.0 || self.rng.gen_f64() < rate
    }

    /// Burst-windowed draw: like [`FaultState::fires`], but gated on
    /// [`FaultPlan::in_burst`] *before* any RNG use — outside a burst no
    /// randomness is consumed, so the in-burst draw sequence is a pure
    /// function of `(plan, seed)` regardless of how many quiet
    /// opportunities pass between windows. With windowing off this is
    /// bit-identical to `fires`.
    pub fn fires_at(&mut self, class: FaultClass, now_ns: u64) -> bool {
        if !self.plan.in_burst(now_ns) {
            return false;
        }
        self.fires(class)
    }

    /// Filters an MSR read through the freeze table: a frozen register
    /// returns its stuck value (consuming one remaining read); otherwise
    /// a freeze may start, in which case this read still observes `fresh`
    /// but the *next* [`FaultPlan::msr_freeze_reads`] reads stick at it.
    pub fn filter_rdmsr(&mut self, core: usize, addr: u32, fresh: u64) -> u64 {
        if let Some((stuck, remaining)) = self.frozen.get_mut(&(core, addr)) {
            let v = *stuck;
            *remaining -= 1;
            if *remaining == 0 {
                self.frozen.remove(&(core, addr));
            }
            return v;
        }
        if self.plan.msr_freeze_reads > 0 && self.fires(FaultClass::MsrFreeze) {
            self.frozen
                .insert((core, addr), (fresh, self.plan.msr_freeze_reads));
        }
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_is_inert_and_draws_nothing() {
        assert!(!FaultPlan::NONE.is_active());
        let mut st = FaultState::new(FaultPlan::NONE, 7);
        let rng_before = format!("{:?}", st.rng);
        for class in FaultClass::ALL {
            assert!(!st.fires(class));
        }
        assert_eq!(st.filter_rdmsr(0, 0x309, 42), 42);
        // The RNG state is untouched: zero draws happened.
        assert_eq!(format!("{:?}", st.rng), rng_before);
    }

    #[test]
    fn fires_is_deterministic_per_seed() {
        let plan = FaultPlan::chaos(0.3);
        let draws = |seed: u64| -> Vec<bool> {
            let mut st = FaultState::new(plan, seed);
            (0..256).map(|_| st.fires(FaultClass::RingSlot)).collect()
        };
        assert_eq!(draws(11), draws(11));
        assert_ne!(draws(11), draws(12), "different seeds diverge");
    }

    #[test]
    fn rate_one_always_fires() {
        let mut st = FaultState::new(FaultPlan::ring_pressure(1.0), 0);
        for _ in 0..10 {
            assert!(st.fires(FaultClass::RingSlot));
        }
    }

    #[test]
    fn observed_rate_tracks_configured_rate() {
        let mut st = FaultState::new(FaultPlan::ring_pressure(0.25), 99);
        let n = 10_000;
        let hits = (0..n).filter(|_| st.fires(FaultClass::RingSlot)).count();
        let observed = hits as f64 / n as f64;
        assert!((observed - 0.25).abs() < 0.02, "observed {observed}");
    }

    #[test]
    fn msr_freeze_sticks_for_configured_reads() {
        let plan = FaultPlan {
            msr_freeze_rate: 1.0,
            msr_freeze_reads: 2,
            ..FaultPlan::NONE
        };
        let mut st = FaultState::new(plan, 3);
        // Onset read observes the fresh value and starts the freeze.
        assert_eq!(st.filter_rdmsr(0, 0x309, 100), 100);
        // The next two reads stick at 100 regardless of the fresh value.
        assert_eq!(st.filter_rdmsr(0, 0x309, 150), 100);
        assert_eq!(st.filter_rdmsr(0, 0x309, 200), 100);
        // Freeze expired: the following read is fresh (and starts a new
        // freeze, since the rate is 1).
        assert_eq!(st.filter_rdmsr(0, 0x309, 300), 300);
        // Freezes are per (core, msr): another core is independent.
        assert_eq!(st.filter_rdmsr(1, 0x309, 400), 400);
    }

    #[test]
    fn chaos_preset_scales_with_intensity() {
        assert!(!FaultPlan::chaos(0.0).is_active());
        let p = FaultPlan::chaos(0.1);
        assert!(p.is_active());
        assert!((p.ring_pressure - 0.1).abs() < 1e-12);
        assert!(p.timer_miss_rate > 0.0 && p.timer_miss_rate < 0.1);
        // Intensity clamps.
        assert!(FaultPlan::chaos(7.0).ring_pressure <= 1.0);
    }

    #[test]
    fn thread_panic_stays_out_of_chaos() {
        // chaos() must never enable the process-fatal class implicitly:
        // unsupervised monitors run chaos plans directly.
        assert_eq!(FaultPlan::chaos(1.0).thread_panic_rate, 0.0);
        assert!(FaultPlan::thread_panic(0.5).is_active());
        assert_eq!(
            FaultPlan::thread_panic(0.5).rate(FaultClass::ThreadPanic),
            0.5
        );
    }

    #[test]
    fn attempt_salt_diverges_but_attempt_zero_matches_new() {
        let plan = FaultPlan::chaos(0.3);
        let draws = |st: &mut FaultState| -> Vec<bool> {
            (0..256).map(|_| st.fires(FaultClass::RingSlot)).collect()
        };
        let base = draws(&mut FaultState::new(plan, 11));
        assert_eq!(
            base,
            draws(&mut FaultState::for_attempt(plan, 11, 0)),
            "attempt 0 must be bit-identical to FaultState::new"
        );
        let retry = draws(&mut FaultState::for_attempt(plan, 11, 1));
        assert_ne!(base, retry, "attempts draw distinct fault streams");
        assert_eq!(
            retry,
            draws(&mut FaultState::for_attempt(plan, 11, 1)),
            "each attempt stream is itself deterministic"
        );
    }

    #[test]
    fn burst_windowing_gates_draws_and_preserves_the_always_on_stream() {
        use crate::Duration;
        let plan = FaultPlan::ring_pressure(1.0);
        // Windowing off: fires_at is bit-identical to fires.
        let mut on = FaultState::new(plan, 5);
        for t in (0..10u64).map(|i| i * 50_000) {
            assert!(on.fires_at(FaultClass::RingSlot, t));
        }
        // 1 ms windows, 25 % duty: eligible only in the first 250 µs.
        let windowed = plan.bursts(Duration::from_micros(1_000), 0.25);
        assert!(windowed.in_burst(0));
        assert!(windowed.in_burst(249_999));
        assert!(!windowed.in_burst(250_000));
        assert!(!windowed.in_burst(999_999));
        assert!(windowed.in_burst(1_000_000), "window repeats");
        let mut st = FaultState::new(windowed, 5);
        let rng_before = format!("{:?}", st.rng);
        assert!(!st.fires_at(FaultClass::RingSlot, 600_000));
        // Outside the burst nothing was drawn: the RNG is untouched.
        assert_eq!(format!("{:?}", st.rng), rng_before);
        assert!(st.fires_at(FaultClass::RingSlot, 1_100_000));
        // Zero duty closes every window; zero period reopens them all.
        assert!(!plan.bursts(Duration::from_micros(1_000), 0.0).in_burst(0));
        assert!(plan.bursts(Duration::ZERO, 0.25).in_burst(777));
    }

    #[test]
    fn burst_draw_sequence_is_independent_of_quiet_opportunities() {
        use crate::Duration;
        let plan = FaultPlan::ring_pressure(0.5).bursts(Duration::from_micros(1_000), 0.25);
        // Two runs probing the same in-burst instants, one with many
        // extra quiet-period probes interleaved: identical draw results.
        let bursts: Vec<u64> = (0..64).map(|i| i * 1_000_000 + 100_000).collect();
        let sparse: Vec<bool> = {
            let mut st = FaultState::new(plan, 9);
            bursts
                .iter()
                .map(|&t| st.fires_at(FaultClass::RingSlot, t))
                .collect()
        };
        let dense: Vec<bool> = {
            let mut st = FaultState::new(plan, 9);
            bursts
                .iter()
                .map(|&t| {
                    for q in 0..17 {
                        assert!(!st.fires_at(FaultClass::RingSlot, t + 200_000 + q));
                    }
                    st.fires_at(FaultClass::RingSlot, t)
                })
                .collect()
        };
        assert_eq!(sparse, dense);
        assert!(sparse.iter().any(|&b| b) && sparse.iter().any(|&b| !b));
    }

    #[test]
    fn every_class_is_listed_once_with_a_name() {
        for (i, class) in FaultClass::ALL.iter().enumerate() {
            assert!(!FaultClass::ALL[..i].contains(class), "duplicate {class:?}");
            assert!(!class.name().is_empty());
        }
    }
}
