//! Monitoring configuration and the ioctl protocol.
//!
//! The user-space controller passes a [`MonitorConfig`] to the kernel module
//! through an `ioctl` (paper Fig. 2, step 1): the target PID, the hardware
//! events to program on the four counters, and the sampling period. Requests
//! are numbered in the `0x4B__` ("K") range, and every payload uses the
//! little-endian layout of [`ksim::wire`].

use pmu::{EventCode, HwEvent};

use ksim::{wire, Duration, Pid};

/// `ioctl` request: configure monitoring (payload = [`MonitorConfig`], see
/// [`MonitorConfig::to_payload`]).
pub const IOCTL_CONFIG: u64 = 0x4B01;
/// `ioctl` request: start monitoring the configured target.
pub const IOCTL_START: u64 = 0x4B02;
/// `ioctl` request: stop monitoring and release kernel resources.
pub const IOCTL_STOP: u64 = 0x4B03;
/// `ioctl` request: query module status (out payload = [`ModuleStatus`],
/// see [`ModuleStatus::to_payload`]).
pub const IOCTL_STATUS: u64 = 0x4B04;
/// `ioctl` request: kick a stalled sampling timer. If the module is
/// running/active and its periodic deadline has sailed past without the
/// expiry ever firing (a lost hrtimer interrupt — see
/// [`ksim::FaultClass::TimerMiss`]), the timer is re-armed from now.
/// Returns 1 if a stall was repaired, 0 if there was nothing to do.
pub const IOCTL_KICK: u64 = 0x4B05;
/// `ioctl` request: change the sampling period of a configured monitor
/// (payload = little-endian `u64` nanoseconds; takes effect at the next
/// re-arm). This is the controller's degraded-mode lever: when drops
/// exceed its threshold it doubles the period to shed pressure rather
/// than losing samples silently.
pub const IOCTL_SET_PERIOD: u64 = 0x4B06;

/// The fastest period the paper recommends (§III): below 100 µs, timer
/// jitter becomes a significant fraction of the period.
pub const MIN_RECOMMENDED_PERIOD: Duration = Duration::from_micros(100);

/// Errors produced when validating a [`MonitorConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// More events requested than programmable counters exist.
    TooManyEvents {
        /// Number requested.
        requested: usize,
    },
    /// A requested event code is not one the PMU models.
    UnknownEvent(EventCode),
    /// The same event was requested twice.
    DuplicateEvent(HwEvent),
    /// A zero sampling period.
    ZeroPeriod,
    /// A zero buffer capacity.
    ZeroBuffer,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::TooManyEvents { requested } => write!(
                f,
                "requested {requested} events but only {} programmable counters exist",
                pmu::NUM_PROGRAMMABLE
            ),
            ConfigError::UnknownEvent(code) => write!(
                f,
                "event code {:#04x}/{:#04x} is not one the PMU models",
                code.event, code.umask
            ),
            ConfigError::DuplicateEvent(e) => write!(f, "event {e} requested twice"),
            ConfigError::ZeroPeriod => f.write_str("sampling period must be non-zero"),
            ConfigError::ZeroBuffer => f.write_str("kernel buffer capacity must be non-zero"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Everything the kernel module needs to monitor one process tree.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorConfig {
    /// Initial PID to monitor.
    pub target: u32,
    /// Events for the programmable counters (≤ 4), as the `(event, umask)`
    /// codes that cross the user/kernel boundary. The three fixed counters
    /// (instructions, core cycles, reference cycles) are always collected.
    pub events: Vec<EventCode>,
    /// Sampling period, nanoseconds.
    pub period_ns: u64,
    /// Also track children of the target (fork-following, paper §III).
    pub track_children: bool,
    /// Kernel sample buffer capacity, in records.
    pub buffer_capacity: usize,
    /// Count ring-0 events too (`OS` bit). K-LEB defaults to user-only so
    /// the monitored process's counts are isolated from kernel noise.
    pub count_kernel: bool,
}

impl MonitorConfig {
    /// A config for `target` monitoring `events` every `period`, with
    /// child-tracking on and an 8192-record buffer.
    pub fn new(target: Pid, events: &[HwEvent], period: Duration) -> Self {
        Self {
            target: target.0,
            events: events.iter().map(|e| e.code()).collect(),
            period_ns: period.as_nanos(),
            track_children: true,
            buffer_capacity: 8192,
            count_kernel: false,
        }
    }

    /// The sampling period as a [`Duration`].
    pub fn period(&self) -> Duration {
        Duration::from_nanos(self.period_ns)
    }

    /// Validates counter fit, event codes, duplicates, and non-zero
    /// parameters.
    ///
    /// # Errors
    ///
    /// See [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.events.len() > pmu::NUM_PROGRAMMABLE {
            return Err(ConfigError::TooManyEvents {
                requested: self.events.len(),
            });
        }
        let mut events = Vec::with_capacity(self.events.len());
        for &code in &self.events {
            events.push(HwEvent::from_code(code).ok_or(ConfigError::UnknownEvent(code))?);
        }
        for (i, a) in events.iter().enumerate() {
            if events[i + 1..].contains(a) {
                return Err(ConfigError::DuplicateEvent(*a));
            }
        }
        if self.period_ns == 0 {
            return Err(ConfigError::ZeroPeriod);
        }
        if self.buffer_capacity == 0 {
            return Err(ConfigError::ZeroBuffer);
        }
        Ok(())
    }

    /// Marshals for the ioctl payload: `target` u32, `events` as a list of
    /// `(event, umask)` byte pairs, `period_ns` u64, `track_children` bool,
    /// `buffer_capacity` u64, `count_kernel` bool.
    pub fn to_payload(&self) -> Vec<u8> {
        let mut out = self.target.to_le_bytes().to_vec();
        out.extend_from_slice(&(self.events.len() as u32).to_le_bytes());
        out.extend(self.events.iter().flat_map(|c| [c.event, c.umask]));
        out.extend_from_slice(&self.period_ns.to_le_bytes());
        out.push(u8::from(self.track_children));
        out.extend_from_slice(&(self.buffer_capacity as u64).to_le_bytes());
        out.push(u8::from(self.count_kernel));
        out
    }

    /// Unmarshals from an ioctl payload.
    ///
    /// # Errors
    ///
    /// Returns `None` on malformed payloads (the module answers `-EINVAL`).
    pub fn from_payload(payload: &[u8]) -> Option<Self> {
        wire::decode(payload, |r| {
            Some(Self {
                target: r.u32()?,
                events: r.list(2, |r| Some(EventCode::new(r.u8()?, r.u8()?)))?,
                period_ns: r.u64()?,
                track_children: r.bool()?,
                buffer_capacity: usize::try_from(r.u64()?).ok()?,
                count_kernel: r.bool()?,
            })
        })
    }
}

/// Status snapshot returned by [`IOCTL_STATUS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ModuleStatus {
    /// Whether the target (or any tracked process) is still alive.
    pub target_alive: bool,
    /// Records currently buffered in kernel memory.
    pub buffered: u64,
    /// Total samples taken since start.
    pub samples_taken: u64,
    /// Samples taken but lost before they could be buffered (ring-buffer
    /// pressure, [`ksim::FaultClass::RingSlot`]). Zero on a healthy
    /// machine: the safety stop pauses instead of dropping — but under
    /// injected pressure every loss is counted here, never silent.
    /// Invariant: `drained + samples_dropped + buffered == samples_taken`.
    pub samples_dropped: u64,
    /// Times the safety mechanism paused collection because the buffer
    /// filled before the controller drained it (paper §III).
    pub pauses: u64,
    /// Whether collection is currently paused by the safety mechanism.
    pub paused: bool,
    /// The sampling period currently in effect, nanoseconds (changes when
    /// the controller degrades via [`IOCTL_SET_PERIOD`]). Zero when no
    /// monitor is configured.
    pub period_ns: u64,
}

impl ModuleStatus {
    /// Marshals for the ioctl out-payload, 42 bytes: `target_alive` bool,
    /// `buffered`, `samples_taken`, `samples_dropped` and `pauses` u64,
    /// `paused` bool, `period_ns` u64.
    pub fn to_payload(&self) -> Vec<u8> {
        let mut out = vec![u8::from(self.target_alive)];
        for v in [
            self.buffered,
            self.samples_taken,
            self.samples_dropped,
            self.pauses,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.push(u8::from(self.paused));
        out.extend_from_slice(&self.period_ns.to_le_bytes());
        out
    }

    /// Unmarshals from an ioctl out-payload.
    pub fn from_payload(payload: &[u8]) -> Option<Self> {
        wire::decode(payload, |r| {
            Some(Self {
                target_alive: r.bool()?,
                buffered: r.u64()?,
                samples_taken: r.u64()?,
                samples_dropped: r.u64()?,
                pauses: r.u64()?,
                paused: r.bool()?,
                period_ns: r.u64()?,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> MonitorConfig {
        MonitorConfig::new(
            Pid(3),
            &[HwEvent::LlcReference, HwEvent::LlcMiss],
            Duration::from_micros(100),
        )
    }

    #[test]
    fn valid_config_round_trips() {
        let cfg = config();
        assert_eq!(cfg.validate(), Ok(()));
        let back = MonitorConfig::from_payload(&cfg.to_payload()).unwrap();
        assert_eq!(back, cfg);
        assert_eq!(back.period(), Duration::from_micros(100));
    }

    #[test]
    fn too_many_events_rejected() {
        let mut cfg = config();
        cfg.events = [
            HwEvent::Load,
            HwEvent::Store,
            HwEvent::BranchRetired,
            HwEvent::BranchMiss,
            HwEvent::LlcMiss,
        ]
        .iter()
        .map(|e| e.code())
        .collect();
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::TooManyEvents { requested: 5 })
        );
    }

    #[test]
    fn duplicate_event_rejected() {
        let mut cfg = config();
        cfg.events = vec![HwEvent::Load.code(), HwEvent::Load.code()];
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::DuplicateEvent(HwEvent::Load))
        );
    }

    #[test]
    fn unknown_event_rejected_by_its_code() {
        let unknown = EventCode::new(0xFF, 0xFF);
        let mut cfg = config();
        for events in [
            vec![unknown],
            vec![unknown, unknown],
            vec![HwEvent::Load.code(), unknown, HwEvent::Load.code()],
        ] {
            cfg.events = events;
            assert_eq!(cfg.validate(), Err(ConfigError::UnknownEvent(unknown)));
        }
    }

    #[test]
    fn zero_period_and_buffer_rejected() {
        let mut cfg = config();
        cfg.period_ns = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroPeriod));
        let mut cfg = config();
        cfg.buffer_capacity = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroBuffer));
    }

    #[test]
    fn malformed_payload_is_none() {
        let cfg = config().to_payload();
        for len in 0..cfg.len() {
            assert!(MonitorConfig::from_payload(&cfg[..len]).is_none(), "{len}");
        }
        let mut flag = cfg.clone();
        *flag.last_mut().unwrap() = 2;
        assert!(MonitorConfig::from_payload(&flag).is_none());
        let status = ModuleStatus::default().to_payload();
        assert!(ModuleStatus::from_payload(&[status.as_slice(), &[0]].concat()).is_none());
    }

    #[test]
    fn status_round_trips() {
        let s = ModuleStatus {
            target_alive: true,
            buffered: 7,
            samples_taken: 100,
            samples_dropped: 3,
            pauses: 1,
            paused: false,
            period_ns: 100_000,
        };
        assert_eq!(ModuleStatus::from_payload(&s.to_payload()), Some(s));
    }
}
