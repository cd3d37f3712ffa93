//! A Heartbleed-style data-only exploit workload.
//!
//! The paper motivates online counter monitoring with prior work on
//! detecting data-only exploits from hardware events — Torres & Liu's
//! Heartbleed case study (paper reference [26]). Heartbleed is a pure data
//! leak: the control flow is the legitimate heartbeat path, so control-flow
//! integrity sees nothing; what changes is the *data footprint* — the
//! server `memcpy`s a ~64 KiB over-read of heap memory into the response
//! instead of a few dozen bytes.
//!
//! [`HeartbleedServer`] models a TLS server answering heartbeat requests;
//! every `exploit_every`-th request is a malicious over-read. The exploit
//! requests move two orders of magnitude more memory, which K-LEB's
//! per-period LOAD/STORE/LLC series exposes (and the EWMA detector in
//! `analysis` flags), exactly the hardware-event detection the paper's
//! motivation describes.

use pmu::{EventCounts, HwEvent};

use ksim::{ItemResult, WorkBlock, WorkItem, Workload};
use memsim::{AccessKind, AccessPattern};

use crate::HEAP_BASE;

/// Bytes a legitimate heartbeat echoes.
const BENIGN_PAYLOAD: u64 = 64;

/// Bytes the malicious heartbeat leaks (the classic 64 KiB over-read).
const EXPLOIT_PAYLOAD: u64 = 64 * 1024;

/// A TLS server answering heartbeat requests, optionally exploited.
#[derive(Debug, Clone)]
pub struct HeartbleedServer {
    requests: u64,
    served: u64,
    exploit_every: Option<u64>,
    seed: u64,
    heap_cursor: u64,
}

impl HeartbleedServer {
    /// A server answering `requests` heartbeats, with every
    /// `exploit_every`-th request being a malicious over-read
    /// (`None` = benign traffic only).
    pub(crate) fn new(requests: u64, exploit_every: Option<u64>, seed: u64) -> Self {
        assert!(
            exploit_every != Some(0),
            "exploit interval must be non-zero"
        );
        Self {
            requests,
            served: 0,
            exploit_every,
            seed,
            heap_cursor: 0,
        }
    }

    /// Benign baseline traffic.
    pub fn benign(requests: u64, seed: u64) -> Self {
        Self::new(requests, None, seed)
    }

    /// The attacked server: one exploit per eight requests.
    pub fn exploited(requests: u64, seed: u64) -> Self {
        Self::new(requests, Some(8), seed)
    }

    /// True if request number `n` (1-based) is an exploit.
    fn is_exploit(&self, n: u64) -> bool {
        match self.exploit_every {
            Some(k) => n.is_multiple_of(k),
            None => false,
        }
    }
}

impl Workload for HeartbleedServer {
    fn next(&mut self, _prev: &ItemResult) -> Option<WorkItem> {
        if self.served >= self.requests {
            return None;
        }
        // A loaded server: heartbeats arrive back to back (an idle server
        // would be descheduled between requests and K-LEB — faithfully to
        // the paper's design — stops its timer while the target is off the
        // core).
        self.served += 1;
        let request_no = self.served;
        let payload = if self.is_exploit(request_no) {
            EXPLOIT_PAYLOAD
        } else {
            BENIGN_PAYLOAD
        };
        // TLS record parsing + HMAC-ish compute, then the memcpy of
        // `payload` bytes out of the heap (read) into the response buffer
        // (write). The over-read streams lines far past the request's own
        // allocation — the data-only signature.
        let lines = payload.div_ceil(64);
        let src = HEAP_BASE + (self.heap_cursor % (256 << 20));
        self.heap_cursor += payload + 4096;
        self.seed = self.seed.wrapping_add(0x9E37_79B9);
        let events = EventCounts::new()
            .with(HwEvent::BranchRetired, 900)
            .with(HwEvent::BranchMiss, 22)
            .with(HwEvent::Load, 1_400)
            .with(HwEvent::Store, 600);
        Some(WorkItem::Block(WorkBlock {
            instructions: 6_000 + lines * 8,
            base_cycles: 7_000 + lines * 4,
            extra_events: events,
            patterns: vec![
                AccessPattern::Sequential {
                    base: src,
                    stride: 64,
                    count: lines,
                    kind: AccessKind::Read,
                },
                AccessPattern::Sequential {
                    base: HEAP_BASE + 0x6000_0000,
                    stride: 64,
                    count: lines,
                    kind: AccessKind::Write,
                },
            ],
            flushes: Vec::new(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksim::{CoreId, Machine, MachineConfig};

    fn run(server: HeartbleedServer) -> ksim::ProcessInfo {
        let mut m = Machine::new(MachineConfig::i7_920(1));
        let pid = m.spawn("tls", CoreId(0), Box::new(server));
        m.run_until_exit(pid).unwrap()
    }

    #[test]
    fn exploit_moves_far_more_data() {
        let benign = run(HeartbleedServer::benign(64, 1));
        let exploited = run(HeartbleedServer::exploited(64, 1));
        let loads = |i: &ksim::ProcessInfo| i.true_user_events.get(HwEvent::Load);
        // Eight exploit requests each stream ~1023 extra lines.
        assert!(
            loads(&exploited) > loads(&benign) + 8 * 1_000,
            "over-reads add bulk loads: {} vs {}",
            loads(&exploited),
            loads(&benign)
        );
        assert!(
            exploited.true_user_events.get(HwEvent::LlcMiss)
                > 5 * benign.true_user_events.get(HwEvent::LlcMiss)
        );
    }

    #[test]
    fn exploit_cadence_matches_interval() {
        let s = HeartbleedServer::exploited(32, 1);
        let exploits = (1..=32).filter(|&n| s.is_exploit(n)).count();
        assert_eq!(exploits, 4);
        let benign = HeartbleedServer::benign(32, 1);
        assert_eq!((1..=32).filter(|&n| benign.is_exploit(n)).count(), 0);
    }

    #[test]
    fn control_flow_is_identical() {
        // The data-only property: benign and exploited servers retire the
        // same *branches* per request (no new code paths), only data moves.
        let benign = run(HeartbleedServer::benign(64, 1));
        let exploited = run(HeartbleedServer::exploited(64, 1));
        assert_eq!(
            benign.true_user_events.get(HwEvent::BranchRetired),
            exploited.true_user_events.get(HwEvent::BranchRetired),
        );
    }

    #[test]
    #[should_panic]
    fn zero_interval_rejected() {
        let _ = HeartbleedServer::new(10, Some(0), 1);
    }
}
