//! Set-associative cache-hierarchy simulator.
//!
//! The K-LEB paper's case studies revolve around last-level-cache behaviour:
//! MPKI-based workload classification of Docker containers (Fig. 5) and the
//! LLC-reference/LLC-miss signature of a Meltdown Flush+Reload attack
//! (Figs. 6-7). To reproduce those *computationally* rather than by scripting
//! numbers, this crate models a three-level inclusive cache hierarchy with:
//!
//! - configurable line size, set count and associativity per level,
//! - private L1d and L2 per core over one LLC all cores share, as on the
//!   paper's i7-920,
//! - true-LRU replacement, write-allocate / write-back policy,
//! - `clflush` (line invalidation through every level of every core),
//!   which is the primitive Flush+Reload attacks rely on,
//! - per-core, per-level hit/miss/eviction statistics and a latency model,
//!   so an attacker can distinguish cached from uncached lines by timing
//!   exactly as the real attack does.
//!
//! The default [`HierarchyConfig::i7_920`] geometry matches the paper's local
//! testbed (Intel Core i7-920: 32 KiB L1d, 256 KiB L2, 8 MiB shared LLC).
//! [`Hierarchy::new`] builds one core; [`Hierarchy::with_cores`] builds
//! several over one LLC.
//!
//! # How an access is simulated
//!
//! Simulating the cache is most of the host time of a memory-bound
//! experiment, so each level's set is scanned once per access:
//!
//! - A way is 16 bytes: the line's byte address with its valid and dirty
//!   flags in the line-offset bits, and the LRU stamp of its last touch.
//!   Every level's sets start on a 64-byte host cache line, so a set of 8
//!   ways spans two host lines and one of 16 ways four.
//! - The valid ways of a set form a prefix of it. `clflush` and
//!   back-invalidation move the set's last valid way into the hole, so a
//!   scan stops at the first invalid way.
//! - The scan that probes for a line also picks where a missing line goes:
//!   the first invalid way, else the way with the oldest stamp, chosen
//!   without branches. Filling never rescans: when an LLC eviction's
//!   back-invalidation empties a way in the set a pending fill targets,
//!   the fill moves to that way.
//! - [`MemStats`] is derived from the per-level counters, not kept twice.
//!   [`Hierarchy::run_on`] plays a whole [`AccessPattern`] on one core,
//!   and the effect of a run shows as the difference of two
//!   [`CoreView::stats`] reads.
//! - An exact repeat is not replayed. When a core's run hit L1d on every
//!   access and its next run plays an equal pattern, with nothing played
//!   on that core in between and no line gone from its L1d since, the
//!   replay would hit the same lines in the same order and change nothing
//!   but L1d's access and hit counts, so [`Hierarchy::run_on`] adds the
//!   pattern's length to those and returns. The K-LEB handler's
//!   per-sample kernel-line touches of a program with no memory traffic
//!   of its own are such repeats.
//!
//! # Cores sharing the LLC
//!
//! - Each LLC way carries a sharer bit per core (Nehalem's core-valid
//!   bits) in the line-offset bits above the valid and dirty flags, so a
//!   64-byte line has room for 4 cores. A core sets its bit when it fills
//!   the line from the LLC, and never clears it: a line silently dropped
//!   from the core's own levels leaves a stale bit, which only costs a
//!   back-invalidation that finds nothing.
//! - An LLC eviction back-invalidates the filling core, as with one core,
//!   and each other core whose bit the line carries. When the filling
//!   core is the only sharer there are none, and a one-core hierarchy
//!   sets no bits at all, so it scans exactly the sets a single hierarchy
//!   does.
//! - A core's statistics are its own: its L1d and L2, and its share of the
//!   LLC's, which are its lookups (its L2 misses), its hits and misses,
//!   the evictions its fills caused and the lines its `clflush` removed.
//!   A [`CoreView`] reads them.
//! - Another core's fill that back-invalidates a line in this core's L1d
//!   forgets this core's remembered run, as a `clflush` of a line it
//!   holds does, so the repeat elision stays exact across cores.
//!
//! Replacement is exact true LRU. The crate's tests check every result,
//! statistic and residency, core by core, against a plain two-pass model
//! of the same hierarchy that back-invalidates every core on each LLC
//! eviction, over random streams of reads, writes, flushes and repeated
//! pattern runs on one, two and four cores.
//!
//! # Example
//!
//! ```
//! use memsim::{AccessKind, Hierarchy, HierarchyConfig};
//!
//! let mut mem = Hierarchy::new(HierarchyConfig::i7_920());
//! let miss = mem.access(0x1000, AccessKind::Read);
//! assert!(!miss.llc_hit); // cold miss goes to memory
//! let hit = mem.access(0x1000, AccessKind::Read);
//! assert!(hit.l1_hit);    // now resident
//! assert!(hit.latency_cycles < miss.latency_cycles);
//! ```

mod cache;
mod hierarchy;
mod pattern;
#[cfg(test)]
mod reference;

pub use cache::{CacheConfig, CacheStats};
pub use hierarchy::{
    AccessKind, AccessResult, CoreView, Hierarchy, HierarchyConfig, LatencyModel, MemStats,
};
pub use pattern::{AccessPattern, PatternCursor};
