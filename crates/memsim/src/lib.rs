//! Set-associative cache-hierarchy simulator.
//!
//! The K-LEB paper's case studies revolve around last-level-cache behaviour:
//! MPKI-based workload classification of Docker containers (Fig. 5) and the
//! LLC-reference/LLC-miss signature of a Meltdown Flush+Reload attack
//! (Figs. 6-7). To reproduce those *computationally* rather than by scripting
//! numbers, this crate models a three-level inclusive cache hierarchy with:
//!
//! - configurable line size, set count and associativity per level,
//! - true-LRU replacement, write-allocate / write-back policy,
//! - `clflush` (line invalidation through every level), which is the
//!   primitive Flush+Reload attacks rely on,
//! - per-level hit/miss/eviction statistics and a latency model, so an
//!   attacker can distinguish cached from uncached lines by timing exactly
//!   as the real attack does.
//!
//! The default [`Hierarchy::i7_920`] geometry matches the paper's local
//! testbed (Intel Core i7-920: 32 KiB L1d, 256 KiB L2, 8 MiB shared LLC).
//!
//! # How an access is simulated
//!
//! Simulating the cache is most of the host time of a memory-bound
//! experiment, so each level's set is scanned once per access:
//!
//! - A way is 16 bytes: the line's byte address with its valid and dirty
//!   flags in the line-offset bits, and the LRU stamp of its last touch.
//! - The valid ways of a set form a prefix of it. `clflush` and
//!   back-invalidation move the set's last valid way into the hole, so a
//!   scan stops at the first invalid way.
//! - The scan that probes for a line also picks where a missing line goes:
//!   the first invalid way, else the way with the oldest stamp, chosen
//!   without branches. Filling never rescans: when an LLC eviction's
//!   back-invalidation empties a way in the set a pending fill targets,
//!   the fill moves to that way.
//! - [`MemStats`] is derived from the per-level counters, not kept twice.
//!   [`Hierarchy::run`] plays a whole [`AccessPattern`], and the effect of
//!   a run shows as the difference of two [`Hierarchy::stats`] reads.
//! - An exact repeat is not replayed. When a run hit L1d on every access
//!   and the next run plays an equal pattern with no `access`, `clflush`
//!   or `flush_all` in between, the replay would hit the same lines in the
//!   same order and change nothing but L1d's access and hit counts, so
//!   [`Hierarchy::run`] adds the pattern's length to those and returns.
//!   The K-LEB handler's per-sample kernel-line touches of a program with
//!   no memory traffic of its own are such repeats.
//!
//! Replacement is exact true LRU. The crate's tests check every result,
//! statistic and residency against a plain two-pass model of the same
//! hierarchy over random streams of reads, writes, flushes and repeated
//! pattern runs.
//!
//! # Example
//!
//! ```
//! use memsim::{Hierarchy, AccessKind};
//!
//! let mut mem = Hierarchy::i7_920();
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

pub use cache::{Cache, CacheConfig, CacheStats};
pub use hierarchy::{AccessKind, AccessResult, Hierarchy, HierarchyConfig, LatencyModel, MemStats};
pub use pattern::{AccessPattern, PatternCursor};
