//! Process control blocks and the process table.

use std::fmt;

use memsim::AccessPattern;
use pmu::EventCounts;

use crate::time::{Duration, Instant};
use crate::workload::Workload;

/// A process identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(pub u32);

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid {}", self.0)
    }
}

/// A core identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(pub usize);

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

/// Scheduler-visible process state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcessState {
    /// Runnable, waiting in a run queue.
    Ready,
    /// Currently on a core.
    Running,
    /// Blocked (sleeping or waiting).
    Sleeping,
    /// Finished; kept for post-mortem inspection.
    Exited,
}

/// Metadata about a process, visible to kernel modules through
/// [`crate::machine::KernelCtx`] — name, lineage and state, mirroring what
/// K-LEB reads from `task_struct` to trace a process and its children.
#[derive(Debug, Clone)]
pub struct ProcessInfo {
    /// The process id.
    pub pid: Pid,
    /// Parent pid (`None` for initial processes).
    pub ppid: Option<Pid>,
    /// Process name.
    pub name: String,
    /// Scheduler state.
    pub state: ProcessState,
    /// Core the process is pinned to.
    pub core: CoreId,
    /// When the process was created.
    pub spawned_at: Instant,
    /// When the process exited, if it has.
    pub exited_at: Option<Instant>,
    /// Cumulative user-mode CPU time.
    pub cpu_user: Duration,
    /// Cumulative kernel-mode CPU time attributed to this process.
    pub cpu_kernel: Duration,
    /// Ground-truth user-mode events generated by this process, independent
    /// of any PMU programming. Accuracy experiments compare tool readings
    /// against this.
    pub true_user_events: EventCounts,
    /// Ground-truth kernel-mode events attributed to this process.
    pub true_kernel_events: EventCounts,
}

impl ProcessInfo {
    /// Wall-clock lifetime if the process has exited: spawn to exit.
    pub fn try_wall_time(&self) -> Option<Duration> {
        Some(self.exited_at?.saturating_since(self.spawned_at))
    }

    /// Wall-clock lifetime: spawn to exit.
    ///
    /// # Panics
    ///
    /// Panics if the process has not exited yet; use [`Self::try_wall_time`]
    /// when exit is not guaranteed.
    pub fn wall_time(&self) -> Duration {
        match self.try_wall_time() {
            Some(d) => d,
            None => panic!("process has not exited"),
        }
    }

    /// True if the process has exited.
    pub fn is_exited(&self) -> bool {
        self.state == ProcessState::Exited
    }
}

/// Full per-process record: public info plus the program itself.
#[derive(Debug)]
pub(crate) struct Process {
    pub info: ProcessInfo,
    /// The program; `None` transiently while the machine is stepping it, and
    /// permanently once exited.
    pub workload: Option<Box<dyn Workload>>,
    /// Result of the previous work item, delivered on the next step.
    pub mailbox: crate::workload::ItemResult,
    /// Where this process's user half lies in the machine's physical
    /// address space, as an offset: its root's, so a forked child shares
    /// the memory of the process that forked it.
    space: u64,
}

/// The user half of a virtual address space: addresses below this bound
/// (x86-64's lower canonical half). Addresses from it up, the kernel half
/// included, are the same for every process.
const USER_TOP: u64 = 1 << 47;

/// The physical offset of a root process's user half: its pid in bits 47
/// to 62. Those bits lie above every set-index bit of any cache, so a
/// process's lines keep their sets and only their tags differ from
/// another process's; bit 63 stays clear, so no user line meets a kernel
/// one. A machine's 65,536th root process reuses the first one's range.
fn root_space(pid: Pid) -> u64 {
    (u64::from(pid.0) & 0xFFFF) * USER_TOP
}

impl Process {
    /// The physical address of this process's virtual address `addr`.
    pub(crate) fn physical(&self, addr: u64) -> u64 {
        if addr < USER_TOP {
            addr + self.space
        } else {
            addr
        }
    }

    /// `pattern` moved to the physical addresses of this process. The
    /// pattern's first address decides its half, and the whole pattern
    /// moves by one offset, so it keeps its shape.
    pub(crate) fn physical_pattern(&self, pattern: &AccessPattern) -> AccessPattern {
        let mut moved = *pattern;
        match &mut moved {
            AccessPattern::Sequential { base, .. }
            | AccessPattern::Random { base, .. }
            | AccessPattern::Single { addr: base, .. } => *base = self.physical(*base),
        }
        moved
    }
}

/// The process table.
#[derive(Debug, Default)]
pub(crate) struct ProcessTable {
    procs: Vec<Process>,
}

impl ProcessTable {
    pub(crate) fn insert(
        &mut self,
        name: String,
        ppid: Option<Pid>,
        core: CoreId,
        now: Instant,
        workload: Box<dyn Workload>,
    ) -> Pid {
        let pid = Pid(self.procs.len() as u32 + 1);
        let space = match ppid {
            Some(parent) => self.get(parent).space,
            None => root_space(pid),
        };
        self.procs.push(Process {
            info: ProcessInfo {
                pid,
                ppid,
                name,
                state: ProcessState::Ready,
                core,
                spawned_at: now,
                exited_at: None,
                cpu_user: Duration::ZERO,
                cpu_kernel: Duration::ZERO,
                true_user_events: EventCounts::new(),
                true_kernel_events: EventCounts::new(),
            },
            workload: Some(workload),
            mailbox: crate::workload::ItemResult::None,
            space,
        });
        pid
    }

    pub(crate) fn get(&self, pid: Pid) -> &Process {
        &self.procs[pid.0 as usize - 1]
    }

    pub(crate) fn get_mut(&mut self, pid: Pid) -> &mut Process {
        &mut self.procs[pid.0 as usize - 1]
    }

    pub(crate) fn contains(&self, pid: Pid) -> bool {
        pid.0 >= 1 && (pid.0 as usize) <= self.procs.len()
    }

    /// Pids of all live (non-exited) processes.
    pub(crate) fn live_pids(&self) -> Vec<Pid> {
        self.procs
            .iter()
            .filter(|p| !p.info.is_exited())
            .map(|p| p.info.pid)
            .collect()
    }

    /// Direct children of `pid`.
    pub(crate) fn children_of(&self, pid: Pid) -> Vec<Pid> {
        self.procs
            .iter()
            .filter(|p| p.info.ppid == Some(pid))
            .map(|p| p.info.pid)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{FixedBlocks, WorkBlock};

    fn table_with_two() -> (ProcessTable, Pid, Pid) {
        let mut t = ProcessTable::default();
        let a = t.insert(
            "parent".into(),
            None,
            CoreId(0),
            Instant::ZERO,
            Box::new(FixedBlocks::new(1, WorkBlock::compute(1, 1))),
        );
        let b = t.insert(
            "child".into(),
            Some(a),
            CoreId(0),
            Instant::ZERO,
            Box::new(FixedBlocks::new(1, WorkBlock::compute(1, 1))),
        );
        (t, a, b)
    }

    #[test]
    fn pids_are_sequential_from_one() {
        let (_, a, b) = table_with_two();
        assert_eq!(a, Pid(1));
        assert_eq!(b, Pid(2));
    }

    #[test]
    fn lineage() {
        let (t, a, b) = table_with_two();
        assert_eq!(t.get(b).info.ppid, Some(a));
        assert_eq!(t.children_of(a), vec![b]);
        assert!(t.children_of(b).is_empty());
    }

    #[test]
    fn live_pids_excludes_exited() {
        let (mut t, a, b) = table_with_two();
        t.get_mut(a).info.state = ProcessState::Exited;
        assert_eq!(t.live_pids(), vec![b]);
    }

    #[test]
    #[should_panic]
    fn wall_time_requires_exit() {
        let (t, a, _) = table_with_two();
        let _ = t.get(a).info.wall_time();
    }

    #[test]
    fn wall_time_after_exit() {
        let (mut t, a, _) = table_with_two();
        let p = t.get_mut(a);
        p.info.exited_at = Some(Instant::from_nanos(500));
        assert_eq!(p.info.wall_time(), Duration::from_nanos(500));
    }

    #[test]
    fn try_wall_time_is_none_until_exit() {
        let (mut t, a, _) = table_with_two();
        assert_eq!(t.get(a).info.try_wall_time(), None);
        t.get_mut(a).info.exited_at = Some(Instant::from_nanos(500));
        assert_eq!(
            t.get(a).info.try_wall_time(),
            Some(Duration::from_nanos(500))
        );
    }
}
