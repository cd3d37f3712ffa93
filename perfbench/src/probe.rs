//! The benchmark's probes: a workload adapter that times and counts what
//! the simulated program hands the machine, and in-memory spans around
//! every call the benchmark makes into a layer.
//!
//! Probes sit only in the benchmark's own files. The adapter wraps the
//! `Box<dyn Workload>` the benchmark passes in (and every child it
//! spawns), so no crate of the repository changes.

use std::io::Write as _;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use ksim::{ItemResult, WorkItem, Workload};
use memsim::AccessPattern;

/// What the adapters of one traced phase saw.
#[derive(Debug, Default)]
pub struct Feed {
    /// Host nanoseconds spent inside the wrapped `Workload::next`.
    pub next_ns: u64,
    /// Work blocks handed to the machine.
    pub blocks: u64,
    /// Instructions those blocks retire.
    pub instructions: u64,
    /// Whether to keep the access patterns (the memsim replay needs them;
    /// the traced passes do not).
    pub keep_patterns: bool,
    /// The access patterns of every block, one list per machine run.
    pub patterns: Vec<Vec<AccessPattern>>,
}

/// Shared handle to a [`Feed`]; adapters on machine threads write to it.
pub type FeedHandle = Arc<Mutex<Feed>>;

/// Locks a feed. A poisoned lock only means an adapter thread panicked
/// while counting; the counts are plain sums, so they stay usable.
pub fn lock(feed: &FeedHandle) -> MutexGuard<'_, Feed> {
    feed.lock().unwrap_or_else(|e| e.into_inner())
}

/// Host milliseconds of each machine run, filled by [`Adapter`]s that
/// carry a run clock.
pub type RunClock = Arc<Mutex<Vec<f64>>>;

/// Wraps a workload: forwards every item unchanged, and
/// - with a feed, times each `next` call, counts blocks and instructions
///   and keeps the access patterns;
/// - with a run clock, records the host time from construction to the
///   program's exit (used where the machine runs on a thread the
///   benchmark does not drive).
///
/// Counts stay in the adapter and join the feed once, at exit, so
/// adapters on concurrent machine threads never contend per item.
#[derive(Debug)]
pub struct Adapter {
    inner: Box<dyn Workload>,
    feed: Option<(FeedHandle, usize)>,
    clock: Option<(RunClock, Instant)>,
    next_ns: u64,
    blocks: u64,
    instructions: u64,
    keep_patterns: bool,
    patterns: Vec<AccessPattern>,
}

impl Adapter {
    /// Wraps `inner`; a traced adapter charges run `run` of `feed`.
    pub fn wrap(
        inner: Box<dyn Workload>,
        feed: Option<(FeedHandle, usize)>,
        clock: Option<RunClock>,
    ) -> Box<dyn Workload> {
        Box::new(Self::new(inner, feed, clock.map(|c| (c, Instant::now()))))
    }

    fn new(
        inner: Box<dyn Workload>,
        feed: Option<(FeedHandle, usize)>,
        clock: Option<(RunClock, Instant)>,
    ) -> Self {
        let keep_patterns = feed.as_ref().is_some_and(|(f, _)| lock(f).keep_patterns);
        Self {
            inner,
            feed,
            clock,
            next_ns: 0,
            blocks: 0,
            instructions: 0,
            keep_patterns,
            patterns: Vec::new(),
        }
    }

    /// Stops the run clock and adds the counts to the feed (once).
    fn finish(&mut self) {
        if let Some((clock, started)) = self.clock.take() {
            let ms = started.elapsed().as_secs_f64() * 1e3;
            clock.lock().unwrap_or_else(|e| e.into_inner()).push(ms);
        }
        if let Some((feed, run)) = &self.feed {
            let mut f = lock(feed);
            f.next_ns += std::mem::take(&mut self.next_ns);
            f.blocks += std::mem::take(&mut self.blocks);
            f.instructions += std::mem::take(&mut self.instructions);
            if self.keep_patterns {
                if f.patterns.len() <= *run {
                    f.patterns.resize_with(*run + 1, Vec::new);
                }
                f.patterns[*run].append(&mut self.patterns);
            }
        }
    }
}

impl Drop for Adapter {
    fn drop(&mut self) {
        self.finish();
    }
}

impl Workload for Adapter {
    fn next(&mut self, prev: &ItemResult) -> Option<WorkItem> {
        let traced = self.feed.is_some();
        let t0 = traced.then(Instant::now);
        let item = self.inner.next(prev);
        if let Some(t0) = t0 {
            self.next_ns += t0.elapsed().as_nanos() as u64;
            if let Some(WorkItem::Block(block)) = &item {
                self.blocks += 1;
                self.instructions += block.instructions;
                if self.keep_patterns {
                    self.patterns.extend_from_slice(&block.patterns);
                }
            }
        }
        match item {
            // Children run the same program model: wrap them too, so
            // fork-following workloads are counted whole.
            Some(WorkItem::Spawn {
                name,
                core,
                suspended,
                child,
            }) if traced => Some(WorkItem::Spawn {
                name,
                core,
                suspended,
                child: Box::new(Adapter::new(child, self.feed.clone(), None)),
            }),
            None => {
                self.finish();
                None
            }
            other => other,
        }
    }
}

/// Drains a generator without simulating it, following spawned children:
/// the (blocks, instructions) the program will hand the machine.
pub fn expected_work(workload: Box<dyn Workload>) -> (u64, u64) {
    let mut stack = vec![workload];
    let (mut blocks, mut instructions) = (0, 0);
    while let Some(mut w) = stack.pop() {
        while let Some(item) = w.next(&ItemResult::None) {
            match item {
                WorkItem::Block(b) => {
                    blocks += 1;
                    instructions += b.instructions;
                }
                WorkItem::Spawn { child, .. } => stack.push(child),
                _ => {}
            }
        }
    }
    (blocks, instructions)
}

/// One timed interval of the benchmark calling into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer (module) the call went into.
    pub layer: &'static str,
    /// What the call did.
    pub name: String,
    /// Host nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Host nanoseconds since the tracer started.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The pass or side-pass the span belongs to.
    pub run: u64,
}

/// Spans kept in memory and written out when the benchmark ends.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Run id stamped on new spans.
    pub run: u64,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, layer: &'static str, name: impl Into<String>) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span; returns its duration in seconds.
    pub fn close(&mut self) -> f64 {
        let end_ns = self.now_ns();
        let i = self.open.pop().expect("close without open span");
        self.spans[i].end_ns = end_ns;
        (end_ns - self.spans[i].start_ns) as f64 * 1e-9
    }

    /// Self time per layer, seconds: each span's duration minus the part
    /// its child spans cover.
    pub fn self_time(&self) -> Vec<(&'static str, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(c) as f64 * 1e-9;
            match out.iter_mut().find(|(l, _)| *l == s.layer) {
                Some((_, t)) => *t += own,
                None => out.push((s.layer, own)),
            }
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"run\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.run, s.layer, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Runs `f` inside a span when tracing; returns its result and host
/// seconds either way.
pub fn timed<R>(
    tracer: &mut Option<&mut Tracer>,
    layer: &'static str,
    name: &str,
    f: impl FnOnce() -> R,
) -> (R, f64) {
    match tracer {
        Some(t) => {
            t.open(layer, name);
            let r = f();
            (r, t.close())
        }
        None => {
            let t0 = Instant::now();
            let r = f();
            (r, t0.elapsed().as_secs_f64())
        }
    }
}
