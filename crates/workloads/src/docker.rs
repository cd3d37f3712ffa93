//! Docker container workload models (paper §IV-B, Fig. 5).
//!
//! The paper profiles the most popular Docker Hub images with K-LEB and
//! classifies them by LLC MPKI (misses per kilo-instruction), following
//! Muralidhara et al.: MPKI > 10 = memory-intensive, below = computation-
//! intensive. The finding: interpreter images (Ruby, Golang, Python) sit
//! below 1; Mysql, Traefik and Ghost land between 1 and 10; web-server
//! images (Apache, Nginx, Tomcat) exceed 10.
//!
//! Each model here is a *container*: a parent runtime process that forks the
//! service process (exercising K-LEB's child tracking, since a container is
//! "only provided as a binary"), whose memory behaviour — working-set size
//! and access pattern against the simulated LLC — produces its MPKI class.

use pmu::{EventCounts, HwEvent};

use ksim::{ItemResult, WorkBlock, WorkItem, Workload};
use memsim::{AccessKind, AccessPattern};

use crate::HEAP_BASE;

/// The nine Docker Hub images the study covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DockerImage {
    /// Ruby interpreter image.
    Ruby,
    /// Go toolchain image.
    Golang,
    /// CPython interpreter image.
    Python,
    /// MySQL database.
    Mysql,
    /// Traefik reverse proxy.
    Traefik,
    /// Ghost blogging platform.
    Ghost,
    /// Apache httpd.
    Apache,
    /// Nginx web server.
    Nginx,
    /// Tomcat servlet container.
    Tomcat,
}

/// How a container's service process touches memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Profile {
    /// Instructions per ~50 µs service block.
    instructions: u64,
    /// Cache-simulated accesses per block.
    accesses: u64,
    /// Working-set size in bytes.
    working_set: u64,
    /// Streaming (sequential sweep, no reuse) vs. random-with-reuse.
    streaming: bool,
}

impl DockerImage {
    /// All nine images, in the paper's low-to-high MPKI presentation order.
    pub const ALL: [DockerImage; 9] = [
        DockerImage::Golang,
        DockerImage::Ruby,
        DockerImage::Python,
        DockerImage::Traefik,
        DockerImage::Mysql,
        DockerImage::Ghost,
        DockerImage::Nginx,
        DockerImage::Apache,
        DockerImage::Tomcat,
    ];

    /// The image name as on Docker Hub.
    pub const fn name(self) -> &'static str {
        match self {
            DockerImage::Ruby => "ruby",
            DockerImage::Golang => "golang",
            DockerImage::Python => "python",
            DockerImage::Mysql => "mysql",
            DockerImage::Traefik => "traefik",
            DockerImage::Ghost => "ghost",
            DockerImage::Apache => "apache",
            DockerImage::Nginx => "nginx",
            DockerImage::Tomcat => "tomcat",
        }
    }

    /// The paper's classification boundary (MPKI 10, after Muralidhara et
    /// al.): true if this image should classify as memory-intensive.
    #[cfg(test)]
    const fn expect_memory_intensive(self) -> bool {
        matches!(
            self,
            DockerImage::Apache | DockerImage::Nginx | DockerImage::Tomcat
        )
    }

    fn profile(self) -> Profile {
        const MIB: u64 = 1024 * 1024;
        match self {
            // Interpreters: hot loops over bytecode that fits comfortably in
            // the LLC → almost no misses after warmup.
            DockerImage::Golang => Profile {
                instructions: 48_000,
                accesses: 500,
                working_set: 2 * MIB,
                streaming: false,
            },
            DockerImage::Ruby => Profile {
                instructions: 44_000,
                accesses: 650,
                working_set: 3 * MIB,
                streaming: false,
            },
            DockerImage::Python => Profile {
                instructions: 40_000,
                accesses: 800,
                working_set: 4 * MIB,
                streaming: false,
            },
            // Databases / proxies / CMS: working sets a few times the LLC,
            // randomly accessed → moderate miss rates, MPKI 1-10.
            DockerImage::Traefik => Profile {
                instructions: 42_000,
                accesses: 260,
                working_set: 20 * MIB,
                streaming: false,
            },
            DockerImage::Mysql => Profile {
                instructions: 38_000,
                accesses: 350,
                working_set: 32 * MIB,
                streaming: false,
            },
            DockerImage::Ghost => Profile {
                instructions: 36_000,
                accesses: 420,
                working_set: 40 * MIB,
                streaming: false,
            },
            // Web servers: request/response buffers streamed with no reuse
            // → miss on nearly every LLC reference, MPKI well above 10.
            DockerImage::Nginx => Profile {
                instructions: 34_000,
                accesses: 650,
                working_set: 64 * MIB,
                streaming: true,
            },
            DockerImage::Apache => Profile {
                instructions: 32_000,
                accesses: 850,
                working_set: 64 * MIB,
                streaming: true,
            },
            DockerImage::Tomcat => Profile {
                instructions: 30_000,
                accesses: 1_100,
                working_set: 96 * MIB,
                streaming: true,
            },
        }
    }

    /// The service process: `blocks` work blocks of this image's profile.
    fn service(self, blocks: u64, seed: u64) -> Service {
        Service {
            image: self,
            remaining: blocks,
            seed,
            stream_offset: 0,
        }
    }

    /// The full container: a runtime parent that forks the service and
    /// supervises briefly. Monitor the *parent* with child-tracking on.
    pub fn container(self, blocks: u64, seed: u64) -> Container {
        Container {
            image: self,
            service_blocks: blocks,
            seed,
            phase: 0,
        }
    }
}

impl std::fmt::Display for DockerImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The containerized service process.
#[derive(Debug, Clone)]
struct Service {
    image: DockerImage,
    remaining: u64,
    seed: u64,
    stream_offset: u64,
}

impl Workload for Service {
    fn next(&mut self, _prev: &ItemResult) -> Option<WorkItem> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let p = self.image.profile();
        let cycles = p.instructions * 5 / 4; // IPC 0.8 before stalls
        let pattern = if p.streaming {
            let base = HEAP_BASE + self.stream_offset;
            self.stream_offset = (self.stream_offset + p.accesses * 64) % p.working_set;
            AccessPattern::Sequential {
                base,
                stride: 64,
                count: p.accesses,
                kind: AccessKind::Read,
            }
        } else {
            self.seed = self.seed.wrapping_add(0x9E37_79B9);
            AccessPattern::Random {
                base: HEAP_BASE,
                extent: p.working_set,
                count: p.accesses,
                seed: self.seed,
                kind: AccessKind::Read,
            }
        };
        let events = EventCounts::new()
            .with(HwEvent::BranchRetired, p.instructions / 6)
            .with(HwEvent::BranchMiss, p.instructions / 160)
            .with(HwEvent::Load, p.instructions / 4)
            .with(HwEvent::Store, p.instructions / 10);
        Some(WorkItem::Block(WorkBlock {
            instructions: p.instructions,
            base_cycles: cycles,
            extra_events: events,
            patterns: vec![pattern],
            flushes: Vec::new(),
        }))
    }
}

/// The container runtime parent process.
#[derive(Debug, Clone)]
pub struct Container {
    image: DockerImage,
    service_blocks: u64,
    seed: u64,
    phase: u32,
}

impl Workload for Container {
    fn next(&mut self, _prev: &ItemResult) -> Option<WorkItem> {
        self.phase += 1;
        match self.phase {
            // Container setup: image unpack-ish burst of loads/stores.
            1 => Some(WorkItem::Block(
                WorkBlock::compute(60_000, 80_000).with_events(
                    EventCounts::new()
                        .with(HwEvent::Load, 18_000)
                        .with(HwEvent::Store, 12_000),
                ),
            )),
            2 => Some(WorkItem::Spawn {
                name: format!("{}-svc", self.image.name()),
                core: None,
                suspended: false,
                child: Box::new(self.image.service(self.service_blocks, self.seed)),
            }),
            // Brief supervision, then the parent exits; the service keeps
            // running and stays tracked through K-LEB's fork following.
            3 => Some(WorkItem::Block(WorkBlock::compute(10_000, 15_000))),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksim::{CoreId, Machine, MachineConfig};

    /// MPKI of the service process against the paper's i7-920 hierarchy.
    fn measured_mpki(image: DockerImage) -> f64 {
        let mut m = Machine::new(MachineConfig::i7_920(3));
        let pid = m.spawn("svc", CoreId(0), Box::new(image.service(3_000, 7)));
        let info = m.run_until_exit(pid).unwrap();
        let misses = info.true_user_events.get(HwEvent::LlcMiss) as f64;
        let kilo_instr = info.true_user_events.get(HwEvent::InstructionsRetired) as f64 / 1000.0;
        misses / kilo_instr
    }

    #[test]
    fn interpreters_have_mpki_below_one() {
        for image in [DockerImage::Ruby, DockerImage::Golang, DockerImage::Python] {
            let mpki = measured_mpki(image);
            assert!(mpki < 1.0, "{image}: MPKI {mpki:.2} should be < 1");
        }
    }

    #[test]
    fn middle_tier_mpki_between_one_and_ten() {
        for image in [DockerImage::Mysql, DockerImage::Traefik, DockerImage::Ghost] {
            let mpki = measured_mpki(image);
            assert!(
                mpki > 1.0 && mpki < 10.0,
                "{image}: MPKI {mpki:.2} should be in (1, 10)"
            );
        }
    }

    #[test]
    fn web_servers_exceed_ten() {
        for image in [DockerImage::Apache, DockerImage::Nginx, DockerImage::Tomcat] {
            let mpki = measured_mpki(image);
            assert!(mpki > 10.0, "{image}: MPKI {mpki:.2} should be > 10");
        }
    }

    #[test]
    fn classification_matches_expectation() {
        for image in DockerImage::ALL {
            let mpki = measured_mpki(image);
            assert_eq!(
                mpki > 10.0,
                image.expect_memory_intensive(),
                "{image} misclassified at MPKI {mpki:.2}"
            );
        }
    }

    #[test]
    fn container_forks_service() {
        let mut m = Machine::new(MachineConfig::test_tiny(1));
        let pid = m.spawn(
            "nginx",
            CoreId(0),
            Box::new(DockerImage::Nginx.container(50, 1)),
        );
        m.run_until_exit(pid).unwrap();
        m.run_to_quiescence();
        let svc = (1..=2)
            .map(ksim::Pid)
            .find(|p| m.process(*p).name == "nginx-svc")
            .expect("service process spawned");
        assert!(m.process(svc).is_exited());
        assert_eq!(m.process(svc).ppid, Some(pid));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = DockerImage::ALL.iter().map(|i| i.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 9);
    }
}
