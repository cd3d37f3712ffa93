//! Analysis utilities for the K-LEB reproduction: summary statistics,
//! derived metrics (MPKI, GFLOPS, overhead), phase detection on sample time
//! series, and text rendering of the paper's tables and figures.

mod detector;
mod metrics;
pub mod phases;
mod stats;
mod table;
mod timeseries;
mod trace;

pub use detector::{Detection, EwmaDetector};
pub use metrics::{
    gflops, mpki, overhead_proxy, performance_loss_percent, sample_coverage, IntensityClass,
};
pub use phases::{detect_phases, Phase, PhaseKind};
pub use stats::{five_number, mean, robust_z, stddev, FiveNumber};
pub use table::TextTable;
pub use timeseries::{downsample, sparkline};
pub use trace::{TraceSeries, LANE_INSTRUCTIONS};
