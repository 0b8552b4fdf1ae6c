//! The four benchmark workloads: their topology configuration, their
//! stream, and how much of it one repetition sends.

use setcorr::model::{Document, TimeDelta, WindowKind};
use setcorr::topology::{BackendKind, ExperimentConfig, RunMode};
use setcorr::workload::{Generator, WorkloadConfig};

/// Arrival rate the stream's event time is generated at (tweets/s).
pub const TPS: u64 = 1300;

/// Document rate the `served` source sends at, docs/s of wall time: about
/// half of `ingest`'s saturated rate on a 2-vCPU box, so the Calculators
/// are half idle and rounds, snapshots and queries sit on the critical path.
pub const SERVED_RATE: f64 = 75_000.0;

/// Reader clients of `served` (closed loop: acquire, query, think).
pub const SERVED_READERS: usize = 2;

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Threaded, exact backend, live control plane, closed loop.
    Ingest,
    /// Sim runtime, `thr` = 0.2: partitioners, Merger and live migration
    /// dominate, single-threaded and deterministic.
    Replan,
    /// Threaded, open loop at [`SERVED_RATE`], 5 s report rounds, reader
    /// clients querying the live snapshot store.
    Served,
    /// `ingest` with the approximate (MinHash/Count-Min) backend.
    Sketch,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Ingest,
        Workload::Replan,
        Workload::Served,
        Workload::Sketch,
    ];

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::Replan => "replan",
            Workload::Served => "served",
            Workload::Sketch => "sketch",
        }
    }

    /// Runtime the topology runs on.
    pub fn mode(self) -> RunMode {
        match self {
            Workload::Replan => RunMode::Sim,
            _ => RunMode::Threaded,
        }
    }

    /// Topology configuration: k = 5 Calculators, P = 3 Partitioners, DS,
    /// 20 s windows, the in-line baseline off.
    pub fn config(self) -> ExperimentConfig {
        let config = ExperimentConfig {
            k: 5,
            partitioners: 3,
            bootstrap_after: 2_000,
            report_period: TimeDelta::from_secs(20),
            window: WindowKind::Time(TimeDelta::from_secs(20)),
            tps: TPS,
            ..ExperimentConfig::default()
        }
        .with_baseline(false);
        match self {
            Workload::Ingest => config,
            Workload::Replan => ExperimentConfig { thr: 0.2, ..config },
            Workload::Served => ExperimentConfig {
                report_period: TimeDelta::from_secs(5),
                ..config
            },
            Workload::Sketch => config.with_backend(BackendKind::approx()),
        }
    }

    /// Open-loop send rate (docs/s), or `None` for a closed loop.
    pub fn rate(self) -> Option<f64> {
        (self == Workload::Served).then_some(SERVED_RATE)
    }

    /// Documents one repetition sends. The open-loop `served` sends for
    /// `seconds` in total at its rate, split over its repetitions.
    pub fn rep_docs(self, seconds: f64) -> usize {
        match self {
            Workload::Ingest => 500_000,
            Workload::Replan => 200_000,
            Workload::Served => (SERVED_RATE * seconds / self.reps(seconds) as f64) as usize,
            Workload::Sketch => 1_200_000,
        }
    }

    /// Repetitions in a run measuring `seconds`: the seconds over the
    /// nominal length of one repetition on a 2-vCPU box, so the work a run
    /// does depends on its arguments only, never on the machine's speed.
    /// `sketch`'s nominal length counts its set-up and exact reference too:
    /// they cost half as much again as its short timed run.
    pub fn reps(self, seconds: f64) -> usize {
        let nominal = match self {
            Workload::Ingest => 4.0,
            Workload::Replan => 4.5,
            Workload::Served => 10.0,
            Workload::Sketch => 6.0,
        };
        ((seconds / nominal).round() as usize).max(1)
    }

    /// Whether the Calculators run the approximate backend.
    pub fn approx(self) -> bool {
        self == Workload::Sketch
    }
}

/// Stream seed of repetition `rep` of a run seeded `seed`: every
/// repetition runs its own stream, so a run's figures average over
/// several streams, not one stream several times.
pub fn rep_seed(seed: u64, rep: usize) -> u64 {
    // splitmix64 finaliser over (seed, rep)
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(rep as u64 + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The first `n` documents of the seeded default stream at [`TPS`].
pub fn stream(seed: u64, n: usize) -> Vec<Document> {
    let mut config = WorkloadConfig::with_seed(seed);
    config.tps = TPS;
    Generator::new(config).take(n).collect()
}
