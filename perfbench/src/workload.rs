//! The four workloads: the corpus each simulates from its seed, the
//! file the tracer receives, and how the tracer is configured for it.
//! README.md says why each one exists.

use std::path::{Path, PathBuf};

use multitier::{ExperimentConfig, NoiseSpec, Phases};
use tracer_core::prelude::*;

/// The sliding window every workload runs with (the paper's 10 ms).
pub const WINDOW: Nanos = Nanos::from_millis(10);

/// Offered rate of the online replay, records per second: a fixed
/// fraction of what the streaming path ingests from a complete file on
/// a 2-core host (about 200k records/s), so the replay never saturates
/// it.
pub const ONLINE_RATE: f64 = 40_000.0;

/// The online server's correlation-state budget: below the ~1.5 MB the
/// unbudgeted run peaks at, so the spill tier is on the path.
pub const ONLINE_BUDGET: usize = 1024 * 1024;

/// Records the traced replicas hand to one layer call at a time where
/// layers separate (and the online replica between polls).
pub const BATCH: usize = 8192;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BatchText,
    ShardedPtbin,
    DistText,
    Online,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::BatchText,
        Workload::ShardedPtbin,
        Workload::DistText,
        Workload::Online,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchText => "batch-text",
            Workload::ShardedPtbin => "sharded-ptbin",
            Workload::DistText => "dist-text",
            Workload::Online => "online",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The simulated session behind the corpus.
    pub fn experiment(self, seed: u64) -> ExperimentConfig {
        let mut c = match self {
            // 1,000 hot clients, 50 ms skew, ~27% noise records.
            Workload::BatchText | Workload::ShardedPtbin => ExperimentConfig::scale(),
            // `scale()`'s clients, load and noise with BEGINs spread
            // over three web hosts.
            Workload::DistText => {
                let mut c = ExperimentConfig::multi_frontend_n(3);
                let scale = ExperimentConfig::scale();
                c.clients = scale.clients;
                c.think = scale.think;
                c.phases = scale.phases;
                c.spec = c.spec.with_skew_ms(50).with_max_threads(250);
                c.noise = scale.noise;
                c
            }
            // The lossy v2 lane (1% loss, `seq=` ranges, logged
            // retransmissions) under `pt simulate --noise`'s ssh
            // chatter. Its MySQL noise client is left out: under v2
            // capture it costs 15% path accuracy today (README.md).
            Workload::Online => {
                let mut c = ExperimentConfig::lossy_v2();
                c.clients = 400;
                c.phases = Phases::quick(30);
                c.noise = NoiseSpec {
                    ssh_msgs_per_sec: 40.0,
                    mysql_msgs_per_sec: 0.0,
                };
                c
            }
        };
        c.seed = seed;
        c
    }

    /// The access points of the simulated deployment.
    pub fn access(self) -> AccessPointSpec {
        let spec = self.experiment(0).spec;
        AccessPointSpec::new([spec.web.port], spec.internal_ips())
    }

    /// The one file the tracer receives.
    pub fn input(self, dir: &Path) -> PathBuf {
        match self {
            Workload::ShardedPtbin => dir.join("corpus.ptbin"),
            _ => dir.join("corpus.log"),
        }
    }

    pub fn mode(self) -> Mode {
        match self {
            Workload::BatchText => Mode::Batch,
            Workload::ShardedPtbin => Mode::Sharded(2),
            Workload::DistText => Mode::Distributed {
                routers: 2,
                workers_per_router: 1,
            },
            Workload::Online => Mode::Streaming,
        }
    }

    /// The pipeline configuration of the timed runs.
    pub fn pipeline(self, dir: &Path) -> PipelineConfig {
        let cfg = PipelineConfig::new(self.access())
            .with_window(WINDOW)
            .with_mode(self.mode())
            .with_ingest_threads(1)
            .with_router_transport(RouterTransport::InProcess);
        match self {
            Workload::Online => cfg
                .with_memory_budget(ONLINE_BUDGET)
                .with_spill_dir(dir.join("spill")),
            _ => cfg,
        }
    }

    /// The batch configuration of the tagged reference.
    pub fn reference_pipeline(self) -> PipelineConfig {
        PipelineConfig::new(self.access()).with_window(WINDOW)
    }

    /// The online server tailing `fifo`.
    pub fn serve_config(self, dir: &Path, fifo: &Path) -> ServeConfig {
        ServeConfig::new(
            self.pipeline(dir),
            vec![SourceSpec {
                path: fifo.to_path_buf(),
                kind: SourceKind::Text,
            }],
        )
    }
}
