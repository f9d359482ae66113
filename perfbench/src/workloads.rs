//! The workloads: input generation from a seed, course assembly (plain or
//! traced), one closed-loop course run, and final accuracy.
//!
//! | workload | runner | stresses |
//! |---|---|---|
//! | `femnist_sync` | standalone, 2-thread fs-exec speculation | fs-tensor conv compute |
//! | `femnist_tcp` | distributed over loopback TCP, quant8 uploads | fs-net transport, fs-compress |
//!
//! There is no serial compute-bound workload: on a shared 2-vCPU host one
//! busy thread's speed drifts by up to ~1.6x over minutes, so its median
//! round time moves by more than any usable bound from run to run, while
//! `femnist_sync`, busy on both vCPUs, and `femnist_tcp`, bound by TCP
//! timers, hold steady. That is why fs-scale's serial lazy runner has no
//! workload here.

use crate::hooks::{
    traced_convnet2, ClockedAggregator, CounterMonitor, RoundMarks, TracedCompressor, TracedTrainer,
};
use fs_bench::strategies::Strategy;
use fs_bench::workloads::{femnist, Workload};
use fs_core::aggregator::FedAvg;
use fs_core::config::{CompressionConfig, FlConfig};
use fs_core::course::{CourseBuilder, ModelFactory, TrainerFactory};
use fs_core::distributed::{
    distributed_report, run_distributed_tcp_with, run_distributed_with, BusRunOptions,
    TcpRunOptions,
};
use fs_core::trainer::{share_all, LocalTrainer, TrainConfig, Trainer};
use fs_core::{Client, CourseReport, Server, StandaloneRunner};
use fs_data::synth::{femnist_like, ImageConfig};
use fs_data::{ClientData, FedDataset};
use fs_monitor::MonitorHandle;
use fs_sim::FleetConfig;
use fs_tensor::model::{convnet2, Metrics, Model};
use fs_tensor::optim::SgdConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// FEMNIST-like ConvNet2, Sync-vanilla, 20 in flight, 2 threads.
    FemnistSync,
    /// FEMNIST-like ConvNet2, 2 clients over loopback TCP, quant8 uploads.
    FemnistTcp,
}

impl Kind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 2] = [Kind::FemnistSync, Kind::FemnistTcp];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::FemnistSync => "femnist_sync",
            Kind::FemnistTcp => "femnist_tcp",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Aggregations one course runs.
    pub fn rounds(self) -> u64 {
        60
    }

    /// Threads that execute the course's layer calls: fs-exec workers for
    /// `femnist_sync`, the server loop plus one thread per client for
    /// `femnist_tcp`.
    pub fn threads(self) -> usize {
        match self {
            Kind::FemnistSync => 2,
            Kind::FemnistTcp => 3,
        }
    }

    /// Lowest acceptable final global accuracy: well below what every seed
    /// reaches, well above chance (0.1 for ten classes).
    pub fn acc_floor(self) -> f32 {
        0.6
    }

    /// Wall-clock budget of one course; a slower course counts as failed.
    pub fn wall_budget(self) -> Duration {
        Duration::from_secs(30)
    }
}

/// A workload's generated inputs; the program sees nothing else.
// one instance per run, so the variant-size asymmetry costs nothing
#[allow(clippy::large_enum_variant)]
pub enum Inputs {
    /// A `fs_bench` workload and its course configuration.
    Standalone { wl: Workload, cfg: FlConfig },
    /// The 2-client FEMNIST-like course driven over TCP, and its clients'
    /// test splits.
    Tcp {
        dataset: FedDataset,
        fleet_cfg: FleetConfig,
        cfg: FlConfig,
        test: Vec<ClientData>,
    },
}

/// Generates `kind`'s inputs from `seed`.
pub fn generate(kind: Kind, seed: u64) -> Inputs {
    match kind {
        Kind::FemnistSync => {
            let wl = femnist(seed);
            let mut cfg = Strategy::SyncVanilla.configure(&wl);
            cfg.total_rounds = kind.rounds();
            cfg.target_accuracy = None;
            cfg.parallelism = 2;
            Inputs::Standalone { wl, cfg }
        }
        Kind::FemnistTcp => {
            // fs_bench's FEMNIST-like course cut to two clients, one
            // connection per core of a 2-core host, with ten times the data
            // per client and lr 0.1 (at fs_bench's 0.25, 1 seed in 40 of a
            // 2-client average diverged to 0.36 accuracy). The course's own
            // evaluator pools at most 20 test examples per client, too few to
            // compare accuracies; the final model is scored on both clients'
            // whole test splits.
            let dataset = femnist_like(&ImageConfig {
                num_clients: 2,
                num_classes: 10,
                img: 8,
                per_client: 300,
                noise: 0.35,
                size_skew: 0.0,
                seed,
            });
            let cfg = FlConfig {
                total_rounds: kind.rounds(),
                concurrency: 2,
                local_steps: 4,
                batch_size: 20,
                sgd: SgdConfig::with_lr(0.1),
                eval_every: 1,
                seed,
                compression: CompressionConfig::quant8_upload(),
                ..Default::default()
            }
            .sync_vanilla();
            let fleet_cfg = FleetConfig {
                num_clients: 2,
                speed_sigma: 1.5,
                seed: seed ^ 0xf1ee,
                ..Default::default()
            };
            let test = dataset.clients.iter().map(|c| c.test.clone()).collect();
            Inputs::Tcp {
                dataset,
                fleet_cfg,
                cfg,
                test,
            }
        }
    }
}

/// An assembled course, ready to run once.
pub struct Course {
    runner: Runner,
    marks: RoundMarks,
    monitor: Option<Arc<Mutex<CounterMonitor>>>,
}

// one instance per course, so the variant-size asymmetry costs nothing
#[allow(clippy::large_enum_variant)]
enum Runner {
    Standalone(StandaloneRunner),
    Tcp {
        server: Server,
        clients: Vec<Client>,
        bus: bool,
    },
}

fn image_factory(img: usize, classes: usize, traced: bool) -> ModelFactory {
    if traced {
        Box::new(move |rng| Box::new(traced_convnet2(1, img, 32, classes, rng)))
    } else {
        Box::new(move |rng| Box::new(convnet2(1, img, 32, classes, 0.0, rng)))
    }
}

/// `CourseBuilder`'s default trainer, wrapped: same model, data, training
/// configuration, share filter and per-client seed.
fn traced_trainers() -> TrainerFactory {
    Box::new(|i, model, split, cfg| {
        let local = LocalTrainer::new(
            model,
            split,
            TrainConfig {
                local_steps: cfg.local_steps,
                batch_size: cfg.batch_size,
                sgd: cfg.sgd,
            },
            share_all(),
            cfg.seed ^ (i as u64 + 1).wrapping_mul(0x9e3779b97f4a7c15),
        );
        Box::new(TracedTrainer::new(Box::new(local))) as Box<dyn Trainer>
    })
}

fn clocked(cfg: &FlConfig, marks: &RoundMarks, traced: bool) -> Box<ClockedAggregator> {
    Box::new(ClockedAggregator::new(
        Box::new(FedAvg::new(cfg.effective_staleness_discount())),
        marks.clone(),
        traced,
    ))
}

fn course_builder(
    dataset: &FedDataset,
    factory: ModelFactory,
    cfg: &FlConfig,
    fleet_cfg: &FleetConfig,
    marks: &RoundMarks,
    traced: bool,
) -> CourseBuilder {
    let mut b = CourseBuilder::new(dataset.clone(), factory, cfg.clone())
        .fleet_config(fleet_cfg.clone())
        .aggregator(clocked(cfg, marks, traced));
    if traced {
        b = b.trainer_factory(traced_trainers());
    }
    b
}

fn trace_codecs(clients: &mut [Client]) {
    for c in clients {
        c.state.compressor = c
            .state
            .compressor
            .take()
            .map(|inner| Box::new(TracedCompressor::new(inner)) as _);
    }
}

/// How to assemble a course from a workload's inputs.
#[derive(Clone, Copy, Debug, Default)]
pub struct Variant {
    /// Wrap every extension point in tracing.
    pub traced: bool,
    /// Run `femnist_tcp`'s course on the in-process bus instead of TCP.
    pub bus: bool,
    /// Run with `parallelism = 1` (the serial reference).
    pub serial: bool,
    /// Run this many aggregations instead of the workload's count.
    pub rounds: Option<u64>,
}

impl Variant {
    fn apply(&self, cfg: &FlConfig) -> FlConfig {
        let mut cfg = cfg.clone();
        if self.serial {
            cfg.parallelism = 1;
        }
        if let Some(r) = self.rounds {
            cfg.total_rounds = r;
        }
        cfg
    }
}

/// Assembles one course.
pub fn build(inputs: &Inputs, v: Variant) -> Course {
    let traced = v.traced;
    let marks: RoundMarks = Arc::new(Mutex::new(Vec::new()));
    let monitor = traced.then(|| Arc::new(Mutex::new(CounterMonitor::default())));
    let handle = || {
        monitor.as_ref().map_or_else(MonitorHandle::null, |m| {
            MonitorHandle::from_shared(m.clone())
        })
    };
    let runner = match inputs {
        Inputs::Standalone { wl, cfg } => {
            let cfg = v.apply(cfg);
            let factory =
                image_factory(wl.dataset.feature_shape[2], wl.dataset.num_classes, traced);
            let runner =
                course_builder(&wl.dataset, factory, &cfg, &wl.fleet_cfg, &marks, traced).build();
            Runner::Standalone(runner.with_monitor(handle()))
        }
        Inputs::Tcp {
            dataset,
            fleet_cfg,
            cfg,
            ..
        } => {
            let cfg = v.apply(cfg);
            let factory = image_factory(dataset.feature_shape[2], dataset.num_classes, traced);
            let runner = course_builder(dataset, factory, &cfg, fleet_cfg, &marks, traced).build();
            let mut clients: Vec<Client> = runner.clients.into_values().collect();
            if traced {
                trace_codecs(&mut clients);
            }
            Runner::Tcp {
                server: runner.server,
                clients,
                bus: v.bus,
            }
        }
    };
    Course {
        runner,
        marks,
        monitor,
    }
}

/// What one course run produced.
pub struct Outcome {
    /// The course report.
    pub report: CourseReport,
    /// When the run call started.
    pub start: Instant,
    /// Wall time of the run call.
    pub wall: Duration,
    /// Instants of every `aggregate` call.
    pub marks: Vec<Instant>,
    /// Events the engine processed: messages delivered by the standalone
    /// runner and frames the TCP server loop read (monitor counts, kept for
    /// traced courses only; zero otherwise).
    pub events: u64,
    /// Monitor counters (traced courses only).
    pub counters: BTreeMap<&'static str, u64>,
    /// Final global test accuracy.
    pub final_acc: f32,
}

impl Outcome {
    /// Wall time between consecutive `aggregate` calls, in ms.
    pub fn round_ms(&self) -> Vec<f64> {
        self.marks
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
            .collect()
    }
}

fn last_acc(report: &CourseReport) -> f32 {
    report.history.last().map_or(0.0, |r| r.metrics.accuracy)
}

/// Runs an assembled course to completion.
pub fn run(course: Course, inputs: &Inputs, kind: Kind) -> Result<Outcome, String> {
    let Course {
        runner,
        marks,
        monitor,
    } = course;
    let start = Instant::now();
    let (report, wall, final_acc) = match runner {
        Runner::Standalone(mut r) => {
            let report = r.try_run().map_err(|v| format!("verification: {v}"))?;
            let wall = start.elapsed();
            let acc = last_acc(&report);
            (report, wall, acc)
        }
        Runner::Tcp {
            server,
            clients,
            bus,
        } => {
            let server = if bus {
                let opts = BusRunOptions::default();
                run_distributed_with(server, clients, kind.wall_budget(), opts)
            } else {
                let mut opts = TcpRunOptions::default();
                if let Some(m) = &monitor {
                    opts.monitor = MonitorHandle::from_shared(m.clone());
                }
                run_distributed_tcp_with(server, clients, kind.wall_budget(), opts)
            }
            .map_err(|e| format!("distributed run: {e}"))?;
            let wall = start.elapsed();
            let report = distributed_report(&server);
            let Inputs::Tcp { dataset, test, .. } = inputs else {
                unreachable!("distributed courses are built from TCP inputs")
            };
            let mut model = image_model(dataset.feature_shape[2], dataset.num_classes);
            let acc = test_accuracy(model.as_mut(), &server.state.global, test);
            (report, wall, acc)
        }
    };
    let counters = monitor
        .map(|m| {
            m.lock()
                .expect("counter monitor poisoned by a panicking course")
                .counters
                .clone()
        })
        .unwrap_or_default();
    let name = match kind {
        Kind::FemnistSync => fs_monitor::counters::MESSAGES_DELIVERED,
        Kind::FemnistTcp => fs_monitor::counters::WIRE_FRAMES_IN,
    };
    let events = counters.get(name).copied().unwrap_or(0);
    let marks = std::mem::take(&mut *marks.lock().expect("round clock poisoned"));
    Ok(Outcome {
        report,
        start,
        wall,
        marks,
        events,
        counters,
        final_acc,
    })
}

/// An untraced ConvNet2 to score final parameters with; its own initial
/// weights are overwritten.
fn image_model(img: usize, classes: usize) -> Box<dyn Model> {
    Box::new(convnet2(
        1,
        img,
        32,
        classes,
        0.0,
        &mut StdRng::seed_from_u64(0),
    ))
}

/// Accuracy of the final global parameters, loaded into `model`, on test
/// data.
fn test_accuracy(model: &mut dyn Model, global: &fs_tensor::ParamMap, test: &[ClientData]) -> f32 {
    model.set_params(global);
    let parts: Vec<Metrics> = test
        .iter()
        .filter(|d| !d.is_empty())
        .map(|d| model.evaluate(&d.x, &d.y))
        .collect();
    Metrics::weighted_merge(&parts).accuracy
}
