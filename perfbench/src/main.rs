//! perfbench — the repository's benchmark: two closed-loop FL-course
//! workloads, end-to-end metrics from untraced runs, per-layer metrics from
//! a traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload femnist_sync --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One run generates the workload's inputs from `--seed`, times set-up
//! several times, runs one untimed warm-up course and the correctness
//! checks, then runs courses back to back for `--seconds` seconds, timing
//! set-up again for a moment after each of them. Every
//! course is checked: it must finish its rounds within its wall budget,
//! reach the workload's accuracy floor and reproduce the warm-up course's
//! report. A failed check counts in `failed` and does not stop the run; the
//! process then exits with code 1.
//!
//! The last line of standard output is the result:
//! `{"correct", "attempted", "failed", "metrics"}` with the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). The lines
//! before it are a human-readable table with sample counts and the same
//! numbers in a `{bench, schema, host, rows}` envelope, also written to
//! `perfbench/out/` along with the trace's spans.

mod hooks;
mod stats;
mod trace;
mod workloads;

use serde::Serialize;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workloads::{Inputs, Kind, Outcome, Variant};

/// A run still going after this long prints no result and exits with code 3.
const WATCHDOG: Duration = Duration::from_secs(170);
/// Set-up is timed first in a burst of at least this many repeats...
const SETUP_MIN_REPS: usize = 5;
/// ...lasting at least this long...
const SETUP_FIRST_SECS: f64 = 0.5;
/// ...and then after every timed course in a burst this long, so that its
/// repeats are spread over the whole run.
const SETUP_BURST_SECS: f64 = 0.1;
/// Aggregations of the short courses behind the serial and transparency
/// checks.
const CHECK_ROUNDS: u64 = 6;
/// The timed phase stops extending for round samples after this many
/// multiples of `--seconds`.
const MAX_STRETCH: f64 = 3.0;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown workload {value:?}; expected one of {names:?}")
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=120).contains(&s) {
                    return Err("--seconds must be 1..=120".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20),
        trace: trace.unwrap_or(false),
    })
}

/// Courses attempted and the reasons of those that failed.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failures: Vec<String>,
}

impl Ledger {
    fn fail(&mut self, what: &str, why: String) {
        eprintln!("FAILED {what}: {why}");
        self.failures.push(format!("{what}: {why}"));
    }
}

/// What a course must reproduce.
enum Expect<'a> {
    /// Only its round count and the accuracy floor.
    Floor,
    /// The whole report and final accuracy of this course.
    Report(&'a Outcome),
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic".into())
}

/// Builds and runs one course, checking it; `None` when it failed.
fn course(
    kind: Kind,
    inputs: &Inputs,
    v: Variant,
    expect: Expect<'_>,
    what: &str,
    ledger: &mut Ledger,
) -> Option<Outcome> {
    ledger.attempted += 1;
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        workloads::run(workloads::build(inputs, v), inputs, kind)
    }))
    .unwrap_or_else(|p| Err(format!("panicked: {}", panic_text(p))));
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            ledger.fail(what, e);
            return None;
        }
    };
    let rounds = v.rounds.unwrap_or(kind.rounds());
    let problem = if out.wall > kind.wall_budget() {
        Some(format!(
            "took {:?}, budget {:?}",
            out.wall,
            kind.wall_budget()
        ))
    } else if out.report.rounds != rounds {
        Some(format!(
            "ran {} rounds, expected {rounds}",
            out.report.rounds
        ))
    } else if out.marks.len() as u64 != rounds {
        Some(format!(
            "aggregated {} times, expected {rounds}",
            out.marks.len()
        ))
    } else if v.rounds.is_none() && out.final_acc < kind.acc_floor() {
        Some(format!(
            "final accuracy {} below floor {}",
            out.final_acc,
            kind.acc_floor()
        ))
    } else {
        match expect {
            Expect::Floor => None,
            Expect::Report(r) if r.report != out.report => {
                Some("report differs from the reference course".into())
            }
            Expect::Report(r) if r.final_acc != out.final_acc => Some(format!(
                "final accuracy {}, reference {}",
                out.final_acc, r.final_acc
            )),
            _ => None,
        }
    };
    match problem {
        Some(p) => {
            ledger.fail(what, p);
            None
        }
        None => Some(out),
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        samples,
    }
}

/// A metric as the result lines carry it.
#[derive(Serialize)]
struct Reading {
    value: f64,
    unit: &'static str,
}

/// The `{name: {value, unit}}` object of the result lines, in report order.
fn metrics_json(metrics: &[Metric]) -> serde::Value {
    serde::Value::Object(
        metrics
            .iter()
            .map(|m| {
                let r = Reading {
                    value: m.value,
                    unit: m.unit,
                };
                (m.name.to_string(), r.to_value())
            })
            .collect(),
    )
}

/// The host facts every result carries.
#[derive(Serialize)]
struct Host {
    cores: usize,
    rustc: &'static str,
    git_rev: String,
    profile: &'static str,
}

#[derive(Serialize)]
struct Row {
    key: String,
    metrics: serde::Value,
}

/// Results in the envelope shape of the repository's perf snapshots.
#[derive(Serialize)]
struct Envelope {
    bench: &'static str,
    schema: u32,
    host: Host,
    rows: Vec<Row>,
}

/// The result line.
#[derive(Serialize)]
struct Verdict {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: serde::Value,
}

/// The commit the benchmark runs on, read from `.git` when the working
/// directory is a git checkout.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or(head),
            None => head,
        },
        None => "unknown".into(),
    }
}

fn host() -> Host {
    Host {
        cores: fs_bench::sys::usable_cores(),
        rustc: env!("PERFBENCH_RUSTC"),
        git_rev: git_rev(),
        profile: env!("PERFBENCH_PROFILE"),
    }
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Set-up timings: generation, build and their sum, once per repetition.
/// Each is reported as the fastest of its repeats: set-up does the same work
/// every time, and spells of neighbour load on a shared host only ever add
/// to it.
#[derive(Default)]
struct Setup {
    gen_s: Vec<f64>,
    build_s: Vec<f64>,
    total_s: Vec<f64>,
}

/// The smallest of `times`, or 0 for none.
fn fastest(times: &[f64]) -> f64 {
    times.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

impl Setup {
    /// Generates and builds at least `min_reps` times and for at least
    /// `min_secs`, timing each; returns the last inputs.
    fn burst(&mut self, kind: Kind, seed: u64, min_reps: usize, min_secs: f64) -> Inputs {
        let started = Instant::now();
        let mut reps = 0;
        loop {
            let t = Instant::now();
            let inputs = workloads::generate(kind, seed);
            let gen = secs(t.elapsed());
            let t = Instant::now();
            let course = workloads::build(&inputs, Variant::default());
            let build = secs(t.elapsed());
            drop(course);
            self.gen_s.push(gen);
            self.build_s.push(build);
            self.total_s.push(gen + build);
            reps += 1;
            if reps >= min_reps && secs(started.elapsed()) >= min_secs {
                return inputs;
            }
        }
    }
}

/// One timed course, reduced to what the metrics need: its report is
/// checked and dropped, so the harness's own memory barely grows with the
/// run and `peak_rss_mb` measures the program.
struct Timing {
    start: Instant,
    wall: Duration,
    rounds: u64,
    updates: u64,
    events: u64,
    counters: std::collections::BTreeMap<&'static str, u64>,
    /// `aggregate` instants, kept for traced courses only.
    marks: Vec<Instant>,
    /// Wall time between consecutive `aggregate` calls.
    round_ms: Vec<f32>,
}

/// Courses timed back to back.
#[derive(Default)]
struct Timed {
    courses: Vec<Timing>,
}

impl Timed {
    fn push(&mut self, out: Outcome, keep_marks: bool) {
        self.courses.push(Timing {
            round_ms: out.round_ms().into_iter().map(|ms| ms as f32).collect(),
            start: out.start,
            wall: out.wall,
            rounds: out.report.rounds,
            updates: out.report.total_updates,
            events: out.events,
            counters: out.counters,
            marks: if keep_marks { out.marks } else { Vec::new() },
        });
    }

    fn walls(&self) -> Vec<f64> {
        self.courses.iter().map(|c| secs(c.wall)).collect()
    }

    fn round_ms(&self) -> Vec<f64> {
        self.courses
            .iter()
            .flat_map(|c| c.round_ms.iter().map(|&ms| f64::from(ms)))
            .collect()
    }

    fn round_count(&self) -> usize {
        self.courses.iter().map(|c| c.round_ms.len()).sum()
    }

    fn wall_s(&self) -> f64 {
        self.walls().iter().sum()
    }

    fn rounds(&self) -> u64 {
        self.courses.iter().map(|c| c.rounds).sum()
    }

    fn updates(&self) -> u64 {
        self.courses.iter().map(|c| c.updates).sum()
    }

    /// First course's wall over the median of the later ones, minus one: the
    /// cold-versus-warm order effect left after the warm-up course.
    fn first_rep_drift(&self) -> f64 {
        let w = self.walls();
        match stats::median(w.get(1..).unwrap_or(&[])) {
            Some(rest) => ratio(w[0], rest) - 1.0,
            None => 0.0,
        }
    }
}

/// Runs `v` courses until `seconds` have passed and, when `min_rounds` is
/// set, that many round samples exist (up to [`MAX_STRETCH`]). Calls
/// `between` after every course, outside its timing.
#[allow(clippy::too_many_arguments)]
fn timed_phase(
    kind: Kind,
    inputs: &Inputs,
    v: Variant,
    reference: &Outcome,
    seconds: f64,
    min_rounds: usize,
    min_courses: usize,
    ledger: &mut Ledger,
    between: &mut dyn FnMut(),
) -> Timed {
    let mut timed = Timed::default();
    let start = Instant::now();
    let mut n = 0;
    loop {
        let elapsed = secs(start.elapsed());
        let samples = timed.round_count();
        let enough = samples >= min_rounds && timed.courses.len() >= min_courses;
        if elapsed >= seconds && enough {
            break;
        }
        if elapsed >= seconds * MAX_STRETCH {
            ledger.fail(
                "timed phase",
                format!("only {samples} round samples in {elapsed:.1} s"),
            );
            break;
        }
        n += 1;
        let what = format!("{} course {n}", if v.traced { "traced" } else { "timed" });
        if let Some(out) = course(kind, inputs, v, Expect::Report(reference), &what, ledger) {
            timed.push(out, v.traced);
        }
        between();
    }
    timed
}

fn end_to_end(setup: &Setup, timed: &Timed, reference: &Outcome) -> Vec<Metric> {
    let rounds = timed.round_ms();
    let updates = timed.updates();
    let peak_mb = fs_bench::sys::peak_rss_mb().unwrap_or(0.0);
    vec![
        metric(
            "updates_per_s",
            ratio(updates as f64, timed.wall_s()),
            "1/s",
            timed.courses.len(),
        ),
        metric(
            "round_ms_p50",
            stats::percentile(&rounds, 50.0).unwrap_or(0.0),
            "ms",
            rounds.len(),
        ),
        metric(
            "round_ms_p95",
            stats::percentile(&rounds, 95.0).unwrap_or(0.0),
            "ms",
            rounds.len(),
        ),
        metric("setup_s", fastest(&setup.total_s), "s", setup.total_s.len()),
        metric("peak_rss_mb", peak_mb, "MB", 1),
        metric("final_acc", reference.final_acc as f64, "fraction", 1),
    ]
}

/// Per-layer metrics from a traced phase, normalised per aggregation round
/// so runs of different lengths compare.
fn per_layer(
    kind: Kind,
    setup: &Setup,
    plain: &Timed,
    traced: &Timed,
    rec: &trace::Recording,
    runner_thread: u32,
) -> Vec<Metric> {
    let rounds = traced.rounds() as f64;
    let courses = traced.courses.len();
    let wall_ns = traced.wall_s() * 1e9;
    let per_round = |ns: u64| ratio(ns as f64, rounds);
    let t = |name: &str| rec.get(name);
    let layer_ns = |names: &[&str]| names.iter().map(|n| t(n).total_ns).sum::<u64>();
    let conv_ns = layer_ns(&[
        "tensor.conv1.fwd",
        "tensor.conv1.bwd",
        "tensor.conv2.fwd",
        "tensor.conv2.bwd",
    ]);
    let linear_ns = layer_ns(&[
        "tensor.fc1.fwd",
        "tensor.fc1.bwd",
        "tensor.fc2.fwd",
        "tensor.fc2.bwd",
    ]);
    let updates = traced.updates();
    let local_train_calls = t("trainer.local_train").calls;
    let counter = |name: &str| -> u64 {
        traced
            .courses
            .iter()
            .map(|c| c.counters.get(name).copied().unwrap_or(0))
            .sum()
    };
    let events: u64 = traced.courses.iter().map(|c| c.events).sum();
    // time on each course's critical path that no traced layer call covers
    let unattributed = |from: Instant, to: Instant| {
        let (from, to) = (trace::since_epoch(from), trace::since_epoch(to));
        (to - from) - rec.attributed_ns(runner_thread, from, to)
    };
    let engine_self_ns: u64 = traced
        .courses
        .iter()
        .map(|c| unattributed(c.start, c.start + c.wall))
        .sum();
    let net_wait_ns: u64 = if kind == Kind::FemnistTcp {
        traced
            .courses
            .iter()
            .flat_map(|c| c.marks.windows(2).map(|w| unattributed(w[0], w[1])))
            .sum()
    } else {
        0
    };
    let plain_med = stats::median(&plain.walls()).unwrap_or(0.0);
    let traced_med = stats::median(&traced.walls()).unwrap_or(0.0);
    let n = courses;
    vec![
        metric(
            "tensor.loss_grad_ns",
            per_round(t("tensor.loss_grad").total_ns),
            "ns/round",
            n,
        ),
        metric(
            "tensor.loss_grad_calls",
            per_round(t("tensor.loss_grad").calls),
            "1/round",
            n,
        ),
        metric(
            "tensor.predict_ns",
            per_round(t("tensor.predict").total_ns),
            "ns/round",
            n,
        ),
        metric(
            "tensor.params_copy_ns",
            per_round(t("tensor.params_copy").total_ns),
            "ns/round",
            n,
        ),
        metric(
            "tensor.conv1.fwd_ns",
            per_round(t("tensor.conv1.fwd").total_ns),
            "ns/round",
            n,
        ),
        metric(
            "tensor.conv1.bwd_ns",
            per_round(t("tensor.conv1.bwd").total_ns),
            "ns/round",
            n,
        ),
        metric(
            "tensor.conv2.fwd_ns",
            per_round(t("tensor.conv2.fwd").total_ns),
            "ns/round",
            n,
        ),
        metric(
            "tensor.conv2.bwd_ns",
            per_round(t("tensor.conv2.bwd").total_ns),
            "ns/round",
            n,
        ),
        metric(
            "tensor.fc1.fwd_ns",
            per_round(t("tensor.fc1.fwd").total_ns),
            "ns/round",
            n,
        ),
        metric(
            "tensor.fc1.bwd_ns",
            per_round(t("tensor.fc1.bwd").total_ns),
            "ns/round",
            n,
        ),
        metric(
            "tensor.fc2.fwd_ns",
            per_round(t("tensor.fc2.fwd").total_ns),
            "ns/round",
            n,
        ),
        metric(
            "tensor.fc2.bwd_ns",
            per_round(t("tensor.fc2.bwd").total_ns),
            "ns/round",
            n,
        ),
        metric(
            "tensor.conv.gflops",
            ratio(rec.count("tensor.conv.flops") as f64, conv_ns as f64),
            "GFLOP/s",
            n,
        ),
        metric(
            "tensor.linear.gflops",
            ratio(rec.count("tensor.linear.flops") as f64, linear_ns as f64),
            "GFLOP/s",
            n,
        ),
        metric(
            "trainer.local_train_ns",
            per_round(t("trainer.local_train").total_ns),
            "ns/round",
            n,
        ),
        metric(
            "trainer.local_train_calls",
            per_round(local_train_calls),
            "1/round",
            n,
        ),
        metric(
            "trainer.self_ns",
            per_round(t("trainer.local_train").self_ns),
            "ns/round",
            n,
        ),
        metric(
            "trainer.eval_ns",
            per_round(t("trainer.eval").total_ns),
            "ns/round",
            n,
        ),
        metric(
            "agg.aggregate_ns",
            per_round(t("agg.aggregate").total_ns),
            "ns/round",
            n,
        ),
        metric(
            "agg.calls",
            ratio(t("agg.aggregate").calls as f64, courses as f64),
            "1/course",
            n,
        ),
        metric(
            "agg.updates_per_call",
            ratio(
                rec.count("agg.updates") as f64,
                t("agg.aggregate").calls as f64,
            ),
            "updates",
            n,
        ),
        // client-side predicts run inside `trainer.eval`; the central
        // evaluator's are the only ones without a parent span
        metric(
            "eval.global_ns",
            per_round(t("tensor.predict").root_ns),
            "ns/round",
            n,
        ),
        metric(
            "exec.useful_ratio",
            ratio(updates as f64, local_train_calls as f64),
            "ratio",
            n,
        ),
        metric(
            "exec.idle_share",
            1.0 - ratio(rec.root_busy_ns() as f64, wall_ns * kind.threads() as f64),
            "ratio",
            n,
        ),
        metric(
            "compress.ns",
            per_round(t("compress").total_ns),
            "ns/round",
            n,
        ),
        metric(
            "compress.calls",
            per_round(t("compress").calls),
            "1/round",
            n,
        ),
        metric(
            "compress.ratio",
            ratio(
                rec.count("compress.dense_bytes") as f64,
                rec.count("compress.encoded_bytes") as f64,
            ),
            "ratio",
            n,
        ),
        metric(
            "net.bytes_up",
            per_round(counter(fs_monitor::counters::WIRE_BYTES_IN)),
            "B/round",
            n,
        ),
        metric(
            "net.bytes_down",
            per_round(counter(fs_monitor::counters::WIRE_BYTES_OUT)),
            "B/round",
            n,
        ),
        metric(
            "net.frames",
            per_round(
                counter(fs_monitor::counters::WIRE_FRAMES_IN)
                    + counter(fs_monitor::counters::WIRE_FRAMES_OUT),
            ),
            "1/round",
            n,
        ),
        metric("net.wait_ns", per_round(net_wait_ns), "ns/round", n),
        metric("engine.self_ns", per_round(engine_self_ns), "ns/round", n),
        metric(
            "engine.events",
            ratio(events as f64, courses as f64),
            "1/course",
            n,
        ),
        metric(
            "engine.events_per_s",
            ratio(events as f64, traced.wall_s()),
            "1/s",
            n,
        ),
        metric(
            "data.gen_ns",
            fastest(&setup.gen_s) * 1e9,
            "ns",
            setup.gen_s.len(),
        ),
        metric(
            "course.build_ns",
            fastest(&setup.build_s) * 1e9,
            "ns",
            setup.build_s.len(),
        ),
        metric(
            "trace.overhead_ratio",
            ratio(traced_med, plain_med),
            "ratio",
            plain.courses.len().min(courses),
        ),
        metric(
            "bench.first_rep_drift",
            plain.first_rep_drift(),
            "ratio",
            plain.courses.len(),
        ),
    ]
}

fn print_table(metrics: &[Metric]) {
    println!(
        "{:<28} {:>18} {:<10} {:>8}",
        "metric", "value", "unit", "samples"
    );
    for m in metrics {
        println!(
            "{:<28} {:>18.6} {:<10} {:>8}",
            m.name, m.value, m.unit, m.samples
        );
    }
}

fn write_spans(path: &PathBuf, rec: &trace::Recording) -> std::io::Result<()> {
    use std::io::Write;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in &rec.spans {
        let line = serde_json::to_string(s).map_err(std::io::Error::other)?;
        writeln!(w, "{line}")?;
    }
    w.flush()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]"
            );
            std::process::exit(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: watchdog: run exceeded {WATCHDOG:?}");
        std::process::exit(3);
    });
    let kind = args.kind;
    let seconds = args.seconds as f64;
    let runner_thread = trace::thread_id();
    let mut ledger = Ledger::default();

    // set-up, repeated here and between timed courses: a low percentile of
    // the repeats is `setup_s`
    let mut setup = Setup::default();
    let inputs = setup.burst(kind, args.seed, SETUP_MIN_REPS, SETUP_FIRST_SECS);
    let mut between = || {
        setup.burst(kind, args.seed, 1, SETUP_BURST_SECS);
    };

    // one untimed warm-up course; its report is every later course's reference
    let Some(reference) = course(
        kind,
        &inputs,
        Variant::default(),
        Expect::Floor,
        "warm-up course",
        &mut ledger,
    ) else {
        eprintln!("perfbench: the warm-up course failed; nothing to measure");
        std::process::exit(1);
    };

    // correctness checks, untimed
    let short = Variant {
        rounds: Some(CHECK_ROUNDS),
        ..Variant::default()
    };
    if let Some(plain) = course(
        kind,
        &inputs,
        short,
        Expect::Floor,
        "short course",
        &mut ledger,
    ) {
        let traced = Variant {
            traced: true,
            ..short
        };
        course(
            kind,
            &inputs,
            traced,
            Expect::Report(&plain),
            "transparency check",
            &mut ledger,
        );
        if kind == Kind::FemnistSync {
            let serial = Variant {
                serial: true,
                ..short
            };
            let what = "serial-equals-parallel check";
            course(
                kind,
                &inputs,
                serial,
                Expect::Report(&plain),
                what,
                &mut ledger,
            );
        }
    }
    if kind == Kind::FemnistTcp {
        let bus = Variant {
            bus: true,
            ..Variant::default()
        };
        let what = "TCP-equals-bus check";
        course(
            kind,
            &inputs,
            bus,
            Expect::Report(&reference),
            what,
            &mut ledger,
        );
    }
    trace::take();

    let plain = Variant::default();
    let (metrics, rec) = if args.trace {
        let untraced = timed_phase(
            kind,
            &inputs,
            plain,
            &reference,
            seconds / 2.0,
            0,
            2,
            &mut ledger,
            &mut between,
        );
        trace::take();
        let traced_v = Variant {
            traced: true,
            ..plain
        };
        let traced = timed_phase(
            kind,
            &inputs,
            traced_v,
            &reference,
            seconds / 2.0,
            0,
            2,
            &mut ledger,
            &mut between,
        );
        let rec = trace::take();
        let m = per_layer(kind, &setup, &untraced, &traced, &rec, runner_thread);
        (m, Some(rec))
    } else {
        let need = stats::samples_needed(95.0);
        let timed = timed_phase(
            kind,
            &inputs,
            plain,
            &reference,
            seconds,
            need,
            2,
            &mut ledger,
            &mut between,
        );
        let rounds = timed.round_ms();
        let deciles: Vec<String> = (1..10)
            .map(|d| {
                format!(
                    "{:.3}",
                    stats::percentile(&rounds, d as f64 * 10.0).unwrap_or(0.0)
                )
            })
            .collect();
        println!("round_ms deciles: {}", deciles.join(" "));
        match stats::highest_tail(&rounds) {
            Some(t) if t.p >= 95.0 => println!(
                "round_ms: highest supported percentile p{} = {} ms ({} samples, {} beyond)",
                t.p, t.value, t.samples, t.beyond
            ),
            other => ledger.fail(
                "round sampling",
                format!("p95 not supported by {} samples ({other:?})", rounds.len()),
            ),
        }
        println!(
            "timed courses: {} (first-course drift {:+.4})",
            timed.courses.len(),
            timed.first_rep_drift()
        );
        (end_to_end(&setup, &timed, &reference), None)
    };

    let failed = ledger.failures.len() as u64;
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    print_table(&metrics);
    println!(
        "fail_ratio {} ({failed} of {} courses)",
        ratio(failed as f64, ledger.attempted as f64),
        ledger.attempted
    );
    if let Some(rec) = &rec {
        println!(
            "spans: {} written, {} beyond the cap in totals only",
            rec.spans.len(),
            rec.dropped
        );
    }
    let key = format!(
        "{}/seed={}/trace={}",
        kind.name(),
        args.seed,
        u8::from(args.trace)
    );
    let envelope = serde_json::to_string(&Envelope {
        bench: "perfbench",
        schema: 1,
        host: host(),
        rows: vec![Row {
            key,
            metrics: metrics_json(&metrics),
        }],
    })
    .expect("the envelope serializes");
    println!("{envelope}");
    let stem = format!(
        "{}-seed{}-trace{}",
        kind.name(),
        args.seed,
        u8::from(args.trace)
    );
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|_| std::fs::write(out_dir().join(format!("{stem}.json")), &envelope))
        .and_then(|_| match &rec {
            Some(rec) => write_spans(&out_dir().join(format!("{stem}-spans.jsonl")), rec),
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!(
            "perfbench: could not write results to {}: {e}",
            out_dir().display()
        );
    }
    let correct = failed == 0;
    let verdict = Verdict {
        correct,
        attempted: ledger.attempted,
        failed,
        metrics: metrics_json(&metrics),
    };
    println!(
        "{}",
        serde_json::to_string(&verdict).expect("the result serializes")
    );
    if !correct {
        std::process::exit(1);
    }
}
