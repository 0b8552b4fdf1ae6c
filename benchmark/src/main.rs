//! The setcorr benchmark: four workloads over the Figure 2 topology.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <ingest|replan|served|sketch> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it runs a fixed number of repetitions for the
//! `--seconds` given, each over its own stream derived from `--seed`: set
//! up (stream generation + topology build), compute the exact reference
//! (untimed), run, check the outputs. It prints the end-to-end metrics,
//! pooled over the repetitions: documents over summed wall time,
//! percentiles over all samples (freshness past each stream's warm-up),
//! accuracy over all compared tagsets; set-up
//! time is the median set-up, peak memory that of the first repetition.
//!
//! With `--trace 1` it runs one repetition for the run's own call counts
//! plus the traced layer walk (see [`walk`]) and prints the per-layer
//! metrics.
//!
//! Every run prints a `stamp` line (seed, documents, work counters,
//! machine, rustc, git revision, percentile tails with sample counts)
//! before the final line: one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Two figures compare only when their stamps show
//! the same work.

mod queries;
mod reference;
mod run;
mod stats;
mod walk;
mod workload;

use reference::Reference;
use run::Rep;
use setcorr::metrics::ErrorStats;
use setcorr::model::Document;
use setcorr::topology::{build_topology, RunRecorder, RunReport};
use stats::{highest_supported, median, percentile, sorted, Tail};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use workload::{Workload, SERVED_RATE};

/// Documents the traced layer walk covers (a prefix of the run's stream).
const WALK_DOCS: usize = 400_000;

/// Documents of the source-only lateness probe on closed-loop workloads.
const LATENESS_PROBE_DOCS: usize = 40_000;

/// Directory (under the working directory) the span files go to.
const SPAN_DIR: &str = ".bench_out";

/// Command-line arguments.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad value for {flag}: {value}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| format!("bad value for {flag}: {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// A run's result: the final line plus the stamp.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    stamp: String,
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("setcorr-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let docs = args.workload.rep_docs(args.seconds).max(1);
    let outcome = if args.trace {
        traced(&args, docs, std::path::Path::new(SPAN_DIR))
    } else {
        timed(&args, docs)
    };
    println!("{}", outcome.stamp);
    println!("{}", final_line(&outcome));
    ExitCode::SUCCESS
}

/// Set-up of repetition `rep`: generate its stream and build the
/// topology; returns the stream and the seconds it took. The exact
/// reference is not part of set-up.
fn setup(args: &Args, rep: usize, n: usize) -> (Vec<Document>, f64) {
    let config = args.workload.config();
    let start = Instant::now();
    let docs = workload::stream(workload::rep_seed(args.seed, rep), n);
    let topology = build_topology(
        &config,
        Box::new(std::iter::empty()),
        RunRecorder::shared(config.k),
    );
    std::hint::black_box(&topology);
    (docs, start.elapsed().as_secs_f64())
}

/// The timed run: end-to-end metrics from untraced repetitions of `n`
/// documents, each over its own stream, set up right before it.
fn timed(args: &Args, n: usize) -> Outcome {
    let period = args.workload.config().report_period;
    let mut setups = Vec::new();
    let mut reps: Vec<Rep> = Vec::new();
    let mut peak_rss = f64::NAN;
    for i in 0..args.workload.reps(args.seconds) {
        let (docs, setup_s) = setup(args, i, n);
        setups.push(setup_s);
        let reference = Reference::compute(&docs, period);
        reps.push(run::rep(args.workload, &docs, &reference));
        if i == 0 {
            // one set-up and repetition in a fresh process; later ones run
            // on whatever the allocator kept from earlier ones
            peak_rss = peak_rss_mb();
        }
    }
    let docs: u64 = reps.iter().map(|r| r.report.documents).sum();
    let wall: f64 = reps.iter().map(|r| r.wall_s).sum();
    let mut accuracy = ErrorStats::new();
    for r in &reps {
        accuracy.merge(&r.accuracy);
    }

    let freshness = sorted(
        reps.iter()
            .flat_map(|r| r.freshness_ms.iter().copied())
            .collect(),
    );
    let query = sorted(
        reps.iter()
            .flat_map(|r| r.query_us.iter().copied())
            .collect(),
    );
    let at = |v: &[f64], p: f64| {
        if v.is_empty() {
            f64::NAN
        } else {
            percentile(v, p)
        }
    };
    let metrics = vec![
        metric("setup_s", median(&setups), "s"),
        metric("docs_per_s", docs as f64 / wall, "docs/s"),
        metric("freshness_ms_p50", at(&freshness, 50.0), "ms"),
        metric("freshness_ms_p90", at(&freshness, 90.0), "ms"),
        metric("query_us_p50", at(&query, 50.0), "us"),
        metric("query_us_p99", at(&query, 99.0), "us"),
        metric("coverage", accuracy.coverage(), "share"),
        metric("jaccard_mae", accuracy.mean_abs_error(), "jaccard"),
        metric("peak_rss_mb", peak_rss, "MiB"),
    ];
    let late = sorted(
        reps.iter()
            .flat_map(|r| r.late_ms.iter().copied())
            .collect(),
    );
    let tails = [
        ("freshness_ms", highest_supported(&freshness)),
        ("query_us", highest_supported(&query)),
        ("late_ms", highest_supported(&late)),
    ];
    outcome(args, n, &reps, metrics, &tails, setups, Vec::new())
}

/// The traced run: one repetition of `n` documents for call counts, then
/// the layer walk with and without spans; spans go to `span_dir`.
fn traced(args: &Args, n: usize, span_dir: &std::path::Path) -> Outcome {
    let w = args.workload;
    let config = w.config();
    let (docs, setup_s) = setup(args, 0, n);
    let reference = Reference::compute(&docs, config.report_period);
    let rep = run::rep(w, &docs, &reference);

    let walk_docs = &docs[..docs.len().min(WALK_DOCS)];
    // untraced walks on both sides of the traced one, so warm-up does not
    // pass for tracing overhead
    let before = walk::walk(walk_docs, &config, w.approx(), false);
    let traced = walk::walk(walk_docs, &config, w.approx(), true);
    let after = walk::walk(walk_docs, &config, w.approx(), false);
    let plain_s = (before.wall_s + after.wall_s) / 2.0;
    let mut errors = Vec::new();
    if before.counts != traced.counts || after.counts != traced.counts {
        errors.push("the walk did different work with and without spans".to_string());
    }
    let spans_path = span_dir.join(format!("spans-{}-{}.jsonl", w.name(), args.seed));
    let spans_written = walk::write_spans(&traced.spans, &spans_path);

    let late = sorted(match w.rate() {
        Some(_) => rep.late_ms.clone(),
        None => run::source_probe(
            &docs[..docs.len().min(LATENESS_PROBE_DOCS)],
            SERVED_RATE,
            config.report_period.millis(),
        ),
    });

    let t = walk::self_times(&traced.spans);
    // ns per call
    let per_call = |name: &str| {
        t.get(name)
            .map(|&(ns, calls)| ns as f64 / calls.max(1) as f64)
            .unwrap_or(0.0)
    };
    let c = &traced.counts;
    let r = &rep.report;
    let k = config.k as f64;
    let p = config.partitioners as f64;
    let (observe, report) = if w.approx() {
        ("approx.observe", "approx.report")
    } else {
        ("calculator.observe", "calculator.report")
    };
    // the e2e run's own call counts
    let tagsets = (r.routed_tagsets + r.unrouted_tagsets) as f64;
    let notifs = r.avg_communication * r.routed_tagsets as f64;
    let rounds = rep.tracked_rounds as f64;
    let installs = r.merges as f64;
    let shares: Vec<(&str, f64)> = vec![
        ("window", per_call("model.window_insert") * tagsets),
        (
            "disseminator",
            per_call("disseminator.route") * tagsets + per_call("disseminator.install") * installs,
        ),
        (
            "calculator",
            per_call(observe) * notifs + per_call(report) * rounds * k,
        ),
        (
            "partition",
            (per_call("partition.input") + per_call("partition.ds")) * p * installs,
        ),
        (
            "merger",
            per_call("merger.merge") * installs
                + per_call("merger.single_addition") * r.single_additions as f64,
        ),
        (
            "migration",
            per_call("migration.handoff") * r.live_repartitions as f64,
        ),
        ("tracker", per_call("tracker.finalize") * rounds),
        (
            "serve",
            per_call("serve.snapshot_build") * r.snapshots_published as f64,
        ),
    ]
    .into_iter()
    .map(|(name, ns)| (name, ns / 1e9))
    .collect();
    let share = |name: &str| shares.iter().find(|s| s.0 == name).map_or(0.0, |s| s.1);
    let layer_sum: f64 = shares.iter().map(|s| s.1).sum();
    let threaded = !r.operator_seconds.is_empty();
    let busy_s: f64 = if threaded {
        r.operator_seconds.iter().map(|(_, s)| s).sum()
    } else {
        rep.wall_s
    };
    let cores = if threaded {
        std::thread::available_parallelism().map_or(1, |n| n.get()) as f64
    } else {
        1.0
    };
    // threaded busy time is wall time inside callbacks, so it exceeds the
    // cores when more tasks are runnable than there are cores
    let busy_share = if threaded {
        busy_s / (rep.wall_s * cores)
    } else {
        layer_sum / rep.wall_s
    };
    let component = |name: &str, walk_share: f64| {
        r.operator_seconds
            .iter()
            .find(|(c, _)| c == name)
            .map_or(walk_share, |(_, s)| *s)
    };
    let ms = |ns: f64| ns / 1e6;
    let us = |ns: f64| ns / 1e3;
    let (send_waits, recv_waits) = r
        .channel_waits
        .iter()
        .fold((0, 0), |acc, (_, s, v)| (acc.0 + s, acc.1 + v));
    let mut metrics = vec![
        metric("workload.gen_docs_per_s", n as f64 / setup_s, "docs/s"),
        metric("workload.gen_late_ms_p99", percentile(&late, 99.0), "ms"),
        metric(
            "model.window_insert_ns",
            per_call("model.window_insert"),
            "ns",
        ),
        metric(
            "disseminator.route_ns",
            per_call("disseminator.route"),
            "ns",
        ),
        metric(
            "disseminator.notifs_per_tagset",
            c.notifications as f64 / c.routed.max(1) as f64,
            "count",
        ),
        metric(
            "disseminator.routed_share",
            c.routed as f64 / (c.routed + c.unrouted).max(1) as f64,
            "share",
        ),
        metric(
            "calculator.observe_ns",
            per_call("calculator.observe"),
            "ns",
        ),
        metric(
            "calculator.subset_updates",
            c.subset_updates as f64,
            "count",
        ),
        metric(
            "calculator.report_ms",
            ms(per_call("calculator.report")),
            "ms",
        ),
        metric("approx.observe_ns", per_call("approx.observe"), "ns"),
        metric("approx.report_ms", ms(per_call("approx.report")), "ms"),
        metric("partition.input_ms", ms(per_call("partition.input")), "ms"),
        metric("partition.ds_ms", ms(per_call("partition.ds")), "ms"),
        metric("partition.scc_ms", ms(per_call("partition.scc")), "ms"),
        metric("partition.scl_ms", ms(per_call("partition.scl")), "ms"),
        metric("partition.sci_ms", ms(per_call("partition.sci")), "ms"),
        metric("merger.merge_ms", ms(per_call("merger.merge")), "ms"),
        metric(
            "merger.single_addition_us",
            us(per_call("merger.single_addition")),
            "us",
        ),
        metric(
            "migration.handoff_ms",
            ms(per_call("migration.handoff")),
            "ms",
        ),
        metric(
            "migration.units_per_install",
            c.migrated_units as f64 / c.live_installs.max(1) as f64,
            "count",
        ),
        metric(
            "tracker.finalize_ms",
            ms(per_call("tracker.finalize")),
            "ms",
        ),
        metric(
            "serve.snapshot_build_ms",
            ms(per_call("serve.snapshot_build")),
            "ms",
        ),
        metric("serve.topk_us", us(per_call("serve.topk")), "us"),
        metric("serve.neighbors_us", us(per_call("serve.neighbors")), "us"),
        metric("serve.point_us", us(per_call("serve.point")), "us"),
        // core time the layers do not account for: runtime dispatch,
        // transport, and (threaded) idle cores
        metric("engine.overhead_s", rep.wall_s * cores - layer_sum, "s"),
        metric("engine.busy_share", busy_share, "share"),
        metric("engine.send_waits", send_waits as f64, "count"),
        metric("engine.recv_waits", recv_waits as f64, "count"),
        metric(
            "topology.live_repartitions",
            r.live_repartitions as f64,
            "count",
        ),
        metric("topology.migrated_units", r.migrated_units as f64, "count"),
        metric("topology.stalled_tuples", r.stalled_tuples as f64, "count"),
        metric(
            "topology.single_additions",
            r.single_additions as f64,
            "count",
        ),
        metric(
            "topology.unrouted_tagsets",
            r.unrouted_tagsets as f64,
            "count",
        ),
        metric(
            "topology.busy_s.partitioner",
            component("partitioner", share("window") + share("partition")),
            "s",
        ),
        metric(
            "topology.busy_s.merger",
            component("merger", share("merger")),
            "s",
        ),
        metric(
            "topology.busy_s.disseminator",
            component("disseminator", share("disseminator")),
            "s",
        ),
        metric(
            "topology.busy_s.calculator",
            component("calculator", share("calculator") + share("migration")),
            "s",
        ),
        metric(
            "topology.busy_s.tracker",
            component("tracker", share("tracker") + share("serve")),
            "s",
        ),
        metric("e2e.wall_s", rep.wall_s, "s"),
        metric("e2e.busy_s", busy_s, "s"),
        metric("walk.layer_sum_s", layer_sum, "s"),
        metric(
            "trace.overhead_share",
            traced.wall_s / plain_s - 1.0,
            "share",
        ),
    ];
    for (name, s) in &shares {
        metrics.push(metric(&format!("share_s.{name}"), *s, "s"));
    }
    let tails = [
        (
            "freshness_ms",
            highest_supported(&sorted(rep.freshness_ms.clone())),
        ),
        ("late_ms", highest_supported(&late)),
    ];
    let mut out = outcome(
        args,
        n,
        std::slice::from_ref(&rep),
        metrics,
        &tails,
        vec![setup_s],
        errors,
    );
    let _ = write!(
        out.stamp,
        "\n{{\"walk\":{{\"docs\":{},\"rounds\":{},\"installs\":{},\"live_installs\":{},\"digest\":\"{:016x}\",\"spans\":{},\"span_file\":\"{}\",\"span_file_written\":{}}}}}",
        walk_docs.len(),
        c.rounds,
        c.installs,
        c.live_installs,
        c.digest,
        traced.spans.len(),
        spans_path.display(),
        spans_written.is_ok()
    );
    out
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Operations, checks and the stamp shared by both run kinds.
fn outcome(
    args: &Args,
    docs: usize,
    reps: &[Rep],
    metrics: Vec<Metric>,
    tails: &[(&str, Option<Tail>)],
    setups: Vec<f64>,
    mut errors: Vec<String>,
) -> Outcome {
    let attempted: u64 = reps.iter().map(|r| r.rounds + r.queries).sum();
    let failed: u64 = reps
        .iter()
        .map(|r| r.rounds_failed + r.queries_failed)
        .sum();
    errors.extend(reps.iter().flat_map(|r| r.errors.iter().cloned()));
    let digests: Vec<u64> = reps.iter().map(|r| r.digest).collect();
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        errors.push(format!("metric {} is not a number", m.name));
    }
    let mut stamp = String::new();
    let _ = write!(
        stamp,
        "{{\"stamp\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"docs_per_rep\":{},\"reps\":{},\"nproc\":{},\"rustc\":{},\"git_rev\":{},\"setup_s\":{}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        docs,
        reps.len(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json_string(&command_line("rustc", &["--version"])),
        // only the working directory's own repository, never an enclosing one
        json_string(&command_line(
            "git",
            &["--git-dir=.git", "rev-parse", "--short", "HEAD"]
        )),
        json_list(&setups),
    );
    let seeds: Vec<String> = (0..reps.len())
        .map(|i| workload::rep_seed(args.seed, i).to_string())
        .collect();
    let _ = write!(stamp, ",\"rep_seeds\":[{}]", seeds.join(","));
    let _ = write!(stamp, ",\"digests\":[");
    for (i, d) in digests.iter().enumerate() {
        let _ = write!(stamp, "{}\"{d:016x}\"", if i > 0 { "," } else { "" });
    }
    let _ = write!(stamp, "],\"work\":[");
    for (i, rep) in reps.iter().enumerate() {
        let _ = write!(
            stamp,
            "{}{}",
            if i > 0 { "," } else { "" },
            work_stamp(&rep.report, rep)
        );
    }
    let _ = write!(stamp, "],\"tails\":{{");
    for (i, (name, tail)) in tails.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        match tail {
            Some(t) => {
                let _ = write!(
                    stamp,
                    "{sep}\"{name}\":{{\"p\":{},\"value\":{},\"n\":{}}}",
                    t.p,
                    num(t.value),
                    t.n
                );
            }
            None => {
                let _ = write!(stamp, "{sep}\"{name}\":null");
            }
        }
    }
    let _ = write!(stamp, "}},\"errors\":[");
    for (i, e) in errors.iter().enumerate() {
        let _ = write!(stamp, "{}{}", if i > 0 { "," } else { "" }, json_string(e));
    }
    stamp.push_str("]}}");
    Outcome {
        correct: errors.is_empty(),
        attempted,
        failed,
        metrics,
        stamp,
    }
}

/// The work one repetition did, from its `RunReport`.
fn work_stamp(r: &RunReport, rep: &Rep) -> String {
    format!(
        "{{\"documents\":{},\"rounds\":{},\"routed_tagsets\":{},\"unrouted_tagsets\":{},\"merges\":{},\"live_repartitions\":{},\"migrated_units\":{},\"stalled_tuples\":{},\"single_additions\":{},\"snapshots\":{},\"wall_s\":{},\"docs_per_s\":{},\"coverage\":{},\"jaccard_mae\":{}}}",
        r.documents,
        rep.tracked_rounds,
        r.routed_tagsets,
        r.unrouted_tagsets,
        r.merges,
        r.live_repartitions,
        r.migrated_units,
        r.stalled_tuples,
        r.single_additions,
        r.snapshots_published,
        num(rep.wall_s),
        num(r.documents as f64 / rep.wall_s),
        num(rep.accuracy.coverage()),
        num(rep.accuracy.mean_abs_error()),
    )
}

fn final_line(o: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        o.correct,
        o.attempted.max(1),
        o.failed
    );
    for (i, m) in o.metrics.iter().enumerate() {
        let _ = write!(
            s,
            "{}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            if i > 0 { "," } else { "" },
            m.name,
            num(m.value),
            m.unit
        );
    }
    s.push_str("}}");
    s
}

/// A JSON number with every digit `f64` carries (`null` when not finite).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|&v| num(v)).collect();
    format!("[{}]", items.join(","))
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// First line of a command's output, or "unknown" when it cannot run.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Documents per repetition of a smoke run.
    const SMOKE_DOCS: usize = 30_000;

    fn args(workload: Workload, trace: bool) -> Args {
        Args {
            workload,
            seed: 3,
            seconds: 0.3,
            trace,
        }
    }

    /// Metric names `BENCHMARK.json` declares in `section`.
    fn declared(section: &str) -> Vec<String> {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let start = text.find(&format!("\"{section}\"")).unwrap();
        let end = text[start..].find(']').unwrap() + start;
        text[start..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').unwrap()].to_string())
            .collect()
    }

    fn names(o: &Outcome) -> Vec<String> {
        o.metrics.iter().map(|m| m.name.clone()).collect()
    }

    fn value(o: &Outcome, name: &str) -> f64 {
        o.metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} missing"))
            .value
    }

    #[test]
    fn every_workload_runs_and_passes_its_checks() {
        for w in Workload::ALL {
            let o = timed(&args(w, false), SMOKE_DOCS);
            assert!(o.correct, "{}: {}", w.name(), o.stamp);
            assert_eq!(o.failed, 0, "{}: {}", w.name(), o.stamp);
            assert!(o.attempted >= 2, "{}", w.name());
            assert_eq!(names(&o), declared("end_to_end"));
            for m in &o.metrics {
                assert!(
                    m.value.is_finite() && m.value >= 0.0,
                    "{}: {} = {}",
                    w.name(),
                    m.name,
                    m.value
                );
            }
            let line = final_line(&o);
            assert!(
                line.starts_with("{\"correct\":true,\"attempted\":"),
                "{line}"
            );
        }
    }

    #[test]
    fn the_sim_runtime_repeats_its_tracker_output() {
        let docs = workload::stream(5, 30_000);
        let reference = Reference::compute(&docs, Workload::Replan.config().report_period);
        let a = run::rep(Workload::Replan, &docs, &reference);
        let b = run::rep(Workload::Replan, &docs, &reference);
        assert!(a.errors.is_empty(), "{:?}", a.errors);
        assert_eq!(a.digest, b.digest);
    }

    #[test]
    fn the_traced_walk_reports_every_layer() {
        let dir = std::env::temp_dir().join(format!("setcorr-benchmark-{}", std::process::id()));
        let o = traced(&args(Workload::Replan, true), SMOKE_DOCS, &dir);
        assert!(o.correct, "{}", o.stamp);
        assert_eq!(names(&o), declared("per_layer"));
        for name in [
            "model.window_insert_ns",
            "disseminator.route_ns",
            "calculator.observe_ns",
            "approx.observe_ns",
            "partition.ds_ms",
            "partition.scc_ms",
            "merger.merge_ms",
            "migration.handoff_ms",
            "tracker.finalize_ms",
            "serve.snapshot_build_ms",
            "serve.point_us",
        ] {
            assert!(value(&o, name) > 0.0, "{name}");
        }
        // on the sim runtime the layer shares plus the overhead are the
        // run's wall time
        let wall = value(&o, "e2e.wall_s");
        let sum = value(&o, "walk.layer_sum_s") + value(&o, "engine.overhead_s");
        assert!((sum - wall).abs() < 1e-9, "{sum} vs {wall}");
        let spans = std::fs::read_to_string(dir.join("spans-replan-3.jsonl")).unwrap();
        assert!(spans.lines().count() > 100);
        assert!(spans.lines().all(|l| l.starts_with("{\"id\":")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn freshness_skips_the_first_minute_of_event_time() {
        // served: 5 s rounds; ingest: 20 s rounds
        assert_eq!(run::warmup_rounds(5_000, 116), 12);
        assert_eq!(run::warmup_rounds(20_000, 19), 3);
        // a short stream keeps at least half its rounds
        assert_eq!(run::warmup_rounds(5_000, 5), 2);
        assert_eq!(run::warmup_rounds(20_000, 1), 0);
    }

    #[test]
    fn arguments_are_checked() {
        let ok = |s: &str| parse_args(&s.split(' ').map(String::from).collect::<Vec<_>>());
        assert!(ok("--workload ingest --seed 1 --seconds 10 --trace 0").is_ok());
        assert!(ok("--workload nope --seed 1 --seconds 10 --trace 0").is_err());
        assert!(ok("--workload ingest --seed x --seconds 10 --trace 0").is_err());
        assert!(ok("--workload ingest --seed 1 --seconds 10 --trace 2").is_err());
        assert!(ok("--workload ingest --seed 1 --trace 0").is_err());
        assert!(ok("--workload ingest --seed 1 --seconds 0 --trace 0").is_err());
        assert!(ok("--workload ingest --seed 1 --seconds 10").is_err());
    }
}
