//! One untraced end-to-end repetition of a workload, driven through the
//! public entry points only: `spawn_served` + `QueryHandle` for the run,
//! `RunReport` for its outcome.
//!
//! Every repetition runs with the serving store attached, so each round's
//! freshness — from the moment the document that closes it was due to the
//! first moment an observer sees the round published — is measured on
//! every workload, past the stream's first minute of event time (see
//! [`warmup_rounds`]). On `served` the observers are the reader clients; on
//! the closed-loop workloads it is the benchmark's main thread, which polls
//! the published round between short sleeps and runs a fixed query mix
//! against each new round's snapshot.

use crate::queries::{self, Picker, Query};
use crate::reference::Reference;
use crate::workload::{Workload, SERVED_READERS};
use setcorr::core::TrackedCoefficient;
use setcorr::metrics::ErrorStats;
use setcorr::model::{Document, FxHashSet};
use setcorr::serve::QueryHandle;
use setcorr::topology::{spawn_served, RunReport};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// A round later than this (due time → first seen) fails on `served`.
const FRESHNESS_LIMIT_MS: f64 = 1_000.0;

/// Event time the freshness figures skip at the start of a stream: the
/// bootstrap repartition, the first window fill and the burst of live
/// repartitions that follows make these rounds' freshness a different
/// (and far noisier) quantity from the steady state's.
const FRESHNESS_WARMUP_MS: u64 = 60_000;

/// How far ahead of its due time the open-loop source may release a
/// document: releases come in bursts of at most this span, so the source
/// sleeps instead of spinning between documents microseconds apart.
const RELEASE_SLACK: Duration = Duration::from_millis(1);

/// Poll interval of the closed-loop round watcher.
const WATCH_POLL: Duration = Duration::from_millis(1);

/// Queries a reader issues per acquired snapshot.
const QUERIES_PER_ACQUISITION: usize = 12;

/// Reader think time between acquisitions.
const THINK: Duration = Duration::from_millis(2);

/// Queries the closed-loop watcher runs against each new round's snapshot.
const WATCH_QUERIES: usize = 600;

/// State shared between the source (on the runtime's spout thread) and
/// the benchmark.
type Shared<T> = Arc<Mutex<T>>;

/// Lock shared benchmark state; a panic while holding it is a benchmark
/// bug, so poisoning is fatal.
fn lock<T>(m: &Shared<T>) -> MutexGuard<'_, T> {
    m.lock().expect("benchmark state lock poisoned")
}

/// What the source recorded while the topology pulled from it.
#[derive(Debug, Default)]
struct SourceLog {
    /// `(round, due)`: the instant the document closing each round was due
    /// (open loop) or pulled (closed loop). The last round closes with the
    /// end of the stream, at the last document's instant.
    closes: Vec<(u64, Instant)>,
    /// Per-document lateness behind the scheduled release, ms (open loop
    /// only).
    late_ms: Vec<f64>,
    /// Documents handed to the topology.
    sent: u64,
}

/// The spout's document iterator: hands out the pre-generated stream,
/// on a fixed schedule when `rate` is set (never slowing down when the
/// system does), and logs round-closing instants.
struct Source {
    docs: std::vec::IntoIter<Document>,
    start: Instant,
    rate: Option<f64>,
    period_ms: u64,
    round: u64,
    sent: u64,
    last: Instant,
    late_ms: Vec<f64>,
    log: Shared<SourceLog>,
    done: bool,
}

impl Source {
    fn new(
        docs: Vec<Document>,
        start: Instant,
        rate: Option<f64>,
        period_ms: u64,
        log: Shared<SourceLog>,
    ) -> Self {
        Source {
            docs: docs.into_iter(),
            start,
            rate,
            period_ms,
            round: 0,
            sent: 0,
            last: start,
            late_ms: Vec::new(),
            log,
            done: false,
        }
    }
}

/// Lateness of the open-loop source alone, releasing `docs` at `rate`
/// into a sink: per-document ms behind schedule.
pub fn source_probe(docs: &[Document], rate: f64, period_ms: u64) -> Vec<f64> {
    let log: Shared<SourceLog> = Default::default();
    let source = Source::new(
        docs.to_vec(),
        Instant::now(),
        Some(rate),
        period_ms,
        log.clone(),
    );
    for doc in source {
        std::hint::black_box(doc);
    }
    let late_ms = std::mem::take(&mut lock(&log).late_ms);
    late_ms
}

impl Iterator for Source {
    type Item = Document;

    fn next(&mut self) -> Option<Document> {
        let Some(doc) = self.docs.next() else {
            if !self.done {
                self.done = true;
                let mut log = lock(&self.log);
                log.closes.push((self.round, self.last));
                log.sent = self.sent;
                log.late_ms = std::mem::take(&mut self.late_ms);
            }
            return None;
        };
        let now = match self.rate {
            Some(rate) => {
                let due = self.start + Duration::from_secs_f64(self.sent as f64 / rate);
                let release = due
                    .checked_sub(RELEASE_SLACK)
                    .unwrap_or(due)
                    .max(self.start);
                let mut now = Instant::now();
                if now < release {
                    std::thread::sleep(release - now);
                    now = Instant::now();
                }
                self.late_ms
                    .push(now.saturating_duration_since(release).as_secs_f64() * 1e3);
                due
            }
            None => Instant::now(),
        };
        if doc.timestamp.millis() >= (self.round + 1) * self.period_ms {
            let mut log = lock(&self.log);
            while doc.timestamp.millis() >= (self.round + 1) * self.period_ms {
                log.closes.push((self.round, now));
                self.round += 1;
            }
        }
        self.last = now;
        self.sent += 1;
        Some(doc)
    }
}

/// First instant any observer saw each round published, as nanoseconds
/// since the repetition started (+1, so 0 means "not yet seen").
struct FirstSeen {
    start: Instant,
    rounds: Vec<AtomicU64>,
}

impl FirstSeen {
    fn new(start: Instant, rounds: u64) -> Self {
        FirstSeen {
            start,
            rounds: (0..rounds).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Mark rounds `from..=upto` seen now (rounds publish in order, so
    /// seeing `upto` means every earlier round was already published).
    /// Returns the next round to mark.
    fn mark(&self, from: u64, upto: u64) -> u64 {
        if from > upto {
            return from;
        }
        let now = self.start.elapsed().as_nanos() as u64 + 1;
        for r in from..=upto {
            if let Some(slot) = self.rounds.get(r as usize) {
                let _ = slot.compare_exchange(0, now, Ordering::Relaxed, Ordering::Relaxed);
            }
        }
        upto + 1
    }

    fn at(&self, round: u64) -> Option<Instant> {
        let ns = self.rounds.get(round as usize)?.load(Ordering::Relaxed);
        (ns > 0).then(|| self.start + Duration::from_nanos(ns - 1))
    }
}

/// What one reader client saw.
#[derive(Default)]
struct ReaderLog {
    query_us: Vec<f64>,
    backwards: u64,
}

/// A closed-loop reader client: acquire the latest snapshot, check its
/// sequence never went backwards, run the query mix, think, repeat.
fn reader(id: u64, handle: QueryHandle, seen: Arc<FirstSeen>, stop: Arc<AtomicBool>) -> ReaderLog {
    let mut log = ReaderLog::default();
    let mut picker = Picker::new(id + 1);
    let mut last_seq = 0u64;
    let mut next_round = 0u64;
    loop {
        // read the flag before acquiring, so the last acquisition happens
        // after the run's final publication
        let stopping = stop.load(Ordering::SeqCst);
        let snap = handle.snapshot();
        if snap.seq() < last_seq {
            log.backwards += 1;
        }
        last_seq = snap.seq();
        if let Some(round) = snap.round() {
            next_round = seen.mark(next_round, round);
        }
        for i in 0..QUERIES_PER_ACQUISITION {
            let kind = Query::ALL[i % Query::ALL.len()];
            log.query_us.push(queries::timed(&snap, kind, &mut picker));
        }
        if stopping {
            return log;
        }
        std::thread::sleep(THINK);
    }
}

/// Outcome of one repetition.
pub struct Rep {
    /// Wall time from launch to the report being available, s.
    pub wall_s: f64,
    /// Freshness of every round seen after the warm-up, ms.
    pub freshness_ms: Vec<f64>,
    /// Query latencies, µs.
    pub query_us: Vec<f64>,
    /// Per-document source lateness, ms (open loop only).
    pub late_ms: Vec<f64>,
    /// Coverage and Jaccard error against the exact reference.
    pub accuracy: ErrorStats,
    /// Rounds the stream spans.
    pub rounds: u64,
    /// Rounds missing at the Tracker, never seen, or (served) too late.
    pub rounds_failed: u64,
    /// Reader queries issued (served only; the closed-loop watcher's
    /// queries are not operations of the workload).
    pub queries: u64,
    /// Reader acquisitions whose snapshot sequence went backwards.
    pub queries_failed: u64,
    /// Output problems: wrong document count, rounds the stream does not
    /// span.
    pub errors: Vec<String>,
    /// FNV-1a digest of the Tracker output.
    pub digest: u64,
    /// Rounds the Tracker closed.
    pub tracked_rounds: u64,
    /// The run's own report, without its per-round coefficient feed.
    pub report: RunReport,
}

/// Run one repetition of `workload` over a copy of `docs`.
pub fn rep(workload: Workload, docs: &[Document], reference: &Reference) -> Rep {
    let config = workload.config();
    let docs_sent = docs.len() as u64;
    let rounds = reference.rounds();
    let docs = docs.to_vec();
    let log: Shared<SourceLog> = Default::default();
    let stop = Arc::new(AtomicBool::new(false));

    let start = Instant::now();
    let seen = Arc::new(FirstSeen::new(start, rounds));
    let source = Source::new(
        docs,
        start,
        workload.rate(),
        config.report_period.millis(),
        log.clone(),
    );
    let live = spawn_served(&config, Box::new(source), workload.mode());
    let handle = live.query_handle();
    let readers: Vec<_> = if workload == Workload::Served {
        (0..SERVED_READERS as u64)
            .map(|id| {
                let (handle, seen, stop) = (handle.clone(), seen.clone(), stop.clone());
                std::thread::spawn(move || reader(id, handle, seen, stop))
            })
            .collect()
    } else {
        Vec::new()
    };
    let mut picker = Picker::new(rounds);
    let mut query_us = Vec::new();
    let mut next_round = 0u64;
    // with reader clients the main thread only waits for the run, so it
    // takes no CPU from the open-loop pipeline
    while readers.is_empty() && !live.is_finished() {
        if let Some(round) = handle.round().filter(|&r| r >= next_round) {
            next_round = seen.mark(next_round, round);
            let snap = handle.snapshot();
            for i in 0..WATCH_QUERIES {
                let kind = Query::ALL[i % Query::ALL.len()];
                query_us.push(queries::timed(&snap, kind, &mut picker));
            }
        }
        std::thread::sleep(WATCH_POLL);
    }
    let report = live.finish();
    let wall_s = start.elapsed().as_secs_f64();
    if let Some(round) = handle.round() {
        seen.mark(next_round, round);
    }
    stop.store(true, Ordering::SeqCst);
    let mut queries = 0;
    let mut queries_failed = 0;
    for r in readers {
        let r = r.join().expect("reader client panicked");
        queries += r.query_us.len() as u64;
        query_us.extend(r.query_us);
        queries_failed += r.backwards;
    }

    let log = std::mem::take(&mut *lock(&log));
    let mut errors = Vec::new();
    if report.documents != docs_sent || log.sent != docs_sent {
        errors.push(format!(
            "{} documents sent, source handed out {}, topology processed {}",
            docs_sent, log.sent, report.documents
        ));
    }
    let tracked: FxHashSet<u64> = report.tracked_rounds.iter().map(|(r, _)| *r).collect();
    if let Some((r, _)) = report.tracked_rounds.iter().find(|(r, _)| *r >= rounds) {
        errors.push(format!("round {r} beyond the stream's {rounds} rounds"));
    }
    let warmup = warmup_rounds(config.report_period.millis(), rounds);
    let mut freshness_ms = Vec::with_capacity(log.closes.len());
    let mut rounds_failed = 0;
    for &(round, due) in &log.closes {
        let fresh = seen
            .at(round)
            .map(|t| t.saturating_duration_since(due).as_secs_f64() * 1e3);
        if let Some(ms) = fresh.filter(|_| round >= warmup) {
            freshness_ms.push(ms);
        }
        let late = workload == Workload::Served && fresh.is_some_and(|ms| ms > FRESHNESS_LIMIT_MS);
        if !tracked.contains(&round) || fresh.is_none() || late {
            rounds_failed += 1;
        }
    }
    if log.closes.len() as u64 != rounds {
        errors.push(format!(
            "source closed {} rounds, the stream spans {rounds}",
            log.closes.len()
        ));
    }
    let accuracy = reference.accuracy(&report.tracked_rounds);
    let digest = digest(&report);
    let tracked_rounds = report.tracked_rounds.len() as u64;
    // the per-round feeds are checked; keeping them would only inflate
    // the benchmark's own memory
    let report = RunReport {
        tracked_rounds: Vec::new(),
        ..report
    };
    Rep {
        wall_s,
        freshness_ms,
        query_us,
        late_ms: log.late_ms,
        accuracy,
        rounds,
        rounds_failed,
        queries,
        queries_failed,
        errors,
        digest,
        tracked_rounds,
        report,
    }
}

/// Leading rounds of a `rounds`-round stream whose freshness is warm-up:
/// those closing within [`FRESHNESS_WARMUP_MS`] of event time, but never
/// more than half the rounds, so a short stream still has figures. Every
/// round, warm-up or not, still counts for the failure checks.
pub fn warmup_rounds(period_ms: u64, rounds: u64) -> u64 {
    (FRESHNESS_WARMUP_MS / period_ms.max(1)).min(rounds / 2)
}

/// FNV-1a offset basis: the digest of no output.
pub const DIGEST_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a digest of a run's Tracker output, in round order.
pub fn digest(report: &RunReport) -> u64 {
    let mut h = DIGEST_BASIS;
    for (round, coeffs) in &report.tracked_rounds {
        digest_round(&mut h, *round, coeffs);
    }
    h
}

/// Fold one round of Tracker output into the FNV-1a digest `h`: round,
/// then per coefficient its tags, Jaccard bits, counter and reporters.
pub fn digest_round(h: &mut u64, round: u64, coeffs: &[TrackedCoefficient]) {
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            *h ^= b as u64;
            *h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(round);
    for c in coeffs {
        for tag in c.tags.iter() {
            eat(tag.0 as u64);
        }
        eat(c.jaccard.to_bits());
        eat(c.counter);
        eat(c.reporters as u64);
    }
}
