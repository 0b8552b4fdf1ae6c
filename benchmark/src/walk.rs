//! The traced layer walk: one single-threaded pass over a workload's
//! documents that calls each layer's public functions in pipeline order
//! and lets each layer's outputs drive the next — window inserts, routing
//! (acting on the Disseminator's actions), partitioning, merging,
//! installing, live state handoff, Calculator observe/report, Tracker
//! finalize, snapshot build and the query mix.
//!
//! Documents move in batches of [`THREADED_BATCH`], the unit the threaded
//! runtime hands its operators. Each layer call over a batch is one span
//! with a call count, so per-call self times are measured where the work
//! happens without a clock read per tuple. Spans carry their parent (the
//! round span, or the repartition span for the control-plane steps) and
//! the round they belong to; they are kept in memory and written out when
//! the benchmark ends.
//!
//! Both backends run on every walk, fed the same notifications: the
//! workload's own backend drives the Tracker, the other is measured on the
//! same input so both layers report on every workload.

use crate::queries::{self, Picker, Query};
use crate::run;
use setcorr::approx::{ApproxCalculator, ApproxParams};
use setcorr::core::{
    disjoint_sets, partition_setcover, plan_handoff, Calculator, CoefficientReport,
    CorrelationBackend, Disseminator, DisseminatorAction, DisseminatorConfig, Merger,
    MigrationBundle, PartitionInput, PartitionSet, PartitionerOutput, RouteResult, SetCoverVariant,
    Tracker,
};
use setcorr::model::{fx, Document, FxHashSet, TagSet, TagSetStat, TagSetWindow};
use setcorr::serve::Snapshot;
use setcorr::topology::{ExperimentConfig, THREADED_BATCH};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

/// Repartitions whose windows also run the SCC/SCL/SCI ladder.
const LADDER_WINDOWS: usize = 2;

/// Queries of each kind run against every round's snapshot.
const QUERIES_PER_ROUND: usize = 64;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (1-based).
    pub id: u32,
    /// Enclosing span, 0 for a round span.
    pub parent: u32,
    /// Report round the span belongs to.
    pub round: u64,
    /// Layer call the span times.
    pub name: &'static str,
    /// Start, ns since the walk began.
    pub start_ns: u64,
    /// End, ns since the walk began.
    pub end_ns: u64,
    /// Layer calls the span covers.
    pub calls: u64,
}

/// An open span: its id and start (`None` when tracing is off).
#[derive(Clone, Copy)]
struct Open {
    id: u32,
    start: Option<Instant>,
}

/// In-memory span recorder; with tracing off it never reads the clock.
struct Tracer {
    on: bool,
    origin: Instant,
    next_id: u32,
    spans: Vec<Span>,
}

impl Tracer {
    fn begin(&mut self) -> Open {
        if !self.on {
            return Open { id: 0, start: None };
        }
        self.next_id += 1;
        Open {
            id: self.next_id,
            start: Some(Instant::now()),
        }
    }

    fn end(&mut self, open: Open, name: &'static str, parent: u32, round: u64, calls: u64) {
        let Some(start) = open.start else { return };
        let end = Instant::now();
        self.spans.push(Span {
            id: open.id,
            parent,
            round,
            name,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            end_ns: end.duration_since(self.origin).as_nanos() as u64,
            calls,
        });
    }
}

/// Work counts of a walk (they repeat exactly for the same input).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// Tagged documents (window inserts).
    pub tagsets: u64,
    /// Tagsets routed to at least one Calculator.
    pub routed: u64,
    /// Tagsets no Calculator received.
    pub unrouted: u64,
    /// Notifications delivered.
    pub notifications: u64,
    /// Subset counters the exact Calculators expand: `2^m − 1` per
    /// distinct notification set per Calculator per round.
    pub subset_updates: u64,
    /// Partition installs (bootstrap included).
    pub installs: u64,
    /// Installs that migrated live state.
    pub live_installs: u64,
    /// Units of state the workload's backend handed over.
    pub migrated_units: u64,
    /// Single Additions applied.
    pub single_additions: u64,
    /// Rounds closed.
    pub rounds: u64,
    /// FNV-1a digest of the Tracker output.
    pub digest: u64,
}

/// Outcome of one walk.
pub struct Walk {
    /// Wall time of the whole walk, s.
    pub wall_s: f64,
    /// Work counts.
    pub counts: Counts,
    /// Spans (empty when tracing was off).
    pub spans: Vec<Span>,
}

/// Per-name totals of the spans: `(self time ns, calls)`. A span's self
/// time is its duration minus the part its children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut totals: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let t = totals.entry(s.name).or_default();
        t.0 += own;
        t.1 += s.calls;
    }
    totals
}

/// Write spans as JSON lines to `path`.
pub fn write_spans(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"round\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"calls\":{}}}",
            s.id, s.parent, s.round, s.name, s.start_ns, s.end_ns, s.calls
        )?;
    }
    out.flush()
}

/// The layer state one walk drives.
struct Layers {
    config: ExperimentConfig,
    approx_primary: bool,
    windows: Vec<TagSetWindow>,
    dissem: Disseminator,
    merger: Merger,
    exact: Vec<Calculator>,
    approx: Vec<ApproxCalculator>,
    tracker: Tracker,
    partitions: Option<PartitionSet>,
    epoch: u64,
    ladder_left: usize,
    route: RouteResult,
    notifs: Vec<Vec<(u64, TagSet)>>,
    /// Distinct notification sets per Calculator this round.
    distinct: Vec<FxHashSet<TagSet>>,
    doc_seq: u64,
    snapshot_seq: u64,
    picker: Picker,
    counts: Counts,
    tracer: Tracer,
}

/// Walk `docs` through every layer with `config`'s shape; `approx_primary`
/// selects the backend whose reports reach the Tracker.
pub fn walk(
    docs: &[Document],
    config: &ExperimentConfig,
    approx_primary: bool,
    trace: bool,
) -> Walk {
    let k = config.k;
    let mut layers = Layers {
        config: config.clone(),
        approx_primary,
        windows: (0..config.partitioners)
            .map(|_| TagSetWindow::new(config.window))
            .collect(),
        dissem: Disseminator::new(
            k,
            DisseminatorConfig {
                sn: config.sn,
                z: config.z,
                thr: config.thr,
            },
        ),
        merger: Merger::new(config.algorithm, k),
        exact: (0..k).map(|_| Calculator::new()).collect(),
        approx: (0..k)
            .map(|_| ApproxCalculator::new(ApproxParams::default()))
            .collect(),
        tracker: Tracker::new(),
        partitions: None,
        epoch: 0,
        ladder_left: LADDER_WINDOWS,
        route: RouteResult::default(),
        notifs: vec![Vec::new(); k],
        distinct: vec![FxHashSet::default(); k],
        doc_seq: 0,
        snapshot_seq: 0,
        picker: Picker::new(docs.len() as u64),
        counts: Counts {
            digest: run::DIGEST_BASIS,
            ..Counts::default()
        },
        tracer: Tracer {
            on: trace,
            origin: Instant::now(),
            next_id: 0,
            spans: Vec::new(),
        },
    };
    let period = config.report_period.millis();
    let start = Instant::now();
    let mut round = 0u64;
    let mut round_span = layers.tracer.begin();
    let mut i = 0;
    while i < docs.len() {
        if docs[i].timestamp.millis() >= (round + 1) * period {
            layers.close_round(round, round_span.id);
            layers.tracer.end(round_span, "round", 0, round, 1);
            round += 1;
            round_span = layers.tracer.begin();
            continue;
        }
        let mut j = i;
        while j < docs.len()
            && j - i < THREADED_BATCH
            && docs[j].timestamp.millis() < (round + 1) * period
        {
            j += 1;
        }
        layers.batch(&docs[i..j], round, round_span.id);
        i = j;
    }
    layers.close_round(round, round_span.id);
    layers.tracer.end(round_span, "round", 0, round, 1);
    let wall_s = start.elapsed().as_secs_f64();
    Walk {
        wall_s,
        counts: layers.counts,
        spans: layers.tracer.spans,
    }
}

impl Layers {
    /// One batch of documents inside `round`.
    fn batch(&mut self, docs: &[Document], round: u64, parent: u32) {
        let tagged: Vec<&Document> = docs.iter().filter(|d| d.is_tagged()).collect();
        if tagged.is_empty() {
            return;
        }
        let n = tagged.len() as u64;
        let p = self.windows.len() as u64;

        let open = self.tracer.begin();
        for d in &tagged {
            // fields grouping on the whole tagset, as the Parser routes
            let w = (fx::hash_one(&d.tags) % p) as usize;
            self.windows[w].insert(d.tags.clone(), d.timestamp);
        }
        self.tracer
            .end(open, "model.window_insert", parent, round, n);
        self.counts.tagsets += n;

        if self.partitions.is_none() {
            if self.counts.tagsets < self.config.bootstrap_after {
                self.counts.unrouted += n;
                return;
            }
            self.repartition(round, parent);
        }

        let mut actions: Vec<DisseminatorAction> = Vec::new();
        let open = self.tracer.begin();
        for d in &tagged {
            let doc = self.doc_seq;
            self.doc_seq += 1;
            self.dissem.route_into(&d.tags, &mut self.route);
            if self.route.notifications.is_empty() {
                self.counts.unrouted += 1;
            } else {
                self.counts.routed += 1;
            }
            for (calc, subset) in self.route.notifications.drain(..) {
                self.notifs[calc].push((doc, subset));
            }
            actions.append(&mut self.route.actions);
        }
        self.tracer
            .end(open, "disseminator.route", parent, round, n);

        let delivered: u64 = self.notifs.iter().map(|v| v.len() as u64).sum();
        self.counts.notifications += delivered;
        for (distinct, notifs) in self.distinct.iter_mut().zip(&self.notifs) {
            distinct.extend(notifs.iter().map(|(_, ts)| ts.clone()));
        }
        let open = self.tracer.begin();
        for (calc, notifs) in self.exact.iter_mut().zip(&self.notifs) {
            for (_, ts) in notifs {
                calc.observe(ts);
            }
        }
        self.tracer
            .end(open, "calculator.observe", parent, round, delivered);
        let open = self.tracer.begin();
        for (calc, notifs) in self.approx.iter_mut().zip(&self.notifs) {
            for (doc, ts) in notifs {
                calc.observe_doc(*doc, ts);
            }
        }
        self.tracer
            .end(open, "approx.observe", parent, round, delivered);
        self.notifs.iter_mut().for_each(Vec::clear);

        let mut repartition = false;
        let open = self.tracer.begin();
        let mut additions = 0;
        for action in actions {
            match action {
                DisseminatorAction::RequestSingleAddition(ts) => {
                    if let Some(calc) = self.merger.single_addition(&ts, self.config.sn as u64) {
                        self.dissem.apply_single_addition(&ts, calc);
                        additions += 1;
                    }
                }
                DisseminatorAction::RequestRepartition(_) => repartition = true,
            }
        }
        if additions > 0 {
            self.tracer
                .end(open, "merger.single_addition", parent, round, additions);
            self.counts.single_additions += additions;
        }
        if repartition {
            self.repartition(round, parent);
        }
    }

    /// A repartition: every Partitioner's window in, merged partitions
    /// installed, live state handed to the new owners.
    fn repartition(&mut self, round: u64, parent: u32) {
        let span = self.tracer.begin();
        let p = self.windows.len() as u64;
        let k = self.config.k;

        let open = self.tracer.begin();
        let inputs: Vec<PartitionInput> = self
            .windows
            .iter()
            .map(PartitionInput::from_window)
            .collect();
        self.tracer.end(open, "partition.input", span.id, round, p);

        let open = self.tracer.begin();
        let outputs: Vec<PartitionerOutput> = inputs
            .iter()
            .map(|input| PartitionerOutput::DisjointSets(disjoint_sets(input)))
            .collect();
        self.tracer.end(open, "partition.ds", span.id, round, p);

        if self.ladder_left > 0 {
            self.ladder_left -= 1;
            for (name, variant) in [
                ("partition.scc", SetCoverVariant::Communication),
                ("partition.scl", SetCoverVariant::Load),
                ("partition.sci", SetCoverVariant::Independent),
            ] {
                let open = self.tracer.begin();
                for input in &inputs {
                    std::hint::black_box(partition_setcover(
                        input,
                        k,
                        variant,
                        self.config.seed ^ self.epoch,
                    ));
                }
                self.tracer.end(open, name, span.id, round, p);
            }
        }

        let open = self.tracer.begin();
        let stats: Vec<TagSetStat> = inputs
            .iter()
            .flat_map(|i| i.stats.iter().cloned())
            .collect();
        let window = PartitionInput::from_stats(stats);
        let outcome = self.merger.merge(outputs, &window);
        self.tracer.end(open, "merger.merge", span.id, round, 1);

        let open = self.tracer.begin();
        self.dissem
            .install_partitions(&outcome.partitions, outcome.reference);
        self.tracer
            .end(open, "disseminator.install", span.id, round, 1);
        self.counts.installs += 1;
        self.epoch += 1;

        if let Some(old) = self.partitions.take() {
            let new = &outcome.partitions;
            let (exact_name, approx_name) = if self.approx_primary {
                ("shadow.handoff", "migration.handoff")
            } else {
                ("migration.handoff", "shadow.handoff")
            };
            let open = self.tracer.begin();
            let exact_units = handoff_exact(&mut self.exact, &old, new);
            self.tracer.end(open, exact_name, span.id, round, 1);
            let open = self.tracer.begin();
            let approx_units = handoff_backend(&mut self.approx, &old, new);
            self.tracer.end(open, approx_name, span.id, round, 1);
            self.counts.live_installs += 1;
            self.counts.migrated_units += if self.approx_primary {
                approx_units
            } else {
                exact_units
            };
        }
        self.partitions = Some(outcome.partitions);
        self.tracer.end(span, "repartition", parent, round, 1);
    }

    /// Close `round`: Calculator reports, Tracker finalize, snapshot build
    /// and the query mix against it.
    fn close_round(&mut self, round: u64, parent: u32) {
        let k = self.exact.len() as u64;
        for distinct in &mut self.distinct {
            self.counts.subset_updates += distinct
                .drain()
                .map(|ts| (1u64 << ts.len()) - 1)
                .sum::<u64>();
        }
        let open = self.tracer.begin();
        let exact: Vec<Vec<CoefficientReport>> = self
            .exact
            .iter_mut()
            .map(Calculator::report_and_reset)
            .collect();
        self.tracer.end(open, "calculator.report", parent, round, k);
        let open = self.tracer.begin();
        let approx: Vec<Vec<CoefficientReport>> = self
            .approx
            .iter_mut()
            .map(CorrelationBackend::report_and_reset)
            .collect();
        self.tracer.end(open, "approx.report", parent, round, k);
        let reports = if self.approx_primary { approx } else { exact };

        let open = self.tracer.begin();
        for report in reports.iter().flatten() {
            self.tracker.observe(round, report);
        }
        let mut out = Vec::new();
        self.tracker.finish_round_into(round, &mut out);
        self.tracer.end(open, "tracker.finalize", parent, round, 1);
        self.counts.rounds += 1;
        run::digest_round(&mut self.counts.digest, round, &out);

        self.snapshot_seq += 1;
        let open = self.tracer.begin();
        let snap = Snapshot::build(round, self.snapshot_seq, Arc::new(out));
        self.tracer
            .end(open, "serve.snapshot_build", parent, round, 1);

        for (kind, name) in
            Query::ALL
                .into_iter()
                .zip(["serve.topk", "serve.neighbors", "serve.point"])
        {
            let open = self.tracer.begin();
            for _ in 0..QUERIES_PER_ROUND {
                // the per-query clock read stays inside `timed`; the span
                // covers the batch
                queries::timed(&snap, kind, &mut self.picker);
            }
            self.tracer
                .end(open, name, parent, round, QUERIES_PER_ROUND as u64);
        }
    }
}

/// Live handoff between exact Calculators: export counters, plan, drop
/// what each no longer covers, absorb what arrives. Returns units moved.
fn handoff_exact(calcs: &mut [Calculator], old: &PartitionSet, new: &PartitionSet) -> u64 {
    let mut inbound: Vec<Vec<MigrationBundle>> = vec![Vec::new(); calcs.len()];
    for (me, calc) in calcs.iter().enumerate() {
        let state = MigrationBundle {
            counters: calc.export_counters(),
            ..MigrationBundle::default()
        };
        for (target, bundle) in plan_handoff(me, old, new, &state) {
            inbound[target].push(bundle);
        }
    }
    for (me, calc) in calcs.iter_mut().enumerate() {
        calc.retain_covered(&new.parts[me].tags);
    }
    let mut units = 0;
    for (calc, bundles) in calcs.iter_mut().zip(&inbound) {
        for bundle in bundles {
            units += bundle.units();
            calc.absorb_counters(&bundle.counters);
        }
    }
    units
}

/// Live handoff through the generic backend hooks (the approximate
/// backend's signatures and pair counts). Returns units moved.
fn handoff_backend<B: CorrelationBackend>(
    calcs: &mut [B],
    old: &PartitionSet,
    new: &PartitionSet,
) -> u64 {
    let mut inbound: Vec<Vec<MigrationBundle>> = vec![Vec::new(); calcs.len()];
    for (me, calc) in calcs.iter().enumerate() {
        for (target, bundle) in plan_handoff(me, old, new, &calc.export_state()) {
            inbound[target].push(bundle);
        }
    }
    for (me, calc) in calcs.iter_mut().enumerate() {
        calc.retain_tags(&new.parts[me].tags);
    }
    let mut units = 0;
    for (calc, bundles) in calcs.iter_mut().zip(&inbound) {
        for bundle in bundles {
            units += bundle.units();
            calc.adopt_state(bundle);
        }
    }
    units
}
