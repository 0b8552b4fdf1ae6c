//! Exact reference for the accuracy metrics, computed by the benchmark
//! outside every timed region.
//!
//! It is the centralized exact counting the topology's in-line baseline
//! performs (one exact Calculator seeing every tagset, closed once per
//! report round), evaluated with the same eligibility rules
//! ([`BASELINE_MIN_SIGHTINGS`], [`WARMUP_ROUNDS`]). Running it here
//! instead of inside the topology keeps it off the measured run: with the
//! baseline bolt on, a threaded run spends several times longer.

use setcorr::core::{CoefficientReport, TrackedCoefficient};
use setcorr::metrics::ErrorStats;
use setcorr::model::{Document, FxHashMap, Tag, TagSet, TimeDelta};
use setcorr::topology::{BASELINE_MIN_SIGHTINGS, WARMUP_ROUNDS};

/// Per-round exact coefficients of one stream.
pub struct Reference {
    /// Exact coefficients of every eligible tagset per round, sorted by
    /// tagset, every round `0..=last` inserted in ascending order (the
    /// baseline's insertion order, so iteration — and therefore the
    /// floating-point summation order of the error — matches it).
    rounds: FxHashMap<u64, Vec<CoefficientReport>>,
}

impl Reference {
    /// Exact per-round coefficients of `docs` cut into rounds of `period`
    /// event time, as the Parser cuts them.
    ///
    /// Only tagsets the comparison can use (eligible: at least two tags,
    /// seen more than [`BASELINE_MIN_SIGHTINGS`] times in the stream) get a
    /// coefficient, computed from per-tag postings of the round's distinct
    /// tagsets instead of counting every subset of every tagset.
    pub fn compute(docs: &[Document], period: TimeDelta) -> Self {
        let mut occurrences: FxHashMap<TagSet, u64> = FxHashMap::default();
        for doc in docs.iter().filter(|d| d.tags.len() >= 2) {
            *occurrences.entry(doc.tags.clone()).or_insert(0) += 1;
        }
        let eligible = |tags: &TagSet| {
            occurrences
                .get(tags)
                .is_some_and(|&n| n > BASELINE_MIN_SIGHTINGS)
        };
        // round boundaries, as the Parser cuts them
        let mut bounds = Vec::new();
        let mut from = 0;
        loop {
            let end = (bounds.len() as u64 + 1) * period.millis();
            let to = from + docs[from..].partition_point(|d| d.timestamp.millis() < end);
            bounds.push((from, to));
            if to == docs.len() {
                break;
            }
            from = to;
        }
        // rounds are independent: the two halves compute in parallel
        let half = bounds.len().div_ceil(2);
        let compute = |part: &[(usize, usize)]| -> Vec<Vec<CoefficientReport>> {
            part.iter()
                .map(|&(from, to)| round_coefficients(&docs[from..to], &eligible))
                .collect()
        };
        let (first, second) = std::thread::scope(|scope| {
            let second = scope.spawn(|| compute(&bounds[half..]));
            let first = compute(&bounds[..half]);
            (first, second.join().expect("reference thread panicked"))
        });
        let mut rounds: FxHashMap<u64, Vec<CoefficientReport>> = FxHashMap::default();
        for (round, reports) in first.into_iter().chain(second).enumerate() {
            rounds.insert(round as u64, reports);
        }
        Reference { rounds }
    }

    /// Rounds the stream spans (`0..rounds()`); every one must reach the
    /// Tracker.
    pub fn rounds(&self) -> u64 {
        self.rounds.len() as u64
    }

    /// Coverage and mean absolute error of a run's Tracker output against
    /// this reference — the same comparison `RunReport` makes when the
    /// in-line baseline is on.
    pub fn accuracy(&self, tracked: &[(u64, Vec<TrackedCoefficient>)]) -> ErrorStats {
        let tracked: FxHashMap<u64, &Vec<TrackedCoefficient>> =
            tracked.iter().map(|(r, c)| (*r, c)).collect();
        let mut stats = ErrorStats::new();
        let mut covered: FxHashMap<&TagSet, bool> = FxHashMap::default();
        for (round, exact) in &self.rounds {
            if *round < WARMUP_ROUNDS {
                continue;
            }
            let got: FxHashMap<&TagSet, f64> = tracked
                .get(round)
                .map(|coeffs| coeffs.iter().map(|c| (&c.tags, c.jaccard)).collect())
                .unwrap_or_default();
            for report in exact {
                let est = got.get(&report.tags).copied();
                *covered.entry(&report.tags).or_insert(false) |= est.is_some();
                if let Some(est) = est {
                    stats.observe_error_only(est, report.jaccard);
                }
            }
        }
        for (_, was_covered) in covered {
            stats.observe_coverage(was_covered);
        }
        stats
    }
}

/// Exact coefficients of the eligible tagsets of one round: for tagset
/// `T`, the documents carrying all of `T` over those carrying any tag of
/// `T` (the exact Calculator's intersection over inclusion–exclusion
/// union), with `T`'s own occurrence count as the counter.
fn round_coefficients(
    docs: &[Document],
    eligible: &(dyn Fn(&TagSet) -> bool + Sync),
) -> Vec<CoefficientReport> {
    let mut distinct: FxHashMap<&TagSet, u64> = FxHashMap::default();
    for doc in docs.iter().filter(|d| d.is_tagged()) {
        *distinct.entry(&doc.tags).or_insert(0) += 1;
    }
    let sets: Vec<(&TagSet, u64)> = distinct.into_iter().collect();
    let mut postings: FxHashMap<Tag, Vec<u32>> = FxHashMap::default();
    for (i, (tags, _)) in sets.iter().enumerate() {
        for tag in tags.iter() {
            postings.entry(tag).or_default().push(i as u32);
        }
    }
    // `seen[i] == q` marks set `i` as counted for query `q`
    let mut seen = vec![usize::MAX; sets.len()];
    let mut out = Vec::new();
    for (q, &(tags, n)) in sets.iter().enumerate() {
        if tags.len() < 2 || !eligible(tags) {
            continue;
        }
        let (mut inter, mut union) = (0u64, 0u64);
        for tag in tags.iter() {
            for &i in &postings[&tag] {
                let i = i as usize;
                if seen[i] != q {
                    seen[i] = q;
                    let (other, m) = sets[i];
                    union += m;
                    if tags.is_subset_of(other) {
                        inter += m;
                    }
                }
            }
        }
        out.push(CoefficientReport {
            tags: tags.clone(),
            jaccard: inter as f64 / union.max(inter) as f64,
            counter: n,
        });
    }
    out.sort_unstable_by(|a, b| a.tags.cmp(&b.tags));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use setcorr::model::WindowKind;
    use setcorr::topology::{run_docs, ExperimentConfig, RunMode};
    use setcorr::workload::{Generator, WorkloadConfig};

    /// On a sim run with the in-line baseline on, the reference reproduces
    /// the run's own coverage and error figures exactly.
    #[test]
    fn reproduces_the_inline_baseline_exactly() {
        let mut workload = WorkloadConfig::with_seed(7);
        workload.tps = 1300;
        let docs: Vec<Document> = Generator::new(workload).take(40_000).collect();
        let config = ExperimentConfig {
            k: 5,
            partitioners: 3,
            bootstrap_after: 2_000,
            report_period: TimeDelta::from_secs(5),
            window: WindowKind::Time(TimeDelta::from_secs(20)),
            ..ExperimentConfig::default()
        }
        .with_baseline(true);
        let reference = Reference::compute(&docs, config.report_period);
        let report = run_docs(&config, docs, RunMode::Sim);
        assert!(report.compared_tagsets > 100, "a meaningful comparison");
        let stats = reference.accuracy(&report.tracked_rounds);
        assert_eq!(stats.baseline_tagsets(), report.compared_tagsets);
        assert_eq!(stats.coverage(), report.coverage);
        assert_eq!(stats.mean_abs_error(), report.mean_abs_error);
        assert_eq!(reference.rounds(), report.tracked_rounds.len() as u64);
    }
}
