//! Parallel experiment execution.

use crate::opts::Scale;
use linkpad_adversary::feature::Feature;
use linkpad_adversary::pipeline::{DetectionReport, DetectionStudy};
use linkpad_sim::parallel::parallel_map_init;
use linkpad_stats::rng::MasterSeed;
use linkpad_workloads::scenario::{BuiltScenario, ScenarioBuilder, ScenarioError, TapPosition};

/// Sample budgets per class for a detection experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Training samples per class.
    pub train: usize,
    /// Test samples per class.
    pub test: usize,
}

impl Budget {
    /// Budget selected by the `LINKPAD_SCALE` environment variable:
    /// `quick` → 60/40, `paper` (the default when unset) → 150/100.
    /// Unrecognized values warn on stderr and fall back to `paper`.
    pub fn from_env() -> Self {
        Self::for_scale(Scale::from_env())
    }

    /// The budget of an already parsed scale ([`Scale::parse`]).
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Quick => Budget {
                train: 60,
                test: 40,
            },
            Scale::Paper => Budget {
                train: 150,
                test: 100,
            },
        }
    }

    /// Total samples per class.
    pub fn samples(&self) -> usize {
        self.train + self.test
    }

    /// As a [`DetectionStudy`] at sample size `n`.
    pub fn study(&self, n: usize) -> DetectionStudy {
        DetectionStudy {
            sample_size: n,
            train_samples: self.train,
            test_samples: self.test,
        }
    }
}

/// A parallel collection failure, carrying enough context to reproduce
/// the failing replication: the scenario family, the exact replication
/// seed, and the task index within the collection.
#[derive(Debug)]
pub struct CollectionError {
    /// Scenario family label of the failing builder ("lab", …).
    pub label: &'static str,
    /// The replication seed the worker ran under.
    pub seed: u64,
    /// Task index within the collection (0-based).
    pub task: u64,
    /// The underlying scenario failure.
    pub source: ScenarioError,
}

impl std::fmt::Display for CollectionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "collecting {:?} task {} (seed {:#018x}): {}",
            self.label, self.task, self.seed, self.source
        )
    }
}

impl std::error::Error for CollectionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Collect `total` PIATs for one scenario class, fanning replications out
/// over worker threads. Each replication's length is a multiple of
/// `sample_multiple` so that downstream sample slicing never straddles a
/// replication boundary.
///
/// Per-replication seeds are children of the builder's *configured* seed
/// ([`ScenarioBuilder::seed`]), so collections are stable under refactors
/// of the builder's incidental state. Each worker thread builds the
/// topology once and [`BuiltScenario::reset`]s it per replication — the
/// scenario-reset fast path — which is bit-identical to rebuilding (see
/// `tests/reset_determinism.rs`). Scenario failures are propagated, not
/// panicked, with the failing replication identified.
pub fn collect_piats_parallel(
    builder: &ScenarioBuilder,
    at: TapPosition,
    total: usize,
    sample_multiple: usize,
) -> Result<Vec<f64>, CollectionError> {
    let sample_multiple = sample_multiple.max(1);
    // Target ~100k PIATs per task: large enough to amortize warmup,
    // small enough to parallelize sweeps on a few cores.
    let chunk = (100_000 / sample_multiple).max(1) * sample_multiple;
    let tasks: Vec<(u64, usize)> = {
        let mut tasks = Vec::new();
        let mut remaining = total;
        let mut k = 0u64;
        while remaining > 0 {
            let this = remaining.min(chunk);
            // Round up to a multiple so every task is feature-aligned.
            let this = this.div_ceil(sample_multiple) * sample_multiple;
            tasks.push((k, this));
            remaining = remaining.saturating_sub(this);
            k += 1;
        }
        tasks
    };
    let base_seed = MasterSeed::new(builder.seed());
    let results = parallel_map_init(
        tasks,
        || None::<BuiltScenario>,
        |scenario, (k, count)| -> Result<Vec<f64>, CollectionError> {
            let seed = base_seed.child(k).value();
            let run = |scenario: &mut Option<BuiltScenario>| -> Result<Vec<f64>, ScenarioError> {
                match scenario {
                    // Reuse the worker's topology; reset is bit-identical
                    // to a fresh build at this seed.
                    Some(s) => s.collect_piats_reseeded(seed, at, count, 64),
                    None => {
                        let s = scenario.insert(builder.clone().with_seed(seed).build()?);
                        s.collect_piats(at, count, 64)
                    }
                }
            };
            run(scenario).map_err(|source| CollectionError {
                label: builder.label(),
                seed,
                task: k,
                source,
            })
        },
    );
    let mut out = Vec::with_capacity(total + chunk);
    for r in results {
        out.extend_from_slice(&r?);
    }
    out.truncate(total.div_ceil(sample_multiple) * sample_multiple);
    Ok(out)
}

/// Run one full detection experiment: low-rate and high-rate scenario
/// classes, a feature, a sample size, a budget.
pub fn detection_for(
    low: &ScenarioBuilder,
    high: &ScenarioBuilder,
    at: TapPosition,
    feature: &dyn Feature,
    n: usize,
    budget: Budget,
) -> Result<DetectionReport, CollectionError> {
    Ok(detection_multi(low, high, at, &[feature], n, budget)?
        .pop()
        .expect("one feature in, one report out"))
}

/// Run several features against the *same* captured PIAT streams —
/// collection dominates the cost, so sweeps that report multiple
/// features should always go through this.
pub fn detection_multi(
    low: &ScenarioBuilder,
    high: &ScenarioBuilder,
    at: TapPosition,
    features: &[&dyn Feature],
    n: usize,
    budget: Budget,
) -> Result<Vec<DetectionReport>, CollectionError> {
    let study = budget.study(n);
    let needed = study.piats_needed();
    let piats_low = collect_piats_parallel(low, at, needed, n)?;
    let piats_high = collect_piats_parallel(high, at, needed, n)?;
    let streams = [piats_low, piats_high];
    Ok(features
        .iter()
        .map(|f| study.run(*f, &streams).expect("detection study failed"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkpad_adversary::feature::SampleVariance;

    #[test]
    fn scale_selection_handles_quick_paper_and_garbage() {
        let from_scale = |s| Budget::for_scale(Scale::parse(s));
        let quick = from_scale(Some("quick"));
        assert_eq!((quick.train, quick.test), (60, 40));
        let paper = from_scale(Some("paper"));
        assert_eq!((paper.train, paper.test), (150, 100));
        let unset = from_scale(None);
        assert_eq!(unset, paper);
        // Surrounding whitespace (shell wrappers, CI YAML) is trimmed,
        // not treated as garbage.
        for padded in ["paper ", " paper", "\tpaper\n"] {
            assert_eq!(from_scale(Some(padded)), paper, "{padded:?}");
        }
        for padded in ["quick ", " quick "] {
            assert_eq!(from_scale(Some(padded)), quick, "{padded:?}");
        }
        // Genuinely unknown values warn (stderr) but never change the
        // budget; whitespace-only is unknown, not "paper".
        for garbage in ["QUICK", "Quick", "fast", "", "   ", "pa per"] {
            assert_eq!(from_scale(Some(garbage)), paper, "{garbage:?}");
        }
    }

    #[test]
    fn budget_study_accounting() {
        let b = Budget {
            train: 150,
            test: 100,
        };
        assert_eq!(b.samples(), 250);
        let study = b.study(500);
        assert_eq!(study.piats_needed(), 250 * 500);
    }

    #[test]
    fn collect_parallel_is_aligned_and_complete() {
        let b = ScenarioBuilder::lab(5).with_payload_rate(10.0);
        let piats = collect_piats_parallel(&b, TapPosition::SenderEgress, 25_000, 400).unwrap();
        assert!(piats.len() >= 25_000);
        assert_eq!(piats.len() % 400, 0);
        assert!(piats.iter().all(|&x| x > 0.005 && x < 0.015));
    }

    #[test]
    fn collect_parallel_derives_seeds_from_the_configured_seed() {
        // Same configuration, different seeds → different streams; the
        // master seed is the builder's own, not a hash of its Debug repr.
        let base = |seed| ScenarioBuilder::lab(seed).with_payload_rate(10.0);
        let a = collect_piats_parallel(&base(5), TapPosition::SenderEgress, 2_000, 1).unwrap();
        let b = collect_piats_parallel(&base(5), TapPosition::SenderEgress, 2_000, 1).unwrap();
        let c = collect_piats_parallel(&base(6), TapPosition::SenderEgress, 2_000, 1).unwrap();
        assert_eq!(a, b, "collections are reproducible");
        assert_ne!(a, c, "the configured seed drives the replication seeds");
        assert_eq!(base(7).seed(), 7);
    }

    #[test]
    fn collect_parallel_propagates_scenario_errors_with_context() {
        // Invalid payload rate: every task fails at build; the error must
        // identify the scenario and replication instead of panicking.
        let b = ScenarioBuilder::lab(8).with_payload_rate(-1.0);
        let err = collect_piats_parallel(&b, TapPosition::SenderEgress, 1_000, 1)
            .expect_err("invalid builder must fail");
        assert_eq!(err.label, "lab");
        assert_eq!(err.task, 0);
        let msg = err.to_string();
        assert!(msg.contains("lab") && msg.contains("task 0"), "{msg}");
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn detection_for_runs_end_to_end_small() {
        let low = ScenarioBuilder::lab(1).with_payload_rate(10.0);
        let high = ScenarioBuilder::lab(2).with_payload_rate(40.0);
        let report = detection_for(
            &low,
            &high,
            TapPosition::SenderEgress,
            &SampleVariance,
            400,
            Budget {
                train: 20,
                test: 12,
            },
        )
        .unwrap();
        assert_eq!(report.total, 24);
        let v = report.detection_rate();
        assert!((0.4..=1.0).contains(&v), "v = {v}");
    }
}
