//! `detection_sweep`: the paper's single-flow adversary, end to end.
//!
//! Five detection points at the paper budget (150 training and 100 test
//! samples per class) with the three paper features: CIT in the lab at
//! n = 100, 400 and 1000 (Fig. 4), VIT at σ_T = 100 µs and n = 2000
//! (Fig. 5), and a 15-hop WAN at 30 % utilisation tapped at the
//! receiver with n = 1000 (Fig. 8). Each point collects both classes'
//! PIATs through the runner's parallel collector and runs the
//! KDE-Bayes study per feature, exactly as
//! `linkpad_bench::runner::detection_multi` composes those calls; the
//! benchmark makes the calls itself so it can fingerprint the PIAT
//! streams.
//!
//! The traced iteration adds a probe after the timed part: a
//! single-threaded replay of each class's first runner task with the
//! engine profile and the sampled attribution switched on, and the
//! study's three adversary steps timed one by one.

use crate::digest::Digest;
use crate::layers::{ratio, AttrTotals, EngineTotals};
use crate::spans::Spans;
use crate::{Iteration, Workload};
use linkpad_adversary::classifier::KdeBayes;
use linkpad_adversary::feature::{Feature, SampleEntropy, SampleMean, SampleVariance};
use linkpad_adversary::pipeline::{evaluate, features_from_piats_counted, DetectionReport};
use linkpad_analytic::theorems;
use linkpad_bench::runner::{collect_piats_parallel, Budget};
use linkpad_core::calibration::CalibratedDefaults;
use linkpad_sim::AttributionSampler;
use linkpad_stats::rng::{splitmix64_mix, MasterSeed};
use linkpad_workloads::scenario::{ScenarioBuilder, TapPosition};
use linkpad_workloads::spec::ScheduleSpec;
use std::time::Instant;

/// Paper budget per class.
const BUDGET: Budget = Budget {
    train: 150,
    test: 100,
};

/// PIATs the runner discards at the start of every task.
const RUNNER_WARMUP: usize = 64;

/// PIATs a runner task targets (the runner's documented task size).
const RUNNER_TASK_PIATS: usize = 100_000;

/// Set-up repetitions per run; the median is reported.
const SETUP_REPS: usize = 51;

/// PIATs per class the set-up counts events over, to convert the
/// sweep's PIAT count into a simulated-event count.
const CALIBRATION_PIATS: usize = 10_000;

/// Sample every n-th dispatch in the attribution probe.
const ATTR_EVERY: u64 = 16;

/// One detection point: two scenario classes, a tap, a sample size.
struct Point {
    label: &'static str,
    classes: [ScenarioBuilder; 2],
    at: TapPosition,
    n: usize,
    /// σ_T for the Theorem 1–3 prediction; `None` where the theorems do
    /// not model the path (the WAN).
    theory_sigma_t: Option<f64>,
}

/// The workload.
pub struct DetectionSweep {
    points: Vec<Point>,
    features: Vec<Box<dyn Feature>>,
    /// Simulated events per captured PIAT, per point and class, counted
    /// during set-up.
    events_per_piat: Vec<[f64; 2]>,
}

impl DetectionSweep {
    /// The sweep for workload seed `seed`.
    pub fn new(seed: u64) -> Self {
        let class_seed = |point: u64, class: u64| {
            splitmix64_mix(seed ^ (point * 2 + class + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        };
        let lab = |point: u64, schedule: ScheduleSpec| {
            [10.0, 40.0]
                .iter()
                .enumerate()
                .map(|(c, &rate)| {
                    ScenarioBuilder::lab(class_seed(point, c as u64))
                        .with_payload_rate(rate)
                        .with_schedule(schedule)
                })
                .collect::<Vec<_>>()
                .try_into()
                .expect("two classes")
        };
        let wan = |point: u64| {
            [10.0, 40.0]
                .iter()
                .enumerate()
                .map(|(c, &rate)| {
                    ScenarioBuilder::wan(class_seed(point, c as u64), 0.30).with_payload_rate(rate)
                })
                .collect::<Vec<_>>()
                .try_into()
                .expect("two classes")
        };
        let vit = ScheduleSpec::VitTruncatedNormal { sigma_t: 100e-6 };
        let cit = |point, n| Point {
            label: "cit",
            classes: lab(point, ScheduleSpec::Cit),
            at: TapPosition::SenderEgress,
            n,
            theory_sigma_t: Some(0.0),
        };
        let points = vec![
            cit(0, 100),
            cit(1, 400),
            cit(2, 1000),
            Point {
                label: "vit",
                classes: lab(3, vit),
                at: TapPosition::SenderEgress,
                n: 2000,
                theory_sigma_t: Some(100e-6),
            },
            Point {
                label: "wan",
                classes: wan(4),
                at: TapPosition::ReceiverIngress,
                n: 1000,
                theory_sigma_t: None,
            },
        ];
        Self {
            points,
            features: vec![
                Box::new(SampleMean),
                Box::new(SampleVariance),
                Box::new(SampleEntropy::calibrated()),
            ],
            events_per_piat: Vec::new(),
        }
    }
}

/// The seed and PIAT count of the runner's first task for a class
/// collection of `needed` PIATs at sample size `n`.
fn first_task(builder: &ScenarioBuilder, needed: usize, n: usize) -> (u64, usize) {
    let chunk = (RUNNER_TASK_PIATS / n).max(1) * n;
    let count = needed.min(chunk).div_ceil(n) * n;
    (MasterSeed::new(builder.seed()).child(0).value(), count)
}

impl Workload for DetectionSweep {
    /// Build every class's first-task topology and run the runner's
    /// warm-up on it; the first repetition also counts events per PIAT.
    fn setup_samples(&mut self) -> Result<Vec<f64>, String> {
        let mut samples = Vec::with_capacity(SETUP_REPS);
        for rep in 0..SETUP_REPS {
            let mut secs = 0.0;
            for (p, point) in self.points.iter().enumerate() {
                let needed = BUDGET.study(point.n).piats_needed();
                for (c, class) in point.classes.iter().enumerate() {
                    let (seed, _) = first_task(class, needed, point.n);
                    let t = Instant::now();
                    let mut s = class
                        .clone()
                        .with_seed(seed)
                        .build()
                        .map_err(|e| e.to_string())?;
                    s.collect_piats(point.at, 1, RUNNER_WARMUP)
                        .map_err(|e| e.to_string())?;
                    secs += t.elapsed().as_secs_f64();
                    if rep == 0 {
                        let tap = s.tap(point.at).clone();
                        let (events0, taps0) = (s.sim.events_processed(), tap.count());
                        s.collect_piats(point.at, CALIBRATION_PIATS, 0)
                            .map_err(|e| e.to_string())?;
                        let per_piat = (s.sim.events_processed() - events0) as f64
                            / (tap.count() - taps0) as f64;
                        if c == 0 {
                            self.events_per_piat.push([per_piat, 0.0]);
                        } else {
                            self.events_per_piat[p][1] = per_piat;
                        }
                    }
                }
            }
            samples.push(secs);
        }
        Ok(samples)
    }

    fn iterate(&mut self, spans: &mut Spans) -> Result<Iteration, String> {
        let start = Instant::now();
        let mut digest = Digest::new();
        let mut piats = 0usize;
        let mut events = 0.0;
        let mut results: Vec<(Vec<DetectionReport>, [Vec<f64>; 2])> = Vec::new();
        let sweep_mark = spans.spans().len();
        spans.time("sweep", |sp| -> Result<(), String> {
            for (p, point) in self.points.iter().enumerate() {
                let study = BUDGET.study(point.n);
                let needed = study.piats_needed();
                let mut streams: [Vec<f64>; 2] = Default::default();
                for (c, class) in point.classes.iter().enumerate() {
                    streams[c] = sp
                        .time("runner.collect", |_| {
                            collect_piats_parallel(class, point.at, needed, point.n)
                        })
                        .map_err(|e| e.to_string())?;
                    piats += streams[c].len();
                    if let Some(rates) = self.events_per_piat.get(p) {
                        events += rates[c] * streams[c].len() as f64;
                    }
                }
                let reports = sp
                    .time("adversary.study", |_| {
                        self.features
                            .iter()
                            .map(|f| study.run(f.as_ref(), &streams))
                            .collect::<Result<Vec<_>, _>>()
                    })
                    .map_err(|e| format!("{} n={}: {e}", point.label, point.n))?;
                results.push((reports, streams));
            }
            Ok(())
        })?;
        let wall_s = start.elapsed().as_secs_f64();
        for (reports, streams) in &results {
            for s in streams {
                digest.f64s(s);
            }
            for r in reports {
                digest.report(r);
            }
        }
        let mut it = Iteration {
            digest: digest.finish(),
            wall_s,
            rate_s: wall_s,
            events,
            piats: piats as f64,
            ..Iteration::default()
        };
        self.check(&results, &mut it.failures);
        if spans.is_enabled() {
            self.collect_layers(&results, spans, sweep_mark, &mut it)?;
        }
        Ok(it)
    }
}

impl DetectionSweep {
    /// Output checks that hold for any seed.
    ///
    /// * CIT hides the mean: the mean-feature rate pooled over the three
    ///   CIT points (600 test decisions) lies in [0.4, 0.6]. At a true
    ///   rate of 0.5 that band is ±4.9 binomial standard deviations, a
    ///   false alarm about once in a million seeds.
    /// * CIT leaks through the variance and the entropy: both rates are
    ///   at least 0.9 at n = 1000 (theory: ≥ 0.99 at the calibrated r).
    fn check(&self, results: &[(Vec<DetectionReport>, [Vec<f64>; 2])], failures: &mut Vec<String>) {
        let (mut correct, mut total) = (0u64, 0u64);
        for (point, (reports, _)) in self.points.iter().zip(results) {
            if point.label != "cit" {
                continue;
            }
            correct += reports[0].correct;
            total += reports[0].total;
            if point.n == 1000 {
                for (name, r) in [("variance", &reports[1]), ("entropy", &reports[2])] {
                    let rate = r.detection_rate();
                    if rate < 0.9 {
                        failures.push(format!("CIT {name} rate {rate:.3} < 0.9 at n = 1000"));
                    }
                }
            }
        }
        let mean_rate = ratio(correct as f64, total as f64);
        if !(0.4..=0.6).contains(&mean_rate) {
            failures.push(format!(
                "CIT pooled mean-feature rate {mean_rate:.3} outside [0.4, 0.6]"
            ));
        }
    }

    /// Mean |empirical − Theorem 1–3| detection rate over the CIT and
    /// VIT points, r from the calibrated defaults.
    fn theory_gap(&self, results: &[(Vec<DetectionReport>, [Vec<f64>; 2])]) -> Result<f64, String> {
        let defaults = CalibratedDefaults::paper();
        let mut gaps = Vec::new();
        for (point, (reports, _)) in self.points.iter().zip(results) {
            let Some(sigma_t) = point.theory_sigma_t else {
                continue;
            };
            let r = defaults.predicted_r(sigma_t);
            let theory = [
                theorems::detection_rate_mean(r),
                theorems::detection_rate_variance(r, point.n),
                theorems::detection_rate_entropy(r, point.n),
            ];
            for (report, thy) in reports.iter().zip(theory) {
                let thy = thy.map_err(|e| e.to_string())?;
                gaps.push((report.detection_rate() - thy).abs());
            }
        }
        Ok(ratio(gaps.iter().sum(), gaps.len() as f64))
    }

    /// The traced iteration's per-layer metrics: span self times of the
    /// timed part, then the probe.
    fn collect_layers(
        &self,
        results: &[(Vec<DetectionReport>, [Vec<f64>; 2])],
        spans: &mut Spans,
        sweep_mark: usize,
        it: &mut Iteration,
    ) -> Result<(), String> {
        let mark = spans.spans().len();
        let mut engine = EngineTotals::default();
        let mut attr = AttrTotals::default();
        let (mut nodes, mut ticks, mut dummies, mut payloads) = (0usize, 0u64, 0u64, 0u64);
        let (mut forwarded, mut offered) = (0u64, 0u64);
        let mut tasks = 0usize;
        let (mut captured, mut unused) = (0u64, 0u64);
        spans.time("probe", |sp| -> Result<(), String> {
            for (point, (reports, streams)) in self.points.iter().zip(results) {
                let needed = BUDGET.study(point.n).piats_needed();
                tasks += 2 * needed.div_ceil((RUNNER_TASK_PIATS / point.n).max(1) * point.n);
                captured += streams.iter().map(|s| s.len() as u64).sum::<u64>();
                unused += reports[0].dropped_piats;
                for class in &point.classes {
                    let (seed, count) = first_task(class, needed, point.n);
                    let mut s = sp
                        .time("scenario.build", |_| class.clone().with_seed(seed).build())
                        .map_err(|e| e.to_string())?;
                    nodes += s.sim.node_count();
                    s.sim.enable_profiling();
                    let t = Instant::now();
                    sp.time("engine.run", |_| {
                        s.collect_piats(point.at, count, RUNNER_WARMUP)
                    })
                    .map_err(|e| e.to_string())?;
                    let run_s = t.elapsed().as_secs_f64();
                    let profile = s.sim.profile_report().ok_or("profile missing")?;
                    engine.add(&profile, s.sim.events_processed(), run_s);
                    ticks += s.gateway.ticks();
                    dummies += s.gateway.dummy_sent();
                    payloads += s.gateway.payload_sent();
                    if class.label() == "lab" {
                        // The lab's one router sits between the two taps.
                        offered += s.sender_tap.count() as u64;
                        forwarded += s.receiver_tap.count() as u64;
                    }
                    let end = s.sim.now();
                    sp.time("scenario.reset", |_| s.reset(seed));
                    s.sim.disable_profiling();
                    let mut sampler = AttributionSampler::new(ATTR_EVERY);
                    sp.time("engine.attributed", |_| {
                        s.sim.run_until_attributed(end, &mut sampler)
                    });
                    attr.add(&sampler.report());
                }
                self.time_adversary_steps(point, streams, sp)?;
            }
            Ok(())
        })?;
        let probe_s = |name: &str| spans.self_secs(mark, name);
        let out = &mut it.layers;
        engine.emit(out);
        attr.emit(out);
        out.insert("scenario.build_s", probe_s("scenario.build"));
        out.insert("scenario.reset_s", probe_s("scenario.reset"));
        out.insert("scenario.nodes", nodes as f64);
        out.insert("gateway.ticks", ticks as f64);
        out.insert(
            "gateway.dummy_frac",
            ratio(dummies as f64, (dummies + payloads) as f64),
        );
        out.insert("router.forwarded", forwarded as f64);
        out.insert("router.drops", offered.saturating_sub(forwarded) as f64);
        out.insert(
            "runner.collect_s",
            spans.self_secs(sweep_mark, "runner.collect"),
        );
        out.insert("runner.tasks", tasks as f64);
        out.insert("adversary.features_s", probe_s("adversary.features"));
        out.insert("adversary.train_s", probe_s("adversary.train"));
        out.insert("adversary.eval_s", probe_s("adversary.eval"));
        out.insert(
            "adversary.piat_use_frac",
            ratio((captured - unused) as f64, captured as f64),
        );
        out.insert("adversary.theory_gap", self.theory_gap(results)?);
        if !engine.events_balance() {
            it.failures
                .push("engine events differ from timer plus deliver events".into());
        }
        Ok(())
    }

    /// Time the study's three steps (features, KDE training,
    /// evaluation) for every feature of one point, on the streams the
    /// timed part collected.
    fn time_adversary_steps(
        &self,
        point: &Point,
        streams: &[Vec<f64>; 2],
        sp: &mut Spans,
    ) -> Result<(), String> {
        let study = BUDGET.study(point.n);
        let split = study.train_samples * point.n;
        let needed = study.piats_needed();
        for f in &self.features {
            let (train, test) = sp
                .time("adversary.features", |_| {
                    let mut train = Vec::new();
                    let mut test = Vec::new();
                    for s in streams {
                        train
                            .push(features_from_piats_counted(f.as_ref(), &s[..split], point.n)?.0);
                        test.push(
                            features_from_piats_counted(f.as_ref(), &s[split..needed], point.n)?.0,
                        );
                    }
                    Ok::<_, linkpad_stats::StatsError>((train, test))
                })
                .map_err(|e| e.to_string())?;
            let classifier = sp
                .time("adversary.train", |_| KdeBayes::train(&train))
                .map_err(|e| e.to_string())?;
            sp.time("adversary.eval", |_| evaluate(&classifier, &test));
        }
        Ok(())
    }
}
