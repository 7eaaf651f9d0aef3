//! `perfbench`: the linkpad end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <detection_sweep|aggregate_trunk|cohort_shards> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One process runs one workload as a closed loop with one client: the
//! workload's fixed work is repeated, one iteration after the other,
//! until `--seconds` have passed. Every iteration checks its outputs and
//! fingerprints what it simulated. With `--trace 0` the last stdout line
//! reports the end-to-end metrics (medians over the iterations); with
//! `--trace 1` it reports the per-layer metrics of a traced run, which
//! alternates untraced and traced iterations and requires both to
//! simulate the same thing. See `README.md` for the workloads and
//! metrics.

mod aggregate;
mod cohort;
mod detection;
mod digest;
mod host;
mod layers;
mod spans;
mod summary;

use digest::hex;
use host::{HostDelta, HostSample};
use layers::Layers;
use spans::Spans;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Seed used when `--seed` is not given; its digests are recorded in
/// `expected_digests.txt`.
const DEFAULT_SEED: u64 = 1;

/// Recorded `sim_digest` per workload for [`DEFAULT_SEED`].
const EXPECTED_DIGESTS: &str = include_str!("../expected_digests.txt");

/// End-to-end metrics: (name, unit). Every untraced run reports all of
/// them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("events_per_s", "1/s"),
    ("piats_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: (name, unit). Every traced run reports all of
/// them; a layer that does no work in a workload reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("scenario.build_s", "s"),
    ("scenario.reset_s", "s"),
    ("scenario.nodes", "count"),
    ("engine.run_s", "s"),
    ("engine.events", "count"),
    ("engine.ns_per_event", "ns"),
    ("engine.timer_events", "count"),
    ("engine.deliver_events", "count"),
    ("engine.mean_batch", "count"),
    ("equeue.pending_peak", "count"),
    ("equeue.push_near", "count"),
    ("equeue.push_rung", "count"),
    ("equeue.push_far", "count"),
    ("equeue.refills", "count"),
    ("equeue.rebases", "count"),
    ("equeue.ops_per_event", "count"),
    ("attr.store_frac", "ratio"),
    ("attr.context_frac", "ratio"),
    ("attr.dispatch_frac", "ratio"),
    ("attr.gateway.ns_per_dispatch", "ns"),
    ("attr.trunk.ns_per_dispatch", "ns"),
    ("attr.trunk-demux.ns_per_dispatch", "ns"),
    ("attr.tap.ns_per_dispatch", "ns"),
    ("attr.observer.ns_per_dispatch", "ns"),
    ("attr.cohort.ns_per_dispatch", "ns"),
    ("gateway.ticks", "count"),
    ("gateway.dummy_frac", "ratio"),
    ("router.forwarded", "count"),
    ("router.drops", "count"),
    ("observer.arrivals", "count"),
    ("observer.windows", "count"),
    ("cohort.emitted", "count"),
    ("cohort.cit.ns_per_event", "ns"),
    ("cohort.adaptive.ns_per_event", "ns"),
    ("shard.build_s", "s"),
    ("shard.run_max_s", "s"),
    ("shard.imbalance", "ratio"),
    ("shard.merge_s", "s"),
    ("shard.parallel_eff", "ratio"),
    ("runner.collect_s", "s"),
    ("runner.tasks", "count"),
    ("adversary.features_s", "s"),
    ("adversary.train_s", "s"),
    ("adversary.eval_s", "s"),
    ("adversary.estimate_s", "s"),
    ("adversary.piat_use_frac", "ratio"),
    ("adversary.theory_gap", "rate"),
    ("adversary.flow_count_err_pct", "%"),
    ("trace.overhead_s", "s"),
    ("host.steal_s", "s"),
    ("host.runq_wait_s", "s"),
];

/// What one iteration of a workload produced.
#[derive(Debug, Default)]
pub struct Iteration {
    /// Fingerprint of everything simulated ([`digest::Digest`]).
    pub digest: u64,
    /// Host seconds to the workload's result.
    pub wall_s: f64,
    /// Host seconds the throughput metrics divide by (the steady-state
    /// part of `wall_s`).
    pub rate_s: f64,
    /// Set-up seconds measured by this iteration, if it sets up itself.
    pub setup_s: Option<f64>,
    /// Simulated events in the `rate_s` part.
    pub events: f64,
    /// Captured PIATs in the `rate_s` part.
    pub piats: f64,
    /// Output checks that failed, with what was seen.
    pub failures: Vec<String>,
    /// Per-layer metrics (traced iterations only).
    pub layers: Layers,
}

/// One benchmark workload.
pub trait Workload {
    /// Set-up samples (seconds) taken before the timed loop; empty when
    /// every iteration measures its own set-up.
    fn setup_samples(&mut self) -> Result<Vec<f64>, String>;

    /// Run the workload's fixed work once. With an enabled `spans`, also
    /// record spans and fill [`Iteration::layers`].
    fn iterate(&mut self, spans: &mut Spans) -> Result<Iteration, String>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value:?}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

fn make_workload(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    match name {
        "detection_sweep" => Ok(Box::new(detection::DetectionSweep::new(seed))),
        "aggregate_trunk" => Ok(Box::new(aggregate::AggregateTrunk::new(seed))),
        "cohort_shards" => Ok(Box::new(cohort::CohortShards::new(seed))),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn expected_digest(workload: &str) -> Option<u64> {
    EXPECTED_DIGESTS.lines().find_map(|line| {
        let (name, value) = line.split_once(char::is_whitespace)?;
        (name == workload)
            .then(|| u64::from_str_radix(value.trim(), 16).ok())
            .flatten()
    })
}

/// Bookkeeping shared by both run modes.
struct Tally {
    workload: String,
    seed: u64,
    cpus: usize,
    attempted: u64,
    failed: u64,
    first_digest: Option<u64>,
    contaminated: u64,
    host: HostDelta,
}

impl Tally {
    fn new(workload: &str, seed: u64) -> Self {
        Self {
            workload: workload.to_string(),
            seed,
            cpus: host::cpus(),
            attempted: 0,
            failed: 0,
            first_digest: None,
            contaminated: 0,
            host: HostDelta::default(),
        }
    }

    /// Run one iteration under host tagging and checks. Returns the
    /// iteration (with failed checks listed) and whether it ran clean.
    fn run(&mut self, w: &mut dyn Workload, spans: &mut Spans) -> Option<(Iteration, bool)> {
        self.attempted += 1;
        let before = HostSample::now();
        let outcome = w.iterate(spans);
        let delta = before.until(&HostSample::now());
        self.host.add(&delta);
        let mut it = match outcome {
            Ok(it) => it,
            Err(e) => {
                eprintln!("perfbench: iteration {} failed: {e}", self.attempted);
                self.failed += 1;
                return None;
            }
        };
        match self.first_digest {
            None => self.first_digest = Some(it.digest),
            Some(d) if d != it.digest => it.failures.push(format!(
                "sim_digest {} differs from this run's first iteration {}",
                hex(it.digest),
                hex(d)
            )),
            Some(_) => {}
        }
        if self.seed == DEFAULT_SEED {
            match expected_digest(&self.workload) {
                Some(want) if want != it.digest => it.failures.push(format!(
                    "sim_digest {} differs from the recorded {} for the default seed",
                    hex(it.digest),
                    hex(want)
                )),
                Some(_) => {}
                None => it
                    .failures
                    .push("no recorded digest for the default seed".into()),
            }
        }
        if !it.failures.is_empty() {
            self.failed += 1;
            for f in &it.failures {
                eprintln!("perfbench: check failed: {f}");
            }
        }
        let dirty = delta.contaminated(self.cpus);
        if dirty {
            self.contaminated += 1;
        }
        eprintln!(
            "perfbench: {} it {:>3} {}: wall {:.4} s, steal {:.3} s, runq wait {:.3} s{}",
            self.workload,
            self.attempted,
            if spans.is_enabled() {
                "traced"
            } else {
                "plain "
            },
            it.wall_s,
            delta.steal_s,
            delta.runq_wait_s,
            if dirty { " [contaminated]" } else { "" }
        );
        Some((it, !dirty))
    }

    fn host_line(&self) -> String {
        format!(
            "{{\"host\": {{\"workload\": \"{}\", \"seed\": {}, \"cpus\": {}, \"iterations\": {}, \"contaminated\": {}, \"steal_s\": {}, \"runq_wait_s\": {}, \"sim_digest\": \"{}\"}}}}",
            self.workload,
            self.seed,
            self.cpus,
            self.attempted,
            self.contaminated,
            self.host.steal_s,
            self.host.runq_wait_s,
            self.first_digest.map_or(String::new(), hex),
        )
    }
}

/// `f` over the clean iterations, or over all of them when none ran
/// clean.
fn clean_values(its: &[(Iteration, bool)], f: impl Fn(&Iteration) -> f64) -> Vec<f64> {
    let clean: Vec<f64> = its.iter().filter(|(_, c)| *c).map(|(i, _)| f(i)).collect();
    if clean.is_empty() {
        its.iter().map(|(i, _)| f(i)).collect()
    } else {
        clean
    }
}

fn clean_median(its: &[(Iteration, bool)], f: impl Fn(&Iteration) -> f64) -> f64 {
    summary::median(&clean_values(its, f)).unwrap_or(0.0)
}

fn unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// A quantity read off one iteration.
type PerIteration = fn(&Iteration) -> f64;

fn run_plain(w: &mut dyn Workload, tally: &mut Tally, budget: Duration) -> Result<Metrics, String> {
    let mut setup = w.setup_samples()?;
    let start = Instant::now();
    let mut its = Vec::new();
    while its.is_empty() || start.elapsed() < budget {
        if let Some(it) = tally.run(w, &mut Spans::disabled()) {
            its.push(it);
        } else if start.elapsed() >= budget {
            break;
        }
    }
    if its.is_empty() {
        return Err("no iteration completed".into());
    }
    let per_iteration: [(&'static str, PerIteration); 3] = [
        ("wall_s", |i| i.wall_s),
        ("events_per_s", |i| i.events / i.rate_s),
        ("piats_per_s", |i| i.piats / i.rate_s),
    ];
    let mut m = Metrics::new();
    for (name, f) in per_iteration {
        let values = clean_values(&its, f);
        let median = summary::median(&values).unwrap_or(0.0);
        let (q1, q3) = summary::quartiles(&values).unwrap_or((median, median));
        eprintln!(
            "perfbench: {name} median {median} quartiles {q1} {q3} (spread {:.2} %) over {} iterations",
            summary::iqr_share(&values).unwrap_or(0.0) * 100.0,
            values.len()
        );
        m.insert(name, (median, unit(name)));
    }
    setup.extend(its.iter().filter_map(|(i, _)| i.setup_s));
    m.insert(
        "setup_s",
        (summary::median(&setup).unwrap_or(0.0), unit("setup_s")),
    );
    m.insert(
        "peak_rss_mb",
        (host::peak_rss_mb().unwrap_or(0.0), unit("peak_rss_mb")),
    );
    Ok(m)
}

fn run_traced(
    w: &mut dyn Workload,
    tally: &mut Tally,
    budget: Duration,
) -> Result<Metrics, String> {
    let start = Instant::now();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut spans = Spans::enabled();
    // Even attempts run untraced, odd attempts traced.
    for attempt in 0.. {
        let over = start.elapsed() >= budget;
        if over && !plain.is_empty() && !traced.is_empty() {
            break;
        }
        if over && attempt >= 2 {
            return Err("no untraced and traced iteration pair completed".into());
        }
        if attempt % 2 == 0 {
            plain.extend(tally.run(w, &mut Spans::disabled()));
        } else {
            traced.extend(tally.run(w, &mut spans));
        }
    }
    let mut m = Metrics::new();
    for &(name, unit) in PER_LAYER {
        let value = match name {
            "trace.overhead_s" => {
                clean_median(&traced, |i| i.wall_s) - clean_median(&plain, |i| i.wall_s)
            }
            "host.steal_s" => tally.host.steal_s,
            "host.runq_wait_s" => tally.host.runq_wait_s,
            _ => clean_median(&traced, |i| i.layers.get(name).copied().unwrap_or(0.0)),
        };
        m.insert(name, (value, unit));
    }
    for (it, _) in &traced {
        for name in it.layers.keys() {
            if !PER_LAYER.iter().any(|(n, _)| n == name) {
                return Err(format!(
                    "workload reported unlisted per-layer metric {name}"
                ));
            }
        }
    }
    write_spans(&tally.workload, tally.seed, &spans);
    Ok(m)
}

/// Write the traced run's spans under the build directory, and their
/// self times per name to stderr.
fn write_spans(workload: &str, seed: u64, spans: &Spans) {
    for (name, secs) in spans.self_secs_by_name() {
        eprintln!("perfbench: span {name:<24} self {secs:.6} s");
    }
    let dir = std::path::Path::new(
        &std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string()),
    )
    .join("perfbench");
    let path = dir.join(format!("spans-{workload}-seed{seed}.json"));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans.to_json()));
    match written {
        Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit))| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A finite float in JSON with all its digits (non-finite reads 0).
fn json_number(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    let s = format!("{v:?}");
    if s.ends_with(".0") {
        s.trim_end_matches(".0").to_string()
    } else {
        s
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <detection_sweep|aggregate_trunk|cohort_shards> \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            std::process::exit(2);
        }
    };
    let mut workload = match make_workload(&args.workload, args.seed) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let budget = Duration::from_secs(args.seconds);
    let mut tally = Tally::new(&args.workload, args.seed);
    let outcome = if args.trace {
        run_traced(workload.as_mut(), &mut tally, budget)
    } else {
        run_plain(workload.as_mut(), &mut tally, budget)
    };
    let metrics = match outcome {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let finite = metrics.values().all(|(v, _)| v.is_finite());
    let correct = tally.failed == 0 && finite;
    println!("{}", tally.host_line());
    println!(
        "{}",
        result_json(correct, tally.attempted, tally.failed, &metrics)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_in_benchmark_json(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let start = text
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("{section} section"));
        let rest = &text[start..];
        let end = rest.find(']').expect("section closes");
        rest[..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s.split('"').next().unwrap_or("").to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names_in_benchmark_json("end_to_end"), e2e);
        let layers: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names_in_benchmark_json("per_layer"), layers);
        let workloads = names_in_benchmark_json("workloads");
        assert_eq!(
            workloads,
            ["detection_sweep", "aggregate_trunk", "cohort_shards"]
        );
        for w in &workloads {
            assert!(make_workload(w, 1).is_ok(), "{w}");
            assert!(expected_digest(w).is_some(), "recorded digest for {w}");
        }
    }

    #[test]
    fn args_parse_and_reject() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload aggregate_trunk --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("aggregate_trunk", 7, 3, true)
        );
        let d = parse("--workload cohort_shards").unwrap();
        assert_eq!((d.seed, d.seconds, d.trace), (DEFAULT_SEED, 10, false));
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload x --trace 2").is_err());
        assert!(parse("--workload x --seed").is_err());
        assert!(parse("--workload x --bogus 1").is_err());
        assert!(make_workload("bogus", 1).is_err());
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut m = Metrics::new();
        m.insert("wall_s", (1.25, "s"));
        m.insert("events_per_s", (3.0e6, "1/s"));
        let line = result_json(true, 4, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": {\"events_per_s\": {\"value\": 3000000, \"unit\": \"1/s\"}, \"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_number(f64::NAN), "0");
        assert_eq!(json_number(0.1234567891234), "0.1234567891234");
    }
}
