//! GLARE benchmark: three seeded, single-threaded workloads against the
//! public APIs of `glare-fabric`, `glare-core`, `glare-services` and
//! `glare-workload`.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tree_query --seed 1 --seconds 20 --trace 0
//! ```
//!
//! A run repeats whole rounds of its workload until `--seconds` have
//! passed, and always runs at least [`DRAWS`] rounds. Round `i` builds its
//! inputs from draw `i % DRAWS` of the seed, so every run measures the
//! same [`DRAWS`] input draws, and rounds of the same draw must agree
//! exactly on every simulated figure. Simulated figures and allocation
//! counts are the median over the draws; host-time figures the median
//! over all rounds. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`). The exit code is non-zero when a check fails.

mod alloc;
mod cached_churn;
mod clock;
mod des;
mod layers;
mod provision_churn;
mod stats;
mod tree_query;

use std::collections::HashSet;
use std::time::{Duration, Instant};

use glare_core::model::{ActivityType, TypeKind};

use crate::layers::{Layers, PER_LAYER};
use crate::stats::{median, percentile};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Everything one round of a workload reports.
pub struct Round {
    /// Host seconds to build the inputs and bring the system up.
    pub setup_s: f64,
    /// Host seconds of the measured phase.
    pub run_s: f64,
    /// Kernel events in the measured phase (API calls where no kernel runs).
    pub events: u64,
    /// Peak live heap bytes over the round, above what was live before it.
    pub peak_bytes: usize,
    /// Allocations in the measured phase.
    pub allocs: u64,
    /// Completed user operations (the `allocs_per_op` denominator).
    pub ops: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Simulated latency of every discovery query, ms.
    pub query_ms: Vec<f64>,
    /// Node visits per discovery query.
    pub hops_per_query: f64,
    /// Simulated provisioning figure, ms (see the README).
    pub provision_p50_ms: f64,
    /// Host µs per user operation.
    pub op_us: Vec<f64>,
    /// Failed correctness checks.
    pub violations: Vec<String>,
    /// Per-layer timings of a traced round.
    pub layers: Option<Layers>,
}

impl Round {
    /// The figures that must repeat exactly for a seed: simulated time
    /// and counts.
    fn digest(&self) -> String {
        format!(
            "events={} ops={} attempted={} failed={} q50={} q99={} n={} hops={} prov={}",
            self.events,
            self.ops,
            self.attempted,
            self.failed,
            percentile(&self.query_ms, 50.0),
            percentile(&self.query_ms, 99.0),
            self.query_ms.len(),
            self.hops_per_query,
            self.provision_p50_ms,
        )
    }

    /// Allocation count and peak heap agree with `other` to within
    /// [`HEAP_TOLERANCE`]. They do not repeat to the byte: a std
    /// `HashMap` seeds its hasher per instance, and where its deletions
    /// leave tombstones decides when it rehashes.
    fn heap_matches(&self, other: &Round) -> bool {
        let near = |a: f64, b: f64| (a - b).abs() <= HEAP_TOLERANCE * a.max(b);
        near(self.allocs as f64, other.allocs as f64)
            && near(self.peak_bytes as f64, other.peak_bytes as f64)
    }
}

/// Independent input draws per run.
const DRAWS: usize = 7;

/// The seed of input draw `d` of a run seeded with `seed`.
fn draw_seed(seed: u64, d: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(d as u64)
}

/// Relative tolerance on allocation counts and peak heap between rounds
/// of one seed.
const HEAP_TOLERANCE: f64 = 5e-3;

/// Concrete types in `types` that satisfy `activity`: itself when
/// concrete, plus every concrete type that extends it, transitively.
/// Worked out here from the type definitions, not by asking a registry.
pub fn concrete_closure(types: &[ActivityType], activity: &str) -> HashSet<String> {
    let mut below: HashSet<String> = HashSet::from([activity.to_owned()]);
    loop {
        let before = below.len();
        for t in types {
            if t.base_types.iter().any(|b| below.contains(b)) {
                below.insert(t.name.clone());
            }
        }
        if below.len() == before {
            break;
        }
    }
    types
        .iter()
        .filter(|t| t.kind == TypeKind::Concrete && below.contains(&t.name))
        .map(|t| t.name.clone())
        .collect()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => args.trace = value.parse::<u8>().map_err(bad)? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn run_round(workload: &str, seed: u64, traced: bool) -> Round {
    match workload {
        "tree_query" => tree_query::round(seed, traced),
        "cached_churn" => cached_churn::round(seed, traced),
        "provision_churn" => provision_churn::round(seed, traced),
        _ => unreachable!("workload checked in main"),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a)
            if ["tree_query", "cached_churn", "provision_churn"].contains(&a.workload.as_str()) =>
        {
            a
        }
        Ok(a) => {
            eprintln!(
                "unknown workload {:?}: tree_query, cached_churn or provision_churn",
                a.workload
            );
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!(
                "{e}\nusage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    // Untraced rounds always; with --trace 1 every other round is traced,
    // so the run also measures the tracing overhead.
    let mut rounds: Vec<Round> = Vec::new();
    let mut traced: Vec<Round> = Vec::new();
    while rounds.len() < DRAWS || Instant::now() < deadline {
        let i = rounds.len();
        let seed = draw_seed(args.seed, i % DRAWS);
        let r = run_round(&args.workload, seed, false);
        eprintln!("round {i}: setup_s {:.4} run_s {:.4}", r.setup_s, r.run_s);
        rounds.push(r);
        if args.trace {
            let r = run_round(&args.workload, seed, true);
            eprintln!(
                "traced round {i}: setup_s {:.4} run_s {:.4}",
                r.setup_s, r.run_s
            );
            traced.push(r);
        }
    }

    let mut problems: Vec<String> = Vec::new();
    for (i, r) in rounds.iter().enumerate() {
        problems.extend(r.violations.iter().map(|v| format!("round {i}: {v}")));
        let first = &rounds[i % DRAWS];
        if r.digest() != first.digest() {
            problems.push(format!(
                "round {i} differs from its draw's first round: {} vs {}",
                r.digest(),
                first.digest()
            ));
        }
        if !r.heap_matches(first) {
            problems.push(format!(
                "round {i} heap differs from its draw's first round: {} allocs, {} B peak vs {}, {}",
                r.allocs, r.peak_bytes, first.allocs, first.peak_bytes
            ));
        }
    }
    for r in &traced {
        problems.extend(r.violations.iter().map(|v| format!("traced round: {v}")));
    }
    for p in &problems {
        eprintln!("CHECK FAILED: {p}");
    }
    let correct = problems.is_empty();
    let attempted: u64 = rounds.iter().chain(&traced).map(|r| r.attempted).sum();
    let failed: u64 = rounds.iter().chain(&traced).map(|r| r.failed).sum();

    let metrics: Vec<(String, f64, &str)> = if args.trace {
        per_layer(&rounds, &traced)
    } else {
        end_to_end(&rounds)
    };
    eprintln!(
        "{}: seed {} rounds {} (+{} traced) attempted {attempted} failed {failed}",
        args.workload,
        args.seed,
        rounds.len(),
        traced.len()
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

/// A JSON number with every digit `f64` carries.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

fn end_to_end(rounds: &[Round]) -> Vec<(String, f64, &'static str)> {
    let host = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let sim =
        |f: &dyn Fn(&Round) -> f64| median(&rounds[..DRAWS].iter().map(f).collect::<Vec<_>>());
    vec![
        ("setup_s".into(), host(&|r| r.setup_s), "s"),
        ("run_s".into(), host(&|r| r.run_s), "s"),
        (
            "events_per_s".into(),
            host(&|r| r.events as f64 / r.run_s),
            "1/s",
        ),
        (
            "peak_heap_mb".into(),
            sim(&|r| r.peak_bytes as f64 / 1e6),
            "MB",
        ),
        (
            "allocs_per_op".into(),
            sim(&|r| r.allocs as f64 / r.ops.max(1) as f64),
            "count",
        ),
        (
            "query_p50_ms".into(),
            sim(&|r| percentile(&r.query_ms, 50.0)),
            "ms",
        ),
        (
            "query_p99_ms".into(),
            sim(&|r| percentile(&r.query_ms, 99.0)),
            "ms",
        ),
        ("hops_per_query".into(), sim(&|r| r.hops_per_query), "count"),
        (
            "op_p50_us".into(),
            host(&|r| percentile(&r.op_us, 50.0)),
            "us",
        ),
        (
            "op_p90_us".into(),
            host(&|r| percentile(&r.op_us, 90.0)),
            "us",
        ),
        (
            "provision_p50_ms".into(),
            sim(&|r| r.provision_p50_ms),
            "ms",
        ),
    ]
}

/// Per-layer metrics: p50 per call and call counts from the traced
/// rounds (median over them), plus the traced-vs-untraced `run_s`.
fn per_layer(rounds: &[Round], traced: &[Round]) -> Vec<(String, f64, &'static str)> {
    let untraced_s = median(&rounds.iter().map(|r| r.run_s).collect::<Vec<_>>());
    let traced_s = median(&traced.iter().map(|r| r.run_s).collect::<Vec<_>>());
    let layers: Vec<&Layers> = traced.iter().filter_map(|r| r.layers.as_ref()).collect();
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "harness.untraced_run_s" => untraced_s,
                "harness.traced_run_s" => traced_s,
                "harness.overhead_pct" => 100.0 * (traced_s / untraced_s - 1.0),
                _ => median(
                    &layers
                        .iter()
                        .map(|l| layer_value(l, name))
                        .collect::<Vec<_>>(),
                ),
            };
            (name.to_owned(), value, unit)
        })
        .collect()
}

/// One per-layer metric of a traced round: a recorded value, else
/// `<span>_ns` is the p50 of the span and `<span>_calls` its call count;
/// 0 for a layer the workload does not touch.
fn layer_value(l: &Layers, name: &str) -> f64 {
    if let Some(v) = l.value(name) {
        return v;
    }
    if let Some(span) = name.strip_suffix("_ns") {
        return l.p50(span);
    }
    if let Some(span) = name.strip_suffix("_calls") {
        let direct = l.calls(span);
        if direct > 0 {
            return direct as f64;
        }
        // `node.compute_calls`: every span under `node.compute.`.
        return l.totals(&format!("{span}.")).0 as f64;
    }
    0.0
}
