//! End-to-end and per-layer benchmark of the pinning study stack.
//!
//! ```sh
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload stream_scale --seed 7 --seconds 20 --trace 0
//! ```
//!
//! Each invocation runs one workload (see `perfbench/README.md` for why
//! there are four) in a process of its own, so the peak-RSS high-water
//! mark belongs to that workload alone. A run repeats the workload,
//! cold, until `--seconds` have passed: every repetition clears the
//! process-global memos, builds its input (timed as set-up) and runs it
//! (timed as the run), then checks its output outside the timed regions.
//! End-to-end metrics are medians over the repetitions. With `--trace 1`
//! untraced and traced repetitions alternate; the traced ones re-drive the
//! engines' per-app or per-shard loop from the benchmark's own code with
//! a span around every call into a layer, and the per-layer metrics come
//! from those spans, the public cache counters and the engines' own
//! counts.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the metric names and
//! units are read from `BENCHMARK.json`. Progress and a readable summary
//! go to standard error.

mod caches;
mod epoch;
mod paper;
mod serve;
mod spec;
mod stream;
mod trace;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Worker threads for every engine. One: on a shared 2-vCPU host the
/// capacity left for a second busy thread comes and goes with the
/// neighbours' load, which made 2-worker wall times swing by tens of
/// percent between runs of the same input (see README.md).
pub const THREADS: usize = 1;

/// Repetitions of each kind a run makes even when `--seconds` is short,
/// so every median has at least this many samples.
const MIN_REPS: usize = 3;

/// What one repetition of a workload produced.
pub struct Rep {
    /// Seconds spent building the input.
    pub setup_s: f64,
    /// Seconds from the end of set-up to the complete result.
    pub run_s: f64,
    /// Operations attempted: apps measured, or requests answered.
    pub items: u64,
    /// Operations that got a full answer (apps measured without error;
    /// requests served fresh or from the brownout cache).
    pub ok: u64,
    /// Operations whose answer was wrong or that errored unexpectedly.
    pub failed: u64,
    /// SHA-256 (hex) of the deterministic output: report bytes, or the
    /// response stream.
    pub digest: String,
    /// SHA-256 (hex) of the per-app records or accumulator behind the
    /// output, where the workload keeps them; traced repetitions must
    /// reproduce the untraced ones'.
    pub records: String,
    /// Correctness checks this repetition failed.
    pub problems: Vec<String>,
    /// Per-layer metrics (traced repetitions) and counts.
    pub layer: BTreeMap<String, f64>,
}

impl Rep {
    pub fn new(setup_s: f64, run_s: f64, items: u64, digest: String) -> Rep {
        Rep {
            setup_s,
            run_s,
            items,
            ok: items,
            failed: 0,
            digest,
            records: String::new(),
            problems: Vec::new(),
            layer: BTreeMap::new(),
        }
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }
}

/// One workload: an untraced and a traced repetition. `deep` asks for the
/// expensive correctness checks, which a run makes on its first
/// repetition only.
pub struct Workload {
    pub name: &'static str,
    pub untraced: fn(seed: u64, deep: bool) -> Rep,
    pub traced: fn(seed: u64) -> (Rep, Vec<trace::Span>),
}

const WORKLOADS: [Workload; 4] = [
    paper::WORKLOAD,
    stream::WORKLOAD,
    serve::WORKLOAD,
    epoch::WORKLOAD,
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 2022,
        seconds: 20,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(args)
}

/// Clears the four process-global memos so a repetition starts as cold
/// as a fresh process does.
fn clear_memos() {
    pinning_pki::validate::clear_validation_cache();
    pinning_analysis::certs::clear_classification_cache();
    pinning_analysis::statics::clear_static_scan_cache();
    pinning_analysis::pii::clear_pii_scan_cache();
}

/// One cold repetition, with the cache counters' activity added to its
/// per-layer metrics.
fn measure<T>(rep: impl FnOnce() -> T, layer: impl Fn(&mut T) -> &mut Rep) -> T {
    clear_memos();
    let before = caches::snapshot();
    let mut out = rep();
    caches::record_delta(&before, &caches::snapshot(), &mut layer(&mut out).layer);
    out
}

/// Per-app counts a traced measurement loop gathers beside its spans.
#[derive(Default)]
pub struct AppCounts {
    pub dynamic_failed: u64,
    pub settle_reruns: u64,
    pub circ_attempted: u64,
    pub circ_succeeded: u64,
    pub handshakes: u64,
}

impl AppCounts {
    pub fn add(&mut self, other: &AppCounts) {
        self.dynamic_failed += other.dynamic_failed;
        self.settle_reruns += other.settle_reruns;
        self.circ_attempted += other.circ_attempted;
        self.circ_succeeded += other.circ_succeeded;
        self.handshakes += other.handshakes;
    }

    pub fn insert_into(&self, layer: &mut BTreeMap<String, f64>) {
        layer.insert("analysis.dynamic_failed".into(), self.dynamic_failed as f64);
        layer.insert("analysis.settle_reruns".into(), self.settle_reruns as f64);
        layer.insert(
            "analysis.circumvent_success_ratio".into(),
            self.circ_succeeded as f64 / self.circ_attempted.max(1) as f64,
        );
        layer.insert("netsim.handshakes".into(), self.handshakes as f64);
    }
}

/// Span-derived metrics shared by every traced workload: per span name,
/// `<name>_s` (busy time including children, seconds) and
/// `<name>_calls`; per layer, `layer.<layer>_self_s` (self time of all
/// its spans); the traced run time, and the share of the run window
/// `[from_ns, to_ns)` during which some span was open.
pub fn layer_metrics(rep: &mut Rep, spans: &[trace::Span], from_ns: u64, to_ns: u64) {
    let mut per_layer: BTreeMap<String, f64> = BTreeMap::new();
    for (name, t) in trace::totals(spans) {
        rep.layer.insert(format!("{name}_s"), t.inclusive_s);
        rep.layer.insert(format!("{name}_calls"), t.calls as f64);
        let layer = name.split('.').next().unwrap_or(name);
        *per_layer
            .entry(format!("layer.{layer}_self_s"))
            .or_default() += t.self_s;
    }
    rep.layer.extend(per_layer);
    rep.layer.insert("trace.run_s".into(), rep.run_s);
    rep.layer.insert(
        "trace.coverage".into(),
        trace::coverage(spans, from_ns, to_ns),
    );
}

/// `n` world seeds for one repetition: `seed` itself, then seeds spread
/// by the golden-ratio increment so no two repetitions' worlds coincide
/// by accident.
pub fn world_seeds(seed: u64, n: usize) -> impl Iterator<Item = u64> {
    (0..n as u64).map(move |j| seed.wrapping_add(j.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    values.sort_by(|a, b| a.total_cmp(b));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

pub fn sha256_hex(bytes: &[u8]) -> String {
    pinning_crypto::hex_encode(&pinning_crypto::sha256(bytes))
}

/// The repetitions whose timings count: those that passed their checks,
/// or all of them when none did (the run then reports itself incorrect).
fn passing(reps: &[Rep]) -> Vec<&Rep> {
    let good: Vec<&Rep> = reps.iter().filter(|r| r.problems.is_empty()).collect();
    if good.is_empty() {
        reps.iter().collect()
    } else {
        good
    }
}

/// The end-to-end metrics: medians over repetitions, the answered share
/// over all their operations, and this process's peak RSS.
fn end_to_end(reps: &[&Rep]) -> BTreeMap<String, f64> {
    let m = |f: fn(&Rep) -> f64| median(&mut reps.iter().map(|r| f(r)).collect::<Vec<_>>());
    let mut metrics = BTreeMap::from([
        ("setup_s".to_string(), m(|r| r.setup_s)),
        ("run_s".to_string(), m(|r| r.run_s)),
        ("items_per_s".to_string(), m(|r| r.items as f64 / r.run_s)),
    ]);
    let (ok, items) = reps
        .iter()
        .fold((0, 0), |(o, i), r| (o + r.ok, i + r.items));
    metrics.insert("ok_frac".into(), ok as f64 / items as f64);
    eprintln!("  ok_frac {:.4} of {items} operations", metrics["ok_frac"]);
    if let Some(kib) = pinning_core::stream::peak_rss_kib() {
        metrics.insert("peak_rss_mib".into(), kib as f64 / 1024.0);
    }
    metrics
}

/// The per-metric median over the traced repetitions.
fn median_layers(reps: &[&Rep]) -> BTreeMap<String, f64> {
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for rep in reps {
        for (name, value) in &rep.layer {
            samples.entry(name.clone()).or_default().push(*value);
        }
    }
    samples
        .into_iter()
        .map(|(name, mut values)| (name, median(&mut values)))
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.map(|w| w.name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(workload) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    let spec = spec::Spec::load();
    let budget = Duration::from_secs(args.seconds);
    eprintln!(
        "perfbench: {} seed {} for {}s, trace {}, {} threads of {} available",
        workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        THREADS,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );

    let started = Instant::now();
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut last_spans: Vec<trace::Span> = Vec::new();
    loop {
        let deep = plain.is_empty();
        let rep = measure(|| (workload.untraced)(args.seed, deep), |r| r);
        eprintln!(
            "  untraced: setup {:.4}s run {:.4}s, {} items, digest {}",
            rep.setup_s,
            rep.run_s,
            rep.items,
            &rep.digest[..16]
        );
        plain.push(rep);
        if args.trace {
            let (rep, spans) = measure(|| (workload.traced)(args.seed), |(r, _)| r);
            eprintln!(
                "  traced:   setup {:.4}s run {:.4}s, {} spans",
                rep.setup_s,
                rep.run_s,
                spans.len()
            );
            traced.push(rep);
            last_spans = spans;
        }
        let enough = plain.len() >= MIN_REPS && (!args.trace || traced.len() >= MIN_REPS);
        if enough && started.elapsed() >= budget {
            break;
        }
    }

    // Correctness: every repetition passed its checks, all produced the
    // same output from the same records, and that output matches the
    // digest recorded for this seed when one is recorded.
    let all: Vec<&Rep> = plain.iter().chain(&traced).collect();
    let mut problems: Vec<String> = all.iter().flat_map(|r| r.problems.clone()).collect();
    let (digest, records) = (&plain[0].digest, &plain[0].records);
    if let Some(r) = all.iter().find(|r| &r.digest != digest) {
        problems.push(format!(
            "output digest differs between repetitions: {digest} vs {}",
            r.digest
        ));
    }
    if let Some(r) = all.iter().find(|r| &r.records != records) {
        problems.push(format!(
            "records differ between repetitions: {records} vs {}",
            r.records
        ));
    }
    match spec::recorded_digest(workload.name, args.seed) {
        Some(want) if want != digest => problems.push(format!(
            "output digest {digest} differs from the recorded {want} for seed {}",
            args.seed
        )),
        Some(_) => eprintln!("  digest {digest} matches the recorded one"),
        None => eprintln!(
            "  digest {digest} (no digest recorded for seed {}; repetitions agree)",
            args.seed
        ),
    }
    for p in &problems {
        eprintln!("  CHECK FAILED: {p}");
    }
    let attempted: u64 = all.iter().map(|r| r.items).sum();
    // A repetition that fails a check counts all its operations as failed.
    let failed: u64 = all
        .iter()
        .map(|r| {
            if r.problems.is_empty() {
                r.failed
            } else {
                r.items
            }
        })
        .sum();
    let (timed_plain, timed_traced) = (passing(&plain), passing(&traced));

    let mut metrics = end_to_end(&timed_plain);
    if args.trace {
        let untraced_run = metrics["run_s"];
        metrics = median_layers(&timed_traced);
        let traced_run = metrics["trace.run_s"];
        metrics.insert("trace.overhead_s".into(), traced_run - untraced_run);
        metrics.insert(
            "trace.overhead_ratio".into(),
            traced_run / untraced_run - 1.0,
        );
        let path = Path::new(".bench_out")
            .join(format!("spans-{}-seed{}.jsonl", workload.name, args.seed));
        match trace::write_spans(&path, &last_spans) {
            Ok(()) => eprintln!("  wrote {} spans to {}", last_spans.len(), path.display()),
            Err(e) => eprintln!("  could not write spans to {}: {e}", path.display()),
        }
    }
    for (name, value) in &metrics {
        eprintln!("  {name:<44} {value}");
    }

    let section = if args.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    match spec::result_line(
        section,
        &metrics,
        !args.trace,
        problems.is_empty(),
        attempted,
        failed,
    ) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
