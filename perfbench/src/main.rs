//! `fscan-perfbench` — the repository's benchmark.
//!
//! ```text
//! fscan-perfbench --workload suite-atpg|stress-sim|serve-mix --seed N
//!                 --seconds S --trace 0|1 [--reference-out FILE]
//! ```
//!
//! Generates the workload's inputs from the seed, measures for about
//! `S` seconds, checks every output, and prints a human summary on
//! stderr and, as the last line of stdout, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ones, taken from spans recorded around every call into a
//! layer, and the spans are written to `out/` beside this package.
//! `--reference-out` writes the run's deterministic per-design facts,
//! the form `reference.json` commits for seed 0.

mod batch;
mod check;
mod serve_mix;
mod stats;
mod trace;

use std::alloc::{GlobalAlloc, Layout};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};

use fscan::json::Value;

/// The counting allocator of the repository's own binaries (its stage
/// windows give each stage's `mem.peak_bytes`), wrapped to keep one
/// high-water mark for the whole run: the pipeline resets the shared
/// stage peak at every stage, so it cannot give `peak_mb`.
struct RunPeakAlloc;

#[global_allocator]
static ALLOC: RunPeakAlloc = RunPeakAlloc;

static LIVE: AtomicU64 = AtomicU64::new(0);
static RUN_PEAK: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: u64) {
    let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    RUN_PEAK.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: every method forwards verbatim to `TrackingAlloc`, which
// forwards to `System`; the counters never touch the returned memory.
unsafe impl GlobalAlloc for RunPeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = fscan_alloctrack::TrackingAlloc.alloc(layout);
        if !p.is_null() {
            grew(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        fscan_alloctrack::TrackingAlloc.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = fscan_alloctrack::TrackingAlloc.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size() as u64);
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = fscan_alloctrack::TrackingAlloc.realloc(ptr, layout, new_size);
        if !p.is_null() {
            let (old, new) = (layout.size() as u64, new_size as u64);
            if new >= old {
                grew(new - old);
            } else {
                LIVE.fetch_sub(old - new, Ordering::Relaxed);
            }
        }
        p
    }
}

/// Highest live heap of this process so far, in bytes.
pub fn run_peak_bytes() -> u64 {
    RUN_PEAK.load(Ordering::Relaxed)
}

/// Every end-to-end metric, printed on every workload.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    ("faults_per_s", "1/s"),
    ("peak_mb", "MB"),
    ("test_cycles", "cycles"),
    ("requests_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("eco_p50_ms", "ms"),
];

/// Every per-layer metric. A layer the workload does not exercise
/// reads 0.
const PER_LAYER: [(&str, &str); 40] = [
    ("error_rate", "ratio"),
    ("quality.undetected", "count"),
    ("netlist.parse_s", "s"),
    ("scan.tpi_s", "s"),
    ("netlist.compile_s", "s"),
    ("fault.collapse_s", "s"),
    ("core.classify_s", "s"),
    ("core.alternating_s", "s"),
    ("core.comb_s", "s"),
    ("core.compact_s", "s"),
    ("core.seq_s", "s"),
    ("atpg.podem_decisions", "count"),
    ("atpg.podem_backtracks", "count"),
    ("atpg.podem_aborts", "count"),
    ("atpg.abort_ratio", "ratio"),
    ("sim.gate_evals", "count"),
    ("sim.kernel_gate_evals", "count"),
    ("sim.implication_words", "count"),
    ("sim.lane_cycles", "count"),
    ("sim.faults_dropped", "count"),
    ("core.vectors_compacted", "count"),
    ("mem.peak_bytes", "bytes"),
    ("mem.arena_bytes", "bytes"),
    ("serve.head_ms", "ms"),
    ("serve.body_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("core.json_render_s", "s"),
    ("netlist.diff_s", "s"),
    ("core.eco_rerun_s", "s"),
    ("scan.patch_s", "s"),
    ("core.verdicts_reused", "count"),
    ("core.cones_invalidated", "count"),
    ("eco.reuse_ratio", "ratio"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.evictions", "count"),
    ("serve.topology_builds", "count"),
    ("serve.rejected", "count"),
    ("serve.keepalive_reuses", "count"),
    ("trace.uncovered_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// End-to-end metrics (every run).
    pub metrics: Vec<Metric>,
    /// Per-layer metrics (traced runs).
    pub layers: Vec<Metric>,
    pub notes: Vec<String>,
    /// Deterministic facts per design, for `--reference-out`.
    pub facts: BTreeMap<String, Value>,
}

impl Outcome {
    /// Counts one failed operation and keeps its description.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn keep_facts(&mut self, design: &str, facts: &check::Facts) {
        self.facts
            .entry(design.to_string())
            .or_insert_with(|| facts.to_value());
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    reference_out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut reference_out = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| format!("--seed: {value}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("--seconds: {value}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err(format!("--seconds must be positive: {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {value}")),
                }
            }
            "--reference-out" => reference_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        reference_out,
    })
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(serve_mix::CHILD_FLAG) {
        return serve_mix::child_main();
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fscan-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Inputs are generated before any timer starts.
    let (mut outcome, inputs_hash) = match args.workload.as_str() {
        "suite-atpg" | "stress-sim" => {
            let inputs = if args.workload == "suite-atpg" {
                batch::suite_inputs(args.seed)
            } else {
                batch::stress_inputs(args.seed)
            };
            let hash = batch::inputs_hash(&inputs);
            let outcome = batch::run(&args.workload, args.seconds, args.trace, &inputs);
            (outcome, hash)
        }
        "serve-mix" => {
            let inputs = serve_mix::inputs(args.seed);
            let hash = inputs.hash();
            (serve_mix::run(&inputs, args.seconds, args.trace), hash)
        }
        other => {
            eprintln!("fscan-perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };

    let expected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics: Vec<Metric> = Vec::new();
    for &(name, unit) in expected {
        let measured = if args.trace {
            &outcome.layers
        } else {
            &outcome.metrics
        };
        let value = match measured.iter().find(|m| m.name == name) {
            Some(m) => m.value,
            None if name == "error_rate" => outcome.failed as f64 / outcome.attempted.max(1) as f64,
            None if args.trace => 0.0,
            None => {
                outcome.fail(format!("metric {name} was not measured"));
                0.0
            }
        };
        if !value.is_finite() {
            outcome.fail(format!("metric {name} is not finite"));
        }
        metrics.push(Metric::new(
            name,
            if value.is_finite() { value } else { 0.0 },
            unit,
        ));
    }
    if args.trace {
        let dir = out_dir();
        let path = dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match std::fs::create_dir_all(&dir).and_then(|_| trace::write_jsonl(&path, &trace::spans()))
        {
            Ok(()) => outcome.note(format!("spans written to {}", path.display())),
            Err(e) => outcome.note(format!("could not write spans: {e}")),
        }
    }
    if let Some(path) = &args.reference_out {
        let doc = Value::Object(vec![
            ("workload".to_string(), Value::Str(args.workload.clone())),
            ("seed".to_string(), Value::UInt(args.seed)),
            (
                "designs".to_string(),
                Value::Object(outcome.facts.clone().into_iter().collect()),
            ),
        ]);
        if let Err(e) = std::fs::write(path, doc.render_pretty()) {
            eprintln!("fscan-perfbench: {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    eprintln!(
        "workload {} seed {} inputs {:016x}: {} attempted, {} failed, error_rate {:.6}",
        args.workload,
        args.seed,
        inputs_hash,
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    for line in &outcome.notes {
        eprintln!("  {line}");
    }
    for failure in &outcome.failures {
        eprintln!("  FAILED: {failure}");
    }
    if args.trace {
        // The traced run's end-to-end figures, for comparison with an
        // untraced run of the same seed (the tracing overhead).
        for m in &outcome.metrics {
            eprintln!("  traced {:<17} {:>16.6} {}", m.name, m.value, m.unit);
        }
    }
    for m in &metrics {
        eprintln!("  {:<24} {:>16.6} {}", m.name, m.value, m.unit);
    }
    // Rendered by hand: every value keeps all its digits.
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(",")
    );
    ExitCode::SUCCESS
}
