//! The batch workloads: `suite-atpg` (the paper's twelve Table-1
//! circuits) and `stress-sim` (one 50k-gate circuit, sampled faults).
//!
//! Each pass takes every design from `.bench` text to a screened report
//! through the public layer calls — parse, functional scan insertion,
//! topology compile, fault collapse, the five stages (repeated on
//! `stress-sim`) — and then reruns it after a spare-cell ECO. Passes
//! repeat until the run's time is used; metrics are medians over passes.

use std::sync::Arc;
use std::time::Instant;

use fscan::{PipelineConfig, PipelineReport, PipelineSession};
use fscan_bench::{sample_faults, scaled_config, PAPER_SUITE};
use fscan_fault::{all_faults_with, collapse_with};
use fscan_netlist::{
    content_hash64, generate, parse_bench, write_bench, Circuit, DeltaNode, DeltaRef, GateKind,
    GeneratorConfig, NetlistDelta, NodeId,
};
use fscan_scan::{insert_functional_scan, ScanDesign, TpiConfig};
use fscan_sim::StageMetrics;

use crate::check::{invariants, Facts, References};
use crate::stats::{derive_seed, median, percentile, SplitMix};
use crate::trace;
use crate::{Metric, Outcome};

/// Scale of the suite circuits in `suite-atpg`.
const SUITE_SCALE: f64 = 0.05;
/// `stress-sim` circuit size, chain count and fault sample.
const STRESS_GATES: usize = 50_000;
const STRESS_CHAINS: usize = 8;
const STRESS_SAMPLE: usize = 128;
/// Times `stress-sim` screens its design per pass. Its set-up costs
/// about four times its stages, so without repetitions a run would time
/// its stages only twice, and a median of two follows host noise.
const STRESS_REPS: usize = 3;
/// The committed stress-tier generator seed (`StressConfig::default`).
const STRESS_SEED: u64 = 0x57e55;
/// Worker threads of every batch pipeline run.
const THREADS: usize = 2;
/// Set-ups per run: at least `MIN_SETUPS` (the passes' own plus
/// set-up-only repetitions), more while time remains.
const MIN_SETUPS: usize = 2;
const MAX_SETUPS: usize = 15;
/// ECO repetitions per design and pass (each one is timed).
const ECO_REPS: usize = 20;

/// One generated design, as the program receives it.
pub struct Input {
    pub name: String,
    pub text: String,
    pub chains: usize,
    /// Faults pushed through the pipeline, sampled evenly across the
    /// collapsed universe (0 = all).
    pub sample: usize,
    /// Times the five stages run per pass (the same for every design of
    /// a workload); `pipeline_s` takes their median.
    pub reps: usize,
}

/// The circuit's `.bench` text with its nets renamed by `seed` (`salt`
/// tells the circuits of one workload apart).
///
/// Seed 0 is the generator's own text. Any other seed gives every net a
/// name from a seeded permutation; lines keep their order, so the
/// program sees different bytes for the same circuit. Circuits are not
/// regenerated per seed: ATPG effort is heavy-tailed in circuit
/// structure (regenerating the suite from seeds 0, 1 and 2 gave 19.8,
/// 10.9 and 54.6 s of stage time), so a spread bound could not hold.
pub fn bench_text(circuit: &Circuit, seed: u64, salt: u64) -> String {
    if seed == 0 {
        return write_bench(circuit);
    }
    let mut rng = SplitMix(derive_seed(salt, seed));
    let mut label: Vec<usize> = (0..circuit.num_nodes()).collect();
    for i in (1..label.len()).rev() {
        label.swap(i, rng.below(i + 1));
    }
    let name = |id: NodeId| format!("w{}", label[id.index()]);
    let mut out = format!("# {}\n", circuit.name());
    for &i in circuit.inputs() {
        out.push_str(&format!("INPUT({})\n", name(i)));
    }
    for &o in circuit.outputs() {
        out.push_str(&format!("OUTPUT({})\n", name(o)));
    }
    for (id, node) in circuit.iter() {
        let Some(keyword) = node.kind().bench_keyword() else {
            continue;
        };
        let args: Vec<String> = node.fanin().iter().map(|&f| name(f)).collect();
        out.push_str(&format!("{} = {keyword}({})\n", name(id), args.join(", ")));
    }
    out
}

/// `suite-atpg` inputs: every Table-1 circuit at scale 0.05, in a
/// seeded order.
pub fn suite_inputs(seed: u64) -> Vec<Input> {
    let mut inputs: Vec<Input> = PAPER_SUITE
        .iter()
        .map(|c| Input {
            name: c.name.to_string(),
            text: bench_text(&generate(&scaled_config(c, SUITE_SCALE)), seed, c.seed),
            chains: c.chains,
            sample: 0,
            reps: 1,
        })
        .collect();
    if seed != 0 {
        let mut rng = SplitMix(seed);
        for i in (1..inputs.len()).rev() {
            inputs.swap(i, rng.below(i + 1));
        }
    }
    inputs
}

/// `stress-sim` input: one 50k-gate circuit in the stress-tier shape
/// (64 inputs, gates/50 flip-flops, 8 chains).
pub fn stress_inputs(seed: u64) -> Vec<Input> {
    let config = GeneratorConfig::new("stress50k", STRESS_SEED)
        .inputs(64)
        .gates(STRESS_GATES)
        .dffs(STRESS_GATES / 50);
    vec![Input {
        name: "stress50k".to_string(),
        text: bench_text(&generate(&config), seed, STRESS_SEED),
        chains: STRESS_CHAINS,
        sample: STRESS_SAMPLE,
        reps: STRESS_REPS,
    }]
}

/// Hash of a workload's generated inputs, so two runs can show they
/// measured the same thing.
pub fn inputs_hash(inputs: &[Input]) -> u64 {
    let mut all = String::new();
    for i in inputs {
        all.push_str(&format!("{}\n{}\n{}\n", i.name, i.chains, i.sample));
        all.push_str(&i.text);
    }
    content_hash64(all.as_bytes())
}

/// What one design contributed to one pass.
struct DesignRun {
    setup_s: f64,
    pipeline_s: f64,
    eco_ms: Vec<f64>,
    report: PipelineReport,
    /// The incremental rerun, for sessions over the full fault
    /// universe (a rerun re-screens the whole universe, so a sampled
    /// session gets the design-side patch only).
    eco: Option<PipelineReport>,
}

/// A spare-cell island: a constant driving an inverter that drives
/// nothing. No existing fault's cone is touched, so an incremental
/// rerun reuses every prior verdict.
fn spare_island(design: &ScanDesign) -> NetlistDelta {
    NetlistDelta {
        base_nodes: design.circuit().num_nodes(),
        added: vec![
            DeltaNode {
                name: "eco_spare_c".into(),
                kind: GateKind::Const0,
                fanin: vec![],
            },
            DeltaNode {
                name: "eco_spare_g".into(),
                kind: GateKind::Not,
                fanin: vec![DeltaRef::Added(0)],
            },
        ],
        redriven: vec![],
        removed: vec![],
        outputs: vec![],
    }
}

/// Takes `.bench` text to a compiled scan design: parse, functional
/// scan insertion, topology compile, one span each (tagged with `req`
/// for served traffic).
pub fn build_design(
    name: &str,
    text: &str,
    chains: usize,
    req: u64,
) -> Result<Arc<ScanDesign>, String> {
    let circuit = trace::span_req("netlist.parse", req, || parse_bench(text, name))
        .map_err(|e| format!("{name}: parse: {e}"))?;
    let tpi = TpiConfig {
        num_chains: chains,
        ..TpiConfig::default()
    };
    let design: Arc<ScanDesign> = Arc::new(
        trace::span_req("scan.tpi", req, || insert_functional_scan(&circuit, &tpi))
            .map_err(|e| format!("{name}: scan insertion: {e}"))?,
    );
    drop(circuit);
    trace::span_req("netlist.compile", req, || design.topology());
    Ok(design)
}

/// Takes one design from `.bench` text to a session ready to classify:
/// [`build_design`], then fault collapse.
fn setup(
    input: &Input,
    config: &PipelineConfig,
) -> Result<(Arc<ScanDesign>, PipelineSession), String> {
    let design = build_design(&input.name, &input.text, input.chains, 0)?;
    let topo = design.topology();
    let session = trace::span("fault.collapse", || {
        let faults = collapse_with(
            design.circuit(),
            &topo,
            &all_faults_with(design.circuit(), &topo),
        );
        let faults = if input.sample == 0 {
            faults
        } else {
            sample_faults(&faults, input.sample)
        };
        PipelineSession::shared_with_faults(Arc::clone(&design), config.clone(), faults)
    });
    Ok((design, session))
}

fn run_design(input: &Input, config: &PipelineConfig) -> Result<DesignRun, String> {
    let t0 = Instant::now();
    let (design, session) = setup(input, config)?;
    let setup_s = t0.elapsed().as_secs_f64();
    let mut times = Vec::with_capacity(input.reps);
    let mut first: Option<PipelineReport> = None;
    for _ in 0..input.reps {
        let t1 = Instant::now();
        let classified = trace::span("core.classify", || session.clone().classify());
        let alternating = trace::span("core.alternating", || classified.alternating());
        let comb = trace::span("core.comb", || alternating.comb());
        let compacted = trace::span("core.compact", || comb.compact());
        let report = trace::span("core.seq", || compacted.seq());
        times.push(t1.elapsed().as_secs_f64());
        match &first {
            None => first = Some(report),
            Some(f) if Facts::of(f) != Facts::of(&report) => {
                return Err(format!(
                    "{}: report differs between repetitions",
                    input.name
                ))
            }
            Some(_) => {}
        }
    }
    let report = first.expect("every workload screens at least once");
    let pipeline_s = median(&times);

    let delta = spare_island(&design);
    let mut eco = None;
    let mut eco_ms = Vec::with_capacity(ECO_REPS);
    for _ in 0..ECO_REPS {
        let t = Instant::now();
        if input.sample == 0 {
            let rerun = trace::span("core.eco_rerun", || session.rerun(&report, &delta))
                .map_err(|e| format!("{}: eco rerun: {e}", input.name))?;
            eco = Some(rerun);
        } else {
            let patched = trace::span("scan.patch", || design.patched(&delta))
                .map_err(|e| format!("{}: eco patch: {e}", input.name))?;
            trace::span("netlist.patch", || patched.topology());
        }
        eco_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(DesignRun {
        setup_s,
        pipeline_s,
        eco_ms,
        report,
        eco,
    })
}

/// Checks an ECO rerun against its base run: an isolated island changes
/// no verdict of the base design and must be served from reuse.
fn eco_failures(name: &str, base: &PipelineReport, eco: &PipelineReport) -> Vec<String> {
    let mut out = Vec::new();
    let totals = eco.total_counters();
    if totals.verdicts_reused == 0 {
        out.push(format!("{name}: eco rerun reused no verdict"));
    }
    if eco.undetected() != base.undetected()
        || eco.comb.detected != base.comb.detected
        || eco.classification.hard != base.classification.hard
    {
        out.push(format!(
            "{name}: eco rerun changed verdicts (undetected {} -> {}, comb detected {} -> {})",
            base.undetected(),
            eco.undetected(),
            base.comb.detected,
            eco.comb.detected
        ));
    }
    out
}

/// Per-pass totals.
#[derive(Default)]
struct Pass {
    wall_s: f64,
    setup_s: f64,
    pipeline_s: f64,
    faults: f64,
    undetected: f64,
    test_cycles: f64,
    designs: usize,
    /// Workload-wide ECO time of each repetition (summed over designs).
    eco_ms: [f64; ECO_REPS],
    /// Self seconds by span name (traced runs).
    layers: Vec<(&'static str, f64)>,
    /// Counters summed per stage name over designs.
    stage_metrics: Vec<(&'static str, StageMetrics)>,
    targeted_atpg: u64,
    eco_reused: u64,
    eco_invalidated: u64,
    uncovered: f64,
}

pub fn run(workload: &str, seconds: f64, traced: bool, inputs: &[Input]) -> Outcome {
    let config = PipelineConfig::builder()
        .threads(THREADS)
        .build()
        .expect("default budgets are valid");
    let references = References::load();
    let mut outcome = Outcome::default();
    let mut first: Vec<Option<Facts>> = vec![None; inputs.len()];
    let mut checked_against_reference = 0usize;
    let mut passes: Vec<Pass> = Vec::new();
    let start = Instant::now();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        // Another pass only if it fits with a margin, so a run ends
        // close to its budget.
        let longest = passes.iter().map(|p| p.wall_s).fold(0.0, f64::max);
        if !passes.is_empty() && elapsed + 1.2 * longest > seconds {
            break;
        }
        trace::set_enabled(traced);
        let spans_before = trace::spans().len();
        let pass_start = trace::now();
        let t = Instant::now();
        let mut pass = Pass::default();
        for (i, input) in inputs.iter().enumerate() {
            outcome.attempted += 1;
            let run = match trace::span("job", || run_design(input, &config)) {
                Ok(run) => run,
                Err(e) => {
                    outcome.fail(e);
                    continue;
                }
            };
            let mut problems: Vec<String> = invariants(&run.report)
                .into_iter()
                .map(|p| format!("{}: {p}", input.name))
                .collect();
            if let Some(eco) = &run.eco {
                problems.extend(eco_failures(&input.name, &run.report, eco));
            }
            let facts = Facts::of(&run.report);
            if let Some(reference) = references.get(workload, &input.name) {
                if passes.is_empty() {
                    checked_against_reference += 1;
                }
                problems.extend(
                    facts
                        .diff(reference)
                        .into_iter()
                        .map(|d| format!("{}: {d}", input.name)),
                );
            }
            match &first[i] {
                None => first[i] = Some(facts.clone()),
                Some(f) if *f != facts => {
                    problems.push(format!("{}: report differs between passes", input.name))
                }
                Some(_) => {}
            }
            if !problems.is_empty() {
                outcome.fail(problems.join("; "));
            }
            pass.setup_s += run.setup_s;
            pass.pipeline_s += run.pipeline_s;
            pass.faults += run.report.total_faults as f64;
            pass.undetected += run.report.undetected() as f64;
            pass.test_cycles += run.report.program.total_cycles() as f64;
            pass.designs += 1;
            for (acc, ms) in pass.eco_ms.iter_mut().zip(&run.eco_ms) {
                *acc += ms;
            }
            pass.targeted_atpg += (run.report.comb.targeted + run.report.seq.targeted) as u64;
            if let Some(eco) = &run.eco {
                let totals = eco.total_counters();
                pass.eco_reused += totals.verdicts_reused;
                pass.eco_invalidated += totals.cones_invalidated;
            }
            for (name, m) in run.report.stages() {
                match pass.stage_metrics.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, acc)) => {
                        acc.counters.merge(&m.counters);
                        acc.mem.peak_bytes = acc.mem.peak_bytes.max(m.mem.peak_bytes);
                        acc.mem.arena_bytes = acc.mem.arena_bytes.max(m.mem.arena_bytes);
                    }
                    None => pass.stage_metrics.push((name, m.clone())),
                }
            }
            outcome.keep_facts(&input.name, &facts);
        }
        pass.wall_s = t.elapsed().as_secs_f64();
        if traced {
            let spans = trace::spans();
            let spans = &spans[spans_before..];
            pass.layers = trace::self_times(spans).into_iter().collect();
            pass.uncovered = trace::uncovered_share(spans, pass_start, trace::now());
        }
        passes.push(pass);
    }
    // More set-ups alone, so `setup_s` is a median of several.
    let mut setups: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    trace::set_enabled(false);
    while setups.len() < MAX_SETUPS {
        let longest = setups.iter().copied().fold(0.0, f64::max);
        if setups.len() >= MIN_SETUPS && start.elapsed().as_secs_f64() + longest > seconds {
            break;
        }
        let t = Instant::now();
        for input in inputs {
            outcome.attempted += 1;
            if let Err(e) = setup(input, &config) {
                outcome.fail(e);
            }
        }
        setups.push(t.elapsed().as_secs_f64());
    }
    outcome.note(format!(
        "{} pass(es), {} set-up(s); {} design(s) per pass; {} checked against committed reference values",
        passes.len(),
        setups.len(),
        inputs.len(),
        checked_against_reference
    ));

    let all = |f: fn(&Pass) -> f64| -> Vec<f64> { passes.iter().map(f).collect() };
    // A batch request is the whole workload: every design set up and
    // screened. Its latency is the pass's set-up plus stage time.
    let jobs: Vec<f64> = passes
        .iter()
        .map(|p| (p.setup_s + p.pipeline_s) * 1e3)
        .collect();
    let ecos: Vec<f64> = passes.iter().flat_map(|p| p.eco_ms).collect();
    // Every allocation of the run so far: set-ups, stages, ECO reruns.
    let peak = crate::run_peak_bytes();
    // Rates over the median set-up and stage times: every set-up of the
    // run counts, not only those of its one or two passes.
    let setup_s = median(&setups);
    let pipeline_s = median(&all(|p| p.pipeline_s));
    let per_s = |n: f64| n / (setup_s + pipeline_s);
    outcome.metrics = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("pipeline_s", pipeline_s, "s"),
        Metric::new("faults_per_s", per_s(median(&all(|p| p.faults))), "1/s"),
        Metric::new("peak_mb", peak as f64 / 1e6, "MB"),
        Metric::new("test_cycles", median(&all(|p| p.test_cycles)), "cycles"),
        Metric::new(
            "requests_per_s",
            per_s(median(&all(|p| p.designs as f64))),
            "1/s",
        ),
        Metric::new("latency_p50_ms", median(&jobs), "ms"),
        Metric::new("latency_p99_ms", percentile(&jobs, 99.0), "ms"),
        Metric::new("eco_p50_ms", median(&ecos), "ms"),
    ];
    if !traced {
        return outcome;
    }

    // Per-layer metrics from the traced passes.
    let layer = |name: &str| -> f64 {
        median(
            &passes
                .iter()
                .map(|p| {
                    p.layers
                        .iter()
                        .find(|(n, _)| *n == name)
                        .map_or(0.0, |&(_, s)| s)
                })
                .collect::<Vec<_>>(),
        )
    };
    // Stage spans per screening, not per pass.
    let reps = inputs.iter().map(|i| i.reps).max().unwrap_or(1) as f64;
    let stage_layer = |name: &str| -> f64 { layer(name) / reps };
    let last = passes.last().expect("at least one pass ran");
    let stage = |name: &str| -> &StageMetrics {
        &last
            .stage_metrics
            .iter()
            .find(|(n, _)| *n == name)
            .expect("every stage reports metrics")
            .1
    };
    let sum = |f: fn(&StageMetrics) -> u64| -> f64 {
        ["classify", "alternating", "comb", "compact", "seq"]
            .iter()
            .map(|s| f(stage(s)))
            .sum::<u64>() as f64
    };
    let atpg = |f: fn(&StageMetrics) -> u64| -> f64 { (f(stage("comb")) + f(stage("seq"))) as f64 };
    let wall: f64 = passes.iter().map(|p| p.wall_s).sum();
    let m = vec![
        Metric::new("quality.undetected", last.undetected, "count"),
        Metric::new("netlist.parse_s", layer("netlist.parse"), "s"),
        Metric::new("scan.tpi_s", layer("scan.tpi"), "s"),
        Metric::new("netlist.compile_s", layer("netlist.compile"), "s"),
        Metric::new("fault.collapse_s", layer("fault.collapse"), "s"),
        Metric::new("core.classify_s", stage_layer("core.classify"), "s"),
        Metric::new("core.alternating_s", stage_layer("core.alternating"), "s"),
        Metric::new("core.comb_s", stage_layer("core.comb"), "s"),
        Metric::new("core.compact_s", stage_layer("core.compact"), "s"),
        Metric::new("core.seq_s", stage_layer("core.seq"), "s"),
        Metric::new(
            "core.eco_rerun_s",
            layer("core.eco_rerun") / ECO_REPS as f64,
            "s",
        ),
        Metric::new(
            "scan.patch_s",
            (layer("scan.patch") + layer("netlist.patch")) / ECO_REPS as f64,
            "s",
        ),
        Metric::new(
            "atpg.podem_decisions",
            atpg(|m| m.counters.podem_decisions),
            "count",
        ),
        Metric::new(
            "atpg.podem_backtracks",
            atpg(|m| m.counters.podem_backtracks),
            "count",
        ),
        Metric::new(
            "atpg.podem_aborts",
            atpg(|m| m.counters.podem_aborts),
            "count",
        ),
        Metric::new(
            "atpg.abort_ratio",
            atpg(|m| m.counters.podem_aborts) / (last.targeted_atpg.max(1) as f64),
            "ratio",
        ),
        Metric::new("sim.gate_evals", sum(|m| m.counters.gate_evals), "count"),
        Metric::new(
            "sim.kernel_gate_evals",
            sum(|m| m.counters.kernel_gate_evals),
            "count",
        ),
        Metric::new(
            "sim.implication_words",
            sum(|m| m.counters.implication_words),
            "count",
        ),
        Metric::new("sim.lane_cycles", sum(|m| m.counters.lane_cycles), "count"),
        Metric::new(
            "sim.faults_dropped",
            sum(|m| m.counters.faults_dropped),
            "count",
        ),
        Metric::new(
            "core.vectors_compacted",
            sum(|m| m.counters.vectors_compacted),
            "count",
        ),
        Metric::new(
            "mem.peak_bytes",
            ["classify", "alternating", "comb", "compact", "seq"]
                .iter()
                .map(|s| stage(s).mem.peak_bytes)
                .max()
                .unwrap_or(0) as f64,
            "bytes",
        ),
        Metric::new(
            "mem.arena_bytes",
            ["classify", "alternating", "comb", "compact", "seq"]
                .iter()
                .map(|s| stage(s).mem.arena_bytes)
                .max()
                .unwrap_or(0) as f64,
            "bytes",
        ),
        Metric::new("core.verdicts_reused", last.eco_reused as f64, "count"),
        Metric::new(
            "core.cones_invalidated",
            last.eco_invalidated as f64,
            "count",
        ),
        Metric::new(
            "eco.reuse_ratio",
            last.eco_reused as f64 / ((last.eco_reused + last.eco_invalidated).max(1) as f64),
            "ratio",
        ),
        Metric::new(
            "trace.uncovered_share",
            median(&all(|p| p.uncovered)),
            "ratio",
        ),
        Metric::new(
            "trace.overhead_share",
            trace::recorder_seconds() / wall,
            "ratio",
        ),
    ];
    outcome.layers = m;
    outcome
}
