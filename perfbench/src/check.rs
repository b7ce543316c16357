//! Output checks: the deterministic projection of a pipeline report and
//! the reference values committed beside the benchmark.

use fscan::json::{self, Value};
use fscan::PipelineReport;
use fscan_netlist::content_hash64;

/// Report keys whose values are observed rather than computed: wall
/// clock, the scheduler-dependent worker split, and allocator figures.
const OBSERVED: [&str; 4] = ["wall_s", "shards", "peak_bytes", "reallocs"];

fn strip_observed(v: &Value) -> Value {
    match v {
        Value::Object(fields) => Value::Object(
            fields
                .iter()
                .filter(|(k, _)| !OBSERVED.contains(&k.as_str()))
                .map(|(k, v)| (k.clone(), strip_observed(v)))
                .collect(),
        ),
        Value::Array(items) => Value::Array(items.iter().map(strip_observed).collect()),
        other => other.clone(),
    }
}

/// Hash of the report's deterministic projection: every field of its
/// JSON form except the observed ones.
pub fn projection_hash(report: &Value) -> u64 {
    content_hash64(strip_observed(report).render_compact().as_bytes())
}

/// Named deterministic facts of one design's report, compared field by
/// field against the committed reference so a mismatch says what moved.
#[derive(Clone, Debug, PartialEq)]
pub struct Facts {
    pub fields: Vec<(&'static str, u64)>,
    pub projection: u64,
}

impl Facts {
    pub fn of(report: &PipelineReport) -> Facts {
        let totals = report.total_counters();
        let cycles = report.program.total_cycles() as u64;
        Facts {
            fields: vec![
                ("total_faults", report.total_faults as u64),
                ("easy", report.classification.easy as u64),
                ("hard", report.classification.hard as u64),
                ("alternating_detected", report.alternating.detected as u64),
                ("comb_detected", report.comb.detected as u64),
                ("comb_undetectable", report.comb.undetectable as u64),
                ("seq_detected", report.seq.detected as u64),
                ("seq_undetectable", report.seq.undetectable as u64),
                ("undetected", report.undetected() as u64),
                ("test_cycles", cycles),
                ("gate_evals", totals.gate_evals),
                ("podem_decisions", totals.podem_decisions),
                ("podem_backtracks", totals.podem_backtracks),
                ("podem_aborts", totals.podem_aborts),
            ],
            projection: projection_hash(&json::report_to_value(report)),
        }
    }

    pub fn to_value(&self) -> Value {
        let mut fields: Vec<(String, Value)> = self
            .fields
            .iter()
            .map(|&(k, v)| (k.to_string(), Value::UInt(v)))
            .collect();
        fields.push((
            "projection".to_string(),
            Value::Str(format!("{:016x}", self.projection)),
        ));
        Value::Object(fields)
    }

    /// Differences against a committed reference entry, one line each.
    pub fn diff(&self, reference: &Value) -> Vec<String> {
        let mut out = Vec::new();
        for &(name, value) in &self.fields {
            match reference.get(name).and_then(Value::as_u64) {
                Some(want) if want == value => {}
                Some(want) => out.push(format!("{name}: got {value}, reference {want}")),
                None => out.push(format!("{name}: missing from reference")),
            }
        }
        let want = reference.get("projection").and_then(Value::as_str);
        let got = format!("{:016x}", self.projection);
        if want != Some(got.as_str()) {
            out.push(format!(
                "projection: got {got}, reference {}",
                want.unwrap_or("none")
            ));
        }
        out
    }
}

/// Internal consistency every pipeline report must satisfy, whatever
/// its input.
pub fn invariants(report: &PipelineReport) -> Vec<String> {
    let mut out = Vec::new();
    if report.compact.lost != 0 {
        out.push(format!(
            "compaction lost {} detections",
            report.compact.lost
        ));
    }
    if report.undetected_faults.len() != report.undetected() {
        out.push(format!(
            "{} undetected faults listed, {} counted",
            report.undetected_faults.len(),
            report.undetected()
        ));
    }
    if report.classification.total != report.total_faults {
        out.push(format!(
            "classified {} of {} faults",
            report.classification.total, report.total_faults
        ));
    }
    out
}

/// The committed reference values: workload → design → facts. Seeds
/// only relabel nets, which no report field depends on, so one entry
/// serves every seed.
pub struct References(Value);

impl References {
    pub fn load() -> References {
        let text = include_str!("../reference.json");
        References(json::parse(text).expect("reference.json is valid JSON"))
    }

    pub fn get(&self, workload: &str, design: &str) -> Option<&Value> {
        self.0.get(workload)?.get(design)
    }
}
