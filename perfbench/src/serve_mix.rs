//! The `serve-mix` workload: a closed loop of two keep-alive clients
//! against an `fscan-serve` server with two workers.
//!
//! The server runs in a child process (this binary re-executed with
//! [`CHILD_FLAG`]) so its heap and threads are its own. Each client
//! sends a seeded mix — `/run` of 21 designs against a 16-entry design
//! cache (mostly warm, some cold), `/eco` edits against the key its last
//! `/run` returned, and malformed bodies — one request at a time, each in a single write
//! on a `TCP_NODELAY` socket, so any stall between response head and
//! body belongs to the server. Every answer is checked: a `/run` report
//! against the in-process run of the same design, an `/eco` report
//! against a cold in-process run of the edited netlist, a malformed
//! body against its expected 4xx kind.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, ChildStdout, Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fscan::json::{self, config_to_value, Value};
use fscan::{PipelineConfig, PipelineReport, PipelineSession};
use fscan_bench::{scaled_config, SuiteCircuit, PAPER_SUITE};
use fscan_netlist::{content_hash64, generate, NetlistDelta};
use fscan_scan::ScanDesign;
use fscan_serve::server::{spawn, ServerConfig};
use fscan_serve::RunRequest;

use crate::batch::{bench_text, build_design};
use crate::check::projection_hash;
use crate::stats::{derive_seed, median, percentile, SplitMix};
use crate::trace;
use crate::{Metric, Outcome};

/// First argument that turns this binary into the server child.
pub const CHILD_FLAG: &str = "serve-child";
/// The child's last line of stdout: its whole-run heap peak in bytes.
const PEAK_PREFIX: &str = "peak bytes ";

/// Suite circuits whose scaled designs make up the mix, and the scale.
const CIRCUITS: usize = 7;
const SCALE: f64 = 0.05;
/// Variants of each circuit (variant 0 is the committed Table-1 seed):
/// 21 designs against the server's 16-entry design cache, so most
/// `/run`s hit and the miss and eviction paths stay live.
const VARIANTS: u64 = 3;
const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// Server spawns timed for `setup_s`; the last one serves the load.
const SPAWNS: usize = 25;
/// Requests drawn per client (the schedule wraps if a run outlasts it).
const SCHEDULE_LEN: usize = 8192;
/// A failed or refused request enters the latency sample at no less
/// than this, so it counts as missing any latency limit up to it.
const FAILED_LATENCY_MS: f64 = 10_000.0;
/// Bound on one exchange; a request that takes longer has failed.
const EXCHANGE_TIMEOUT: Duration = Duration::from_secs(30);

/// Composition of each schedule block, plus one of each malformed
/// body: every design run twice, and 6 ECOs (42 runs, 6 ECOs, 3
/// malformed). These weights are assumptions, not observed traffic.
/// Their only source is the shape "mostly warm `/run`, some cold, some
/// `/eco`, some malformed"; every design is taken to be equally
/// popular, and the design cache alone decides which runs are warm.
const RUNS_PER_BLOCK: usize = 2;
const ECOS_PER_BLOCK: usize = 6;

/// Seed of the request schedule at workload seed 0.
const SCHEDULE_SEED: u64 = 0x5e7e_0003;

/// The pipeline configuration every request carries: one worker thread
/// per run, so two server workers use the two CPUs without
/// oversubscribing them.
fn request_config() -> PipelineConfig {
    PipelineConfig::builder()
        .threads(1)
        .build()
        .expect("default budgets are valid")
}

/// The edit every `/eco` applies: a spare-cell island appended to the
/// base netlist (a constant driving an inverter that drives nothing).
const ISLAND: &str = "\neco_spare_c = CONST0()\neco_spare_g = NOT(eco_spare_c)\n";

/// One design of the mix.
pub struct Design {
    pub name: String,
    pub text: String,
    pub chains: usize,
}

impl Design {
    fn edited(&self) -> String {
        format!("{}{ISLAND}", self.text)
    }
}

/// What a client sends next.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Req {
    Run(usize),
    /// `/eco` against the design of this client's last `/run`.
    Eco,
    Malformed(usize),
}

/// Malformed bodies and the error kind each must be answered with.
const MALFORMED: [(&str, &str, &str); 3] = [
    ("/run", "{\"bench\": \"INPUT(a)\\n", "json"),
    (
        "/run",
        "{\"bench\": \"INPUT(a)\\nb = FROB(a)\\n\", \"name\": \"bad\"}",
        "bench_parse",
    ),
    ("/eco", "{\"base\": \"zz\", \"bench\": \"\"}", "json"),
];

/// The workload's generated inputs.
pub struct Inputs {
    pub designs: Vec<Design>,
    pub schedules: Vec<Vec<Req>>,
}

impl Inputs {
    pub fn hash(&self) -> u64 {
        let mut all = String::new();
        for d in &self.designs {
            all.push_str(&format!("{}\n{}\n{}", d.name, d.chains, d.text));
        }
        for s in &self.schedules {
            all.push_str(&format!("{s:?}"));
        }
        content_hash64(all.as_bytes())
    }
}

pub fn inputs(seed: u64) -> Inputs {
    let mut designs = Vec::new();
    for v in 0..VARIANTS {
        for c in PAPER_SUITE.iter().take(CIRCUITS) {
            let circuit = SuiteCircuit {
                seed: c.seed.wrapping_add(v << 32),
                ..*c
            };
            designs.push(Design {
                name: format!("{}-v{v}", c.name),
                text: bench_text(
                    &generate(&scaled_config(&circuit, SCALE)),
                    seed,
                    circuit.seed,
                ),
                chains: c.chains,
            });
        }
    }
    let mut rng = SplitMix(derive_seed(SCHEDULE_SEED, seed));
    let schedules = (0..CLIENTS)
        .map(|client| {
            let mut rng = SplitMix(rng.next_u64() ^ client as u64);
            // Each client first uploads its half of the designs once, so
            // every design is served early in the run.
            let mut s: Vec<Req> = (0..designs.len())
                .filter(|d| d % CLIENTS == client)
                .map(Req::Run)
                .collect();
            // Then shuffled blocks of fixed composition. The seed orders
            // each block; the mix of classes and designs, which sets the
            // cost, stays fixed.
            while s.len() < SCHEDULE_LEN {
                let mut block: Vec<Req> = (0..designs.len())
                    .flat_map(|d| std::iter::repeat_n(Req::Run(d), RUNS_PER_BLOCK))
                    .chain(std::iter::repeat_n(Req::Eco, ECOS_PER_BLOCK))
                    .chain((0..MALFORMED.len()).map(Req::Malformed))
                    .collect();
                for i in (1..block.len()).rev() {
                    block.swap(i, rng.below(i + 1));
                }
                s.extend(block);
            }
            s
        })
        .collect();
    Inputs { designs, schedules }
}

// ---------------------------------------------------------------------
// The server child.
// ---------------------------------------------------------------------

/// Runs the server until `/shutdown`; prints `listening on ADDR` once
/// bound.
pub fn child_main() -> ExitCode {
    let config = ServerConfig {
        workers: WORKERS,
        ..ServerConfig::default()
    };
    let handle = match spawn(&config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("serve-child: bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("listening on {}", handle.addr());
    let _ = std::io::stdout().flush();
    handle.join();
    println!("{PEAK_PREFIX}{}", crate::run_peak_bytes());
    ExitCode::SUCCESS
}

/// A spawned server child; killed and reaped on drop if still running.
struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Server {
    /// Spawns the child and waits for its first `/healthz` 200.
    fn start() -> Result<(Server, f64), String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let t0 = Instant::now();
        let mut child = Command::new(exe)
            .arg(CHILD_FLAG)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let mut line = String::new();
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let _ = stdout.read_line(&mut line);
        let addr: Option<SocketAddr> = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok());
        let mut server = Server {
            child,
            stdout,
            addr: "127.0.0.1:0".parse().expect("literal address"),
        };
        server.addr = addr.ok_or_else(|| format!("server did not report its address: {line:?}"))?;
        let mut conn = Conn::open(server.addr).map_err(|e| format!("connect: {e}"))?;
        let health = conn
            .exchange(&request_bytes("GET", "/healthz", b""))
            .map_err(|e| format!("healthz: {e}"))?;
        if health.status != 200 {
            return Err(format!("healthz answered {}", health.status));
        }
        Ok((server, t0.elapsed().as_secs_f64()))
    }

    /// Shuts the server down over HTTP, waits for it to exit, and
    /// returns the heap peak it reported.
    fn stop(mut self) -> Result<u64, String> {
        if let Ok(mut conn) = Conn::open(self.addr) {
            let _ = conn.exchange(&request_bytes("POST", "/shutdown", b""));
        }
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let _ = self.child.wait();
        rest.lines()
            .find_map(|l| l.strip_prefix(PEAK_PREFIX)?.parse().ok())
            .ok_or_else(|| format!("server did not report its heap peak: {rest:?}"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

// ---------------------------------------------------------------------
// The client side.
// ---------------------------------------------------------------------

fn request_bytes(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

struct Answer {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
    head_at: Instant,
    end_at: Instant,
}

impl Answer {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// One keep-alive connection.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(EXCHANGE_TIMEOUT))?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
        })
    }

    /// Sends one request in a single write and reads the whole answer,
    /// noting when the head and the last byte arrived.
    fn exchange(&mut self, request: &[u8]) -> Result<Answer, String> {
        self.stream
            .write_all(request)
            .map_err(|e| format!("write: {e}"))?;
        let mut chunk = [0u8; 64 * 1024];
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p + 4;
            }
            let n = self
                .stream
                .read(&mut chunk)
                .map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("connection closed before the response head".to_string());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head_at = Instant::now();
        let head = String::from_utf8_lossy(&self.buf[..head_end]).to_string();
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line in {head:?}"))?;
        let headers: Vec<(String, String)> = lines
            .filter_map(|l| l.split_once(':'))
            .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
            .collect();
        let len: usize = headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .and_then(|(_, v)| v.parse().ok())
            .ok_or("response without content-length")?;
        while self.buf.len() < head_end + len {
            let n = self
                .stream
                .read(&mut chunk)
                .map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("connection closed inside the response body".to_string());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let end_at = Instant::now();
        let body = self.buf[head_end..head_end + len].to_vec();
        self.buf.drain(..head_end + len);
        Ok(Answer {
            status,
            headers,
            body,
            head_at,
            end_at,
        })
    }
}

/// Request classes as reported.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Class {
    Run,
    Eco,
    Malformed,
}

/// One finished request.
struct Sample {
    /// Client in the high 32 bits, the client's request number below.
    id: u64,
    class: Class,
    ok: bool,
    latency_ms: f64,
    head_ms: f64,
    body_ms: f64,
    /// Stage seconds the report states, in flow order (200 `/run` and
    /// `/eco`).
    stages: Option<[f64; 5]>,
    total_faults: u64,
    peak_bytes: u64,
    cache_miss: bool,
    /// `/eco`: reused and recomputed verdicts from `x-fscan-eco`.
    eco_split: Option<(u64, u64)>,
    design: Option<usize>,
    /// `/run`: undetected faults and test cycles the report states.
    quality: Option<(u64, u64)>,
}

/// The in-process expectations for every design.
struct Expect {
    run_projection: Vec<u64>,
    eco_fields: Vec<Vec<(&'static str, u64)>>,
    /// Reused and recomputed verdicts of the incremental rerun the
    /// `/eco` handler makes: `x-fscan-eco` must state exactly these.
    eco_split: Vec<(u64, u64)>,
    /// For the traced replay: each design, its report, its edited
    /// circuit after scan insertion.
    designs: Vec<Arc<ScanDesign>>,
    reports: Vec<PipelineReport>,
    edited: Vec<Arc<ScanDesign>>,
}

/// The fields of a report that do not depend on node numbering: an
/// `/eco` answer is a patched design, a cold run parses the edited
/// netlist afresh, and the two number their nodes differently.
fn numbering_free(report: &PipelineReport) -> Vec<(&'static str, u64)> {
    vec![
        ("total_faults", report.total_faults as u64),
        ("easy", report.classification.easy as u64),
        ("hard", report.classification.hard as u64),
        ("alternating_detected", report.alternating.detected as u64),
        ("comb_detected", report.comb.detected as u64),
        ("undetected", report.undetected() as u64),
        ("undetected_listed", report.undetected_faults.len() as u64),
        ("tests", report.program.tests().len() as u64),
    ]
}

fn expectations(inputs: &Inputs) -> Result<Expect, String> {
    let mut e = Expect {
        run_projection: Vec::new(),
        eco_fields: Vec::new(),
        eco_split: Vec::new(),
        designs: Vec::new(),
        reports: Vec::new(),
        edited: Vec::new(),
    };
    for d in &inputs.designs {
        let design = build_design(&d.name, &d.text, d.chains, 0)?;
        let session = PipelineSession::shared(Arc::clone(&design), request_config());
        let report = session.clone().run();
        e.run_projection
            .push(projection_hash(&json::report_to_value(&report)));
        let edited = build_design(&d.name, &d.edited(), d.chains, 0)?;
        let cold = PipelineSession::shared(Arc::clone(&edited), request_config()).run();
        e.eco_fields.push(numbering_free(&cold));
        let delta = NetlistDelta::diff(design.circuit(), edited.circuit())
            .map_err(|err| format!("{}: eco diff: {err}", d.name))?;
        let (rerun, _) = session
            .rerun_with_design(&report, &delta)
            .map_err(|err| format!("{}: eco rerun: {err}", d.name))?;
        let totals = rerun.total_counters();
        e.eco_split
            .push((totals.verdicts_reused, totals.cones_invalidated));
        e.designs.push(design);
        e.reports.push(report);
        e.edited.push(edited);
    }
    Ok(e)
}

/// Runs one client's closed loop until `deadline`.
fn client_loop(
    client: usize,
    addr: SocketAddr,
    inputs: &Inputs,
    expect: &Expect,
    deadline: Instant,
    traced: bool,
) -> (Vec<Sample>, Vec<String>) {
    let schedule = &inputs.schedules[client];
    let config = request_config();
    let mut samples = Vec::new();
    let mut failures = Vec::new();
    let mut conn: Option<Conn> = None;
    // (design, key) of this client's last successful /run.
    let mut last_run: Option<(usize, String)> = None;
    let mut i = 0usize;
    while Instant::now() < deadline {
        let mut req = schedule[i % schedule.len()];
        i += 1;
        if req == Req::Eco && last_run.is_none() {
            req = Req::Run(0);
        }
        let (path, body, class, design) = match req {
            Req::Run(d) => {
                let dz = &inputs.designs[d];
                let body = RunRequest {
                    config: Some(&config),
                    ..RunRequest::new(&dz.text, &dz.name, dz.chains)
                }
                .to_json();
                ("/run", body, Class::Run, Some(d))
            }
            Req::Eco => {
                let (d, key) = last_run.clone().expect("checked above");
                let dz = &inputs.designs[d];
                let body = Value::object([
                    ("base", Value::Str(key)),
                    ("bench", Value::Str(dz.edited())),
                    ("name", Value::Str(dz.name.clone())),
                    ("chains", Value::UInt(dz.chains as u64)),
                    ("config", config_to_value(&config)),
                ])
                .render_compact();
                ("/eco", body, Class::Eco, Some(d))
            }
            Req::Malformed(k) => (
                MALFORMED[k].0,
                MALFORMED[k].1.to_string(),
                Class::Malformed,
                None,
            ),
        };
        let request = request_bytes("POST", path, body.as_bytes());
        let req_id = (client as u64) << 32 | i as u64;
        if conn.is_none() {
            conn = Conn::open(addr).ok();
        }
        let sent = Instant::now();
        let result = match conn.as_mut() {
            Some(c) => c.exchange(&request),
            None => Err("connect failed".to_string()),
        };
        let mut sample = Sample {
            id: req_id,
            class,
            ok: false,
            latency_ms: 0.0,
            head_ms: 0.0,
            body_ms: 0.0,
            stages: None,
            total_faults: 0,
            peak_bytes: 0,
            cache_miss: false,
            eco_split: None,
            design,
            quality: None,
        };
        let answer = match result {
            Ok(a) => a,
            Err(e) => {
                conn = None;
                sample.latency_ms = (sent.elapsed().as_secs_f64() * 1e3).max(FAILED_LATENCY_MS);
                failures.push(format!("client {client} request {i} {path}: {e}"));
                samples.push(sample);
                continue;
            }
        };
        sample.latency_ms = (answer.end_at - sent).as_secs_f64() * 1e3;
        sample.head_ms = (answer.head_at - sent).as_secs_f64() * 1e3;
        sample.body_ms = (answer.end_at - answer.head_at).as_secs_f64() * 1e3;
        if traced {
            let (s, h, e) = (
                trace::at(sent),
                trace::at(answer.head_at),
                trace::at(answer.end_at),
            );
            trace::record("serve.head", req_id, s, h);
            trace::record("serve.body", req_id, h, e);
        }
        if answer.header("connection") == Some("close") {
            conn = None;
        }
        let verdict = check_answer(req, &answer, design, expect, &mut sample);
        match verdict {
            Ok(()) => {
                sample.ok = true;
                if let (Req::Run(d), Some(key)) = (req, answer.header("x-fscan-key")) {
                    last_run = Some((d, key.to_string()));
                }
            }
            Err(e) => {
                sample.latency_ms = sample.latency_ms.max(FAILED_LATENCY_MS);
                failures.push(format!("client {client} request {i} {path}: {e}"));
            }
        }
        samples.push(sample);
    }
    (samples, failures)
}

const STAGES: [&str; 5] = ["classification", "alternating", "comb", "compact", "seq"];

fn stage_seconds(report: &Value) -> [f64; 5] {
    STAGES.map(|s| {
        report
            .get(s)
            .and_then(|v| v.get("metrics")?.get("wall_s")?.as_f64())
            .unwrap_or(0.0)
    })
}

fn peak_of(report: &Value) -> u64 {
    STAGES
        .iter()
        .filter_map(|s| {
            report
                .get(s)?
                .get("metrics")?
                .get("mem")?
                .get("peak_bytes")?
                .as_u64()
        })
        .max()
        .unwrap_or(0)
}

fn check_answer(
    req: Req,
    answer: &Answer,
    design: Option<usize>,
    expect: &Expect,
    sample: &mut Sample,
) -> Result<(), String> {
    let text = std::str::from_utf8(&answer.body).map_err(|_| "body is not UTF-8")?;
    if let Req::Malformed(k) = req {
        let want = MALFORMED[k].2;
        let doc = json::parse(text).map_err(|e| format!("error body: {e}"))?;
        let kind = doc
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Value::as_str);
        if !(400..500).contains(&answer.status) || kind != Some(want) {
            return Err(format!(
                "expected a 4xx `{want}` error, got {} {kind:?}",
                answer.status
            ));
        }
        return Ok(());
    }
    if answer.status != 200 {
        return Err(format!(
            "status {}: {}",
            answer.status,
            text.chars().take(200).collect::<String>()
        ));
    }
    let d = design.expect("run and eco requests name a design");
    let doc = json::parse(text).map_err(|e| format!("report body: {e}"))?;
    sample.stages = Some(stage_seconds(&doc));
    sample.peak_bytes = peak_of(&doc);
    sample.total_faults = doc.get("total_faults").and_then(Value::as_u64).unwrap_or(0);
    match req {
        Req::Run(_) => {
            sample.cache_miss = answer.header("x-fscan-cache") == Some("miss");
            if answer.header("x-fscan-key").is_none() {
                return Err("no x-fscan-key".to_string());
            }
            if projection_hash(&doc) != expect.run_projection[d] {
                return Err("report differs from the in-process run of the same design".to_string());
            }
            let report = json::report_from_value(&doc).map_err(|e| format!("report: {e}"))?;
            sample.quality = Some((
                report.undetected() as u64,
                report.program.total_cycles() as u64,
            ));
        }
        Req::Eco => {
            let split = answer
                .header("x-fscan-eco")
                .ok_or("no x-fscan-eco header")?
                .to_string();
            let parse = |key: &str| -> Option<u64> {
                split
                    .split(' ')
                    .find_map(|kv| kv.strip_prefix(key))
                    .and_then(|v| v.parse().ok())
            };
            let (reused, recomputed) = parse("reused=")
                .zip(parse("recomputed="))
                .ok_or_else(|| format!("malformed x-fscan-eco: {split}"))?;
            sample.eco_split = Some((reused, recomputed));
            // A cold fallback answers reused=0; the island touches no
            // existing fault's cone, so the incremental path must serve
            // it, with the split the in-process rerun gives.
            if reused == 0 || (reused, recomputed) != expect.eco_split[d] {
                return Err(format!(
                    "eco split reused={reused} recomputed={recomputed}, expected reused={} recomputed={}",
                    expect.eco_split[d].0, expect.eco_split[d].1
                ));
            }
            let report = json::report_from_value(&doc).map_err(|e| format!("report: {e}"))?;
            let got = numbering_free(&report);
            if got != expect.eco_fields[d] {
                return Err(format!(
                    "eco report {got:?} differs from a cold run of the edited netlist {:?}",
                    expect.eco_fields[d]
                ));
            }
        }
        Req::Malformed(_) => unreachable!("handled above"),
    }
    Ok(())
}

/// Replays the sent sequence in process through the public functions
/// the handlers call, one span per call (traced runs only).
fn replay(samples: &[Sample], inputs: &Inputs, expect: &Expect) {
    for s in samples {
        let Some(d) = s.design else { continue };
        if !s.ok {
            continue;
        }
        let req = s.id;
        if s.cache_miss {
            let dz = &inputs.designs[d];
            let _ = build_design(&dz.name, &dz.text, dz.chains, req);
        }
        let report = match s.class {
            Class::Eco => {
                let base = &expect.designs[d];
                let delta = trace::span_req("netlist.diff", req, || {
                    NetlistDelta::diff(base.circuit(), expect.edited[d].circuit())
                });
                let Ok(delta) = delta else { continue };
                let session = PipelineSession::shared(Arc::clone(base), request_config());
                match trace::span_req("core.eco_rerun", req, || {
                    session.rerun_with_design(&expect.reports[d], &delta)
                }) {
                    Ok((report, _)) => report,
                    Err(_) => continue,
                }
            }
            _ => expect.reports[d].clone(),
        };
        std::hint::black_box(trace::span_req("core.json_render", req, || {
            json::report_to_json(&report)
        }));
    }
}

pub fn run(inputs: &Inputs, seconds: f64, traced: bool) -> Outcome {
    let mut outcome = Outcome::default();
    let expect = match expectations(inputs) {
        Ok(e) => e,
        Err(e) => {
            outcome.attempted += 1;
            outcome.fail(format!("building the expected reports: {e}"));
            return outcome;
        }
    };

    // setup_s: spawn → first /healthz 200, several times.
    let mut setups = Vec::new();
    let mut server = None;
    for k in 0..SPAWNS {
        outcome.attempted += 1;
        match Server::start() {
            Ok((s, t)) => {
                setups.push(t);
                if k + 1 == SPAWNS {
                    server = Some(s);
                } else {
                    let _ = s.stop();
                }
            }
            Err(e) => outcome.fail(format!("server start: {e}")),
        }
    }
    let Some(server) = server else {
        return outcome;
    };

    trace::set_enabled(traced);
    let window_start = trace::now();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let results: Vec<(Vec<Sample>, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let expect = &expect;
                scope.spawn(move || client_loop(c, server.addr, inputs, expect, deadline, traced))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let window = start.elapsed().as_secs_f64();
    let window_end = trace::now();
    trace::set_enabled(false);

    let stats = Conn::open(server.addr)
        .map_err(|e| e.to_string())
        .and_then(|mut c| c.exchange(&request_bytes("GET", "/stats", b"")))
        .and_then(|a| json::parse(&String::from_utf8_lossy(&a.body)).map_err(|e| e.to_string()));
    let server_peak = server.stop().unwrap_or_else(|e| {
        outcome.attempted += 1;
        outcome.fail(e);
        0
    });
    let stats = match stats {
        Ok(s) => s,
        Err(e) => {
            outcome.attempted += 1;
            outcome.fail(format!("/stats: {e}"));
            Value::Null
        }
    };

    let mut samples: Vec<Sample> = Vec::new();
    for (s, f) in results {
        samples.extend(s);
        for failure in f {
            outcome.fail(failure);
        }
    }
    outcome.attempted += samples.len() as u64;

    let latencies: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    let ecos: Vec<f64> = samples
        .iter()
        .filter(|s| s.class == Class::Eco)
        .map(|s| s.latency_ms)
        .collect();
    // Stage seconds to screen each distinct design once, as served: the
    // median over a design's 200 `/run` answers, summed over designs.
    let mut per_design: Vec<Vec<f64>> = vec![Vec::new(); inputs.designs.len()];
    for s in samples.iter().filter(|s| s.class == Class::Run) {
        if let (Some(d), Some(w)) = (s.design, s.stages) {
            per_design[d].push(w.iter().sum());
        }
    }
    let stage_total: f64 = per_design.iter().map(|v| median(v)).sum();
    let faults: u64 = samples.iter().map(|s| s.total_faults).sum();
    let mut quality: Vec<Option<(u64, u64)>> = vec![None; inputs.designs.len()];
    for s in &samples {
        if let (Some(d), Some(q)) = (s.design, s.quality) {
            quality[d].get_or_insert(q);
        }
    }
    let served = quality.iter().flatten().count();
    // `mem.peak_bytes`: the largest stage peak an answer reports.
    let peak = samples.iter().map(|s| s.peak_bytes).max().unwrap_or(0);
    let beyond_p99 = {
        let cut = percentile(&latencies, 99.0);
        latencies.iter().filter(|&&l| l > cut).count()
    };
    let count = |c: Class| samples.iter().filter(|s| s.class == c).count();
    outcome.note(format!(
        "{} requests in {:.2} s ({} run, {} eco, {} malformed); {} beyond p99; {} of {} designs answered",
        samples.len(),
        window,
        count(Class::Run),
        count(Class::Eco),
        count(Class::Malformed),
        beyond_p99,
        served,
        inputs.designs.len()
    ));
    let ok: Vec<&Sample> = samples.iter().filter(|s| s.ok).collect();
    let head: Vec<f64> = ok.iter().map(|s| s.head_ms).collect();
    let body: Vec<f64> = ok.iter().map(|s| s.body_ms).collect();
    outcome.note(format!(
        "head/body split: head p50 {:.3} ms, body p50 {:.3} ms",
        median(&head),
        median(&body)
    ));
    outcome.note(format!("server /stats: {}", stats.render_compact()));

    let sum_q =
        |f: fn(&(u64, u64)) -> u64| -> f64 { quality.iter().flatten().map(f).sum::<u64>() as f64 };
    outcome.metrics = vec![
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new("pipeline_s", stage_total, "s"),
        Metric::new("faults_per_s", faults as f64 / window, "1/s"),
        Metric::new("peak_mb", server_peak as f64 / 1e6, "MB"),
        Metric::new("test_cycles", sum_q(|q| q.1), "cycles"),
        Metric::new("requests_per_s", samples.len() as f64 / window, "1/s"),
        Metric::new("latency_p50_ms", median(&latencies), "ms"),
        Metric::new("latency_p99_ms", percentile(&latencies, 99.0), "ms"),
        Metric::new("eco_p50_ms", median(&ecos), "ms"),
    ];
    if !traced {
        return outcome;
    }

    // Per-layer metrics: the client-side split of every answer, the
    // server's own counters, and the in-process replay.
    let overhead: Vec<f64> = ok
        .iter()
        .filter_map(|s| Some(s.head_ms - s.stages?.iter().sum::<f64>() * 1e3))
        .collect();
    let client_spans = trace::spans();
    let recorder_s = trace::recorder_seconds();
    let uncovered = trace::uncovered_share(&client_spans, window_start, window_end);

    trace::set_enabled(true);
    let replay_from = client_spans.len();
    replay(&samples, inputs, &expect);
    trace::set_enabled(false);
    let replay_spans = trace::spans();
    let per_call = |name: &str| -> f64 {
        median(
            &replay_spans[replay_from..]
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur())
                .collect::<Vec<_>>(),
        )
    };
    let (reused, recomputed) = ok
        .iter()
        .filter_map(|s| s.eco_split)
        .fold((0u64, 0u64), |(a, b), (r, c)| (a + r, b + c));
    let stat = |path: &[&str]| -> f64 {
        let mut v = &stats;
        for p in path {
            match v.get(p) {
                Some(next) => v = next,
                None => return 0.0,
            }
        }
        v.as_f64().unwrap_or(0.0)
    };
    let hits = stat(&["cache", "hits"]);
    let misses = stat(&["cache", "misses"]);
    let stage_median = |k: usize| -> f64 {
        median(
            &ok.iter()
                .filter_map(|s| Some(s.stages?[k]))
                .collect::<Vec<_>>(),
        )
    };
    outcome.layers = vec![
        Metric::new("quality.undetected", sum_q(|q| q.0), "count"),
        Metric::new("serve.head_ms", median(&head), "ms"),
        Metric::new("serve.body_ms", median(&body), "ms"),
        Metric::new("serve.overhead_ms", median(&overhead), "ms"),
        Metric::new("netlist.parse_s", per_call("netlist.parse"), "s"),
        Metric::new("scan.tpi_s", per_call("scan.tpi"), "s"),
        Metric::new("netlist.compile_s", per_call("netlist.compile"), "s"),
        Metric::new("core.classify_s", stage_median(0), "s"),
        Metric::new("core.alternating_s", stage_median(1), "s"),
        Metric::new("core.comb_s", stage_median(2), "s"),
        Metric::new("core.compact_s", stage_median(3), "s"),
        Metric::new("core.seq_s", stage_median(4), "s"),
        Metric::new("core.json_render_s", per_call("core.json_render"), "s"),
        Metric::new("netlist.diff_s", per_call("netlist.diff"), "s"),
        Metric::new("core.eco_rerun_s", per_call("core.eco_rerun"), "s"),
        Metric::new("core.verdicts_reused", reused as f64, "count"),
        Metric::new("core.cones_invalidated", recomputed as f64, "count"),
        Metric::new(
            "eco.reuse_ratio",
            reused as f64 / ((reused + recomputed).max(1) as f64),
            "ratio",
        ),
        Metric::new(
            "serve.cache_hit_ratio",
            hits / (hits + misses).max(1.0),
            "ratio",
        ),
        Metric::new("serve.evictions", stat(&["cache", "evictions"]), "count"),
        Metric::new("serve.topology_builds", stat(&["topology_builds"]), "count"),
        Metric::new("serve.rejected", stat(&["rejected"]), "count"),
        Metric::new(
            "serve.keepalive_reuses",
            stat(&["keepalive_reuses"]),
            "count",
        ),
        Metric::new("mem.peak_bytes", peak as f64, "bytes"),
        Metric::new("trace.uncovered_share", uncovered, "ratio"),
        Metric::new(
            "trace.overhead_share",
            recorder_s / (window * CLIENTS as f64),
            "ratio",
        ),
    ];
    outcome
}
