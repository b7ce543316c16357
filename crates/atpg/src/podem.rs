//! Combinational PODEM over a controllability/observability view.
//!
//! The generator itself is immutable after construction: [`Podem::run`]
//! takes `&self` and returns a self-contained [`PodemOutcome`], so one
//! engine can be shared by any number of shard workers without locks.
//! Per-search mutable state lives in a [`PodemScratch`], allocated per
//! run (or reused explicitly via [`Podem::run_with_scratch`]).
//!
//! Resimulation is event-driven: a full five-valued pass happens once at
//! construction (the *base* values, charged to [`Podem::setup_work`]);
//! each fault injection and each decision/backtrack then re-evaluates
//! only the gates in the fanout cone of the changed net, in topological
//! order, stopping where values stabilise. The resulting values are
//! bit-identical to a full resimulation — values are a pure function of
//! the assignment and the injections — but `gate_evals` counts only the
//! gates actually re-evaluated.
//!
//! The rest of a search step stays in the fault-effect cone too: every
//! value write keeps the scratch's set of fault-effect nodes current, the
//! effect checks and the D-frontier start from that set, and X-path
//! reachability is answered on demand, once per objective, only for the
//! frontier gates the objective inspects. No step sweeps the circuit.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use fscan_fault::{Fault, FaultSite};
use fscan_netlist::{Circuit, CompiledTopology, GateKind, NodeId};
use fscan_sim::{CombEvaluator, V3, WorkCounters};

use crate::dvalue::D5;

const INF: u32 = u32::MAX / 4;

/// Tuning knobs for [`Podem`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PodemConfig {
    /// Abort the search after this many backtracks.
    pub backtrack_limit: usize,
    /// Abort after this many search steps (decisions + backtracks).
    /// Each step costs one event-driven resimulation of the changed
    /// input's fanout cone, so on large (e.g. time-frame-expanded)
    /// models this is the knob that actually bounds runtime.
    pub step_limit: usize,
}

impl Default for PodemConfig {
    fn default() -> PodemConfig {
        PodemConfig {
            backtrack_limit: 20_000,
            step_limit: usize::MAX,
        }
    }
}

/// The verdict of one PODEM run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AtpgOutcome {
    /// A test was found: assignments for the controllable inputs that
    /// were decided (inputs not listed may take any value).
    Test(Vec<(NodeId, bool)>),
    /// The fault is proven undetectable under this view (the full
    /// decision space was exhausted).
    Undetectable,
    /// The backtrack budget ran out before a verdict.
    Aborted,
}

/// Everything one [`Podem::run`] produced, in one value.
///
/// Replaces the old `&mut self` run path whose results had to be
/// scraped out of the engine via `last_backtracks()` / `last_steps()` /
/// `last_work()` accessors — state that made engines unshardable. The
/// outcome is self-contained, so per-shard runs compose by value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PodemOutcome {
    /// The verdict, carrying the generated vector when a test exists.
    pub verdict: AtpgOutcome,
    /// Exact, thread-invariant work counters of this run: decisions,
    /// backtracks, aborts, and the event-driven `gate_evals`. Does not
    /// include the engine's one-time [`Podem::setup_work`].
    pub work: WorkCounters,
    /// Objective decisions taken.
    pub decisions: usize,
    /// Decision reversals taken.
    pub backtracks: usize,
}

impl PodemOutcome {
    /// The generated test vector, when the verdict is a test.
    pub fn vector(&self) -> Option<&[(NodeId, bool)]> {
        match &self.verdict {
            AtpgOutcome::Test(t) => Some(t),
            _ => None,
        }
    }

    /// Search steps consumed: decisions + backtracks, for callers that
    /// spread one budget across several runs.
    pub fn steps(&self) -> usize {
        self.decisions + self.backtracks
    }
}

/// Reusable per-search mutable state for [`Podem::run_with_scratch`].
///
/// One scratch per worker suffices; every run fully re-initialises it,
/// so reuse never leaks state between faults.
#[derive(Clone, Debug)]
pub struct PodemScratch {
    /// Five-valued value of every node under the current assignment and
    /// injections. Written only through [`PodemScratch::set_value`]
    /// after the reset in `begin`, so `effects` stays in step.
    values: Vec<D5>,
    assigned: Vec<Option<bool>>,
    /// The nodes whose value is a fault effect (D or D̄), unordered.
    /// Every effect check and the D-frontier start here, so a search
    /// step costs work in the fault-effect cone, not the circuit.
    effects: Vec<NodeId>,
    /// Node index → its position in `effects`. Meaningful only for
    /// nodes whose value is a fault effect; stale elsewhere.
    effect_pos: Vec<u32>,
    /// X-path memo of the current objective, one [`XPath`] state per
    /// node. All `Unknown` between objectives: each query's writes are
    /// listed in `xpath_touched` and undone by `reset_x_paths`.
    xpath: Vec<XPath>,
    xpath_touched: Vec<NodeId>,
    /// DFS stack of the X-path query: (node, next fanout-sink index).
    xpath_stack: Vec<(NodeId, u32)>,
    /// Buffer for the current objective's D-frontier.
    frontier: Vec<NodeId>,
    /// Stem injections of the current fault set, indexed by node.
    stem_inj: Vec<Option<bool>>,
    /// Whether a node has any branch-fault injection on its pins.
    has_branch: Vec<bool>,
    /// The (gate index, pin, stuck) branch injections (short list).
    branch_inj: Vec<(usize, usize, bool)>,
    /// Event queue of order positions pending re-evaluation.
    queue: BinaryHeap<Reverse<usize>>,
    in_queue: Vec<bool>,
    /// Candidate gates and X-path fanout edges examined, so a test can
    /// check that search steps stay local to the fault-effect cone.
    #[cfg(test)]
    visits: u64,
}

/// Memoised answer of one node's X-path query within one objective.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum XPath {
    Unknown,
    /// On the current DFS path, not yet decided.
    Open,
    Reaches,
    Blocked,
}

impl PodemScratch {
    /// Forgets the X-path answers of the current objective.
    fn reset_x_paths(&mut self) {
        for &n in &self.xpath_touched {
            self.xpath[n.index()] = XPath::Unknown;
        }
        self.xpath_touched.clear();
    }

    /// Writes `id`'s value, moving `id` into or out of the fault-effect
    /// set when its effect status changes.
    fn set_value(&mut self, id: NodeId, v: D5) {
        let i = id.index();
        let was = self.values[i].is_fault_effect();
        self.values[i] = v;
        match (was, v.is_fault_effect()) {
            (false, true) => {
                self.effect_pos[i] = self.effects.len() as u32;
                self.effects.push(id);
            }
            (true, false) => {
                let pos = self.effect_pos[i] as usize;
                self.effects.swap_remove(pos);
                if let Some(&moved) = self.effects.get(pos) {
                    self.effect_pos[moved.index()] = pos as u32;
                }
            }
            _ => {}
        }
    }
}

/// A PODEM test generator over a circuit *view*.
///
/// The view consists of:
/// * `controllable` — inputs the generator may assign (primary inputs
///   and/or flip-flop outputs acting as pseudo-inputs);
/// * `fixed` — inputs pinned to constants (e.g. scan-mode primary-input
///   assignments, including `scan_mode = 1` itself);
/// * `observable` — nets whose values can be observed (primary outputs
///   and/or flip-flop capture points).
///
/// Any other non-gate node stays at X and can never be assigned, which
/// models uncontrollable state.
///
/// # Examples
///
/// See the crate-level example.
#[derive(Clone, Debug)]
pub struct Podem<'c> {
    circuit: &'c Circuit,
    topo: Arc<CompiledTopology>,
    controllable: Vec<NodeId>,
    is_controllable: Vec<bool>,
    fixed: Vec<(NodeId, bool)>,
    observable: Vec<NodeId>,
    is_observable: Vec<bool>,
    cc0: Vec<u32>,
    cc1: Vec<u32>,
    obs_dist: Vec<u32>,
    /// Topological evaluation order (gates and constants).
    order: Vec<NodeId>,
    /// Node index → position in `order`, `usize::MAX` for non-gate nodes.
    order_pos: Vec<usize>,
    /// Five-valued values with no assignments and no faults: fixed
    /// inputs and constants propagated, everything else X. Each run
    /// starts from a copy and only re-evaluates what its injections and
    /// decisions change.
    base_values: Vec<D5>,
    /// Work charged at construction (one full base pass).
    setup_work: WorkCounters,
}

impl<'c> Podem<'c> {
    /// Builds a generator for the given view of `circuit`.
    ///
    /// # Panics
    ///
    /// Panics if a fixed node is also listed as controllable.
    pub fn new(
        circuit: &'c Circuit,
        controllable: Vec<NodeId>,
        fixed: Vec<(NodeId, bool)>,
        observable: Vec<NodeId>,
    ) -> Podem<'c> {
        Podem::with_topology(
            circuit,
            CompiledTopology::shared(circuit),
            controllable,
            fixed,
            observable,
        )
    }

    /// [`Podem::new`] against an already-compiled topology of `circuit`,
    /// sharing the plan instead of recompiling it.
    ///
    /// # Panics
    ///
    /// Panics if a fixed node is also listed as controllable.
    pub fn with_topology(
        circuit: &'c Circuit,
        topo: Arc<CompiledTopology>,
        controllable: Vec<NodeId>,
        fixed: Vec<(NodeId, bool)>,
        observable: Vec<NodeId>,
    ) -> Podem<'c> {
        debug_assert_eq!(circuit.num_nodes(), topo.num_nodes());
        let n = circuit.num_nodes();
        let mut is_controllable = vec![false; n];
        for &c in &controllable {
            is_controllable[c.index()] = true;
        }
        for &(f, _) in &fixed {
            assert!(
                !is_controllable[f.index()],
                "node {f} is both fixed and controllable"
            );
        }
        let mut is_observable = vec![false; n];
        for &o in &observable {
            is_observable[o.index()] = true;
        }
        let order = CombEvaluator::with_topology(topo.clone()).order().to_vec();
        let mut order_pos = vec![usize::MAX; n];
        for (pos, &id) in order.iter().enumerate() {
            order_pos[id.index()] = pos;
        }
        let mut podem = Podem {
            circuit,
            topo,
            controllable,
            is_controllable,
            fixed,
            observable,
            is_observable,
            cc0: vec![INF; n],
            cc1: vec![INF; n],
            obs_dist: vec![INF; n],
            order,
            order_pos,
            base_values: vec![D5::X; n],
            setup_work: WorkCounters::ZERO,
        };
        podem.compute_scoap();
        podem.compute_obs_dist();
        podem.compute_base_values();
        podem
    }

    /// SCOAP-style combinational 0/1 controllability, used to guide the
    /// backtrace toward cheap-to-justify inputs and away from
    /// uncontrollable state.
    fn compute_scoap(&mut self) {
        for &c in &self.controllable {
            self.cc0[c.index()] = 1;
            self.cc1[c.index()] = 1;
        }
        for &(f, v) in &self.fixed {
            self.cc0[f.index()] = if v { INF } else { 0 };
            self.cc1[f.index()] = if v { 0 } else { INF };
        }
        let sat = |a: u32, b: u32| a.saturating_add(b).min(INF);
        for oi in 0..self.order.len() {
            let id = self.order[oi];
            let node = self.circuit.node(id);
            let kind = node.kind();
            let (c0, c1): (u32, u32) = match kind {
                GateKind::Const0 => (0, INF),
                GateKind::Const1 => (INF, 0),
                GateKind::Buf => {
                    let f = node.fanin()[0];
                    (sat(self.cc0[f.index()], 1), sat(self.cc1[f.index()], 1))
                }
                GateKind::Not => {
                    let f = node.fanin()[0];
                    (sat(self.cc1[f.index()], 1), sat(self.cc0[f.index()], 1))
                }
                GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                    // Cost to set output to the controlled (easy) side vs
                    // the all-inputs (hard) side.
                    let ctrl = kind.controlling_value().expect("and/or family");
                    let (ctrl_cc, nonctrl_cc): (Vec<u32>, Vec<u32>) = {
                        let pick = |v: bool, f: NodeId| {
                            if v {
                                self.cc1[f.index()]
                            } else {
                                self.cc0[f.index()]
                            }
                        };
                        (
                            node.fanin().iter().map(|&f| pick(ctrl, f)).collect(),
                            node.fanin().iter().map(|&f| pick(!ctrl, f)).collect(),
                        )
                    };
                    let easy = sat(ctrl_cc.iter().copied().min().unwrap_or(INF), 1);
                    let hard = sat(nonctrl_cc.iter().fold(0u32, |a, &b| sat(a, b)), 1);
                    // For AND: output 0 via any controlling input (easy),
                    // output 1 needs all non-controlling (hard).
                    let (out_ctrl, out_all) = (easy, hard);
                    let inverted = kind.output_inverted();
                    // Controlled output value = ctrl ^ inverted.
                    if ctrl ^ inverted {
                        (out_all, out_ctrl)
                    } else {
                        (out_ctrl, out_all)
                    }
                }
                GateKind::Xor | GateKind::Xnor => {
                    // Fold pairwise: cost of parity-0 / parity-1.
                    let mut p0 = 0u32;
                    let mut p1 = INF;
                    for &f in node.fanin() {
                        let (f0, f1) = (self.cc0[f.index()], self.cc1[f.index()]);
                        let n0 = sat(p0, f0).min(sat(p1, f1));
                        let n1 = sat(p0, f1).min(sat(p1, f0));
                        p0 = n0;
                        p1 = n1;
                    }
                    if kind == GateKind::Xor {
                        (sat(p0, 1), sat(p1, 1))
                    } else {
                        (sat(p1, 1), sat(p0, 1))
                    }
                }
                GateKind::Input | GateKind::Dff => continue,
            };
            // Fixed gates keep their pinned costs (none are fixed in
            // practice; fixing applies to inputs).
            self.cc0[id.index()] = c0;
            self.cc1[id.index()] = c1;
        }
    }

    /// Static distance (in gates) from each node to the nearest
    /// observable, used to pick D-frontier gates.
    fn compute_obs_dist(&mut self) {
        for &o in &self.observable {
            self.obs_dist[o.index()] = 0;
        }
        // Reverse topological relaxation: iterate the evaluation order
        // backwards; a node's distance improves through its fanouts.
        for oi in (0..self.order.len()).rev() {
            let id = self.order[oi];
            let mut best = self.obs_dist[id.index()];
            for &sink in self.topo.fanout_sinks(id) {
                if self.circuit.node(sink).kind().is_gate() {
                    best = best.min(self.obs_dist[sink.index()].saturating_add(1));
                }
            }
            self.obs_dist[id.index()] = best;
        }
        // Inputs/FF outputs also get distances (not strictly needed).
        for id in self.circuit.node_ids() {
            if self.circuit.node(id).kind().is_gate() {
                continue;
            }
            let mut best = self.obs_dist[id.index()];
            for &sink in self.topo.fanout_sinks(id) {
                if self.circuit.node(sink).kind().is_gate() {
                    best = best.min(self.obs_dist[sink.index()].saturating_add(1));
                }
            }
            self.obs_dist[id.index()] = best;
        }
    }

    /// One full five-valued pass with no assignments and no faults:
    /// the state every run starts from. Charged to [`Podem::setup_work`]
    /// once, however many runs the engine later serves.
    fn compute_base_values(&mut self) {
        for &(f, v) in &self.fixed {
            self.base_values[f.index()] = D5::known(v);
        }
        for oi in 0..self.order.len() {
            let id = self.order[oi];
            let node = self.circuit.node(id);
            let out = D5::eval(
                node.kind(),
                node.fanin()
                    .iter()
                    .map(|&src| self.base_values[src.index()]),
            );
            self.base_values[id.index()] = out;
        }
        self.setup_work.gate_evals += self.order.len() as u64;
    }

    /// The one-time construction work (one full base-values pass).
    /// Callers summing per-run [`PodemOutcome::work`] add this once per
    /// engine to keep stage totals exact.
    pub fn setup_work(&self) -> WorkCounters {
        self.setup_work
    }

    /// A fresh scratch sized for this engine, for
    /// [`Podem::run_with_scratch`] callers that amortise allocation
    /// across many runs.
    pub fn scratch(&self) -> PodemScratch {
        let n = self.circuit.num_nodes();
        PodemScratch {
            values: self.base_values.clone(),
            assigned: vec![None; n],
            effects: Vec::new(),
            effect_pos: vec![0; n],
            xpath: vec![XPath::Unknown; n],
            xpath_touched: Vec::new(),
            xpath_stack: Vec::new(),
            frontier: Vec::new(),
            stem_inj: vec![None; n],
            has_branch: vec![false; n],
            branch_inj: Vec::new(),
            queue: BinaryHeap::new(),
            in_queue: vec![false; self.order.len()],
            #[cfg(test)]
            visits: 0,
        }
    }

    /// The branch injection on pin `pin` of node `gate_idx`, if any.
    fn branch_at(&self, s: &PodemScratch, gate_idx: usize, pin: usize) -> Option<bool> {
        if !s.has_branch[gate_idx] {
            return None;
        }
        s.branch_inj
            .iter()
            .find(|&&(g, p, _)| g == gate_idx && p == pin)
            .map(|&(_, _, stuck)| stuck)
    }

    /// Re-evaluates one ordered node under the current values, with the
    /// scratch's fault injections applied — the exact per-node function
    /// a full resimulation would use.
    fn eval_node(&self, s: &PodemScratch, id: NodeId) -> D5 {
        let node = self.circuit.node(id);
        let mut out = if s.has_branch[id.index()] {
            D5::eval(
                node.kind(),
                node.fanin().iter().enumerate().map(|(pin, &src)| {
                    let mut v = s.values[src.index()];
                    if let Some(stuck) = self.branch_at(s, id.index(), pin) {
                        v = D5::new(v.good(), V3::from_bool(stuck));
                    }
                    v
                }),
            )
        } else {
            D5::eval(
                node.kind(),
                node.fanin().iter().map(|&src| s.values[src.index()]),
            )
        };
        if let Some(stuck) = s.stem_inj[id.index()] {
            out = D5::new(out.good(), V3::from_bool(stuck));
        }
        out
    }

    /// Queues every ordered gate reading `id` for re-evaluation.
    fn schedule_fanouts(&self, s: &mut PodemScratch, id: NodeId) {
        for &sink in self.topo.fanout_sinks(id) {
            let pos = self.order_pos[sink.index()];
            if pos != usize::MAX && !s.in_queue[pos] {
                s.in_queue[pos] = true;
                s.queue.push(Reverse(pos));
            }
        }
    }

    /// Drains the event queue in topological order, propagating value
    /// changes. Each popped gate counts one `gate_eval` — the
    /// event-driven replacement for the old full-resimulation charge.
    fn drain(&self, s: &mut PodemScratch, work: &mut WorkCounters) {
        while let Some(Reverse(pos)) = s.queue.pop() {
            s.in_queue[pos] = false;
            let id = self.order[pos];
            work.gate_evals += 1;
            let out = self.eval_node(s, id);
            if out != s.values[id.index()] {
                s.set_value(id, out);
                self.schedule_fanouts(s, id);
            }
        }
    }

    /// Resets the scratch to the base values and injects the fault set,
    /// propagating each injection through its fanout cone.
    fn begin(&self, s: &mut PodemScratch, faults: &[Fault], work: &mut WorkCounters) {
        // Base values carry no fault effects, so the effect set empties.
        s.values.copy_from_slice(&self.base_values);
        s.effects.clear();
        s.assigned.fill(None);
        s.stem_inj.fill(None);
        s.has_branch.fill(false);
        s.branch_inj.clear();
        s.queue.clear();
        s.in_queue.fill(false);
        // Install every injection first (a gate may carry several), then
        // seed the event queue and propagate once.
        for f in faults {
            match f.site {
                FaultSite::Stem(n) => {
                    s.stem_inj[n.index()] = Some(f.stuck);
                }
                FaultSite::Branch { gate, pin } => {
                    s.has_branch[gate.index()] = true;
                    s.branch_inj.push((gate.index(), pin, f.stuck));
                }
            }
        }
        for f in faults {
            match f.site {
                FaultSite::Stem(n) => {
                    let pos = self.order_pos[n.index()];
                    if pos != usize::MAX {
                        // Ordered node: the injection changes its output
                        // function; re-evaluate it in place.
                        if !s.in_queue[pos] {
                            s.in_queue[pos] = true;
                            s.queue.push(Reverse(pos));
                        }
                    } else {
                        // Input / flip-flop output: override the faulty
                        // rail directly.
                        let v = s.values[n.index()];
                        let nv = D5::new(v.good(), V3::from_bool(f.stuck));
                        if nv != v {
                            s.set_value(n, nv);
                            self.schedule_fanouts(s, n);
                        }
                    }
                }
                FaultSite::Branch { gate, .. } => {
                    let pos = self.order_pos[gate.index()];
                    debug_assert_ne!(pos, usize::MAX, "branch faults sit on gates");
                    if pos != usize::MAX && !s.in_queue[pos] {
                        s.in_queue[pos] = true;
                        s.queue.push(Reverse(pos));
                    }
                }
            }
        }
        self.drain(s, work);
    }

    /// Applies (or retracts) one controllable-input assignment and
    /// propagates the change through its fanout cone.
    fn set_input(
        &self,
        s: &mut PodemScratch,
        pi: NodeId,
        val: Option<bool>,
        work: &mut WorkCounters,
    ) {
        s.assigned[pi.index()] = val;
        let mut v = match val {
            Some(b) => D5::known(b),
            None => D5::X,
        };
        if let Some(stuck) = s.stem_inj[pi.index()] {
            v = D5::new(v.good(), V3::from_bool(stuck));
        }
        if v != s.values[pi.index()] {
            s.set_value(pi, v);
            self.schedule_fanouts(s, pi);
            self.drain(s, work);
        }
    }

    /// The good value at a fault's excitation point.
    fn site_good(&self, s: &PodemScratch, fault: &Fault) -> V3 {
        match fault.site {
            FaultSite::Stem(n) => s.values[n.index()].good(),
            FaultSite::Branch { gate, pin } => {
                let src = self.circuit.node(gate).fanin()[pin];
                s.values[src.index()].good()
            }
        }
    }

    /// The node whose value the excitation objective targets.
    fn site_node(&self, fault: &Fault) -> NodeId {
        match fault.site {
            FaultSite::Stem(n) => n,
            FaultSite::Branch { gate, pin } => self.circuit.node(gate).fanin()[pin],
        }
    }

    fn fault_effect_at_observable(&self, s: &PodemScratch) -> bool {
        s.effects.iter().any(|&e| self.is_observable[e.index()])
    }

    /// The five-valued value seen by pin `pin` of gate `id`, including
    /// branch-fault injection.
    fn pin_value(&self, s: &PodemScratch, id: NodeId, pin: usize, src: NodeId) -> D5 {
        let mut v = s.values[src.index()];
        if let Some(stuck) = self.branch_at(s, id.index(), pin) {
            v = D5::new(v.good(), V3::from_bool(stuck));
        }
        v
    }

    /// Whether any fault effect exists: on a net, or injected at a gate
    /// pin by an excited branch fault.
    fn has_effect(&self, s: &PodemScratch, faults: &[Fault]) -> bool {
        if !s.effects.is_empty() {
            return true;
        }
        faults.iter().any(|f| {
            matches!(f.site, FaultSite::Branch { .. })
                && self.site_good(s, f).is_known()
                && self.site_good(s, f) != V3::from_bool(f.stuck)
        })
    }

    /// Whether gate `g` is on the D-frontier: an X-ish output and a
    /// fault effect on some input pin (including branch-fault injection).
    fn on_frontier(&self, s: &PodemScratch, g: NodeId) -> bool {
        let node = self.circuit.node(g);
        if !node.kind().is_gate() || !s.values[g.index()].has_x() {
            return false;
        }
        if s.has_branch[g.index()] {
            node.fanin()
                .iter()
                .enumerate()
                .any(|(pin, &f)| self.pin_value(s, g, pin, f).is_fault_effect())
        } else {
            node.fanin()
                .iter()
                .any(|&f| s.values[f.index()].is_fault_effect())
        }
    }

    /// Fills `frontier` with the D-frontier, nearest an observable first
    /// and in topological order among equals. A frontier gate reads an
    /// effect net or carries a branch injection, so the candidates are
    /// the effect nodes' fanout sinks plus the branch-injected gates.
    fn d_frontier(&self, s: &mut PodemScratch, frontier: &mut Vec<NodeId>) {
        frontier.clear();
        for &e in &s.effects {
            for &sink in self.topo.fanout_sinks(e) {
                #[cfg(test)]
                {
                    s.visits += 1;
                }
                if self.on_frontier(s, sink) {
                    frontier.push(sink);
                }
            }
        }
        for &(g, _, _) in &s.branch_inj {
            let g = NodeId::from_index(g);
            if self.on_frontier(s, g) {
                frontier.push(g);
            }
        }
        // (obs_dist, order_pos) is unique per gate, so duplicates (a gate
        // reading several effect nets) end up adjacent.
        frontier.sort_unstable_by_key(|&g| (self.obs_dist[g.index()], self.order_pos[g.index()]));
        frontier.dedup();
    }

    /// Whether `from` reaches an observable through X nets: it is
    /// observable itself, or some X-ish gate reading it does. An
    /// iterative DFS over fanout sinks, memoised in `s.xpath` until the
    /// next [`PodemScratch::reset_x_paths`]; valid while values do not change.
    fn x_path(&self, s: &mut PodemScratch, from: NodeId) -> bool {
        match s.xpath[from.index()] {
            XPath::Reaches => return true,
            XPath::Blocked => return false,
            XPath::Unknown | XPath::Open => {}
        }
        if self.open_x_path(s, from) {
            return true;
        }
        while let Some(top) = s.xpath_stack.last_mut() {
            let (node, next) = *top;
            let Some(&sink) = self.topo.fanout_sinks(node).get(next as usize) else {
                s.xpath[node.index()] = XPath::Blocked;
                s.xpath_stack.pop();
                continue;
            };
            top.1 += 1;
            #[cfg(test)]
            {
                s.visits += 1;
            }
            if !self.circuit.node(sink).kind().is_gate() || !s.values[sink.index()].has_x() {
                continue;
            }
            let reaches = match s.xpath[sink.index()] {
                XPath::Reaches => true,
                // `Open` would be a combinational cycle; gates form a DAG.
                XPath::Blocked | XPath::Open => false,
                XPath::Unknown => self.open_x_path(s, sink),
            };
            if reaches {
                // Every node on the DFS path reaches through its child.
                for &(n, _) in &s.xpath_stack {
                    s.xpath[n.index()] = XPath::Reaches;
                }
                s.xpath_stack.clear();
                return true;
            }
        }
        false
    }

    /// First visit of `n` in an X-path query: an observable reaches at
    /// once (returns `true`); anything else goes on the DFS stack.
    fn open_x_path(&self, s: &mut PodemScratch, n: NodeId) -> bool {
        s.xpath_touched.push(n);
        if self.is_observable[n.index()] {
            s.xpath[n.index()] = XPath::Reaches;
            return true;
        }
        s.xpath[n.index()] = XPath::Open;
        s.xpath_stack.push((n, 0));
        false
    }

    /// Static controllability cost of setting `node` to `val`.
    fn cc(&self, node: NodeId, val: bool) -> u32 {
        if val {
            self.cc1[node.index()]
        } else {
            self.cc0[node.index()]
        }
    }

    /// Returns the next objective `(net, good_value)` or `None` when the
    /// current state is a dead end.
    fn objective(&self, s: &mut PodemScratch, faults: &[Fault]) -> Option<(NodeId, bool)> {
        if !self.has_effect(s, faults) {
            // Excitation: find a site whose good value is still X and is
            // statically justifiable (finite SCOAP cost).
            for f in faults {
                let site = self.site_node(f);
                if self.site_good(s, f) == V3::X && self.cc(site, !f.stuck) < INF {
                    return Some((site, !f.stuck));
                }
            }
            return None;
        }
        // Propagation: pick the D-frontier gate nearest an observable
        // that still has an X-path, then set one X side-input to the
        // non-controlling value.
        let mut frontier = std::mem::take(&mut s.frontier);
        self.d_frontier(s, &mut frontier);
        let pick = frontier.iter().find_map(|&g| {
            if !self.x_path(s, g) {
                return None;
            }
            let node = self.circuit.node(g);
            let side_val = node.kind().transparent_side_value().unwrap_or(true);
            node.fanin()
                .iter()
                .find(|&&f| s.values[f.index()].good() == V3::X && self.cc(f, side_val) < INF)
                .map(|&f| (f, side_val))
        });
        s.frontier = frontier;
        s.reset_x_paths();
        pick
    }

    /// Backtraces an objective to an unassigned controllable input.
    fn backtrace(&self, s: &PodemScratch, net: NodeId, val: bool) -> Option<(NodeId, bool)> {
        let mut net = net;
        let mut val = val;
        let mut hops = 0usize;
        loop {
            hops += 1;
            if hops > 4 * self.circuit.num_nodes() {
                return None; // safety net; cannot happen in a DAG
            }
            let node = self.circuit.node(net);
            let kind = node.kind();
            if !kind.is_gate() {
                return if self.is_controllable[net.index()] && s.assigned[net.index()].is_none() {
                    Some((net, val))
                } else {
                    None
                };
            }
            match kind {
                GateKind::Buf => {
                    net = node.fanin()[0];
                }
                GateKind::Not => {
                    net = node.fanin()[0];
                    val = !val;
                }
                GateKind::Const0 | GateKind::Const1 => return None,
                GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                    let ctrl = kind.controlling_value().expect("and/or family");
                    let want_input = val ^ kind.output_inverted();
                    let candidates = || {
                        node.fanin()
                            .iter()
                            .copied()
                            .filter(|&f| s.values[f.index()].good() == V3::X)
                    };
                    // `min_by_key` keeps the first minimum and
                    // `max_by_key` the last maximum; both yield `None`
                    // when no input is X.
                    let pick = if want_input == ctrl {
                        // One controlling input suffices: easiest, and it
                        // must be justifiable at all.
                        candidates()
                            .filter(|&f| self.cc(f, want_input) < INF)
                            .min_by_key(|&f| self.cc(f, want_input))?
                    } else {
                        // All inputs must be non-controlling: if any is
                        // statically unjustifiable the objective is dead;
                        // otherwise take the hardest first.
                        if candidates().any(|f| self.cc(f, want_input) >= INF) {
                            return None;
                        }
                        candidates().max_by_key(|&f| self.cc(f, want_input))?
                    };
                    net = pick;
                    val = want_input;
                }
                GateKind::Xor | GateKind::Xnor => {
                    // Choose any X input; required value = desired output
                    // parity xor parity of the other (known) inputs,
                    // treating other X inputs as 0.
                    let desired = val ^ (kind == GateKind::Xnor);
                    let ones = node
                        .fanin()
                        .iter()
                        .filter(|&&f| s.values[f.index()].good() == V3::One)
                        .count();
                    let parity = desired ^ (ones % 2 == 1);
                    // Remaining X inputs other than the chosen one are
                    // treated as 0 by this heuristic, so each candidate
                    // would need the same `parity` value.
                    net = node.fanin().iter().copied().find(|&f| {
                        s.values[f.index()].good() == V3::X && self.cc(f, parity) < INF
                    })?;
                    val = parity;
                }
                GateKind::Input | GateKind::Dff => unreachable!("handled above"),
            }
        }
    }

    /// Runs PODEM for the fault (or, for time-frame-expanded models, the
    /// set of per-frame copies of one fault), allocating a fresh scratch.
    ///
    /// The verdict is [`AtpgOutcome::Undetectable`] only after
    /// exhausting the complete decision space, making it sound for the
    /// given view.
    pub fn run(&self, faults: &[Fault], config: &PodemConfig) -> PodemOutcome {
        let mut scratch = self.scratch();
        self.run_with_scratch(&mut scratch, faults, config)
    }

    /// [`Podem::run`] against a caller-owned scratch, for hot loops that
    /// amortise allocation across many runs. The scratch is fully
    /// re-initialised, so results never depend on what ran before.
    pub fn run_with_scratch(
        &self,
        s: &mut PodemScratch,
        faults: &[Fault],
        config: &PodemConfig,
    ) -> PodemOutcome {
        let mut work = WorkCounters::ZERO;
        let mut decisions = 0usize;
        let mut backtracks = 0usize;
        let mut steps = 0usize;
        self.begin(s, faults, &mut work);
        // Decision stack: (input, value, already_flipped).
        let mut stack: Vec<(NodeId, bool, bool)> = Vec::new();
        // Classic PODEM loop: the existence of an objective (plus a
        // successful backtrace) *is* the progress check; its absence is
        // the conflict signal that triggers backtracking.
        loop {
            if self.fault_effect_at_observable(s) {
                let test = stack.iter().map(|&(n, v, _)| (n, v)).collect();
                return PodemOutcome {
                    verdict: AtpgOutcome::Test(test),
                    work,
                    decisions,
                    backtracks,
                };
            }
            let decision = self
                .objective(s, faults)
                .and_then(|(net, val)| self.backtrace(s, net, val));
            match decision {
                Some((pi, val)) => {
                    stack.push((pi, val, false));
                    decisions += 1;
                    steps += 1;
                    work.podem_decisions += 1;
                    if steps > config.step_limit {
                        work.podem_aborts += 1;
                        return PodemOutcome {
                            verdict: AtpgOutcome::Aborted,
                            work,
                            decisions,
                            backtracks,
                        };
                    }
                    self.set_input(s, pi, Some(val), &mut work);
                }
                None => {
                    // Conflict: flip the most recent unflipped decision.
                    loop {
                        match stack.pop() {
                            None => {
                                return PodemOutcome {
                                    verdict: AtpgOutcome::Undetectable,
                                    work,
                                    decisions,
                                    backtracks,
                                };
                            }
                            Some((pi, val, flipped)) => {
                                self.set_input(s, pi, None, &mut work);
                                if flipped {
                                    continue;
                                }
                                backtracks += 1;
                                steps += 1;
                                work.podem_backtracks += 1;
                                if backtracks > config.backtrack_limit
                                    || steps > config.step_limit
                                {
                                    work.podem_aborts += 1;
                                    return PodemOutcome {
                                        verdict: AtpgOutcome::Aborted,
                                        work,
                                        decisions,
                                        backtracks,
                                    };
                                }
                                stack.push((pi, !val, true));
                                self.set_input(s, pi, Some(!val), &mut work);
                                break;
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fscan_sim::SeqSim;

    fn c17_like() -> (Circuit, Vec<NodeId>) {
        // The ISCAS'85 c17 netlist (all NAND).
        let mut c = Circuit::new("c17");
        let i1 = c.add_input("1");
        let i2 = c.add_input("2");
        let i3 = c.add_input("3");
        let i6 = c.add_input("6");
        let i7 = c.add_input("7");
        let g10 = c.add_gate(GateKind::Nand, vec![i1, i3], "10");
        let g11 = c.add_gate(GateKind::Nand, vec![i3, i6], "11");
        let g16 = c.add_gate(GateKind::Nand, vec![i2, g11], "16");
        let g19 = c.add_gate(GateKind::Nand, vec![g11, i7], "19");
        let g22 = c.add_gate(GateKind::Nand, vec![g10, g16], "22");
        let g23 = c.add_gate(GateKind::Nand, vec![g16, g19], "23");
        c.mark_output(g22);
        c.mark_output(g23);
        (c, vec![i1, i2, i3, i6, i7, g10, g11, g16, g19, g22, g23])
    }

    /// Applies a PODEM test to the good and faulty circuits and checks
    /// an output really differs (unassigned inputs set to 0).
    fn verify_test(circuit: &Circuit, fault: Fault, test: &[(NodeId, bool)]) -> bool {
        let mut vec0: Vec<V3> = circuit.inputs().iter().map(|_| V3::Zero).collect();
        for &(n, v) in test {
            if let Some(pos) = circuit.inputs().iter().position(|&i| i == n) {
                vec0[pos] = V3::from_bool(v);
            }
        }
        let sim = SeqSim::new(circuit);
        let good = sim.run(&[vec0.clone()], &[], None);
        let bad = sim.run(&[vec0], &[], Some(fault));
        fscan_sim::detects(&good, &bad).is_some()
    }

    /// Reference full resimulation (the pre-event-driven algorithm):
    /// recomputes every value from scratch under the scratch's current
    /// assignment and injections.
    fn reference_values(podem: &Podem<'_>, s: &PodemScratch) -> Vec<D5> {
        let n = podem.circuit.num_nodes();
        let mut values = vec![D5::X; n];
        for &c in &podem.controllable {
            values[c.index()] = match s.assigned[c.index()] {
                Some(b) => D5::known(b),
                None => D5::X,
            };
        }
        for &(f, v) in &podem.fixed {
            values[f.index()] = D5::known(v);
        }
        for (i, inj) in s.stem_inj.iter().take(n).enumerate() {
            let Some(stuck) = *inj else { continue };
            let kind = podem.circuit.node(NodeId::from_index(i)).kind();
            if !kind.is_gate() && !matches!(kind, GateKind::Const0 | GateKind::Const1) {
                let v = values[i];
                values[i] = D5::new(v.good(), V3::from_bool(stuck));
            }
        }
        for &id in &podem.order {
            let node = podem.circuit.node(id);
            let mut out = D5::eval(
                node.kind(),
                node.fanin().iter().enumerate().map(|(pin, &src)| {
                    let mut v = values[src.index()];
                    if let Some(stuck) = podem.branch_at(s, id.index(), pin) {
                        v = D5::new(v.good(), V3::from_bool(stuck));
                    }
                    v
                }),
            );
            if let Some(stuck) = s.stem_inj[id.index()] {
                out = D5::new(out.good(), V3::from_bool(stuck));
            }
            values[id.index()] = out;
        }
        values
    }

    /// Reference D-frontier (the pre-incremental full sweep): every
    /// gate in topological order with an X-ish output and a fault effect
    /// on some pin, stably sorted by distance to an observable.
    fn reference_d_frontier(podem: &Podem<'_>, s: &PodemScratch) -> Vec<NodeId> {
        let mut frontier = Vec::new();
        for &id in &podem.order {
            let node = podem.circuit.node(id);
            if !node.kind().is_gate() || !s.values[id.index()].has_x() {
                continue;
            }
            let any_d = node
                .fanin()
                .iter()
                .enumerate()
                .any(|(pin, &f)| podem.pin_value(s, id, pin, f).is_fault_effect());
            if any_d {
                frontier.push(id);
            }
        }
        frontier.sort_by_key(|&g| podem.obs_dist[g.index()]);
        frontier
    }

    /// Reference X-reachability (the pre-on-demand whole-circuit
    /// sweep): one reverse topological pass, then the non-gate nodes.
    fn reference_x_reach(podem: &Podem<'_>, s: &PodemScratch) -> Vec<bool> {
        let mut x_reach = podem.is_observable.clone();
        let reaches = |x_reach: &[bool], id: NodeId| {
            podem.topo.fanout_sinks(id).iter().any(|&sink| {
                podem.circuit.node(sink).kind().is_gate()
                    && s.values[sink.index()].has_x()
                    && x_reach[sink.index()]
            })
        };
        for &id in podem.order.iter().rev() {
            if !x_reach[id.index()] && reaches(&x_reach, id) {
                x_reach[id.index()] = true;
            }
        }
        for id in podem.circuit.node_ids() {
            if !x_reach[id.index()]
                && !podem.circuit.node(id).kind().is_gate()
                && reaches(&x_reach, id)
            {
                x_reach[id.index()] = true;
            }
        }
        x_reach
    }

    /// Checks every incremental structure of the scratch against its
    /// full-sweep reference under the current assignment.
    fn assert_matches_references(podem: &Podem<'_>, s: &mut PodemScratch, faults: &[Fault]) {
        let mut effects = s.effects.clone();
        effects.sort();
        let swept: Vec<NodeId> = podem
            .circuit
            .node_ids()
            .filter(|id| s.values[id.index()].is_fault_effect())
            .collect();
        assert_eq!(effects, swept, "fault-effect set");
        let branch_effect = faults.iter().any(|f| {
            matches!(f.site, FaultSite::Branch { .. })
                && podem.site_good(s, f).is_known()
                && podem.site_good(s, f) != V3::from_bool(f.stuck)
        });
        assert_eq!(
            podem.has_effect(s, faults),
            !swept.is_empty() || branch_effect
        );
        let observed = podem
            .observable
            .iter()
            .any(|&o| s.values[o.index()].is_fault_effect());
        assert_eq!(podem.fault_effect_at_observable(s), observed);
        let mut frontier = Vec::new();
        podem.d_frontier(s, &mut frontier);
        assert_eq!(frontier, reference_d_frontier(podem, s), "D-frontier");
        // Query every node twice, forward then backward, so answers
        // served from the memo are checked as well as fresh ones.
        let reference = reference_x_reach(podem, s);
        let ids: Vec<NodeId> = podem.circuit.node_ids().collect();
        for id in ids.iter().chain(ids.iter().rev()) {
            assert_eq!(
                podem.x_path(s, *id),
                reference[id.index()],
                "X-path of {id}"
            );
        }
        s.reset_x_paths();
        assert!(s.xpath.iter().all(|&x| x == XPath::Unknown));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// After injection and after every assign/retract step, the
        /// fault-effect set, D-frontier (with its order), X-path answers
        /// and effect checks equal their full-sweep references, for
        /// single stem/branch faults (one frame) and frame-copy fault
        /// sets (several frames).
        #[test]
        fn incremental_step_state_matches_full_sweeps(
            shape in (0u64..1000, 20usize..120, 1usize..8, 2usize..8),
            frames in 1usize..4,
            fault_pick in 0usize..100_000,
            view in (proptest::prelude::any::<bool>(), proptest::prelude::any::<bool>()),
            ops in proptest::collection::vec((0usize..1000, 0u8..3), 1..40),
        ) {
            let (seed, gates, dffs, inputs) = shape;
            let c = fscan_netlist::generate(
                &fscan_netlist::GeneratorConfig::new(format!("p{seed}"), seed)
                    .inputs(inputs)
                    .gates(gates)
                    .dffs(dffs),
            );
            let universe = fscan_fault::all_faults(&c);
            let fault = universe[fault_pick % universe.len()];
            let (u, map) = crate::unroll::unroll_with_map(&c, frames);
            let faults: Vec<Fault> = (0..frames)
                .filter_map(|t| u.map_fault(&c, fault, t, &map))
                .collect();
            let (state_controllable, pin_first_pi) = view;
            let mut controllable = Vec::new();
            let mut fixed = Vec::new();
            let mut observable = Vec::new();
            for t in 0..frames {
                for (k, &pi) in u.pis(t).iter().enumerate() {
                    if pin_first_pi && k == 0 {
                        fixed.push((pi, t % 2 == 0));
                    } else {
                        controllable.push(pi);
                    }
                }
                observable.extend_from_slice(u.pos(t));
            }
            if state_controllable {
                controllable.extend_from_slice(u.state0s());
                observable.extend_from_slice(u.captures(frames - 1));
            }
            let podem = Podem::new(u.circuit(), controllable.clone(), fixed, observable);
            let mut s = podem.scratch();
            let mut work = WorkCounters::ZERO;
            podem.begin(&mut s, &faults, &mut work);
            assert_matches_references(&podem, &mut s, &faults);
            for (pick, code) in ops {
                let pi = controllable[pick % controllable.len()];
                let val = [None, Some(false), Some(true)][code as usize];
                podem.set_input(&mut s, pi, val, &mut work);
                assert_matches_references(&podem, &mut s, &faults);
            }
        }
    }

    /// A small fault cone beside a disjoint NAND chain of `block` gates
    /// whose inputs are controllable and whose every eighth gate is
    /// observable. Returns the circuit and the cone's gates.
    fn cone_beside_block(block: usize) -> (Circuit, Vec<NodeId>) {
        let mut c = Circuit::new("cone");
        let xs: Vec<NodeId> = (0..8).map(|i| c.add_input(format!("x{i}"))).collect();
        let mut prev = xs[0];
        for i in 0..block {
            prev = c.add_gate(GateKind::Nand, vec![prev, xs[i % 8]], format!("h{i}"));
            if i % 8 == 7 {
                c.mark_output(prev);
            }
        }
        c.mark_output(prev);
        let a = c.add_input("a");
        let b = c.add_input("b");
        let d = c.add_input("d");
        let e = c.add_input("e");
        let g1 = c.add_gate(GateKind::And, vec![a, b], "g1");
        let g2 = c.add_gate(GateKind::Or, vec![g1, d], "g2");
        let g3 = c.add_gate(GateKind::Nand, vec![g1, e], "g3");
        let g4 = c.add_gate(GateKind::Xor, vec![g2, g3], "g4");
        c.mark_output(g4);
        (c, vec![g1, g2, g3, g4])
    }

    #[test]
    fn step_work_stays_in_the_fault_cone() {
        // Frontier candidates and X-path edges examined over every cone
        // fault's search must not depend on the disjoint block's size:
        // a whole-circuit sweep per step would grow with it.
        let tally = |block: usize| {
            let (c, cone) = cone_beside_block(block);
            let podem = Podem::new(&c, c.inputs().to_vec(), vec![], c.outputs().to_vec());
            let mut s = podem.scratch();
            let mut steps = 0;
            for &g in &cone {
                for stuck in [false, true] {
                    let out = podem.run_with_scratch(
                        &mut s,
                        &[Fault::stem(g, stuck)],
                        &PodemConfig::default(),
                    );
                    steps += out.steps();
                }
            }
            (steps, s.visits)
        };
        let (small_steps, small_visits) = tally(16);
        let (large_steps, large_visits) = tally(4096);
        assert!(small_steps > 0 && small_visits > 0);
        assert_eq!(small_steps, large_steps);
        assert_eq!(small_visits, large_visits);
    }

    #[test]
    fn finds_tests_for_all_collapsed_c17_faults() {
        let (c, _) = c17_like();
        let faults = fscan_fault::collapse(&c, &fscan_fault::all_faults(&c));
        let controllable = c.inputs().to_vec();
        let observable = c.outputs().to_vec();
        for &f in &faults {
            let podem = Podem::new(&c, controllable.clone(), vec![], observable.clone());
            match podem.run(&[f], &PodemConfig::default()).verdict {
                AtpgOutcome::Test(t) => {
                    assert!(verify_test(&c, f, &t), "bogus test for {f}");
                }
                other => panic!("c17 fault {f} should be testable, got {other:?}"),
            }
        }
    }

    #[test]
    fn incremental_resim_matches_full_reference() {
        // After injection and after every assignment change, the
        // event-driven values must equal a from-scratch resimulation.
        let (c, _) = c17_like();
        let faults = fscan_fault::collapse(&c, &fscan_fault::all_faults(&c));
        let podem = Podem::new(&c, c.inputs().to_vec(), vec![], c.outputs().to_vec());
        let mut s = podem.scratch();
        let mut work = WorkCounters::ZERO;
        for f in faults.iter().take(8) {
            podem.begin(&mut s, std::slice::from_ref(f), &mut work);
            assert_eq!(s.values, reference_values(&podem, &s), "after begin {f}");
            let inputs = c.inputs().to_vec();
            for (i, &pi) in inputs.iter().enumerate() {
                podem.set_input(&mut s, pi, Some(i % 2 == 0), &mut work);
                assert_eq!(s.values, reference_values(&podem, &s), "after set {f}");
            }
            for &pi in inputs.iter().rev() {
                podem.set_input(&mut s, pi, None, &mut work);
                assert_eq!(s.values, reference_values(&podem, &s), "after unset {f}");
            }
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_runs() {
        // A shared engine with one reused scratch must produce the same
        // outcomes and counters as fresh per-run scratches.
        let (c, _) = c17_like();
        let faults = fscan_fault::collapse(&c, &fscan_fault::all_faults(&c));
        let podem = Podem::new(&c, c.inputs().to_vec(), vec![], c.outputs().to_vec());
        let mut shared = podem.scratch();
        for &f in &faults {
            let fresh = podem.run(&[f], &PodemConfig::default());
            let reused = podem.run_with_scratch(&mut shared, &[f], &PodemConfig::default());
            assert_eq!(fresh, reused, "{f}");
        }
    }

    #[test]
    fn event_driven_resim_is_cheaper_than_full_passes() {
        // The old engine charged one full pass (order.len() evals) per
        // search step plus one initial pass; the event-driven engine
        // must beat that bound on every c17 fault.
        let (c, _) = c17_like();
        let faults = fscan_fault::collapse(&c, &fscan_fault::all_faults(&c));
        let podem = Podem::new(&c, c.inputs().to_vec(), vec![], c.outputs().to_vec());
        let full_pass = podem.setup_work().gate_evals;
        for &f in &faults {
            let out = podem.run(&[f], &PodemConfig::default());
            let old_cost = (out.steps() as u64 + 1) * full_pass;
            assert!(
                out.work.gate_evals <= old_cost,
                "{f}: event-driven {} vs full-resim bound {}",
                out.work.gate_evals,
                old_cost
            );
        }
    }

    #[test]
    fn proves_redundant_fault_undetectable() {
        // y = a OR (a AND b): the AND output s-a-0 is classic redundant.
        let mut c = Circuit::new("red");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.add_gate(GateKind::And, vec![a, b], "g");
        let y = c.add_gate(GateKind::Or, vec![a, g], "y");
        c.mark_output(y);
        let podem = Podem::new(&c, vec![a, b], vec![], vec![y]);
        let out = podem.run(&[Fault::stem(g, false)], &PodemConfig::default());
        assert_eq!(out.verdict, AtpgOutcome::Undetectable);
        assert!(out.vector().is_none());
    }

    #[test]
    fn fixed_inputs_can_make_faults_undetectable() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.add_gate(GateKind::And, vec![a, b], "g");
        c.mark_output(g);
        // Pin b = 0: output is constantly 0, so g s-a-0 is undetectable
        // and a s-a-1 is too.
        let podem = Podem::new(&c, vec![a], vec![(b, false)], vec![g]);
        assert_eq!(
            podem
                .run(&[Fault::stem(g, false)], &PodemConfig::default())
                .verdict,
            AtpgOutcome::Undetectable
        );
        assert_eq!(
            podem
                .run(&[Fault::stem(a, true)], &PodemConfig::default())
                .verdict,
            AtpgOutcome::Undetectable
        );
        // But g s-a-1 is testable (any a).
        assert!(matches!(
            podem
                .run(&[Fault::stem(g, true)], &PodemConfig::default())
                .verdict,
            AtpgOutcome::Test(_)
        ));
    }

    #[test]
    fn uncontrollable_input_blocks_test() {
        // g = AND(a, u) with u uncontrollable: faults needing u = 1
        // cannot be tested.
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let u = c.add_input("u");
        let g = c.add_gate(GateKind::And, vec![a, u], "g");
        c.mark_output(g);
        let podem = Podem::new(&c, vec![a], vec![], vec![g]);
        assert_eq!(
            podem
                .run(&[Fault::stem(a, false)], &PodemConfig::default())
                .verdict,
            AtpgOutcome::Undetectable
        );
        let _ = u;
    }

    #[test]
    fn branch_fault_testable() {
        let (c, n) = c17_like();
        // Branch fault on g16's second pin (reading g11, which fans out).
        let g16 = n[7];
        let f = Fault::branch(g16, 1, true);
        let podem = Podem::new(&c, c.inputs().to_vec(), vec![], c.outputs().to_vec());
        match podem.run(&[f], &PodemConfig::default()).verdict {
            AtpgOutcome::Test(t) => assert!(verify_test(&c, f, &t)),
            other => panic!("expected test, got {other:?}"),
        }
    }

    #[test]
    fn xor_propagation() {
        let mut c = Circuit::new("x");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.add_gate(GateKind::Xor, vec![a, b], "g");
        c.mark_output(g);
        for f in [Fault::stem(a, false), Fault::stem(a, true)] {
            let podem = Podem::new(&c, vec![a, b], vec![], vec![g]);
            match podem.run(&[f], &PodemConfig::default()).verdict {
                AtpgOutcome::Test(t) => assert!(verify_test(&c, f, &t), "{f}"),
                other => panic!("{f}: {other:?}"),
            }
        }
    }

    #[test]
    fn pseudo_input_flip_flops_are_assignable() {
        // Scan-style view: FF output is controllable, FF capture is not
        // observable; only the PO is.
        let mut c = Circuit::new("t");
        let pi = c.add_input("pi");
        let ff = c.add_dff_placeholder("ff");
        let g = c.add_gate(GateKind::And, vec![pi, ff], "g");
        c.set_dff_input(ff, g).unwrap();
        c.mark_output(g);
        let podem = Podem::new(&c, vec![pi, ff], vec![], vec![g]);
        match podem.run(&[Fault::stem(g, false)], &PodemConfig::default()).verdict {
            AtpgOutcome::Test(t) => {
                // Test must assign both pi=1 and ff=1.
                let m: std::collections::HashMap<_, _> = t.into_iter().collect();
                assert_eq!(m.get(&pi), Some(&true));
                assert_eq!(m.get(&ff), Some(&true));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn multi_site_fault_detected_via_any_copy() {
        // Two "frames": y0 = AND(a, u0), y1 = AND(b, one). The same
        // logical fault (stuck-at-0 on the AND output) is injected in
        // both copies; frame 1 is controllable, so the fault must be
        // detected through it.
        let mut c = Circuit::new("frames");
        let a = c.add_input("a");
        let u0 = c.add_input("u0"); // uncontrollable
        let b = c.add_input("b");
        let one = c.add_const(true, "one");
        let y0 = c.add_gate(GateKind::And, vec![a, u0], "y0");
        let y1 = c.add_gate(GateKind::And, vec![b, one], "y1");
        c.mark_output(y0);
        c.mark_output(y1);
        let podem = Podem::new(&c, vec![a, b], vec![], vec![y0, y1]);
        let faults = [Fault::stem(y0, false), Fault::stem(y1, false)];
        match podem.run(&faults, &PodemConfig::default()).verdict {
            AtpgOutcome::Test(t) => {
                let m: std::collections::HashMap<_, _> = t.into_iter().collect();
                assert_eq!(m.get(&b), Some(&true));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn abort_on_tiny_budget() {
        // A deep parity tree makes PODEM backtrack at least once for an
        // unlucky polarity; budget 0 forces an abort on first backtrack.
        let mut c = Circuit::new("parity");
        let mut nets = Vec::new();
        for i in 0..8 {
            nets.push(c.add_input(format!("i{i}")));
        }
        let mut level = nets.clone();
        while level.len() > 1 {
            let mut next = Vec::new();
            for pair in level.chunks(2) {
                if pair.len() == 2 {
                    next.push(c.add_gate(GateKind::And, vec![pair[0], pair[1]], "g"));
                } else {
                    next.push(pair[0]);
                }
            }
            level = next;
        }
        let root = level[0];
        c.mark_output(root);
        let podem = Podem::new(&c, nets.clone(), vec![], vec![root]);
        let out = podem.run(
            &[Fault::stem(nets[7], false)],
            &PodemConfig {
                backtrack_limit: 0,
                ..PodemConfig::default()
            },
        );
        // Either it finds the test without backtracking (fine) or aborts;
        // it must never claim undetectable.
        assert_ne!(out.verdict, AtpgOutcome::Undetectable);
        assert_eq!(out.backtracks, out.work.podem_backtracks as usize);
    }
}
