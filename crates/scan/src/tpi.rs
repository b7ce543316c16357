//! Test point insertion: functional scan paths through mission logic.
//!
//! Implements the TPI methodology of Lin, Marek-Sadowska, Cheng and Lee
//! (DAC'97) that the DATE'98 paper builds on: a scan path between two
//! flip-flops is a combinational path whose side inputs are forced to
//! non-controlling values during scan mode. Forcing is done preferably
//! by primary-input assignments (justified backward through logic) and
//! otherwise by inserting a test point — an `OR(net, scan_mode)` to
//! force 1 or an `AND(net, NOT scan_mode)` to force 0, both transparent
//! in normal mode.
//!
//! # Incremental steady state
//!
//! The builder compiles the working circuit's topology once, up front,
//! and never again. Every gate it inserts later has a scan-mode value
//! fixed at insertion (a test point is 1 or 0, the MUX gates are
//! 0/X/X), the only edges it removes run between original gates, and a
//! MUX segment rewires nothing but a flip-flop's D pin — so the
//! compile's levels stay a valid event order for the whole build. The
//! steady scan-mode values are kept by levelized event propagation from
//! what each commit changes (new PI constraints, spliced pins, new
//! gates), and each candidate plan is trial-propagated on the same
//! value array, checked only where its values differ from steady, and
//! undone through a log of the nodes it touched.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use fscan_netlist::{Circuit, CompiledTopology, GateKind, NodeId};
use fscan_sim::kernel::eval_v3;
use fscan_sim::{CombEvaluator, V3};

use crate::design::{ScanCell, ScanChain, ScanDesign, SegmentKind, SideInput};
use crate::error::ScanError;
use crate::mux::{add_mux_segment, add_scan_infra, partition_ffs};

#[cfg(test)]
mod reference;

/// Configuration for [`insert_functional_scan`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TpiConfig {
    /// Number of scan chains (0 is treated as 1).
    pub num_chains: usize,
    /// Maximum number of gates along one functional segment.
    pub max_path_len: usize,
    /// Recursion depth for justifying side inputs by PI assignments.
    pub justify_depth: usize,
    /// Whether test points may be inserted when justification fails.
    pub allow_test_points: bool,
    /// Maximum test points spent on a single segment before falling back
    /// to a dedicated MUX segment.
    pub max_test_points_per_segment: usize,
    /// How many candidate paths to try per segment before giving up.
    pub max_candidates: usize,
}

impl Default for TpiConfig {
    fn default() -> TpiConfig {
        TpiConfig {
            num_chains: 1,
            max_path_len: 12,
            justify_depth: 6,
            allow_test_points: true,
            max_test_points_per_segment: 6,
            max_candidates: 16,
        }
    }
}

/// How one side input will be forced.
#[derive(Clone, Debug)]
enum Forcing {
    /// The steady scan-mode value already matches (or another side's
    /// plan already justifies this net to the same value).
    Already,
    /// Justified by the listed primary-input assignments.
    Pis(Vec<(NodeId, bool)>),
    /// A branch test point must be spliced into this pin.
    TestPoint,
}

/// A segment forcing plan: one entry per side input of the candidate
/// path, aligned with the cell's `sides` vector.
type Plan = Vec<Forcing>;

/// What the builder knows about one node, indexed by node id.
#[derive(Clone, Copy, Default)]
struct Role {
    /// Carries shifted data: never forced, rerouted or justified.
    chain_net: bool,
    /// `scan_mode` / `not_scan` / test points / MUX gates: excluded
    /// from path routing and from receiving test points.
    infrastructure: bool,
    /// A scan-in input: a free data pin, never constrainable.
    reserved: bool,
    /// A flip-flop not yet placed in any chain.
    in_pool: bool,
    /// The scan-mode PI constraint, if this input has one.
    constraint: Option<bool>,
    /// The value every committed functional segment with a side input
    /// on this net requires of it.
    side_required: Option<bool>,
}

const NO_EVENTS: (usize, usize) = (usize::MAX, 0);

struct Builder<'a> {
    circuit: Circuit,
    config: &'a TpiConfig,
    scan_mode: NodeId,
    not_scan: NodeId,
    scan_ins: Vec<NodeId>,
    roles: Vec<Role>,
    /// `(sink, pin)` readers of each node, in a fresh compile's order
    /// (the path search's BFS order depends on it), edited in place.
    fanouts: Vec<Vec<(NodeId, u32)>>,
    /// Levels from the one compile. Nodes added after it
    /// (`>= compiled`) hold their insertion-time value forever and are
    /// never scheduled.
    level: Vec<u32>,
    compiled: usize,
    /// The steady scan-mode values (X wherever unconstrained), or a
    /// candidate's trial values while [`Builder::trial`] is live.
    steady: Vec<V3>,
    /// Pending events, one bucket per level.
    buckets: Vec<Vec<NodeId>>,
    /// The lowest and one past the highest level with pending events
    /// (`NO_EVENTS` when there are none).
    pending: (usize, usize),
    queued: Vec<u32>,
    epoch: u32,
    /// `(node, value before)` for every node the live trial changed.
    log: Vec<(NodeId, V3)>,
    /// The live trial's test points, as `(gate, pin, value)` forcings.
    overrides: Vec<(NodeId, usize, bool)>,
    overridden: Vec<bool>,
    /// Path search scratch: BFS predecessor `(net, pin)` of each gate
    /// reached in search `search_epoch`.
    parent: Vec<(NodeId, u32)>,
    reached: Vec<u32>,
    search_epoch: u32,
    queue: VecDeque<(NodeId, usize)>,
    test_points: usize,
    original_gates: usize,
    /// Shared test-point gates: one per (net, forced value), reused by
    /// every pin in any segment that needs the same forcing ("a single
    /// test point may help establish several scan paths").
    tp_cache: HashMap<(NodeId, bool), NodeId>,
    /// Nodes evaluated by trial and commit propagation.
    #[cfg(test)]
    visits: u64,
}

impl<'a> Builder<'a> {
    fn new(circuit: &Circuit, config: &'a TpiConfig) -> Builder<'a> {
        let original_gates = circuit.num_gates();
        let mut c = circuit.clone();
        let (scan_mode, not_scan) = add_scan_infra(&mut c);
        // Scan-in inputs are added before the build's one compile, and
        // reserved so justification never grabs them.
        let scan_ins: Vec<NodeId> = (0..config.num_chains.max(1))
            .map(|k| c.add_input(format!("scan_in{k}")))
            .collect();
        let topo = Arc::new(CompiledTopology::compile(&c));
        let n = c.num_nodes();
        let mut roles = vec![Role::default(); n];
        roles[scan_mode.index()].infrastructure = true;
        roles[scan_mode.index()].constraint = Some(true);
        roles[not_scan.index()].infrastructure = true;
        for &si in &scan_ins {
            roles[si.index()].reserved = true;
        }
        for &ff in circuit.dffs() {
            roles[ff.index()].in_pool = true;
        }
        let ids = || (0..n).map(NodeId::from_index);
        let fanouts = ids()
            .map(|id| topo.fanouts(id).map(|(s, p)| (s, p as u32)).collect())
            .collect();
        let level = ids().map(|id| topo.level(id)).collect();
        let mut steady = vec![V3::X; n];
        steady[scan_mode.index()] = V3::One;
        let buckets = vec![Vec::new(); topo.depth() as usize + 1];
        CombEvaluator::with_topology(topo).eval_values(&mut steady);
        Builder {
            circuit: c,
            config,
            scan_mode,
            not_scan,
            scan_ins,
            roles,
            fanouts,
            level,
            compiled: n,
            steady,
            buckets,
            pending: NO_EVENTS,
            queued: vec![0; n],
            epoch: 1,
            log: Vec::new(),
            overrides: Vec::new(),
            overridden: vec![false; n],
            parent: vec![(scan_mode, 0); n],
            reached: vec![0; n],
            search_epoch: 0,
            queue: VecDeque::new(),
            test_points: 0,
            original_gates,
            tp_cache: HashMap::new(),
            #[cfg(test)]
            visits: 0,
        }
    }

    fn steady_of(&self, n: NodeId) -> V3 {
        self.steady[n.index()]
    }

    fn is_gate(&self, n: NodeId) -> bool {
        self.circuit.node(n).kind().is_gate()
    }

    /// Queues gate `id` for re-evaluation in the current propagation.
    fn schedule(&mut self, id: NodeId) {
        let i = id.index();
        if i >= self.compiled || !self.is_gate(id) || self.queued[i] == self.epoch {
            return;
        }
        self.queued[i] = self.epoch;
        let l = self.level[i] as usize;
        self.buckets[l].push(id);
        self.pending = (self.pending.0.min(l), self.pending.1.max(l + 1));
    }

    /// Sets node `id`'s value, queueing its readers if it changed;
    /// `log` records the old value for [`Builder::undo_trial`].
    fn set(&mut self, id: NodeId, v: V3, log: bool) {
        let old = self.steady[id.index()];
        if old == v {
            return;
        }
        if log {
            self.log.push((id, old));
        }
        self.steady[id.index()] = v;
        for k in 0..self.fanouts[id.index()].len() {
            let (sink, _) = self.fanouts[id.index()][k];
            self.schedule(sink);
        }
    }

    /// The live trial's forcing of `gate`'s `pin`, if it has one.
    fn forcing(&self, gate: NodeId, pin: usize) -> Option<V3> {
        let o = self.overrides.iter().find(|o| o.0 == gate && o.1 == pin)?;
        Some(V3::from_bool(o.2))
    }

    /// Evaluates gate `id` from the current values, honoring the live
    /// trial's pin forcings.
    fn eval(&self, id: NodeId) -> V3 {
        let node = self.circuit.node(id);
        let overridden = self.overridden.get(id.index()) == Some(&true);
        eval_v3(
            node.kind(),
            node.fanin().iter().enumerate().map(|(pin, &f)| {
                let forced = if overridden {
                    self.forcing(id, pin)
                } else {
                    None
                };
                forced.unwrap_or(self.steady[f.index()])
            }),
        )
    }

    /// Drains the event queue in level order. A reader's compile level
    /// is above its source's, so no level is revisited.
    fn propagate(&mut self, log: bool) {
        let mut l = self.pending.0;
        while l < self.pending.1 {
            let mut bucket = std::mem::take(&mut self.buckets[l]);
            for &id in &bucket {
                #[cfg(test)]
                {
                    self.visits += 1;
                }
                let v = self.eval(id);
                self.set(id, v, log);
            }
            debug_assert!(
                self.buckets[l].is_empty(),
                "event scheduled at its own level"
            );
            bucket.clear();
            self.buckets[l] = bucket;
            l += 1;
        }
        self.pending = NO_EVENTS;
        self.epoch += 1;
    }

    /// Propagates a candidate plan's PI assignments and per-pin test
    /// point forcings over the steady values. [`Builder::undo_trial`]
    /// restores steady.
    fn trial(&mut self, extra: &[(NodeId, bool)], overrides: &[(NodeId, usize, bool)]) {
        debug_assert!(self.log.is_empty() && self.overrides.is_empty());
        self.overrides.extend_from_slice(overrides);
        for &(pi, v) in extra {
            self.set(pi, V3::from_bool(v), true);
        }
        for &(gate, _, _) in overrides {
            debug_assert!(
                gate.index() < self.compiled,
                "test points go into original gates"
            );
            self.overridden[gate.index()] = true;
            self.schedule(gate);
        }
        self.propagate(true);
    }

    fn undo_trial(&mut self) {
        while let Some((id, old)) = self.log.pop() {
            self.steady[id.index()] = old;
        }
        for (gate, _, _) in self.overrides.drain(..) {
            self.overridden[gate.index()] = false;
        }
    }

    /// Registers the gates added to the circuit since the last call:
    /// grows the per-node arrays, appends their fanin edges to the
    /// readers lists (their ids are the largest yet, so appending keeps
    /// a fresh compile's order) and fixes their scan-mode values.
    fn adopt_new_gates(&mut self) {
        for i in self.steady.len()..self.circuit.num_nodes() {
            let id = NodeId::from_index(i);
            debug_assert!(self.is_gate(id));
            for (pin, &f) in self.circuit.node(id).fanin().iter().enumerate() {
                self.fanouts[f.index()].push((id, pin as u32));
            }
            let v = self.eval(id);
            self.steady.push(v);
            self.fanouts.push(Vec::new());
            self.roles.push(Role {
                infrastructure: true,
                ..Role::default()
            });
            self.overridden.push(false);
            self.parent.push((self.scan_mode, 0));
            self.reached.push(0);
        }
    }

    /// Moves reader `(sink, pin)` from `from`'s readers list into
    /// `to`'s, at its `(sink id, pin)` position.
    fn move_reader(&mut self, sink: NodeId, pin: usize, from: NodeId, to: NodeId) {
        let entry = (sink, pin as u32);
        let list = &mut self.fanouts[from.index()];
        match list.iter().position(|&e| e == entry) {
            Some(at) => {
                list.remove(at);
            }
            // A placeholder flip-flop's self edge is not a reader.
            None => debug_assert_eq!(from, sink),
        }
        let list = &mut self.fanouts[to.index()];
        let at = list.partition_point(|&e| e < entry);
        list.insert(at, entry);
    }

    /// Finds a functional path from `prev` to some flip-flop still in
    /// the pool, returning the cell (not yet applied) plus its forcing
    /// plan.
    fn find_path(&mut self, prev: NodeId) -> Option<(ScanCell, Plan)> {
        self.search_epoch += 1;
        let epoch = self.search_epoch;
        let mut candidates_tried = 0usize;

        // Zero-gate path: prev directly drives a pooled flip-flop.
        for k in 0..self.fanouts[prev.index()].len() {
            let (sink, pin) = self.fanouts[prev.index()][k];
            if pin == 0 && self.roles[sink.index()].in_pool {
                if let Some(found) = self.try_candidate(prev, prev, sink) {
                    return Some(found);
                }
            }
        }

        self.queue.clear();
        self.queue.push_back((prev, 0));
        while let Some((net, d)) = self.queue.pop_front() {
            if d >= self.config.max_path_len {
                continue;
            }
            for k in 0..self.fanouts[net.index()].len() {
                let (gate, pin) = self.fanouts[net.index()][k];
                let role = self.roles[gate.index()];
                if !self.is_gate(gate)
                    || self.reached[gate.index()] == epoch
                    || gate == prev
                    || role.infrastructure
                    || role.chain_net
                    || self.steady_of(gate).is_known()
                {
                    continue;
                }
                self.reached[gate.index()] = epoch;
                self.parent[gate.index()] = (net, pin);
                // Does this gate feed a pooled flip-flop's D pin?
                for j in 0..self.fanouts[gate.index()].len() {
                    let (sink, spin) = self.fanouts[gate.index()][j];
                    if spin == 0 && self.roles[sink.index()].in_pool {
                        candidates_tried += 1;
                        if let Some(found) = self.try_candidate(prev, gate, sink) {
                            return Some(found);
                        }
                        if candidates_tried >= self.config.max_candidates {
                            return None;
                        }
                    }
                }
                self.queue.push_back((gate, d + 1));
            }
        }
        None
    }

    /// Reconstructs the searched gate path from `prev` to `end_net` and
    /// plans it as the segment into `dff`.
    fn try_candidate(
        &mut self,
        prev: NodeId,
        end_net: NodeId,
        dff: NodeId,
    ) -> Option<(ScanCell, Plan)> {
        let mut path: Vec<(NodeId, usize)> = Vec::new();
        let mut cur = end_net;
        while cur != prev {
            if self.reached[cur.index()] != self.search_epoch {
                return None;
            }
            let (pnet, pin) = self.parent[cur.index()];
            path.push((cur, pin as usize));
            cur = pnet;
        }
        path.reverse();
        self.plan_segment(prev, dff, &path)
    }

    /// Checks the side inputs of a candidate path and produces the
    /// forcing plan, or `None` if the segment is not affordable.
    fn plan_segment(
        &mut self,
        prev: NodeId,
        dff: NodeId,
        path: &[(NodeId, usize)],
    ) -> Option<(ScanCell, Plan)> {
        // The last path element must be the flip-flop's direct D driver.
        let d_driver = self.circuit.node(dff).fanin()[0];
        let last = path.last().map(|&(g, _)| g).unwrap_or(prev);
        if d_driver != last {
            return None;
        }
        let mut plan: Plan = Vec::new();
        let mut sides: Vec<SideInput> = Vec::new();
        let mut tentative: Vec<(NodeId, bool)> = Vec::new();
        // Nets this plan justifies via PIs: (net, value).
        let mut planned_net: HashMap<NodeId, bool> = HashMap::new();
        // Distinct test-point gates the plan will create.
        let mut tp_gates: HashSet<(NodeId, bool)> = HashSet::new();
        let mut inverted = false;

        for &(gate, data_pin) in path {
            let node = self.circuit.node(gate);
            let kind = node.kind();
            inverted ^= kind.output_inverted();
            if node.fanin().len() == 1 {
                continue;
            }
            let required = kind.transparent_side_value()?;
            for (pin, &net) in node.fanin().iter().enumerate() {
                if pin == data_pin {
                    continue;
                }
                sides.push(SideInput {
                    gate,
                    pin,
                    net,
                    required,
                });
                let steady = self.steady_of(net);
                let mut forcing = None;
                if steady == V3::from_bool(required) || planned_net.get(&net) == Some(&required) {
                    forcing = Some(Forcing::Already);
                } else if !steady.is_known()
                    && !planned_net.contains_key(&net)
                    && !self.roles[net.index()].chain_net
                {
                    let base = tentative.len();
                    if self.justify(net, required, &mut tentative, self.config.justify_depth) {
                        planned_net.insert(net, required);
                        forcing = Some(Forcing::Pis(tentative[base..].to_vec()));
                    } else {
                        tentative.truncate(base);
                    }
                }
                let forcing = match forcing {
                    Some(f) => f,
                    None => {
                        // Branch test point: force this pin only. Works
                        // for flip-flop-driven sides, chain-net sides and
                        // sides pinned to the controlling value alike.
                        if !self.config.allow_test_points {
                            return None;
                        }
                        if !self.tp_cache.contains_key(&(net, required)) {
                            tp_gates.insert((net, required));
                            if tp_gates.len() > self.config.max_test_points_per_segment {
                                return None;
                            }
                        }
                        Forcing::TestPoint
                    }
                };
                plan.push(forcing);
            }
        }
        // Trial-validate the whole plan: justification decisions were
        // made against the pre-plan steady values and may interact (one
        // side's PI assignment can imply a controlling value on another
        // side). Propagate all planned assignments and test points and
        // accept only if every side really holds its value and no
        // data-carrying net (this path's or any earlier chain's) gets
        // pinned to a constant.
        let mut extra: Vec<(NodeId, bool)> = Vec::new();
        let mut overrides: Vec<(NodeId, usize, bool)> = Vec::new();
        for (side, forcing) in sides.iter().zip(plan.iter()) {
            match forcing {
                Forcing::Already => {}
                Forcing::Pis(pis) => extra.extend(pis.iter().copied()),
                Forcing::TestPoint => overrides.push((side.gate, side.pin, side.required)),
            }
        }
        self.trial(&extra, &overrides);
        let holds = self.trial_holds(&sides, path);
        self.undo_trial();
        if !holds {
            return None;
        }
        let cell = ScanCell {
            ff: dff,
            source: prev,
            path: path.to_vec(),
            inverted,
            sides,
            kind: SegmentKind::Functional,
        };
        Some((cell, plan))
    }

    /// Whether the live trial keeps every side of the candidate at its
    /// required value, every gate of its path at X, and every earlier
    /// chain and committed side intact.
    fn trial_holds(&self, sides: &[SideInput], path: &[(NodeId, usize)]) -> bool {
        let sides_hold = sides.iter().all(|side| {
            let v = self.forcing(side.gate, side.pin);
            v.unwrap_or(self.steady_of(side.net)) == V3::from_bool(side.required)
        });
        // A forced value would block the data path.
        if !sides_hold || path.iter().any(|&(g, _)| self.steady_of(g).is_known()) {
            return false;
        }
        // Steady keeps every commitment (checked after each commit), so
        // only a node the trial changed can break one.
        self.log.iter().all(|&(n, _)| self.keeps_commitments(n))
    }

    /// Whether node `n`'s current value leaves earlier segments intact:
    /// a chain gate must stay X (a constant would freeze its segment),
    /// and a committed side net must hold the value its segment needs.
    fn keeps_commitments(&self, n: NodeId) -> bool {
        let role = self.roles[n.index()];
        let v = self.steady_of(n);
        !(role.chain_net && self.is_gate(n) && v.is_known())
            && role.side_required.is_none_or(|r| v == V3::from_bool(r))
    }

    /// Attempts to justify `net = value` in scan mode using only
    /// primary-input assignments, appending them to `tentative`.
    fn justify(
        &self,
        net: NodeId,
        value: bool,
        tentative: &mut Vec<(NodeId, bool)>,
        depth: usize,
    ) -> bool {
        let steady = self.steady_of(net);
        if steady == V3::from_bool(value) {
            return true;
        }
        if steady.is_known() {
            return false;
        }
        let role = self.roles[net.index()];
        if depth == 0 || role.chain_net {
            // Never pin a data-carrying chain net to a constant.
            return false;
        }
        let node = self.circuit.node(net);
        match node.kind() {
            GateKind::Input => {
                if role.reserved {
                    return false;
                }
                if let Some(v) = role.constraint {
                    return v == value;
                }
                if let Some(&(_, v)) = tentative.iter().find(|&&(n, _)| n == net) {
                    return v == value;
                }
                tentative.push((net, value));
                true
            }
            GateKind::Buf => self.justify(node.fanin()[0], value, tentative, depth - 1),
            GateKind::Not => self.justify(node.fanin()[0], !value, tentative, depth - 1),
            GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                let kind = node.kind();
                let ctrl = kind.controlling_value().expect("and/or family");
                let out_ctrl = ctrl ^ kind.output_inverted();
                let fanin = node.fanin();
                if value == out_ctrl {
                    // One controlling input suffices: try each.
                    for &f in fanin {
                        let base = tentative.len();
                        if self.justify(f, ctrl, tentative, depth - 1) {
                            return true;
                        }
                        tentative.truncate(base);
                    }
                    false
                } else {
                    // Every input must be non-controlling.
                    let base = tentative.len();
                    for &f in fanin {
                        if !self.justify(f, !ctrl, tentative, depth - 1) {
                            tentative.truncate(base);
                            return false;
                        }
                    }
                    true
                }
            }
            // XOR/XNOR, flip-flops, constants at X (impossible): give up;
            // a test point will handle it.
            _ => false,
        }
    }

    /// Applies a plan: adds PI constraints and splices branch test
    /// points into the pins that need them, updating the cell's side
    /// records to point at the test-point gates, then propagates the
    /// changes into the steady values.
    fn apply_plan(&mut self, cell: &mut ScanCell, plan: Plan) {
        debug_assert_eq!(cell.sides.len(), plan.len());
        for (side, forcing) in cell.sides.iter_mut().zip(plan) {
            match forcing {
                Forcing::Already => {}
                Forcing::Pis(pis) => {
                    for (pi, v) in pis {
                        let old = self.roles[pi.index()].constraint.replace(v);
                        debug_assert!(old.is_none() || old == Some(v));
                        self.set(pi, V3::from_bool(v), false);
                    }
                }
                Forcing::TestPoint => {
                    let tp = match self.tp_cache.get(&(side.net, side.required)) {
                        Some(&tp) => tp,
                        None => {
                            let tp = self.insert_test_point(side.net, side.required);
                            self.tp_cache.insert((side.net, side.required), tp);
                            tp
                        }
                    };
                    self.circuit
                        .replace_fanin(side.gate, side.pin, tp)
                        .expect("side pin exists");
                    self.move_reader(side.gate, side.pin, side.net, tp);
                    self.schedule(side.gate);
                    side.net = tp;
                }
            }
        }
        self.propagate(false);
    }

    /// Creates a branch test-point gate forcing readers to `value`
    /// during scan mode (`OR(net, scan_mode)` for 1, `AND(net,
    /// NOT scan_mode)` for 0). The caller splices it into specific pins;
    /// nothing else is rerouted.
    fn insert_test_point(&mut self, net: NodeId, value: bool) -> NodeId {
        let name = format!("tp{}", self.test_points);
        let tp = if value {
            self.circuit
                .add_gate(GateKind::Or, vec![net, self.scan_mode], name)
        } else {
            self.circuit
                .add_gate(GateKind::And, vec![net, self.not_scan], name)
        };
        self.adopt_new_gates();
        self.test_points += 1;
        tp
    }

    /// Builds a dedicated MUX segment feeding `ff` from `prev`. Its
    /// gates are infrastructure; only the flip-flop's D pin moves, so
    /// no steady value changes.
    fn add_mux(&mut self, ff: NodeId, prev: NodeId) -> ScanCell {
        let func_d = self.circuit.node(ff).fanin()[0];
        let cell = add_mux_segment(&mut self.circuit, self.scan_mode, self.not_scan, ff, prev);
        self.adopt_new_gates();
        let m = self.circuit.node(ff).fanin()[0];
        self.move_reader(ff, 0, func_d, m);
        cell
    }

    /// Marks a placed cell's nets as chain nets and takes its flip-flop
    /// out of the pool; a functional cell's sides become constraints on
    /// every later plan.
    fn commit_cell(&mut self, cell: &ScanCell) {
        for n in cell.chain_nets().chain([cell.ff]) {
            self.roles[n.index()].chain_net = true;
        }
        self.roles[cell.ff.index()].in_pool = false;
        if cell.kind == SegmentKind::Functional {
            for side in &cell.sides {
                let old = self.roles[side.net.index()]
                    .side_required
                    .replace(side.required);
                debug_assert!(old.is_none() || old == Some(side.required));
            }
        }
        debug_assert!(
            self.circuit.node_ids().all(|n| self.keeps_commitments(n)),
            "steady must keep every chain and committed side"
        );
        #[cfg(test)]
        self.assert_matches_fresh_compile();
    }

    /// Test-only oracle: the incremental steady values equal a full
    /// evaluation, and the readers lists a fresh compile's fanouts.
    #[cfg(test)]
    fn assert_matches_fresh_compile(&self) {
        let topo = CompiledTopology::shared(&self.circuit);
        let mut values = vec![V3::X; self.circuit.num_nodes()];
        for (i, role) in self.roles.iter().enumerate() {
            if let Some(v) = role.constraint {
                values[i] = V3::from_bool(v);
            }
        }
        CombEvaluator::with_topology(topo.clone()).eval_values(&mut values);
        assert_eq!(self.steady, values, "steady values after commit");
        for id in self.circuit.node_ids() {
            let fresh: Vec<(NodeId, u32)> = topo.fanouts(id).map(|(s, p)| (s, p as u32)).collect();
            assert_eq!(self.fanouts[id.index()], fresh, "readers of {id}");
        }
    }

    /// Builds every chain, greedily drawing flip-flops from a global
    /// pool; capacities follow the balanced partition sizes. (The paper:
    /// "except where functional scan paths are established, the ordering
    /// of the scan chain is arbitrary", so we are free to pick orders
    /// that maximize functional coverage.)
    fn run(&mut self, original_dffs: &[NodeId]) -> Vec<ScanChain> {
        let num_chains = self.scan_ins.len();
        let capacities: Vec<usize> = partition_ffs(original_dffs, num_chains)
            .into_iter()
            .map(|p| p.len())
            .collect();
        // The MUX fallback takes the first pooled flip-flop in
        // declaration order; everything before `next_fallback` is placed.
        let mut next_fallback = 0;
        let mut chains = Vec::with_capacity(num_chains);
        for (k, cap) in capacities.into_iter().enumerate() {
            let scan_in = self.scan_ins[k];
            let mut prev = scan_in;
            let mut cells: Vec<ScanCell> = Vec::new();
            while cells.len() < cap {
                let cell = if let Some((mut cell, plan)) = self.find_path(prev) {
                    self.apply_plan(&mut cell, plan);
                    cell
                } else {
                    while !self.roles[original_dffs[next_fallback].index()].in_pool {
                        next_fallback += 1;
                    }
                    self.add_mux(original_dffs[next_fallback], prev)
                };
                self.commit_cell(&cell);
                prev = cell.ff;
                cells.push(cell);
            }
            self.circuit.mark_output(prev);
            chains.push(ScanChain { scan_in, cells });
        }
        chains
    }

    fn finish(self, chains: Vec<ScanChain>) -> Result<ScanDesign, ScanError> {
        let constraints: Vec<(NodeId, bool)> = self
            .roles
            .iter()
            .enumerate()
            .filter_map(|(i, role)| role.constraint.map(|v| (NodeId::from_index(i), v)))
            .collect();
        let added_gates = self.circuit.num_gates() - self.original_gates;
        let design = ScanDesign::new(
            self.circuit,
            self.scan_mode,
            constraints,
            chains,
            self.test_points,
            added_gates,
        );
        // The steady values are the design's scan-mode values, so the
        // check needs no compile of the transformed circuit.
        design.verify_with(&self.steady)?;
        Ok(design)
    }
}

/// Inserts functional scan: flip-flops are chained through sensitized
/// paths in the mission logic wherever affordable, with dedicated MUX
/// segments as fallback. See the module docs for the forcing strategy.
///
/// # Errors
///
/// Returns [`ScanError::NoFlipFlops`] / [`ScanError::TooManyChains`] on
/// impossible configurations, or a verification error if the produced
/// design is inconsistent (a bug, not an expected outcome).
///
/// # Examples
///
/// ```
/// use fscan_netlist::{generate, GeneratorConfig};
/// use fscan_scan::{insert_functional_scan, SegmentKind, TpiConfig};
///
/// let c = generate(&GeneratorConfig::new("d", 5).gates(150).dffs(12));
/// let design = insert_functional_scan(&c, &TpiConfig::default())?;
/// let (_, functional) = design.segment_counts();
/// assert!(functional > 0, "some functional paths should be found");
/// # Ok::<(), fscan_scan::ScanError>(())
/// ```
pub fn insert_functional_scan(
    circuit: &Circuit,
    config: &TpiConfig,
) -> Result<ScanDesign, ScanError> {
    let num_chains = config.num_chains.max(1);
    if circuit.dffs().is_empty() {
        return Err(ScanError::NoFlipFlops);
    }
    if num_chains > circuit.dffs().len() {
        return Err(ScanError::TooManyChains {
            requested: num_chains,
            flip_flops: circuit.dffs().len(),
        });
    }
    let mut builder = Builder::new(circuit, config);
    let chains = builder.run(circuit.dffs());
    builder.finish(chains)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fscan_netlist::{generate, write_bench, GeneratorConfig};
    use fscan_sim::SeqSim;

    /// The paper's Figure 1 scenario: a NAND whose side input comes from
    /// a primary input; TPI should sensitize it by assigning the PI.
    #[test]
    fn sensitizes_with_pi_assignment_only() {
        let mut c = Circuit::new("fig1");
        let pi = c.add_input("PI");
        let ff1 = c.add_dff_placeholder("ff1");
        let g = c.add_gate(GateKind::Nand, vec![ff1, pi], "g");
        let ff2 = c.add_dff(g, "ff2");
        let h = c.add_gate(GateKind::Not, vec![ff2], "h");
        c.set_dff_input(ff1, h).unwrap();
        c.mark_output(h);
        let design = insert_functional_scan(&c, &TpiConfig::default()).unwrap();
        design.verify().unwrap();
        // The ff1→ff2 segment must be functional through g (NAND needs
        // side = 1, so PI is constrained to 1); ff2→... would need h.
        let (_, functional) = design.segment_counts();
        assert!(functional >= 1, "{design}");
        // PI constrained to 1.
        assert!(design.constraints().iter().any(|&(n, v)| n == pi && v));
    }

    #[test]
    fn inserts_test_point_when_side_not_justifiable() {
        // Side input of the path NAND is driven by an XOR of two FFs:
        // not justifiable by PI assignment → needs a test point.
        let mut c = Circuit::new("tp");
        let ff_a = c.add_dff_placeholder("ffa");
        let ff_b = c.add_dff_placeholder("ffb");
        let ff1 = c.add_dff_placeholder("ff1");
        let side = c.add_gate(GateKind::Xor, vec![ff_a, ff_b], "side");
        let g = c.add_gate(GateKind::And, vec![ff1, side], "g");
        let ff2 = c.add_dff(g, "ff2");
        let sink = c.add_gate(GateKind::Nor, vec![ff2, side], "sink");
        c.set_dff_input(ff1, sink).unwrap();
        let na = c.add_gate(GateKind::Not, vec![ff2], "na");
        let nb = c.add_gate(GateKind::Buf, vec![ff2], "nb");
        c.set_dff_input(ff_a, na).unwrap();
        c.set_dff_input(ff_b, nb).unwrap();
        c.mark_output(sink);
        let cfg = TpiConfig::default();
        let design = insert_functional_scan(&c, &cfg).unwrap();
        design.verify().unwrap();
        let (_, functional) = design.segment_counts();
        // At least one functional segment (which one depends on chain
        // order); if the ff1→ff2 path through g was taken, a test point
        // was required on `side`.
        assert!(functional + design.test_points() > 0);
    }

    #[test]
    fn no_test_points_when_disallowed() {
        let c = generate(&GeneratorConfig::new("d", 21).gates(200).dffs(16));
        let cfg = TpiConfig {
            allow_test_points: false,
            ..TpiConfig::default()
        };
        let design = insert_functional_scan(&c, &cfg).unwrap();
        assert_eq!(design.test_points(), 0);
        design.verify().unwrap();
    }

    #[test]
    fn functional_scan_shifts_correctly() {
        // End-to-end: scan a pattern in through functional paths and
        // check the state, honoring inversion parities.
        let circuit = generate(&GeneratorConfig::new("d", 33).inputs(8).gates(150).dffs(8));
        let design = insert_functional_scan(&circuit, &TpiConfig::default()).unwrap();
        let c = design.circuit();
        let chain = &design.chains()[0];
        let l = chain.len();
        let state: Vec<bool> = (0..l).map(|i| i % 3 == 0).collect();
        let stream = chain.scan_in_stream(&state);
        let n_pis = c.inputs().len();
        let pos_of = |n: NodeId| c.inputs().iter().position(|&p| p == n).unwrap();
        let mut vectors = Vec::new();
        for &bit in &stream {
            let mut v = vec![V3::Zero; n_pis];
            for &(pi, val) in design.constraints() {
                v[pos_of(pi)] = V3::from(val);
            }
            v[pos_of(chain.scan_in)] = V3::from(bit);
            vectors.push(v);
        }
        let sim = SeqSim::new(c);
        let trace = sim.run(&vectors, &vec![V3::X; c.dffs().len()], None);
        for (k, cell) in chain.cells.iter().enumerate() {
            let dff_pos = c.dffs().iter().position(|&f| f == cell.ff).unwrap();
            assert_eq!(
                trace.final_state[dff_pos],
                V3::from(state[k]),
                "cell {k} (ff {}) after scan-in of {state:?} via {stream:?}",
                cell.ff
            );
        }
    }

    #[test]
    fn normal_mode_function_preserved() {
        let circuit = generate(&GeneratorConfig::new("d", 44).inputs(6).gates(120).dffs(6));
        let design = insert_functional_scan(&circuit, &TpiConfig::default()).unwrap();
        let c = design.circuit();
        let orig_sim = SeqSim::new(&circuit);
        let new_sim = SeqSim::new(c);
        let vectors_orig: Vec<Vec<V3>> = (0..12)
            .map(|t| {
                (0..circuit.inputs().len())
                    .map(|k| V3::from((t + k) % 2 == 0))
                    .collect()
            })
            .collect();
        let vectors_new: Vec<Vec<V3>> = vectors_orig
            .iter()
            .map(|v| {
                let mut w = v.clone();
                w.extend(vec![V3::Zero; c.inputs().len() - v.len()]);
                w
            })
            .collect();
        let init = vec![V3::One; circuit.dffs().len()];
        let t_orig = orig_sim.run(&vectors_orig, &init, None);
        let t_new = new_sim.run(&vectors_new, &init, None);
        for t in 0..vectors_orig.len() {
            for k in 0..circuit.outputs().len() {
                assert_eq!(
                    t_orig.outputs[t][k], t_new.outputs[t][k],
                    "cycle {t} po {k}"
                );
            }
        }
    }

    #[test]
    fn multiple_chains_cover_all_ffs() {
        let circuit = generate(&GeneratorConfig::new("d", 55).gates(300).dffs(24));
        let cfg = TpiConfig {
            num_chains: 3,
            ..TpiConfig::default()
        };
        let design = insert_functional_scan(&circuit, &cfg).unwrap();
        assert_eq!(design.chains().len(), 3);
        let total: usize = design.chains().iter().map(ScanChain::len).sum();
        assert_eq!(total, 24);
        // Every FF appears exactly once.
        let mut seen = HashSet::new();
        for chain in design.chains() {
            for cell in &chain.cells {
                assert!(seen.insert(cell.ff), "ff {} chained twice", cell.ff);
            }
        }
        design.verify().unwrap();
    }

    #[test]
    fn reduces_overhead_vs_mux_scan() {
        // The whole point of TPI: fewer dedicated mux segments.
        let circuit = generate(&GeneratorConfig::new("d", 67).gates(400).dffs(32));
        let tpi = insert_functional_scan(&circuit, &TpiConfig::default()).unwrap();
        let (dedicated, functional) = tpi.segment_counts();
        assert!(
            3 * functional >= dedicated + functional,
            "expected at least a third functional segments, got {functional} functional / {dedicated} dedicated"
        );
        // And the knob trades area for coverage: a zero budget uses no
        // test points at all.
        let frugal = TpiConfig {
            max_test_points_per_segment: 0,
            ..TpiConfig::default()
        };
        let d2 = insert_functional_scan(&circuit, &frugal).unwrap();
        assert_eq!(d2.test_points(), 0);
    }

    /// Runs both builders and requires the same outcome: the same error,
    /// or designs equal in every observable part, node numbering
    /// included. The builder under test also checks itself against a
    /// full evaluation and a fresh compile after every commit.
    fn assert_matches_reference(c: &Circuit, config: &TpiConfig) {
        match (
            insert_functional_scan(c, config),
            reference::insert_functional_scan_reference(c, config),
        ) {
            (Ok(got), Ok(want)) => {
                assert_eq!(write_bench(got.circuit()), write_bench(want.circuit()));
                assert_eq!(
                    format!("{:?}", got.circuit()),
                    format!("{:?}", want.circuit())
                );
                assert_eq!(got.chains(), want.chains());
                assert_eq!(got.constraints(), want.constraints());
                assert_eq!(got.scan_mode(), want.scan_mode());
                assert_eq!(got.test_points(), want.test_points());
                assert_eq!(got.added_gates(), want.added_gates());
            }
            (Err(got), Err(want)) => assert_eq!(got.to_string(), want.to_string()),
            (got, want) => panic!(
                "outcomes differ: {:?} vs {:?}",
                got.map(|d| d.to_string()),
                want.map(|d| d.to_string())
            ),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// The incremental builder produces exactly the whole-circuit
        /// reference builder's design on random circuits and knobs;
        /// after every commit its steady values equal a full evaluation
        /// and its readers lists a fresh compile's fanouts.
        #[test]
        fn incremental_builder_matches_reference(
            shape in (0u64..1000, 30usize..300, 2usize..24, 1usize..10),
            num_chains in 1usize..5,
            allow_test_points in proptest::prelude::any::<bool>(),
            knobs in (1usize..8, 0usize..5, 0usize..4),
        ) {
            let (seed, gates, dffs, inputs) = shape;
            let c = generate(
                &GeneratorConfig::new(format!("p{seed}"), seed)
                    .inputs(inputs)
                    .gates(gates)
                    .dffs(dffs),
            );
            let (max_path_len, justify_depth, max_test_points_per_segment) = knobs;
            assert_matches_reference(&c, &TpiConfig {
                num_chains,
                max_path_len,
                justify_depth,
                allow_test_points,
                max_test_points_per_segment,
                ..TpiConfig::default()
            });
        }

        /// The same on circuits with few inputs, wide gates and a narrow
        /// locality window, with deep justification: there one side's
        /// PI assignments often pin another side, so candidates get
        /// rejected after their trial propagation, which default wiring
        /// almost never does.
        #[test]
        fn incremental_builder_matches_reference_when_trials_fail(
            shape in (0u64..1000, 100usize..400, 8usize..32, 2usize..4),
            num_chains in 1usize..5,
            allow_test_points in proptest::prelude::any::<bool>(),
            knobs in (6usize..13, 6usize..11, 4usize..8),
        ) {
            let (seed, gates, dffs, inputs) = shape;
            let c = generate(
                &GeneratorConfig::new(format!("q{seed}"), seed)
                    .inputs(inputs)
                    .gates(gates)
                    .dffs(dffs)
                    .max_fanin(5)
                    .locality(4),
            );
            let (max_path_len, justify_depth, max_test_points_per_segment) = knobs;
            assert_matches_reference(&c, &TpiConfig {
                num_chains,
                max_path_len,
                justify_depth,
                allow_test_points,
                max_test_points_per_segment,
                ..TpiConfig::default()
            });
        }
    }

    /// A generated sequential circuit beside a disjoint combinational
    /// block of `block` gates with its own inputs and output.
    fn circuit_beside_block(block: usize) -> Circuit {
        let mut c = generate(
            &GeneratorConfig::new("cone", 91)
                .inputs(8)
                .gates(300)
                .dffs(24),
        );
        let kinds = [GateKind::And, GateKind::Or, GateKind::Nand, GateKind::Xor];
        let mut pair = (c.add_input("blk_a"), c.add_input("blk_b"));
        for k in 0..block {
            let g = c.add_gate(
                kinds[k % kinds.len()],
                vec![pair.0, pair.1],
                format!("blk{k}"),
            );
            pair = (pair.1, g);
        }
        c.mark_output(pair.1);
        c
    }

    #[test]
    fn trial_and_commit_work_stays_in_the_changed_cone() {
        // Nodes evaluated by every trial and commit propagation must not
        // depend on the disjoint block's size: a whole-circuit sweep per
        // candidate or per commit would grow with it.
        let tally = |block: usize| {
            let c = circuit_beside_block(block);
            let config = TpiConfig {
                num_chains: 2,
                ..TpiConfig::default()
            };
            let mut builder = Builder::new(&c, &config);
            let chains = builder.run(c.dffs());
            let visits = builder.visits;
            let design = builder.finish(chains).unwrap();
            (design.segment_counts(), design.test_points(), visits)
        };
        let small = tally(16);
        let large = tally(4096);
        let ((_, functional), _, visits) = small;
        assert!(functional > 0 && visits > 0, "{small:?}");
        assert_eq!(small, large);
    }
}
