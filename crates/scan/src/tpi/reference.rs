//! The pre-incremental TPI builder, kept as the differential oracle for
//! the event-driven one in the parent module: it recompiles the working
//! circuit's topology and re-evaluates every node after each commit,
//! and trial-evaluates every candidate plan over the whole circuit.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use fscan_netlist::{Circuit, CompiledTopology, GateKind, NodeId};
use fscan_sim::{CombEvaluator, V3};

use super::{Forcing, Plan, TpiConfig};
use crate::design::{ScanCell, ScanChain, ScanDesign, SegmentKind, SideInput};
use crate::error::ScanError;
use crate::mux::{add_mux_segment, add_scan_infra, partition_ffs};

struct ReferenceBuilder<'a> {
    circuit: Circuit,
    config: &'a TpiConfig,
    scan_mode: NodeId,
    not_scan: NodeId,
    constraints: HashMap<NodeId, bool>,
    /// Nets carrying shifted data (must never be forced or rerouted).
    chain_nets: HashSet<NodeId>,
    /// scan_mode / not_scan / test points / mux gates: excluded from
    /// path routing and from receiving test points.
    infrastructure: HashSet<NodeId>,
    /// Scan-in inputs: free data pins, never constrainable.
    reserved: HashSet<NodeId>,
    /// Side inputs of committed segments: every later plan must keep
    /// them at their required values.
    committed_sides: Vec<SideInput>,
    /// Compiled topology of the current working circuit, recompiled by
    /// [`ReferenceBuilder::recompute_steady`] whenever the circuit
    /// mutates.
    topo: Arc<CompiledTopology>,
    steady: Vec<V3>,
    test_points: usize,
    original_gates: usize,
    /// Shared test-point gates: one per (net, forced value), reused by
    /// every pin in any segment that needs the same forcing ("a single
    /// test point may help establish several scan paths").
    tp_cache: HashMap<(NodeId, bool), NodeId>,
}

impl<'a> ReferenceBuilder<'a> {
    fn new(circuit: &Circuit, config: &'a TpiConfig) -> ReferenceBuilder<'a> {
        let original_gates = circuit.num_gates();
        let mut c = circuit.clone();
        let (scan_mode, not_scan) = add_scan_infra(&mut c);
        let mut constraints = HashMap::new();
        constraints.insert(scan_mode, true);
        let topo = CompiledTopology::shared(&c);
        let mut b = ReferenceBuilder {
            circuit: c,
            config,
            scan_mode,
            not_scan,
            constraints,
            chain_nets: HashSet::new(),
            infrastructure: [scan_mode, not_scan].into_iter().collect(),
            reserved: HashSet::new(),
            committed_sides: Vec::new(),
            topo,
            steady: Vec::new(),
            test_points: 0,
            original_gates,
            tp_cache: HashMap::new(),
        };
        b.recompute_steady();
        b
    }

    fn recompute_steady(&mut self) {
        // The circuit just mutated (or is fresh): recompile its plan,
        // then evaluate the steady scan-mode values against it.
        self.topo = CompiledTopology::shared(&self.circuit);
        let mut values = vec![V3::X; self.circuit.num_nodes()];
        for (&pi, &v) in &self.constraints {
            values[pi.index()] = V3::from_bool(v);
        }
        CombEvaluator::with_topology(self.topo.clone()).eval_values(&mut values);
        self.steady = values;
    }

    /// Trial evaluation of the scan-mode steady values under extra PI
    /// assignments and with planned branch test points emulated as
    /// per-pin value overrides.
    fn steady_with(
        &self,
        extra: &[(NodeId, bool)],
        pin_overrides: &HashMap<(NodeId, usize), bool>,
    ) -> Vec<V3> {
        let mut values = vec![V3::X; self.circuit.num_nodes()];
        for (&pi, &v) in &self.constraints {
            values[pi.index()] = V3::from_bool(v);
        }
        for &(pi, v) in extra {
            values[pi.index()] = V3::from_bool(v);
        }
        // Manual topological pass so pin overrides apply mid-evaluation.
        for &id in self.topo.eval_order() {
            let node = self.circuit.node(id);
            let out = fscan_sim::kernel::eval_v3(
                node.kind(),
                node.fanin().iter().enumerate().map(|(pin, &f)| {
                    pin_overrides
                        .get(&(id, pin))
                        .map(|&b| V3::from_bool(b))
                        .unwrap_or(values[f.index()])
                }),
            );
            values[id.index()] = out;
        }
        values
    }

    fn steady_of(&self, n: NodeId) -> V3 {
        self.steady[n.index()]
    }

    /// Finds a functional path from `prev` to some flip-flop in
    /// `remaining`, returning the cell (not yet applied) plus its
    /// forcing plan.
    fn find_path(&self, prev: NodeId, remaining: &HashSet<NodeId>) -> Option<(ScanCell, Plan)> {
        // parent[gate] = (previous net, pin on gate where data enters)
        let mut parent: HashMap<NodeId, (NodeId, usize)> = HashMap::new();
        let mut depth: HashMap<NodeId, usize> = HashMap::new();
        let mut queue: VecDeque<NodeId> = VecDeque::new();
        let mut candidates_tried = 0usize;

        let try_candidate = |end_net: NodeId,
                             dff: NodeId,
                             parent: &HashMap<NodeId, (NodeId, usize)>|
         -> Option<(ScanCell, Plan)> {
            // Reconstruct the gate path from prev to end_net.
            let mut rev: Vec<(NodeId, usize)> = Vec::new();
            let mut cur = end_net;
            while cur != prev {
                let &(pnet, pin) = parent.get(&cur)?;
                rev.push((cur, pin));
                cur = pnet;
            }
            rev.reverse();
            self.plan_segment(prev, dff, &rev)
        };

        // Zero-gate path: prev directly drives a remaining flip-flop.
        for (sink, pin) in self.topo.fanouts(prev) {
            if pin == 0
                && self.circuit.node(sink).kind() == GateKind::Dff
                && remaining.contains(&sink)
            {
                if let Some(found) = try_candidate(prev, sink, &parent) {
                    return Some(found);
                }
            }
        }

        queue.push_back(prev);
        depth.insert(prev, 0);
        while let Some(net) = queue.pop_front() {
            let d = depth[&net];
            if d >= self.config.max_path_len {
                continue;
            }
            for (gate, pin) in self.topo.fanouts(net) {
                let node = self.circuit.node(gate);
                if !node.kind().is_gate()
                    || parent.contains_key(&gate)
                    || gate == prev
                    || self.infrastructure.contains(&gate)
                    || self.chain_nets.contains(&gate)
                    || self.steady_of(gate).is_known()
                {
                    continue;
                }
                parent.insert(gate, (net, pin));
                depth.insert(gate, d + 1);
                // Does this gate feed a remaining flip-flop's D pin?
                for (sink, spin) in self.topo.fanouts(gate) {
                    if spin == 0
                        && self.circuit.node(sink).kind() == GateKind::Dff
                        && remaining.contains(&sink)
                    {
                        candidates_tried += 1;
                        if let Some(found) = try_candidate(gate, sink, &parent) {
                            return Some(found);
                        }
                        if candidates_tried >= self.config.max_candidates {
                            return None;
                        }
                    }
                }
                queue.push_back(gate);
            }
        }
        None
    }

    /// Checks the side inputs of a candidate path and produces the
    /// forcing plan, or `None` if the segment is not affordable.
    fn plan_segment(
        &self,
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
                    && !self.chain_nets.contains(&net)
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
        // side). Simulate with all planned assignments and test points
        // and accept only if every side really holds its value and no
        // data-carrying net (this path's or any earlier chain's) gets
        // pinned to a constant.
        let mut extra: Vec<(NodeId, bool)> = Vec::new();
        let mut pin_overrides: HashMap<(NodeId, usize), bool> = HashMap::new();
        for (side, forcing) in sides.iter().zip(plan.iter()) {
            match forcing {
                Forcing::Already => {}
                Forcing::Pis(pis) => extra.extend(pis.iter().copied()),
                Forcing::TestPoint => {
                    pin_overrides.insert((side.gate, side.pin), side.required);
                }
            }
        }
        let trial = self.steady_with(&extra, &pin_overrides);
        for side in &sides {
            let v = pin_overrides
                .get(&(side.gate, side.pin))
                .map(|&b| V3::from_bool(b))
                .unwrap_or(trial[side.net.index()]);
            if v != V3::from_bool(side.required) {
                return None;
            }
        }
        for &(g, _) in path {
            if trial[g.index()].is_known() {
                return None; // a forced value would block the data path
            }
        }
        for &n in &self.chain_nets {
            if self.circuit.node(n).kind().is_gate() && trial[n.index()].is_known() {
                return None; // would freeze an existing chain segment
            }
        }
        for side in &self.committed_sides {
            if trial[side.net.index()] != V3::from_bool(side.required) {
                return None; // would unpin an earlier segment's side input
            }
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
        if depth == 0 || self.chain_nets.contains(&net) {
            // Never pin a data-carrying chain net to a constant.
            return false;
        }
        let node = self.circuit.node(net);
        match node.kind() {
            GateKind::Input => {
                if self.reserved.contains(&net) {
                    return false;
                }
                if let Some(&v) = self.constraints.get(&net) {
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
                let fanin = node.fanin().to_vec();
                if value == out_ctrl {
                    // One controlling input suffices: try each.
                    for f in fanin {
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
                    for f in fanin {
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
    /// records to point at the test-point gates.
    fn apply_plan(&mut self, cell: &mut ScanCell, plan: Plan) {
        debug_assert_eq!(cell.sides.len(), plan.len());
        for (side, forcing) in cell.sides.iter_mut().zip(plan) {
            match forcing {
                Forcing::Already => {}
                Forcing::Pis(pis) => {
                    for (pi, v) in pis {
                        let old = self.constraints.insert(pi, v);
                        debug_assert!(old.is_none() || old == Some(v));
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
                    side.net = tp;
                }
            }
        }
        self.recompute_steady();
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
        self.infrastructure.insert(tp);
        self.test_points += 1;
        tp
    }

    fn build(mut self, original_dffs: &[NodeId]) -> Result<ScanDesign, ScanError> {
        let num_chains = self.config.num_chains.max(1);
        // Chains draw greedily from a global pool; capacities follow the
        // balanced partition sizes. (The paper: "except where functional
        // scan paths are established, the ordering of the scan chain is
        // arbitrary", so we are free to pick orders that maximize
        // functional coverage.)
        let capacities: Vec<usize> = partition_ffs(original_dffs, num_chains)
            .into_iter()
            .map(|p| p.len())
            .collect();
        // Reserve scan-in PIs up front so justification never grabs them.
        let scan_ins: Vec<NodeId> = (0..num_chains)
            .map(|k| {
                let si = self.circuit.add_input(format!("scan_in{k}"));
                self.reserved.insert(si);
                si
            })
            .collect();
        // Adding the scan-in inputs grew the circuit: refresh the plan
        // (their steady values are X — nothing else changes).
        self.recompute_steady();
        let mut pool: HashSet<NodeId> = original_dffs.iter().copied().collect();
        let mut order: Vec<NodeId> = original_dffs.to_vec();
        let mut chains = Vec::with_capacity(num_chains);
        for (k, cap) in capacities.into_iter().enumerate() {
            let scan_in = scan_ins[k];
            let mut prev = scan_in;
            let mut cells: Vec<ScanCell> = Vec::new();
            while cells.len() < cap {
                if let Some((mut cell, plan)) = self.find_path(prev, &pool) {
                    self.apply_plan(&mut cell, plan);
                    self.committed_sides.extend(cell.sides.iter().copied());
                    pool.remove(&cell.ff);
                    order.retain(|&f| f != cell.ff);
                    self.chain_nets.insert(prev);
                    self.chain_nets.extend(cell.chain_nets());
                    self.chain_nets.insert(cell.ff);
                    prev = cell.ff;
                    cells.push(cell);
                } else {
                    let ff = order
                        .iter()
                        .copied()
                        .find(|f| pool.contains(f))
                        .expect("pool nonempty while capacity unmet");
                    let cell =
                        add_mux_segment(&mut self.circuit, self.scan_mode, self.not_scan, ff, prev);
                    for &(g, _) in &cell.path {
                        self.infrastructure.insert(g);
                    }
                    // The `a = AND(func_d, not_scan)` side gate of the mux.
                    for side in &cell.sides {
                        self.infrastructure.insert(side.net);
                    }
                    pool.remove(&ff);
                    order.retain(|&f| f != ff);
                    self.chain_nets.insert(prev);
                    self.chain_nets.extend(cell.chain_nets());
                    self.chain_nets.insert(ff);
                    prev = ff;
                    self.recompute_steady();
                    cells.push(cell);
                }
            }
            self.circuit.mark_output(prev);
            chains.push(ScanChain { scan_in, cells });
        }
        let mut constraints: Vec<(NodeId, bool)> = self.constraints.into_iter().collect();
        constraints.sort();
        let added_gates = self.circuit.num_gates() - self.original_gates;
        let design = ScanDesign::new(
            self.circuit,
            self.scan_mode,
            constraints,
            chains,
            self.test_points,
            added_gates,
        );
        design.verify()?;
        Ok(design)
    }
}

/// [`insert_functional_scan`](super::insert_functional_scan) computed by
/// the whole-circuit reference builder.
pub(super) fn insert_functional_scan_reference(
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
    ReferenceBuilder::new(circuit, config).build(circuit.dffs())
}
