//! Core netlist data structures: nets, gates, flip-flops, components.

use std::fmt;

/// Identifier of a net (a single-driver wire).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub(crate) u32);

/// Identifier of a combinational gate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GateId(pub(crate) u32);

/// Identifier of a D flip-flop.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DffId(pub(crate) u32);

/// Identifier of an ICI logic component (paper Section 3).
///
/// Every gate and flip-flop belongs to exactly one component; fault
/// isolation resolves failing scan bits to components.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ComponentId(pub(crate) u32);

impl NetId {
    /// Raw index of this net, usable as a dense array key.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuild an id from an index obtained via [`NetId::index`].
    pub fn from_index(i: usize) -> Self {
        NetId(i as u32)
    }
}

impl GateId {
    /// Raw index of this gate.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuild an id from an index obtained via [`GateId::index`].
    pub fn from_index(i: usize) -> Self {
        GateId(i as u32)
    }
}

impl DffId {
    /// Raw index of this flip-flop.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuild an id from an index obtained via [`DffId::index`].
    pub fn from_index(i: usize) -> Self {
        DffId(i as u32)
    }
}

impl ComponentId {
    /// Raw index of this component.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuild an id from an index obtained via [`ComponentId::index`].
    pub fn from_index(i: usize) -> Self {
        ComponentId(i as u32)
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

impl fmt::Display for DffId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ff{}", self.0)
    }
}

impl fmt::Display for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// The boolean function computed by a [`Gate`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Constant 0 (no inputs).
    Const0,
    /// Constant 1 (no inputs).
    Const1,
    /// Identity (1 input).
    Buf,
    /// Inverter (1 input).
    Not,
    /// N-ary AND (>= 2 inputs).
    And,
    /// N-ary OR (>= 2 inputs).
    Or,
    /// N-ary NAND (>= 2 inputs).
    Nand,
    /// N-ary NOR (>= 2 inputs).
    Nor,
    /// N-ary XOR (>= 2 inputs).
    Xor,
    /// N-ary XNOR (>= 2 inputs).
    Xnor,
    /// 2:1 multiplexer. Inputs are `[sel, a, b]`; output is `a` when
    /// `sel = 0` and `b` when `sel = 1`.
    Mux,
}

impl GateKind {
    /// Every gate kind, in declaration order.
    pub(crate) const ALL: [GateKind; 11] = [
        GateKind::Const0,
        GateKind::Const1,
        GateKind::Buf,
        GateKind::Not,
        GateKind::And,
        GateKind::Or,
        GateKind::Nand,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Mux,
    ];

    /// Stable lowercase name: the `Display` form, the netlist text and
    /// fuzz-repro spelling, and the Verilog primitive of the n-ary
    /// kinds. Builder net names and content hashes depend on it.
    pub fn name(self) -> &'static str {
        match self {
            GateKind::Const0 => "const0",
            GateKind::Const1 => "const1",
            GateKind::Buf => "buf",
            GateKind::Not => "not",
            GateKind::And => "and",
            GateKind::Or => "or",
            GateKind::Nand => "nand",
            GateKind::Nor => "nor",
            GateKind::Xor => "xor",
            GateKind::Xnor => "xnor",
            GateKind::Mux => "mux",
        }
    }

    /// Whether `n` is a legal number of inputs for this gate kind.
    pub fn arity_ok(self, n: usize) -> bool {
        match self {
            GateKind::Const0 | GateKind::Const1 => n == 0,
            GateKind::Buf | GateKind::Not => n == 1,
            GateKind::Mux => n == 3,
            _ => n >= 2,
        }
    }

    /// Evaluate the gate over 64 parallel boolean patterns.
    #[inline]
    pub fn eval_u64(self, inputs: &[u64]) -> u64 {
        match self {
            GateKind::Const0 => 0,
            GateKind::Const1 => u64::MAX,
            GateKind::Buf => inputs[0],
            GateKind::Not => !inputs[0],
            GateKind::And => inputs.iter().fold(u64::MAX, |a, &b| a & b),
            GateKind::Or => inputs.iter().fold(0, |a, &b| a | b),
            GateKind::Nand => !inputs.iter().fold(u64::MAX, |a, &b| a & b),
            GateKind::Nor => !inputs.iter().fold(0, |a, &b| a | b),
            GateKind::Xor => inputs.iter().fold(0, |a, &b| a ^ b),
            GateKind::Xnor => !inputs.iter().fold(0, |a, &b| a ^ b),
            GateKind::Mux => (!inputs[0] & inputs[1]) | (inputs[0] & inputs[2]),
        }
    }

    /// Evaluate the gate over `W * 64` parallel boolean patterns.
    ///
    /// The lane block `[u64; W]` is the std-only equivalent of a SIMD
    /// register: the fixed-size inner loops monomorphize per `W` and
    /// unroll, so one call evaluates 64 (`W = 1`), 256 (`W = 4`) or
    /// 512 (`W = 8`) patterns. `W = 1` is bit-identical to
    /// [`GateKind::eval_u64`].
    #[inline]
    pub fn eval_wide<const W: usize>(self, inputs: &[[u64; W]]) -> [u64; W] {
        #[inline(always)]
        fn fold<const W: usize>(
            inputs: &[[u64; W]],
            init: u64,
            f: impl Fn(u64, u64) -> u64,
        ) -> [u64; W] {
            let mut acc = [init; W];
            for word in inputs {
                for w in 0..W {
                    acc[w] = f(acc[w], word[w]);
                }
            }
            acc
        }
        #[inline(always)]
        fn not<const W: usize>(mut v: [u64; W]) -> [u64; W] {
            for w in v.iter_mut() {
                *w = !*w;
            }
            v
        }
        match self {
            GateKind::Const0 => [0; W],
            GateKind::Const1 => [u64::MAX; W],
            GateKind::Buf => inputs[0],
            GateKind::Not => not(inputs[0]),
            GateKind::And => fold(inputs, u64::MAX, |a, b| a & b),
            GateKind::Or => fold(inputs, 0, |a, b| a | b),
            GateKind::Nand => not(fold(inputs, u64::MAX, |a, b| a & b)),
            GateKind::Nor => not(fold(inputs, 0, |a, b| a | b)),
            GateKind::Xor => fold(inputs, 0, |a, b| a ^ b),
            GateKind::Xnor => not(fold(inputs, 0, |a, b| a ^ b)),
            GateKind::Mux => {
                let mut out = [0; W];
                for w in 0..W {
                    out[w] = (!inputs[0][w] & inputs[1][w]) | (inputs[0][w] & inputs[2][w]);
                }
                out
            }
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for GateKind {
    type Err = String;

    /// Inverse of [`GateKind::name`].
    fn from_str(name: &str) -> Result<GateKind, String> {
        GateKind::ALL
            .into_iter()
            .find(|k| k.name() == name)
            .ok_or_else(|| format!("unknown gate kind: {name}"))
    }
}

/// A combinational gate.
#[derive(Clone, Debug)]
pub struct Gate {
    pub(crate) kind: GateKind,
    pub(crate) inputs: Vec<NetId>,
    pub(crate) output: NetId,
    pub(crate) component: ComponentId,
    /// True when the gate was added by scan insertion (the scan-path mux of
    /// a scan cell). Scan-path logic counts toward chipkill area in the
    /// paper's model.
    pub(crate) scan_path: bool,
}

impl Gate {
    /// Boolean function of the gate.
    pub fn kind(&self) -> GateKind {
        self.kind
    }

    /// Input nets, in pin order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Output net.
    pub fn output(&self) -> NetId {
        self.output
    }

    /// ICI component this gate belongs to.
    pub fn component(&self) -> ComponentId {
        self.component
    }

    /// Whether this gate is scan-path logic added by scan insertion.
    pub fn is_scan_path(&self) -> bool {
        self.scan_path
    }
}

/// A D flip-flop. `q` takes the value of `d` at each clock edge.
#[derive(Clone, Debug)]
pub struct Dff {
    pub(crate) d: NetId,
    pub(crate) q: NetId,
    pub(crate) component: ComponentId,
    pub(crate) name: String,
}

impl Dff {
    /// Data input net.
    pub fn d(&self) -> NetId {
        self.d
    }

    /// Output net.
    pub fn q(&self) -> NetId {
        self.q
    }

    /// ICI component this flip-flop belongs to.
    pub fn component(&self) -> ComponentId {
        self.component
    }

    /// Debug name of the flip-flop.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// What drives a net.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Driver {
    /// Primary input with the given index into [`Netlist::inputs`].
    Input(u32),
    /// Output of a gate.
    Gate(GateId),
    /// Q output of a flip-flop.
    Dff(DffId),
}

#[derive(Clone, Debug)]
pub(crate) struct NetInfo {
    pub(crate) name: String,
    pub(crate) driver: Driver,
}

/// An elaborated, validated gate-level circuit.
///
/// Construct with [`crate::NetlistBuilder`]. A `Netlist` is immutable;
/// structural transformations (scan insertion) produce derived types.
#[derive(Clone, Debug)]
pub struct Netlist {
    pub(crate) nets: Vec<NetInfo>,
    pub(crate) gates: Vec<Gate>,
    pub(crate) dffs: Vec<Dff>,
    pub(crate) inputs: Vec<NetId>,
    pub(crate) outputs: Vec<(String, NetId)>,
    pub(crate) components: Vec<String>,
    /// Gates in topological (levelized) order: every gate appears after all
    /// gates driving its inputs.
    pub(crate) topo: Vec<GateId>,
    /// Logic level of each gate (index parallel to `gates`).
    pub(crate) level: Vec<u32>,
    /// For each net, the gates that read it (fanout), sorted by level.
    pub(crate) fanout: Vec<Vec<GateId>>,
    /// For each net, the DFFs whose D input it feeds.
    pub(crate) fanout_dffs: Vec<Vec<DffId>>,
    /// Output indices fed by each net.
    pub(crate) fanout_outputs: Vec<Vec<u32>>,
}

impl Netlist {
    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// Number of combinational gates.
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// Number of flip-flops.
    pub fn num_dffs(&self) -> usize {
        self.dffs.len()
    }

    /// Number of declared ICI components.
    pub fn num_components(&self) -> usize {
        self.components.len()
    }

    /// Primary input nets, in declaration order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary outputs as `(name, net)` pairs, in declaration order.
    pub fn outputs(&self) -> &[(String, NetId)] {
        &self.outputs
    }

    /// All gates. Index with [`GateId::index`].
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// All flip-flops. Index with [`DffId::index`].
    pub fn dffs(&self) -> &[Dff] {
        &self.dffs
    }

    /// Look up a gate.
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// Look up a flip-flop.
    pub fn dff(&self, id: DffId) -> &Dff {
        &self.dffs[id.index()]
    }

    /// Name of a net.
    pub fn net_name(&self, id: NetId) -> &str {
        &self.nets[id.index()].name
    }

    /// Driver of a net.
    pub fn net_driver(&self, id: NetId) -> Driver {
        self.nets[id.index()].driver
    }

    /// Name of an ICI component.
    pub fn component_name(&self, id: ComponentId) -> &str {
        &self.components[id.index()]
    }

    /// Find a component id by name.
    pub fn find_component(&self, name: &str) -> Option<ComponentId> {
        self.components
            .iter()
            .position(|c| c == name)
            .map(|i| ComponentId(i as u32))
    }

    /// Iterator over all component ids.
    pub fn component_ids(&self) -> impl Iterator<Item = ComponentId> {
        (0..self.components.len() as u32).map(ComponentId)
    }

    /// Gates in topological order (inputs before consumers).
    pub fn topo_order(&self) -> &[GateId] {
        &self.topo
    }

    /// Logic level of a gate (0 = fed only by inputs/flops/constants).
    pub fn gate_level(&self, id: GateId) -> u32 {
        self.level[id.index()]
    }

    /// Gates reading a net.
    pub fn fanout_gates(&self, net: NetId) -> &[GateId] {
        &self.fanout[net.index()]
    }

    /// Flip-flops whose D input is this net.
    pub fn fanout_dffs(&self, net: NetId) -> &[DffId] {
        &self.fanout_dffs[net.index()]
    }

    /// Primary-output indices fed by this net.
    pub fn fanout_outputs(&self, net: NetId) -> &[u32] {
        &self.fanout_outputs[net.index()]
    }

    /// The set of ICI components containing combinational logic in the
    /// fan-in cone of `net`, stopping at flip-flop outputs and primary
    /// inputs (i.e. the components that can corrupt `net` **within one
    /// cycle**).
    ///
    /// Under the paper's ICI rule, the cone of every flip-flop's D input
    /// must contain logic from at most one component; that component is the
    /// label used for fault isolation.
    pub fn cone_components(&self, net: NetId) -> Vec<ComponentId> {
        let mut seen_nets = vec![false; self.nets.len()];
        let mut comps: Vec<ComponentId> = Vec::new();
        let mut stack = vec![net];
        while let Some(n) = stack.pop() {
            if seen_nets[n.index()] {
                continue;
            }
            seen_nets[n.index()] = true;
            if let Driver::Gate(g) = self.nets[n.index()].driver {
                let gate = &self.gates[g.index()];
                if !comps.contains(&gate.component) {
                    comps.push(gate.component);
                }
                for &i in &gate.inputs {
                    stack.push(i);
                }
            }
        }
        comps.sort();
        comps
    }

    /// Approximate cell-area accounting used by the paper's Table 2 model:
    /// returns `(combinational_units, sequential_units, scan_path_units)`
    /// in normalized gate-equivalents (gate = 1 per input pin, DFF = 6,
    /// scan mux = 3).
    pub fn area_units(&self) -> (f64, f64, f64) {
        let mut comb = 0.0;
        let mut scan = 0.0;
        for g in &self.gates {
            let a = g.inputs.len().max(1) as f64;
            if g.scan_path {
                scan += a;
            } else {
                comb += a;
            }
        }
        let seq = self.dffs.len() as f64 * 6.0;
        (comb, seq, scan)
    }
}
