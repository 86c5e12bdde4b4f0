//! The shrinkable intermediate representation of one fuzz case.
//!
//! A [`CaseIr`] is a flat, index-based description of a small sequential
//! circuit plus one 64-pattern stimulus block. It exists so the
//! delta-debugging shrinker can remove pieces (gates, flip-flops,
//! inputs, outputs) with simple index arithmetic, and so a failing case
//! can be serialized to a line-based text repro that round-trips
//! exactly.
//!
//! Signals are numbered in one flat namespace:
//!
//! * `0 .. n_inputs` — primary inputs,
//! * `n_inputs .. n_inputs + dff_d.len()` — flip-flop Q outputs,
//! * then one signal per gate, in gate order.
//!
//! Gates are feed-forward: gate *i* may only read signals declared
//! before its own (inputs, Qs, and gates `< i`), so the combinational
//! part is loop-free by construction. A flip-flop D may reference *any*
//! signal — sequential feedback through state is legal and exercised.

use rescue_netlist::{GateKind, Netlist, NetlistBuilder, PatternBlock};

/// One gate of a fuzz case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GateIr {
    /// Gate kind (the generator emits Buf/Not/And/Or/Xor/Nand/Nor/Xnor/Mux).
    pub kind: GateKind,
    /// Signal indices feeding the gate, in pin order.
    pub inputs: Vec<u32>,
}

/// A complete fuzz case: circuit plus stimulus.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CaseIr {
    /// Number of primary inputs.
    pub n_inputs: usize,
    /// One entry per flip-flop: the signal index wired to its D pin.
    pub dff_d: Vec<u32>,
    /// Gates in declaration order.
    pub gates: Vec<GateIr>,
    /// Signal indices exposed as primary outputs.
    pub outputs: Vec<u32>,
    /// Stimulus: one 64-pattern word per primary input.
    pub stim_inputs: Vec<u64>,
    /// Stimulus: one 64-pattern word per flip-flop (initial state).
    pub stim_state: Vec<u64>,
}

impl CaseIr {
    /// Total number of signals (inputs + Qs + gate outputs).
    pub fn num_signals(&self) -> usize {
        self.n_inputs + self.dff_d.len() + self.gates.len()
    }

    /// First signal index that belongs to a gate output.
    pub fn gate_base(&self) -> usize {
        self.n_inputs + self.dff_d.len()
    }

    /// Elaborate the case into a [`Netlist`]. A malformed case (index
    /// out of range, bad arity, no outputs) surfaces as an error —
    /// never a panic — so the shrinker can probe aggressive mutations
    /// safely.
    pub fn build(&self) -> Result<Netlist, String> {
        // Validate indices up front: the builder's NetIds would otherwise
        // be fabricated from garbage.
        let n_sig = self.num_signals();
        let gate_base = self.gate_base();
        for (i, g) in self.gates.iter().enumerate() {
            for &s in &g.inputs {
                if (s as usize) >= gate_base + i {
                    return Err(format!("gate {i} reads undeclared signal {s}"));
                }
            }
        }
        for &s in self.dff_d.iter().chain(&self.outputs) {
            if (s as usize) >= n_sig {
                return Err(format!("reference to undeclared signal {s}"));
            }
        }
        if self.outputs.is_empty() {
            return Err("case with no outputs".to_owned());
        }

        let mut b = NetlistBuilder::new();
        b.enter_component("fz");
        let mut signals = Vec::with_capacity(n_sig);
        for i in 0..self.n_inputs {
            signals.push(b.input(&format!("i{i}")));
        }
        let mut handles = Vec::with_capacity(self.dff_d.len());
        for j in 0..self.dff_d.len() {
            let (q, h) = b.dff_feedback(&format!("r{j}"));
            signals.push(q);
            handles.push(h);
        }
        for g in &self.gates {
            let ins: Vec<_> = g.inputs.iter().map(|&s| signals[s as usize]).collect();
            signals.push(b.gate(g.kind, &ins));
        }
        for (h, &d) in handles.into_iter().zip(&self.dff_d) {
            b.connect_dff(h, signals[d as usize]);
        }
        for (k, &s) in self.outputs.iter().enumerate() {
            b.output(signals[s as usize], &format!("o{k}"));
        }
        b.finish().map_err(|e| e.to_string())
    }

    /// The stimulus as a [`PatternBlock`] shaped for the built netlist.
    pub fn block(&self) -> PatternBlock {
        PatternBlock {
            inputs: self.stim_inputs.clone(),
            state: self.stim_state.clone(),
        }
    }

    /// Serialize to the line-based repro text format (see the module
    /// docs of [`crate::repro`]).
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("inputs: {}\n", self.n_inputs));
        for &d in &self.dff_d {
            s.push_str(&format!("dff: {d}\n"));
        }
        for g in &self.gates {
            s.push_str(&format!("gate: {}", g.kind));
            for &i in &g.inputs {
                s.push_str(&format!(" {i}"));
            }
            s.push('\n');
        }
        for &o in &self.outputs {
            s.push_str(&format!("output: {o}\n"));
        }
        for &w in &self.stim_inputs {
            s.push_str(&format!("stim_in: {w:#018x}\n"));
        }
        for &w in &self.stim_state {
            s.push_str(&format!("stim_state: {w:#018x}\n"));
        }
        s
    }

    /// Parse the body lines of a repro (inverse of
    /// [`CaseIr::to_text`]). Unknown keys are rejected so a corrupted
    /// repro fails loudly.
    pub fn from_text(text: &str) -> Result<CaseIr, String> {
        let mut case = CaseIr {
            n_inputs: 0,
            dff_d: Vec::new(),
            gates: Vec::new(),
            outputs: Vec::new(),
            stim_inputs: Vec::new(),
            stim_state: Vec::new(),
        };
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, rest) = line
                .split_once(':')
                .ok_or_else(|| format!("bad repro line: {line}"))?;
            let rest = rest.trim();
            match key.trim() {
                "oracle" | "seed" | "case" | "detail" => {} // header, parsed by repro.rs
                "inputs" => {
                    case.n_inputs = rest.parse().map_err(|e| format!("inputs: {e}"))?;
                }
                "dff" => {
                    case.dff_d
                        .push(rest.parse().map_err(|e| format!("dff: {e}"))?);
                }
                "gate" => {
                    let mut parts = rest.split_whitespace();
                    let kind: GateKind = parts
                        .next()
                        .ok_or_else(|| "gate line missing kind".to_owned())?
                        .parse()?;
                    let inputs = parts
                        .map(|p| p.parse().map_err(|e| format!("gate input: {e}")))
                        .collect::<Result<Vec<u32>, _>>()?;
                    case.gates.push(GateIr { kind, inputs });
                }
                "output" => {
                    case.outputs
                        .push(rest.parse().map_err(|e| format!("output: {e}"))?);
                }
                "stim_in" => case.stim_inputs.push(parse_hex(rest)?),
                "stim_state" => case.stim_state.push(parse_hex(rest)?),
                other => return Err(format!("unknown repro key: {other}")),
            }
        }
        if case.stim_inputs.len() != case.n_inputs {
            return Err(format!(
                "repro has {} stim_in words for {} inputs",
                case.stim_inputs.len(),
                case.n_inputs
            ));
        }
        if case.stim_state.len() != case.dff_d.len() {
            return Err(format!(
                "repro has {} stim_state words for {} flip-flops",
                case.stim_state.len(),
                case.dff_d.len()
            ));
        }
        Ok(case)
    }
}

fn parse_hex(s: &str) -> Result<u64, String> {
    let s = s.strip_prefix("0x").unwrap_or(s);
    u64::from_str_radix(s, 16).map_err(|e| format!("bad hex word {s}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CaseIr {
        CaseIr {
            n_inputs: 2,
            dff_d: vec![3],
            gates: vec![
                GateIr {
                    kind: GateKind::And,
                    inputs: vec![0, 1],
                },
                GateIr {
                    kind: GateKind::Xor,
                    inputs: vec![2, 3],
                },
            ],
            outputs: vec![4],
            stim_inputs: vec![0xaaaa_aaaa_aaaa_aaaa, 0xcccc_cccc_cccc_cccc],
            stim_state: vec![0xf0f0_f0f0_f0f0_f0f0],
        }
    }

    #[test]
    fn builds_into_matching_netlist() {
        let c = tiny();
        let n = c.build().unwrap();
        assert_eq!(n.inputs().len(), 2);
        assert_eq!(n.num_dffs(), 1);
        assert_eq!(n.num_gates(), 2);
        assert_eq!(n.outputs().len(), 1);
    }

    #[test]
    fn text_round_trips() {
        let c = tiny();
        let parsed = CaseIr::from_text(&c.to_text()).unwrap();
        assert_eq!(c, parsed);
    }

    #[test]
    fn malformed_cases_are_errors_not_panics() {
        let mut c = tiny();
        c.gates[1].inputs = vec![99]; // undeclared signal
        assert!(c.build().is_err());

        let mut c = tiny();
        c.outputs.clear();
        assert!(c.build().is_err());

        let mut c = tiny();
        c.gates[0].inputs.clear();
        assert!(c.build().is_err());
    }
}
