//! Line-based text netlist format — the wire format of the job server.
//!
//! `rescue-serve` accepts circuits as POSTed plain text, so the format
//! is designed to be written by hand, by `curl`, or by
//! [`to_text`] from any in-memory [`Netlist`]. It is a component-aware
//! superset of the fuzz-repro circuit body: one declaration per line,
//! signals numbered in one flat namespace (primary inputs first, then
//! flip-flop Q outputs, then gate outputs, each in declaration order).
//!
//! ```text
//! # rescue netlist text v1
//! component alu
//! input a
//! input b
//! dff acc alu 4
//! gate xor alu 0 1
//! gate and alu 0 1
//! gate or alu 3 2
//! output sum 3
//! ```
//!
//! * `component <name>` — declare a component and make it current for
//!   subsequent `dff` / `gate` lines. Names are single tokens
//!   (serialization replaces any whitespace with `_`).
//! * `input <name>` — primary input; takes the next input signal index.
//! * `dff <name> <component> <d-signal>` — flip-flop; `d-signal` may
//!   reference *any* signal (sequential feedback is legal).
//! * `gate <kind> <component> <in...>` — combinational gate; inputs
//!   must reference already-declared signals (inputs, Qs, or earlier
//!   gates), so the combinational part is loop-free by construction.
//!   Kinds are the [`crate::GateKind::name`]s (`and`, `nor`, `mux`, …).
//! * `output <name> <signal>` — primary output.
//!
//! Blank lines and `#` comments are ignored. [`parse`] validates
//! everything through [`crate::NetlistBuilder`], so malformed text is
//! an error, never a panic — safe for untrusted input (the server's
//! whole request path is `Result`-typed).
//!
//! The format covers **pre-scan** netlists: scan insertion is a server-
//! side transform, and scan-path markers are not serialized. Gate
//! output net names are builder-generated and not round-tripped; the
//! structural [`Netlist::content_hash`] is invariant under
//! `parse(to_text(n))` for any pre-scan netlist.

use crate::builder::NetlistBuilder;
use crate::netlist::{GateKind, Netlist};

/// A name as a single whitespace-free token.
fn token(name: &str) -> String {
    let t: String = name
        .chars()
        .map(|c| if c.is_whitespace() { '_' } else { c })
        .collect();
    if t.is_empty() {
        "_".to_owned()
    } else {
        t
    }
}

/// Serialize a pre-scan netlist to the text format. See the module docs
/// for the signal-numbering convention.
pub fn to_text(n: &Netlist) -> String {
    let mut s = String::from("# rescue netlist text v1\n");
    // Component declarations up front; every dff/gate line also names
    // its component explicitly, so the `component` lines here only pin
    // the declaration order (the "current component" state matters for
    // hand-written files using the short line forms).
    for name in n.components.iter() {
        s.push_str(&format!("component {}\n", token(name)));
    }
    for &net in &n.inputs {
        s.push_str(&format!("input {}\n", token(n.net_name(net))));
    }
    for d in &n.dffs {
        s.push_str(&format!(
            "dff {} {} {}\n",
            token(&d.name),
            token(n.component_name(d.component)),
            n.signal_index(d.d),
        ));
    }
    for g in &n.gates {
        s.push_str(&format!(
            "gate {} {}",
            g.kind.name(),
            token(n.component_name(g.component)),
        ));
        for &i in &g.inputs {
            s.push_str(&format!(" {}", n.signal_index(i)));
        }
        s.push('\n');
    }
    for (name, net) in &n.outputs {
        s.push_str(&format!(
            "output {} {}\n",
            token(name),
            n.signal_index(*net)
        ));
    }
    s
}

/// Declarations collected in a first pass, before elaboration.
struct Decls {
    inputs: Vec<String>,
    /// `(name, component, d-signal)` per flip-flop.
    dffs: Vec<(String, String, u32)>,
    /// `(kind, component, input signals)` per gate.
    gates: Vec<(GateKind, String, Vec<u32>)>,
    /// `(name, signal)` per primary output.
    outputs: Vec<(String, u32)>,
}

/// Parse the text format into a validated [`Netlist`].
pub fn parse(text: &str) -> Result<Netlist, String> {
    let mut d = Decls {
        inputs: Vec::new(),
        dffs: Vec::new(),
        gates: Vec::new(),
        outputs: Vec::new(),
    };
    let mut current: Option<String> = None;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let key = parts.next().unwrap_or_default();
        let rest: Vec<&str> = parts.collect();
        let at = |msg: String| format!("line {}: {msg}", lineno + 1);
        let idx = |s: &str| -> Result<u32, String> {
            s.parse::<u32>()
                .map_err(|e| format!("line {}: bad signal index {s:?}: {e}", lineno + 1))
        };
        match key {
            "component" => {
                let [name] = rest[..] else {
                    return Err(at(format!("component wants 1 token, got {}", rest.len())));
                };
                current = Some(name.to_owned());
            }
            "input" => {
                let [name] = rest[..] else {
                    return Err(at(format!("input wants 1 token, got {}", rest.len())));
                };
                d.inputs.push(name.to_owned());
            }
            "dff" => match rest[..] {
                [name, comp, sig] => d.dffs.push((name.to_owned(), comp.to_owned(), idx(sig)?)),
                // Two-token form: use the current component.
                [name, sig] => {
                    let comp = current
                        .clone()
                        .ok_or_else(|| at("dff before any component".to_owned()))?;
                    d.dffs.push((name.to_owned(), comp, idx(sig)?));
                }
                _ => return Err(at("dff wants `name [component] d-signal`".to_owned())),
            },
            "gate" => {
                if rest.len() < 2 {
                    return Err(at("gate wants `kind [component] inputs...`".to_owned()));
                }
                let kind: GateKind = rest[0].parse().map_err(&at)?;
                // The second token is a component name when it is not a
                // signal index (kinds and components never collide with
                // bare integers).
                let (comp, ins) = if rest[1].parse::<u32>().is_err() {
                    (rest[1].to_owned(), &rest[2..])
                } else {
                    let comp = current
                        .clone()
                        .ok_or_else(|| at("gate before any component".to_owned()))?;
                    (comp, &rest[1..])
                };
                let inputs = ins.iter().map(|s| idx(s)).collect::<Result<Vec<_>, _>>()?;
                d.gates.push((kind, comp, inputs));
            }
            "output" => {
                let [name, sig] = rest[..] else {
                    return Err(at("output wants `name signal`".to_owned()));
                };
                d.outputs.push((name.to_owned(), idx(sig)?));
            }
            other => return Err(at(format!("unknown declaration {other:?}"))),
        }
    }

    // Validate signal references before fabricating builder ids.
    let n_sig = d.inputs.len() + d.dffs.len() + d.gates.len();
    let gate_base = d.inputs.len() + d.dffs.len();
    for (i, (_, _, ins)) in d.gates.iter().enumerate() {
        for &s in ins {
            if (s as usize) >= gate_base + i {
                return Err(format!("gate {i} reads undeclared signal {s}"));
            }
        }
    }
    for &(_, _, s) in &d.dffs {
        if (s as usize) >= n_sig {
            return Err(format!("dff D references undeclared signal {s}"));
        }
    }
    for (_, s) in &d.outputs {
        if (*s as usize) >= n_sig {
            return Err(format!("output references undeclared signal {s}"));
        }
    }
    if d.outputs.is_empty() {
        return Err("netlist has no outputs".to_owned());
    }

    let mut b = NetlistBuilder::new();
    let mut signals = Vec::with_capacity(n_sig);
    for name in &d.inputs {
        signals.push(b.input(name));
    }
    let mut handles = Vec::with_capacity(d.dffs.len());
    for (name, comp, _) in &d.dffs {
        b.enter_component(comp);
        let (q, h) = b.dff_feedback(name);
        signals.push(q);
        handles.push(h);
    }
    for (kind, comp, ins) in &d.gates {
        b.enter_component(comp);
        let pins: Vec<_> = ins.iter().map(|&s| signals[s as usize]).collect();
        signals.push(b.gate(*kind, &pins));
    }
    for (h, (_, _, ds)) in handles.into_iter().zip(&d.dffs) {
        b.connect_dff(h, signals[*ds as usize]);
    }
    for (name, s) in &d.outputs {
        b.output(signals[*s as usize], name);
    }
    b.finish().map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetlistBuilder;

    fn two_component_design() -> Netlist {
        let mut b = NetlistBuilder::new();
        b.enter_component("alu");
        let a = b.input_bus("a", 3);
        let x = b.xor2(a[0], a[1]);
        let y = b.and2(x, a[2]);
        let q = b.dff(y, "acc");
        b.enter_component("flag");
        let z = b.or2(q, a[0]);
        let zq = b.dff(z, "zf");
        b.output(zq, "zero");
        b.output(y, "sum");
        b.finish().unwrap()
    }

    #[test]
    fn round_trip_preserves_structure_and_hash() {
        let n = two_component_design();
        let text = to_text(&n);
        let back = parse(&text).unwrap();
        assert_eq!(back.num_gates(), n.num_gates());
        assert_eq!(back.num_dffs(), n.num_dffs());
        assert_eq!(back.inputs().len(), n.inputs().len());
        assert_eq!(back.outputs().len(), n.outputs().len());
        assert_eq!(back.num_components(), n.num_components());
        assert_eq!(back.content_hash(), n.content_hash());
        // Text is a fixed point: serialize(parse(text)) == text.
        assert_eq!(to_text(&back), text);
    }

    #[test]
    fn hand_written_form_with_current_component_parses() {
        // Signals number by category (inputs, then flops, then gates)
        // regardless of line order: a=0, b=1, acc=2, xor=3, and=4.
        let text = "\
# doc example
component alu
input a
input b
dff acc 3
gate xor 0 1
gate and 2 3
output sum 4
";
        let n = parse(text).unwrap();
        assert_eq!(n.num_gates(), 2);
        assert_eq!(n.num_dffs(), 1);
        assert_eq!(n.component_name(n.gates()[0].component()), "alu");
        // Feedback: the dff D is the xor gate's output.
        assert_eq!(n.dffs()[0].d(), n.gates()[0].output());
    }

    #[test]
    fn malformed_text_is_an_error_not_a_panic() {
        for bad in [
            "gate and 0 1\noutput o 0\n",                // gate before component
            "component c\ngate and 5 6\noutput o 0",     // undeclared signals
            "component c\ninput a\noutput o 9\n",        // bad output signal
            "component c\ninput a\n",                    // no outputs
            "component c\ninput a\nwat 1\noutput o 0\n", // unknown key
            "component c\ninput a\ngate zap 0\noutput o 0\n", // unknown kind
            "component c\ninput a\ndff q x\noutput o 0\n", // bad index token
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn every_gate_kind_name_round_trips() {
        for kind in GateKind::ALL {
            assert_eq!(kind.name().parse::<GateKind>(), Ok(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(
            "zap".parse::<GateKind>(),
            Err("unknown gate kind: zap".to_owned())
        );
    }

    #[test]
    fn sequential_feedback_round_trips() {
        // en=0, q=1, not=2, and=3: q's D is and(en, not(q)) — a gated
        // toggle, exercising state feedback through the text format.
        let text = "\
component t
input en
dff q t 3
gate not t 1
gate and t 0 2
output o 3
";
        let n = parse(text).unwrap();
        assert_eq!(
            parse(&to_text(&n)).unwrap().content_hash(),
            n.content_hash()
        );
    }
}
