//! Three-valued logic (0, 1, X): the one gate evaluator over
//! unknowns.
//!
//! PODEM's implication, the static implication engine's constant
//! propagation and the lint `stuck-net` rule all evaluate gates through
//! [`GateKind::eval_v3`]. The classical five-valued D-algebra
//! (0, 1, X, D, D̄) is represented as a *pair* of three-valued values —
//! one for the good machine, one for the faulty machine. `D` is
//! `(1, 0)`, `D̄` is `(0, 1)`.

use crate::netlist::GateKind;

/// A three-valued logic value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum V3 {
    /// Logic 0.
    Zero,
    /// Logic 1.
    One,
    /// Unassigned / unknown.
    X,
}

impl V3 {
    /// Build from a bool.
    #[inline]
    pub fn from_bool(b: bool) -> V3 {
        if b {
            V3::One
        } else {
            V3::Zero
        }
    }

    /// The known boolean value, if any.
    #[inline]
    pub fn to_bool(self) -> Option<bool> {
        match self {
            V3::Zero => Some(false),
            V3::One => Some(true),
            V3::X => None,
        }
    }

    /// Three-valued AND.
    #[inline]
    pub fn and(self, other: V3) -> V3 {
        match (self, other) {
            (V3::Zero, _) | (_, V3::Zero) => V3::Zero,
            (V3::One, V3::One) => V3::One,
            _ => V3::X,
        }
    }

    /// Three-valued OR.
    #[inline]
    pub fn or(self, other: V3) -> V3 {
        match (self, other) {
            (V3::One, _) | (_, V3::One) => V3::One,
            (V3::Zero, V3::Zero) => V3::Zero,
            _ => V3::X,
        }
    }

    /// Three-valued XOR.
    #[inline]
    pub fn xor(self, other: V3) -> V3 {
        match (self, other) {
            (V3::X, _) | (_, V3::X) => V3::X,
            (a, b) => V3::from_bool(a != b),
        }
    }
}

impl From<Option<bool>> for V3 {
    /// `None` (unknown) is `X`.
    #[inline]
    fn from(v: Option<bool>) -> V3 {
        v.map_or(V3::X, V3::from_bool)
    }
}

impl std::ops::Not for V3 {
    type Output = V3;

    /// Three-valued complement.
    #[inline]
    fn not(self) -> V3 {
        match self {
            V3::Zero => V3::One,
            V3::One => V3::Zero,
            V3::X => V3::X,
        }
    }
}

impl GateKind {
    /// Evaluate the gate over three-valued inputs. The result is exact
    /// under completion semantics: it is `X` only when two boolean
    /// completions of the `X` inputs disagree.
    #[inline]
    pub fn eval_v3(self, inputs: &[V3]) -> V3 {
        match self {
            GateKind::Const0 => V3::Zero,
            GateKind::Const1 => V3::One,
            GateKind::Buf => inputs[0],
            GateKind::Not => !inputs[0],
            GateKind::And => inputs.iter().fold(V3::One, |a, &b| a.and(b)),
            GateKind::Nand => !inputs.iter().fold(V3::One, |a, &b| a.and(b)),
            GateKind::Or => inputs.iter().fold(V3::Zero, |a, &b| a.or(b)),
            GateKind::Nor => !inputs.iter().fold(V3::Zero, |a, &b| a.or(b)),
            GateKind::Xor => inputs.iter().fold(V3::Zero, |a, &b| a.xor(b)),
            GateKind::Xnor => !inputs.iter().fold(V3::Zero, |a, &b| a.xor(b)),
            GateKind::Mux => match inputs[0] {
                V3::Zero => inputs[1],
                V3::One => inputs[2],
                V3::X => {
                    if inputs[1] == inputs[2] && inputs[1] != V3::X {
                        inputs[1]
                    } else {
                        V3::X
                    }
                }
            },
        }
    }

    /// The controlling value of the gate kind, if it has one (an input
    /// at this value fixes the output regardless of other inputs).
    #[inline]
    pub fn controlling_value(self) -> Option<bool> {
        match self {
            GateKind::And | GateKind::Nand => Some(false),
            GateKind::Or | GateKind::Nor => Some(true),
            _ => None,
        }
    }

    /// Whether the gate inverts its (non-controlling) inputs.
    #[inline]
    pub fn inverts(self) -> bool {
        matches!(
            self,
            GateKind::Not | GateKind::Nand | GateKind::Nor | GateKind::Xnor
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v3_tables() {
        assert_eq!(V3::Zero.and(V3::X), V3::Zero);
        assert_eq!(V3::One.and(V3::X), V3::X);
        assert_eq!(V3::One.or(V3::X), V3::One);
        assert_eq!(V3::Zero.or(V3::X), V3::X);
        assert_eq!(V3::X.xor(V3::One), V3::X);
        assert_eq!(V3::One.xor(V3::One), V3::Zero);
        assert_eq!((!V3::X), V3::X);
    }

    #[test]
    fn mux_with_unknown_select() {
        // Same data on both legs: select does not matter.
        assert_eq!(GateKind::Mux.eval_v3(&[V3::X, V3::One, V3::One]), V3::One);
        assert_eq!(GateKind::Mux.eval_v3(&[V3::X, V3::One, V3::Zero]), V3::X);
    }

    /// Precise completion semantics of a three-valued tuple: substitute
    /// every boolean completion for the `X` positions and evaluate the
    /// boolean gate. Returns the common result if all completions
    /// agree, otherwise `V3::X`.
    fn completion_semantics(kind: GateKind, inputs: &[V3]) -> V3 {
        use crate::sim::eval_bool;
        let x_positions: Vec<usize> = inputs
            .iter()
            .enumerate()
            .filter(|(_, v)| **v == V3::X)
            .map(|(i, _)| i)
            .collect();
        let mut results = Vec::new();
        for combo in 0..(1u32 << x_positions.len()) {
            let mut bools: Vec<bool> = inputs
                .iter()
                .map(|v| v.to_bool().unwrap_or(false))
                .collect();
            for (bit, &pos) in x_positions.iter().enumerate() {
                bools[pos] = combo >> bit & 1 == 1;
            }
            results.push(eval_bool(kind, &bools));
        }
        if results.iter().all(|&r| r == results[0]) {
            V3::from_bool(results[0])
        } else {
            V3::X
        }
    }

    /// Enumerate all `3^arity` input tuples for one kind and check the
    /// three-valued evaluation against the exhaustive completion
    /// semantics. This is the full X-propagation table: a result may be
    /// `X` only when two completions really disagree, and every known
    /// result must match what all completions produce.
    fn check_kind_exhaustively(kind: GateKind, arity: usize) {
        let vals = [V3::Zero, V3::One, V3::X];
        for tuple in 0..3usize.pow(arity as u32) {
            let mut t = tuple;
            let inputs: Vec<V3> = (0..arity)
                .map(|_| {
                    let v = vals[t % 3];
                    t /= 3;
                    v
                })
                .collect();
            let got = kind.eval_v3(&inputs);
            let want = completion_semantics(kind, &inputs);
            assert_eq!(got, want, "{kind:?} over {inputs:?}");
        }
    }

    /// All gate kinds × all {0,1,X} input combinations, table-style.
    /// N-ary kinds are checked at both their minimum arity and a wider
    /// one, so multi-input X masking (e.g. `and(X, 0, X)`) is covered.
    #[test]
    fn x_propagation_is_exact_for_every_kind() {
        check_kind_exhaustively(GateKind::Const0, 0);
        check_kind_exhaustively(GateKind::Const1, 0);
        check_kind_exhaustively(GateKind::Buf, 1);
        check_kind_exhaustively(GateKind::Not, 1);
        for kind in [
            GateKind::And,
            GateKind::Or,
            GateKind::Xor,
            GateKind::Nand,
            GateKind::Nor,
            GateKind::Xnor,
        ] {
            check_kind_exhaustively(kind, 2);
            check_kind_exhaustively(kind, 3);
            check_kind_exhaustively(kind, 4);
        }
        check_kind_exhaustively(GateKind::Mux, 3);
    }

    /// Spot-check rows of the table that PODEM's backtrace logic leans
    /// on: a controlling value beats an X, a non-controlling value does
    /// not.
    #[test]
    fn controlling_values_dominate_x() {
        for kind in [GateKind::And, GateKind::Or, GateKind::Nand, GateKind::Nor] {
            let c = V3::from_bool(kind.controlling_value().unwrap());
            let non_c = !c;
            let forced = kind.eval_v3(&[c, V3::X]);
            assert_ne!(forced, V3::X, "{kind:?}: controlling input decides");
            assert_eq!(
                kind.eval_v3(&[non_c, V3::X]),
                V3::X,
                "{kind:?}: non-controlling input leaves the output unknown"
            );
        }
        // XOR-family gates have no controlling value: any X poisons.
        for kind in [GateKind::Xor, GateKind::Xnor] {
            assert_eq!(kind.controlling_value(), None);
            for v in [V3::Zero, V3::One] {
                assert_eq!(kind.eval_v3(&[v, V3::X]), V3::X);
            }
        }
    }

    #[test]
    fn v3_gate_eval_matches_bool_on_known_values() {
        use crate::sim::eval_bool;
        let kinds = [
            GateKind::And,
            GateKind::Or,
            GateKind::Xor,
            GateKind::Nand,
            GateKind::Nor,
            GateKind::Xnor,
        ];
        for kind in kinds {
            for a in [false, true] {
                for b in [false, true] {
                    let v = kind.eval_v3(&[V3::from_bool(a), V3::from_bool(b)]);
                    assert_eq!(v.to_bool(), Some(eval_bool(kind, &[a, b])));
                }
            }
        }
    }
}
