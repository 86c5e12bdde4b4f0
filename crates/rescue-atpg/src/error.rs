//! Error types for the ATPG flow.

use std::error::Error;
use std::fmt;

/// Error produced by the ATPG engine on malformed input or a broken
/// internal invariant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AtpgError {
    /// The scan-chain description does not match the netlist: a chain
    /// pin is missing from the primary inputs/outputs, the chain is
    /// empty, or a chain position names a flip-flop that does not
    /// exist. Typically the result of feeding a non-scan netlist (or a
    /// hand-assembled [`rescue_netlist::ScanNetlist`]) to ATPG.
    MalformedChain(String),
    /// The fault-simulation worker pool returned a different number of
    /// detection lanes than faults it was given — a corrupted parallel
    /// reduction, surfaced instead of silently misclassifying faults.
    LaneCountMismatch {
        /// Faults submitted to the pool.
        faults: usize,
        /// Lanes that came back.
        lanes: usize,
    },
}

impl fmt::Display for AtpgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AtpgError::MalformedChain(why) => write!(f, "malformed scan chain: {why}"),
            AtpgError::LaneCountMismatch { faults, lanes } => {
                write!(
                    f,
                    "fault-simulation reduction returned {lanes} lanes for {faults} faults"
                )
            }
        }
    }
}

impl Error for AtpgError {}
