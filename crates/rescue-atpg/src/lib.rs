//! Automatic test pattern generation, fault simulation, and scan-based
//! fault isolation — the role Synopsys TetraMax plays in the paper.
//!
//! The flow mirrors a production basic-scan run:
//!
//! 1. enumerate and collapse the single-stuck-at fault universe
//!    (`rescue-netlist`),
//! 2. for each undetected fault run **PODEM** ([`podem`]) over the
//!    combinational capture view of the scanned circuit, producing a test
//!    cube that is random-filled into a full vector,
//! 3. batch vectors 64 at a time and run the **parallel-pattern
//!    single-fault-propagation simulator** ([`fsim`]) to drop every other
//!    fault the batch happens to detect — sharded across worker threads
//!    ([`parallel`]) with results bit-identical to the 1-thread run,
//! 4. account test application cycles with the standard overlapped
//!    scan-in/scan-out schedule,
//! 5. for **isolation** ([`isolation`]): replay the vector set against an
//!    injected fault, collect failing scan-chain positions, and map each
//!    through the ICI capture-component table.
//!
//! # Example
//!
//! ```
//! use rescue_netlist::{NetlistBuilder, scan::insert_scan};
//! use rescue_atpg::{Atpg, AtpgConfig};
//!
//! let mut b = NetlistBuilder::new();
//! b.enter_component("adder");
//! let a = b.input("a");
//! let c = b.input("b");
//! let s = b.xor2(a, c);
//! let q = b.dff(s, "r");
//! b.output(q, "out");
//! let scanned = insert_scan(&b.finish().unwrap()).unwrap();
//!
//! let run = Atpg::new(&scanned, AtpgConfig::default()).unwrap().run().unwrap();
//! assert!(run.coverage() > 0.9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chain;
mod error;
pub mod fsim;
pub mod isolation;
pub mod parallel;
pub mod podem;
mod tpg;

pub use chain::{chain_flush_test, flush_pattern, ChainTestResult};
pub use error::AtpgError;
pub use fsim::{FaultSim, FsimStats, Observation};
pub use isolation::{IsolationOutcome, Isolator};
pub use parallel::{resolve_threads, FaultShards, FsimParallel, LaneShards};
pub use podem::{Podem, PodemConfig, PodemResult, PodemStats, TestCube};
pub use rescue_netlist::V3;
pub use tpg::{
    merge_cubes, Atpg, AtpgConfig, AtpgCounts, AtpgMetrics, AtpgRun, AtpgTiming, FaultClass,
    ScanTestStats,
};
