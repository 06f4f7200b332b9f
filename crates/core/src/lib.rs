//! # fpgatest — functional testing of compiler-generated FPGA designs
//!
//! A Rust reproduction of the infrastructure described in
//! *"An Infrastructure to Functionally Test Designs Generated by
//! Compilers Targeting FPGAs"* (Rodrigues & Cardoso, DATE 2005): a flow
//! that verifies, by functional simulation, the architectures a
//! high-level compiler emits for FPGA-based (dynamically reconfigurable)
//! platforms — each time the compiler changes.
//!
//! The flow mirrors the paper's Figure 1:
//!
//! 1. the compiler ([`nenya`]) turns a Java-like algorithm into XML
//!    dialects: a structural **datapath**, a behavioral control **FSM**,
//!    and a **Reconfiguration Transition Graph** for temporally
//!    partitioned designs;
//! 2. template stylesheets ([`xform`], the XSLT analogue) translate the
//!    XML into the simulator netlist format (`.hds`), behavioral source,
//!    and Graphviz `dot`;
//! 3. the event-driven simulator ([`eventsim`], the Hades analogue) runs
//!    the design: structural datapath + interpreted control unit + SRAM
//!    models, with probes, assertions, watchpoints, and VCD waveforms;
//! 4. memory stimulus files feed both the simulation and a **golden
//!    software execution** of the original algorithm; afterwards the
//!    memory contents are **compared** word by word.
//!
//! ## Quick start
//!
//! ```
//! use fpgatest::flow::TestFlow;
//! use fpgatest::stimulus::Stimulus;
//!
//! # fn main() -> Result<(), fpgatest::flow::FlowError> {
//! let report = TestFlow::new(
//!     "scale",
//!     "mem inp[8]; mem out[8];
//!      void main() { int i; for (i = 0; i < 8; i = i + 1) { out[i] = inp[i] * 3; } }",
//! )
//! .stimulus("inp", Stimulus::from_values([1, 2, 3, 4, 5, 6, 7, 8]))
//! .run()?;
//! assert!(report.passed);
//! println!("{}", report.metrics); // the Table I row for this design
//! # Ok(())
//! # }
//! ```
//!
//! ## Modules
//!
//! * [`flow`] — the orchestrated test flow ([`flow::TestFlow`],
//!   [`flow::TestReport`]).
//! * [`suite`] — multi-case runners and manifest files (the ANT-build
//!   analogue).
//! * [`stimulus`] — memory/stimulus file format and PGM image dumps.
//! * [`memcmp`] — golden-vs-simulated memory comparison.
//! * [`elaborate`] — a configuration's XML parsed once into its `.hds`
//!   netlist and control table, and the event kernel built from them.
//! * [`metrics`] — the Table I metrics and renderer.
//! * [`telemetry`] — tracing spans, the JSON metrics report, and
//!   baseline timing comparison.
//! * [`events`] — the live `fpgatest-events-v1` JSONL stream emitted
//!   while runs and campaigns execute.
//! * [`ledger`] — the append-only cross-run trend ledger behind
//!   `fpgatest trends`.
//! * [`cache`] — the LRU cache of prepared designs keyed by source
//!   content (compile once, simulate many).
//! * [`serve`] — the `fpgatest-serve-v1` campaign daemon and client.
//! * [`workloads`] — the paper's FDCT and Hamming benchmarks.
//! * [`dot`] — Graphviz exports, including the Figure 1 regeneration.
//! * [`stdout`] — the command-line tools' stdout writer, which survives
//!   a reader that closes the pipe early.
//! * [`flags`] — the command-line tools' flag reader.
//! * [`rng`] — the SplitMix64 generator behind fault-site sampling, the
//!   serve daemon's retry backoff and the fuzzer.

pub mod cache;
pub mod campaign;
pub mod dot;
pub mod elaborate;
pub mod events;
pub mod faults;
pub mod flags;
pub mod flow;
pub mod ledger;
pub mod memcmp;
pub mod metrics;
pub mod rng;
pub mod serve;
pub mod stdout;
pub mod stimulus;
pub mod suite;
pub mod telemetry;
pub mod workloads;

pub use flow::{FlowError, FlowOptions, TestFlow, TestReport};
pub use suite::{Suite, SuiteReport, TestCase};
