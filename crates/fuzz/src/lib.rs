//! `fpgafuzz`: coverage-guided differential fuzzing of the
//! compile→simulate flow.
//!
//! The paper's infrastructure rests on one oracle: run a program on the
//! golden software reference *and* on the compiled, event-driven
//! hardware simulation, then compare final memory images word for word.
//! This crate turns that oracle into a fuzzer:
//!
//! * [`gen`] emits random Nenya programs that are valid by construction
//!   — every case parses, lowers, and runs on the golden reference — so
//!   any disagreement indicts the compiler or simulator, not the input;
//! * [`exec`] runs each case through the full flow across schedule
//!   policies and temporal-partition counts, flagging any divergence;
//! * [`coverage`] extracts FSM state/transition and operator-activation
//!   coverage from the flow's telemetry layer, and [`corpus`] keeps
//!   coverage-increasing cases on disk while missing operators bias
//!   future generation;
//! * [`shrink`] deterministically minimizes a failing case while
//!   preserving how it fails;
//! * [`distill`] greedily minimizes a grown corpus while preserving its
//!   coverage union;
//! * [`campaign`] ties it all together into the reproducible loop behind
//!   the `fpgafuzz` CLI, sharded across a work-stealing worker pool with
//!   checkpoint/resume ([`campaign::run_campaign_sharded`]).
//!
//! Everything is reproducible from a single `u64` seed ([`rng`]): no
//! wall-clock, no OS randomness, no hash-order iteration anywhere in the
//! hot loop.

pub mod campaign;
pub mod corpus;
pub mod coverage;
pub mod distill;
pub mod exec;
pub mod gen;
pub mod rng;
pub mod shrink;
