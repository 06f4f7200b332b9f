//! Deterministic pseudo-random numbers for the fuzzer: the workspace's
//! one SplitMix64 generator, [`fpgatest::rng::Rng`]. The fuzzer must
//! never consult wall-clock or OS randomness in its hot loop (the repo's
//! determinism rule), so this is its only entropy source.

pub use fpgatest::rng::Rng;
