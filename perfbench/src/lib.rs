//! The repository benchmark for `parvc`: three workloads driven through
//! the public API of `parvc-core`, `parvc-prep`, `parvc-graph` and
//! `parvc-serve`, an untraced run for end-to-end metrics and a separate
//! traced run for per-layer metrics. See `README.md` in this directory.

pub mod batch;
pub mod common;
pub mod gauge;
pub mod layers;
pub mod mixed;
pub mod refs;
pub mod serve;
pub mod solve;
pub mod stats;
pub mod trace;
