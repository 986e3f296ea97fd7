//! # nbr-benchmark — the repository's end-to-end and per-layer benchmark
//!
//! A single-process, closed-loop, setbench-style driver over the public APIs
//! of the workspace: `conc_ds::ConcurrentSet`, `smr_harness::{OpGenerator,
//! WorkloadSpec}`, `smr_common::Smr` and `smr_harness::alloc_track`. It runs
//! the paper's three compared reclaimers (NBR+, DEBRA, HP) on four
//! workloads ([`workload`]), checks every trial's output ([`trial`]), and
//! reduces the trials to medians ([`report`]). A traced run wraps each
//! reclaimer in [`traced::Traced`] for the per-layer decomposition.

#![warn(missing_docs)]

pub mod report;
pub mod traced;
pub mod trial;
pub mod workload;
