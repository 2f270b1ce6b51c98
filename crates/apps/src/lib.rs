//! Evaluation applications and experiment harnesses.
//!
//! This crate rebuilds the paper's evaluation setup on the simulated
//! stack: a Redis-like key-value server ([`server::RedisServer`]), a
//! Lancet-like open-loop load generator ([`loadgen::LancetClient`]), the
//! RESP protocol they speak ([`resp`]), calibrated CPU cost profiles
//! ([`cost`]), and the harnesses that regenerate every figure
//! ([`experiments`]).
//!
//! The entry points most users want:
//!
//! * [`runner::run_point`] — run one (workload, configuration) pair on
//!   the N-client star and get measured + estimated performance.
//! * [`failover::run_failover_point`] — the same for the two-tier
//!   topology (N clients → proxy → K shards): the upstream batching
//!   study when [`FailoverRunConfig::upstream`] is set, the shard-failure
//!   study against the proxy's defense arms otherwise.
//! * [`sweep::run_sweep`] — a load sweep across Nagle on/off/dynamic (the
//!   Figure 4 harness).
//! * [`experiments`] — `figure2()`, `figure4a()`, `figure4b()`,
//!   `dynamic_toggle()`: the paper's figures as functions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod driver;
pub mod experiments;
pub mod failover;
pub mod grid;
pub mod kv;
pub mod loadgen;
mod outbox;
pub mod proxy;
pub mod resp;
pub mod runner;
pub mod server;
pub mod sweep;
pub mod workload;

pub use cost::{AppCosts, CostProfile};
pub use driver::{EstimateRecorder, HintRecorder, ListenerPlaneDriver, PlaneDriver, ProxyDriver};
pub use failover::{
    run_failover_point, FailoverArm, FailoverPointResult, FailoverRunConfig, FailoverScenario,
    ShardSetting,
};
pub use loadgen::{KeyPool, LancetClient};
pub use proxy::{ProxyApp, Resilience, ShardRouter};
pub use runner::{run_point, ClientResult, NagleSetting, PointResult, RunConfig};
pub use server::RedisServer;
pub use sweep::{run_sweep, SweepResult};
pub use workload::WorkloadSpec;
