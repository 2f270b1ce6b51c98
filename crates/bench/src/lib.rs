//! Benchmark and figure-regeneration harnesses.
//!
//! Every bench target regenerates one of the paper's figures (or an
//! ablation from §5) and prints the series the figure plots; `micro` is a
//! Criterion suite for the measurement primitives themselves (the paper's
//! "easily maintained counters" claim, quantified). The acceptance
//! experiments run their published grid from `e2e_apps::experiments`,
//! write it to a `BENCH_*.json` file in this package's root and fail on
//! any violated gate.
//!
//! | target           | regenerates                                   |
//! |------------------|-----------------------------------------------|
//! | `fig1`           | Figure 1 (analytical batching model)          |
//! | `fig2`           | Figure 2 (bare-metal vs VM client)            |
//! | `fig4a`          | Figure 4a (SET-only sweep, estimates, cutoff) |
//! | `fig4b`          | Figure 4b (95:5 mix, byte-estimate breakdown) |
//! | `dynamic_toggle` | §5 dynamic on/off toggling vs static          |
//! | `ablations`      | §5 knobs: granularity, smoothing, exchange    |
//! |                  | interval, AIMD limits, mechanism on/off       |
//! | `fanin`          | Fan-in: N ∈ {1,…,1024} connections, cutoff    |
//! |                  | shift + aggregate estimate (BENCH_fanin.json) |
//! | `chaos`          | Fault classes × intensity × fan-in: adaptive  |
//! |                  | vs static-oracle P99 bound (BENCH_chaos.json) |
//! | `knobs`          | Client cost × fan-in: joint multi-knob plane  |
//! |                  | vs static corners + Nagle-only plane          |
//! |                  | (BENCH_knobs.json)                            |
//! | `adversary`      | Metadata corruption and restarts: guarded vs  |
//! |                  | exposed (no validator) plane against the      |
//! |                  | static oracle (BENCH_adversary.json)          |
//! | `shard`          | Two-tier skewed load: per-shard planes vs     |
//! |                  | global static pins (BENCH_shard.json)         |
//! | `failover`       | Shard crash and brownout vs the proxy defense |
//! |                  | ladder (BENCH_failover.json)                  |
//! | `simperf`        | Simulator events/sec by fan-in width          |
//! |                  | (BENCH_simperf.json)                          |
//! | `micro`          | Criterion: TRACK/GETAVGS/wire/estimator costs |

use littles::Nanos;

/// Shared quick-run parameters so every figure bench uses the same
/// measurement discipline as the published grids.
pub mod params {
    pub use e2e_apps::experiments::{
        BENCH_MEASURE as MEASURE, BENCH_SEED as SEED, BENCH_WARMUP as WARMUP,
    };
}

/// Microseconds with one decimal, or `null`.
pub fn json_us(v: Option<Nanos>) -> String {
    v.map(|n| format!("{:.1}", n.as_micros_f64()))
        .unwrap_or_else(|| "null".into())
}

/// A ratio or fraction with three decimals, or `null`.
pub fn json_f3(v: Option<f64>) -> String {
    v.map(|r| format!("{r:.3}"))
        .unwrap_or_else(|| "null".into())
}

/// Writes one `BENCH_*.json` document into the package root.
pub fn write_json(name: &str, doc: &str) {
    std::fs::write(name, doc).unwrap_or_else(|e| panic!("write {name}: {e}"));
    println!("wrote {name}");
}
