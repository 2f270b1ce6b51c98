//! The failover experiment: shard failure against the proxy's defense
//! ladder in the two-tier datacenter. For each fault scenario (hot-shard
//! crash mid-run, cold-shard CPU brownout), runs the never-failed oracle
//! plus four arms — naive, deadlines only, budgeted retries, and the
//! full retry + hedge + breaker stack with ring-successor failover
//! routing.
//!
//! Prints the per-cell table, writes `BENCH_failover.json` and fails on
//! any violated gate: the full stack holds P99 within
//! `FAILOVER_BOUND_FACTOR × oracle + FAILOVER_BOUND_SLACK` (and goodput
//! within `FAILOVER_GOODPUT_MIN` of the oracle) in *every* cell, while
//! the naive proxy exceeds `FAILOVER_NAIVE_FACTOR ×` in at least one —
//! and every defense earned its counters (retries, hedges, breaker
//! trips, and idempotency dedups all fired somewhere).
//!
//! ```sh
//! cargo bench -p bench --bench failover
//! ```

use bench::{json_us, write_json};
use e2e_apps::experiments::{
    assert_gates, FailoverData, FailoverGrid, FAILOVER_BOUND_FACTOR, FAILOVER_BOUND_SLACK,
    FAILOVER_GOODPUT_MIN, FAILOVER_NAIVE_FACTOR,
};
use e2e_apps::FailoverPointResult;

fn point_json(r: &FailoverPointResult) -> String {
    format!(
        concat!(
            "{{\"p99_us\": {}, \"mean_us\": {}, \"achieved_rps\": {:.0}, ",
            "\"timeouts\": {}, \"retries\": {}, \"hedges\": {}, ",
            "\"breaker_trips\": {}, \"failovers\": {}, \"failed\": {}, ",
            "\"upstream_resets\": {}, \"orphans\": {}, \"dedup_hits\": {}, ",
            "\"shard_crashes\": {}, \"back_epoch_changes\": {}}}"
        ),
        json_us(r.measured_p99),
        json_us(r.measured_mean),
        r.achieved_rps,
        r.timeouts,
        r.retries,
        r.hedges,
        r.breaker_trips,
        r.failovers,
        r.failed,
        r.upstream_resets,
        r.orphan_responses,
        r.dedup_hits,
        r.shard_crashes,
        r.back_epoch_changes,
    )
}

fn to_json(data: &FailoverData) -> String {
    let rows: Vec<String> = data
        .cells
        .iter()
        .map(|c| {
            let arms: Vec<String> = c
                .arms
                .iter()
                .map(|(arm, r)| format!("\"{}\": {}", arm.label(), point_json(r)))
                .collect();
            format!(
                "    {{\"scenario\": \"{}\", \"oracle\": {}, {}}}",
                c.scenario.label(),
                point_json(&c.oracle),
                arms.join(", "),
            )
        })
        .collect();
    format!(
        "{{\n  \"version\": 1,\n  \"bench\": \"failover\",\n  \
         \"bound_factor\": {FAILOVER_BOUND_FACTOR},\n  \
         \"bound_slack_us\": {:.1},\n  \
         \"naive_factor\": {FAILOVER_NAIVE_FACTOR},\n  \
         \"goodput_min\": {FAILOVER_GOODPUT_MIN},\n  \
         \"count\": {},\n  \"cells\": [\n{}\n  ]\n}}\n",
        FAILOVER_BOUND_SLACK.as_micros_f64(),
        rows.len(),
        rows.join(",\n")
    )
}

fn main() {
    println!("=== Failover: shard faults vs the proxy defense ladder ===\n");
    let data = FailoverGrid::FULL.sweep();
    print!("{}", data.table());
    write_json("BENCH_failover.json", &to_json(&data));
    assert_gates("failover", &data.violations());
}
