//! The sharded-proxy experiment: the two-tier datacenter (N clients →
//! proxy → K shards) under skewed load, comparing both global static
//! upstream pins against the per-shard adaptive planes driven by
//! composed client→proxy + proxy→shard estimates.
//!
//! Prints the per-rate table, writes `BENCH_shard.json` and fails on any
//! violated gate — among them the grid's headline claims on the
//! saturated top-rate cell: the service-level estimate ranks the hot
//! shard's delay highest in at least `SHARD_HOT_RANK_MIN` of windows (on
//! the unadapted run — the adaptive planes consume that signal by fixing
//! the hot upstream), and the per-shard planes strictly beat the best
//! global static corner on P99.
//!
//! ```sh
//! cargo bench -p bench --bench shard
//! ```

use bench::{json_f3, json_us, write_json};
use e2e_apps::experiments::{
    assert_gates, ShardData, ShardGrid, SHARD_BOUND_FACTOR, SHARD_BOUND_SLACK, SHARD_HOT_RANK_MIN,
};
use e2e_apps::ShardPointResult;

fn point_json(r: &ShardPointResult) -> String {
    let est: Vec<String> = r.shard_estimates.iter().map(|e| json_us(*e)).collect();
    format!(
        concat!(
            "{{\"p99_us\": {}, \"hot_shard\": {}, ",
            "\"per_shard_requests\": {:?}, \"shard_estimates_us\": [{}], ",
            "\"hot_rank_fraction\": {}, \"shard_on_fraction\": {:?}}}"
        ),
        json_us(r.measured_p99),
        r.hot_shard,
        r.per_shard_requests,
        est.join(", "),
        json_f3(r.hot_rank_fraction),
        r.shard_on_fraction,
    )
}

fn to_json(data: &ShardData) -> String {
    let rows: Vec<String> = data
        .cells
        .iter()
        .map(|c| {
            format!(
                concat!(
                    "    {{\"rate_rps\": {:.0}, \"off\": {}, \"on\": {}, ",
                    "\"adaptive\": {}, \"regression\": {}}}"
                ),
                c.rate_rps,
                point_json(&c.off),
                point_json(&c.on),
                point_json(&c.adaptive),
                json_f3(c.regression()),
            )
        })
        .collect();
    format!(
        "{{\n  \"version\": 1,\n  \"bench\": \"shard\",\n  \
         \"hot_rank_min\": {SHARD_HOT_RANK_MIN},\n  \
         \"bound_factor\": {SHARD_BOUND_FACTOR},\n  \
         \"bound_slack_us\": {:.1},\n  \"count\": {},\n  \"cells\": [\n{}\n  ]\n}}\n",
        SHARD_BOUND_SLACK.as_micros_f64(),
        rows.len(),
        rows.join(",\n")
    )
}

fn main() {
    println!("=== Shard: two-tier skewed grid, corners vs per-shard planes ===\n");
    let data = ShardGrid::FULL.sweep();
    print!("{}", data.table());
    write_json("BENCH_shard.json", &to_json(&data));
    assert_gates("shard", &data.violations());
}
