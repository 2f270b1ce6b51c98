//! The chaos experiment: fault injection across the star topology, and
//! whether the adaptive policy (the Nagle-only plane behind a circuit
//! breaker, estimator confidence driven by snapshot staleness) degrades
//! gracefully — P99 within the stated bound of the static oracle in
//! every cell.
//!
//! Prints the per-cell table, writes `BENCH_chaos.json` and fails on any
//! violated gate.
//!
//! ```sh
//! cargo bench -p bench --bench chaos
//! ```

use bench::{json_f3, json_us, write_json};
use e2e_apps::experiments::{
    assert_gates, ChaosData, ChaosGrid, CHAOS_BOUND_FACTOR, CHAOS_BOUND_SLACK,
};
use simnet::FaultCounters;

fn to_json(data: &ChaosData) -> String {
    let rows: Vec<String> = data
        .cells
        .iter()
        .map(|c| {
            let faults = c
                .adaptive
                .link_faults
                .iter()
                .fold(FaultCounters::default(), |acc, x| acc.merged(*x));
            format!(
                concat!(
                    "    {{\"class\": \"{}\", \"intensity\": {}, \"num_clients\": {}, ",
                    "\"off_p99_us\": {}, \"on_p99_us\": {}, \"adaptive_p99_us\": {}, ",
                    "\"oracle_p99_us\": {}, \"regression\": {}, \"breaker_trips\": {}, ",
                    "\"faults\": {{\"drops\": {}, \"duplicates\": {}, \"reorders\": {}, ",
                    "\"blackout_drops\": {}, \"blackout_us\": {:.1}}}}}"
                ),
                c.class.name(),
                c.intensity,
                c.num_clients,
                json_us(c.off.measured_p99),
                json_us(c.on.measured_p99),
                json_us(c.adaptive.measured_p99),
                json_us(c.oracle_p99()),
                json_f3(c.regression()),
                c.breaker_trips(),
                faults.drops,
                faults.duplicates,
                faults.reorders,
                faults.blackout_drops,
                c.adaptive.fault_blackout_time.as_micros_f64(),
            )
        })
        .collect();
    format!(
        "{{\n  \"version\": 1,\n  \"bench\": \"chaos\",\n  \"bound_factor\": {CHAOS_BOUND_FACTOR},\n  \
         \"bound_slack_us\": {:.1},\n  \"count\": {},\n  \"cells\": [\n{}\n  ]\n}}\n",
        CHAOS_BOUND_SLACK.as_micros_f64(),
        rows.len(),
        rows.join(",\n")
    )
}

fn main() {
    println!("=== Chaos: fault classes x intensity x fan-in ===\n");
    let data = ChaosGrid::FULL.sweep();
    print!("{}", data.table());
    write_json("BENCH_chaos.json", &to_json(&data));
    assert_gates("chaos", &data.violations());
}
