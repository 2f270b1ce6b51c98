//! The adversary experiment: adversarial metadata faults (exchange
//! corruption, endpoint restart) against the hardened estimator stack.
//! The guarded adaptive arm (validation on) must stay within the chaos
//! degradation bound of the static oracle in every cell, while at least
//! one exposed arm (same policy, validation off) must break it — proving
//! peer-state validation is load-bearing, not a rubber stamp.
//!
//! Prints the per-cell table, writes `BENCH_adversary.json` and fails on
//! any violated gate.
//!
//! ```sh
//! cargo bench -p bench --bench adversary
//! ```

use bench::{json_f3, json_us, write_json};
use e2e_apps::experiments::{assert_gates, AdversaryData, AdversaryGrid, CHAOS_BOUND_FACTOR};

fn to_json(data: &AdversaryData) -> String {
    let rows: Vec<String> = data
        .cells
        .iter()
        .map(|c| {
            let v = c.guarded.validation.unwrap_or_default();
            let corruptions: u64 = c.guarded.link_faults.iter().map(|f| f.corruptions).sum();
            format!(
                concat!(
                    "    {{\"class\": \"{}\", \"intensity\": {}, \"num_clients\": {}, ",
                    "\"off_p99_us\": {}, \"on_p99_us\": {}, ",
                    "\"guarded_p99_us\": {}, \"exposed_p99_us\": {}, ",
                    "\"oracle_p99_us\": {}, \"regression\": {}, \"exposed_regression\": {}, ",
                    "\"breaker_trips\": {}, \"corruptions\": {}, \"restarts\": {}, ",
                    "\"validation\": {{\"accepted\": {}, \"rejected\": {}, \"epoch_changes\": {}}}}}"
                ),
                c.class.name(),
                c.intensity,
                c.num_clients,
                json_us(c.off.measured_p99),
                json_us(c.on.measured_p99),
                json_us(c.guarded.measured_p99),
                json_us(c.exposed.measured_p99),
                json_us(c.oracle_p99()),
                json_f3(c.regression()),
                json_f3(c.exposed_regression()),
                c.breaker_trips(),
                corruptions,
                c.guarded.fault_restarts,
                v.accepted,
                v.rejected,
                v.epoch_changes,
            )
        })
        .collect();
    format!(
        "{{\n  \"version\": 1,\n  \"bench\": \"adversary\",\n  \"bound_factor\": {CHAOS_BOUND_FACTOR},\n  \
         \"bound_slack_us\": {:.1},\n  \"count\": {},\n  \"exposed_breaches\": {},\n  \
         \"cells\": [\n{}\n  ]\n}}\n",
        data.grid.bound_slack.as_micros_f64(),
        rows.len(),
        data.exposed_breaches(),
        rows.join(",\n")
    )
}

fn main() {
    println!("=== Adversary: metadata fault classes x intensity x fan-in ===\n");
    let data = AdversaryGrid::FULL.sweep();
    print!("{}", data.table());
    write_json("BENCH_adversary.json", &to_json(&data));
    assert_gates("adversary", &data.violations());
}
