//! The knob-grid experiment: the joint multi-knob control plane (Nagle +
//! delayed-ACK + cork limit from one routed estimate) against all eight
//! static knob corners and the Nagle-only adaptive plane, across client
//! cost × fan-in.
//!
//! Prints the per-cell table, writes `BENCH_knobs.json` and fails on any
//! violated gate.
//!
//! ```sh
//! cargo bench -p bench --bench knobs
//! ```

use bench::{json_f3, json_us, write_json};
use e2e_apps::experiments::{
    assert_gates, KnobsData, KnobsGrid, KNOBS_BOUND_FACTOR, KNOBS_BOUND_SLACK,
};

fn to_json(data: &KnobsData) -> String {
    let rows: Vec<String> = data
        .cells
        .iter()
        .map(|c| {
            let corners: Vec<String> = c
                .corners
                .iter()
                .map(|k| format!("\"{}\": {}", k.label(), json_us(k.result.measured_p99)))
                .collect();
            format!(
                concat!(
                    "    {{\"client_cost_us\": {:.1}, \"num_clients\": {}, ",
                    "\"corners\": {{{}}}, \"best_corner\": \"{}\", ",
                    "\"best_corner_p99_us\": {}, \"nagle_only_p99_us\": {}, ",
                    "\"joint_p99_us\": {}, \"regression\": {}, ",
                    "\"joint_beats_nagle_only\": {}, ",
                    "\"plane\": {{\"nagle_switches\": {}, \"delack_switches\": {}, ",
                    "\"cork_switches\": {}, \"explorations\": {}, \"cork_limit\": {}}}}}"
                ),
                c.client_cost.as_micros_f64(),
                c.num_clients,
                corners.join(", "),
                c.best_corner_label().unwrap_or_else(|| "n/a".into()),
                json_us(c.best_corner_p99()),
                json_us(c.nagle_only.measured_p99),
                json_us(c.joint.measured_p99),
                json_f3(c.regression()),
                c.joint_beats_nagle_only(),
                c.joint.plane_nagle_switches.unwrap_or(0),
                c.joint.plane_delack_switches.unwrap_or(0),
                c.joint.plane_cork_switches.unwrap_or(0),
                c.joint.plane_explorations.unwrap_or(0),
                c.joint
                    .plane_cork_limit
                    .map(|l| l.to_string())
                    .unwrap_or_else(|| "null".into()),
            )
        })
        .collect();
    format!(
        "{{\n  \"version\": 1,\n  \"bench\": \"knobs\",\n  \"bound_factor\": {KNOBS_BOUND_FACTOR},\n  \
         \"bound_slack_us\": {:.1},\n  \"count\": {},\n  \"cells\": [\n{}\n  ]\n}}\n",
        KNOBS_BOUND_SLACK.as_micros_f64(),
        rows.len(),
        rows.join(",\n")
    )
}

fn main() {
    println!("=== Knobs: static corners vs adaptive planes, c x N ===\n");
    let data = KnobsGrid::FULL.sweep();
    print!("{}", data.table());
    write_json("BENCH_knobs.json", &to_json(&data));
    assert_gates("knobs", &data.violations());
}
