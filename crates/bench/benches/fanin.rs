//! The fan-in experiment: how the Nagle cutoff moves as one aggregate
//! load spreads across more connections, and whether the aggregate
//! estimate keeps tracking the measured aggregate.
//!
//! Prints the per-N sweep tables, writes `BENCH_fanin.json` — a stable,
//! hand-rolled JSON document in the same style as
//! `xtask -- lint --json` — and fails on any violated gate.
//!
//! ```sh
//! cargo bench -p bench --bench fanin
//! ```

use bench::{json_us, write_json};
use e2e_apps::experiments::{assert_gates, FaninData, FaninGrid};

fn json_rate(r: Option<f64>) -> String {
    r.map(|v| format!("{v:.0}"))
        .unwrap_or_else(|| "null".into())
}

fn to_json(data: &FaninData) -> String {
    let mut rows = Vec::new();
    for row in &data.rows {
        for p in &row.sweep.rows {
            rows.push(format!(
                "    {{\"num_clients\": {}, \"rate_rps\": {:.0}, \"off_meas_us\": {}, \"off_est_us\": {}, \"on_meas_us\": {}, \"on_est_us\": {}}}",
                row.num_clients,
                p.rate_rps,
                json_us(p.off.measured_mean),
                json_us(p.off.estimated_bytes),
                json_us(p.on.measured_mean),
                json_us(p.on.estimated_bytes),
            ));
        }
    }
    let cutoffs: Vec<String> = data
        .rows
        .iter()
        .map(|row| {
            format!(
                "    {{\"num_clients\": {}, \"cutoff_measured_rps\": {}, \"cutoff_estimated_rps\": {}}}",
                row.num_clients,
                json_rate(row.cutoff_measured),
                json_rate(row.cutoff_estimated),
            )
        })
        .collect();
    format!(
        "{{\n  \"version\": 1,\n  \"bench\": \"fanin\",\n  \"count\": {},\n  \"rows\": [\n{}\n  ],\n  \"cutoffs\": [\n{}\n  ]\n}}\n",
        rows.len(),
        rows.join(",\n"),
        cutoffs.join(",\n")
    )
}

fn main() {
    println!("=== Fan-in: aggregate load over N connections ===\n");
    let data = FaninGrid::FULL.sweep();
    print!("{}", data.table());
    write_json("BENCH_fanin.json", &to_json(&data));
    assert_gates("fanin", &data.violations());
}
