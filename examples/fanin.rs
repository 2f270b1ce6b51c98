//! Fan-in: the same aggregate load spread over N ∈ {1, 4, …, 1024}
//! client connections into one shared server.
//!
//! Shows the two headline effects of the multi-connection topology:
//! the Nagle cutoff moves right (to higher aggregate rates) as N grows
//! — per-connection batching starves at 1/N of the load while the
//! no-Nagle baseline only collapses on the shared server CPU — and the
//! throughput-weighted aggregate estimate keeps identifying the cutoff.
//!
//! Both grids and every acceptance gate are declared once in
//! `e2e_apps::experiments::FaninGrid`; `--smoke` runs the short CI grid.
//! The bench (`cargo bench -p bench --bench fanin`) runs the full grid
//! into `BENCH_fanin.json`.
//!
//! ```sh
//! cargo run --release --example fanin            # full grid
//! cargo run --release --example fanin -- --smoke # quick CI gate
//! ```

use e2e_apps::experiments::{assert_gates, FaninGrid};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let grid = if smoke {
        FaninGrid::SMOKE
    } else {
        FaninGrid::FULL
    };
    let data = grid.sweep();
    print!("{}", data.table());
    assert_gates("fanin", &data.violations());
    println!("fanin: OK ({} rows, every gate holds)", data.rows.len());
}
