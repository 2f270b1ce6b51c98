//! Failover: shard failure against the proxy's defense ladder.
//!
//! For each fault scenario (hot-shard crash mid-run, cold-shard CPU
//! brownout), runs the never-failed oracle plus four defense arms: the
//! naive proxy, deadlines only, budgeted retries, and the full
//! retry + hedge + breaker stack with ring-successor failover routing.
//! The claim under test: with the full stack, P99 and goodput stay
//! within a small factor of the oracle while the naive proxy collapses.
//!
//! Both grids and every acceptance gate are declared once in
//! `e2e_apps::experiments::FailoverGrid`; `--smoke` runs the short CI grid.
//! The bench (`cargo bench -p bench --bench failover`) runs the full grid
//! into `BENCH_failover.json`.
//!
//! ```sh
//! cargo run --release --example failover            # full grid
//! cargo run --release --example failover -- --smoke # quick CI gate
//! ```

use e2e_apps::experiments::{assert_gates, FailoverGrid};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let grid = if smoke {
        FailoverGrid::SMOKE
    } else {
        FailoverGrid::FULL
    };
    let data = grid.sweep();
    print!("{}", data.table());
    assert_gates("failover", &data.violations());
    println!(
        "failover: OK ({} cells, every gate holds)",
        data.cells.len()
    );
}
