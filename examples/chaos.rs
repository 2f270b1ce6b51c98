//! Chaos: fault injection across the star topology with graceful
//! estimator/policy degradation.
//!
//! For each fault class (bursty loss, reorder, duplication, jitter,
//! blackout, server stall) at each intensity and fan-in width, runs the
//! two static Nagle baselines and the adaptive policy (the Nagle-only
//! control plane behind a circuit breaker, estimator confidence driven
//! by snapshot staleness) and reports the adaptive P99 against the
//! static oracle — the better of the two static modes for that cell.
//!
//! Both grids and every acceptance gate are declared once in
//! `e2e_apps::experiments::ChaosGrid`; `--smoke` runs the short CI grid.
//! The bench (`cargo bench -p bench --bench chaos`) runs the full grid
//! into `BENCH_chaos.json`.
//!
//! ```sh
//! cargo run --release --example chaos            # full grid
//! cargo run --release --example chaos -- --smoke # quick CI gate
//! ```

use e2e_apps::experiments::{assert_gates, ChaosGrid};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let grid = if smoke {
        ChaosGrid::SMOKE
    } else {
        ChaosGrid::FULL
    };
    let data = grid.sweep();
    print!("{}", data.table());
    assert_gates("chaos", &data.violations());
    println!("chaos: OK ({} cells, every gate holds)", data.cells.len());
}
