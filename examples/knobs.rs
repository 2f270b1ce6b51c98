//! Knobs: the multi-knob control plane against the static knob cube.
//!
//! For each client per-response cost `c` and fan-in width `N`, runs all
//! eight static corners of (Nagle × delayed-ACK × cork-limit), the
//! Nagle-only adaptive plane (the paper's single-knob policy), and the
//! joint adaptive plane driving all three knobs from one routed
//! estimate. Reports the joint plane's P99 against the best static
//! corner — the omniscient operator's pick for that cell.
//!
//! Both grids and every acceptance gate are declared once in
//! `e2e_apps::experiments::KnobsGrid`; `--smoke` runs the short CI grid.
//! The bench (`cargo bench -p bench --bench knobs`) runs the full grid
//! into `BENCH_knobs.json`.
//!
//! ```sh
//! cargo run --release --example knobs            # full grid
//! cargo run --release --example knobs -- --smoke # quick CI gate
//! ```

use e2e_apps::experiments::{assert_gates, KnobsGrid};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let grid = if smoke {
        KnobsGrid::SMOKE
    } else {
        KnobsGrid::FULL
    };
    let data = grid.sweep();
    print!("{}", data.table());
    assert_gates("knobs", &data.violations());
    println!("knobs: OK ({} cells, every gate holds)", data.cells.len());
}
