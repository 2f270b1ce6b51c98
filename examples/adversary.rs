//! Adversary: adversarial metadata faults with peer-state validation.
//!
//! For each adversarial fault class (exchange-payload corruption,
//! endpoint restart) at each intensity and fan-in width, runs the two
//! static Nagle baselines plus two otherwise identical adaptive arms —
//! guarded (validation on) and exposed (validation off) — and reports
//! both against the static oracle. The guarded arm must stay within the
//! chaos degradation bound; the exposed arm demonstrates why: without
//! validation, garbled or restart-spanning windows poison the estimate
//! the policy acts on.
//!
//! Both grids and every acceptance gate are declared once in
//! `e2e_apps::experiments::AdversaryGrid`; `--smoke` runs the short CI grid.
//! The bench (`cargo bench -p bench --bench adversary`) runs the full grid
//! into `BENCH_adversary.json`.
//!
//! ```sh
//! cargo run --release --example adversary            # full grid
//! cargo run --release --example adversary -- --smoke # quick CI gate
//! ```

use e2e_apps::experiments::{assert_gates, AdversaryGrid};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let grid = if smoke {
        AdversaryGrid::SMOKE
    } else {
        AdversaryGrid::FULL
    };
    let data = grid.sweep();
    print!("{}", data.table());
    assert_gates("adversary", &data.violations());
    println!(
        "adversary: OK ({} cells, every gate holds)",
        data.cells.len()
    );
}
