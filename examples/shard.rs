//! Shard: the two-tier datacenter topology under skewed load.
//!
//! For each aggregate rate, runs three two-tier (N clients → proxy → K
//! shards) cells: every upstream pinned `TCP_NODELAY`, every upstream
//! pinned Nagle-on, and the per-shard adaptive planes fed composed
//! client→proxy + proxy→shard estimates. The workload concentrates most
//! of the traffic on one hot shard, so no single global pin is right for
//! every upstream — the cell reports whether the composed estimates rank
//! the hot shard first and whether the per-shard planes beat both pins.
//!
//! Both grids and every acceptance gate are declared once in
//! `e2e_apps::experiments::ShardGrid`; `--smoke` runs the short CI grid.
//! The bench (`cargo bench -p bench --bench shard`) runs the full grid
//! into `BENCH_shard.json`.
//!
//! ```sh
//! cargo run --release --example shard            # full grid
//! cargo run --release --example shard -- --smoke # quick CI gate
//! ```

use e2e_apps::experiments::{assert_gates, ShardGrid};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let grid = if smoke {
        ShardGrid::SMOKE
    } else {
        ShardGrid::FULL
    };
    let data = grid.sweep();
    print!("{}", data.table());
    assert_gates("shard", &data.violations());
    println!("shard: OK ({} cells, every gate holds)", data.cells.len());
}
