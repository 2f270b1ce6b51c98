//! Golden-digest helpers shared by the bitwise-replay tests.
//!
//! A digest is one line per run with every deterministic field of the
//! [`PointResult`], floats by bit pattern. To regenerate the golden
//! files after an *intentional* behavior change:
//!
//! ```sh
//! BLESS_GOLDEN=1 cargo test --test golden_n1 --test knobs --test shard
//! ```

use e2e_batching::e2e_apps::runner::PointResult;
use e2e_batching::littles::Nanos;

pub fn fmt_ns(v: Option<Nanos>) -> String {
    v.map_or_else(|| "-".to_string(), |n| n.as_nanos().to_string())
}

pub fn fmt_f64(v: f64) -> String {
    // Bit-exact float representation: the whole point is bit-identity.
    format!("{:016x}", v.to_bits())
}

pub fn digest_point(label: &str, r: &PointResult) -> String {
    format!(
        "{label} samples={} achieved={} mean={} p50={} p99={} est_b={} est_p={} est_m={} \
         est_h={} tracker={} srtt={} ccpu={}/{} scpu={}/{} pkts={}+{} holds={} exch={}",
        r.samples,
        fmt_f64(r.achieved_rps),
        fmt_ns(r.measured_mean),
        fmt_ns(r.measured_p50),
        fmt_ns(r.measured_p99),
        fmt_ns(r.estimated_bytes),
        fmt_ns(r.estimated_packets),
        fmt_ns(r.estimated_messages),
        fmt_ns(r.estimated_hint),
        fmt_ns(r.tracker_mean),
        fmt_ns(r.srtt),
        fmt_f64(r.client_cpu.app),
        fmt_f64(r.client_cpu.softirq),
        fmt_f64(r.server_cpu.app),
        fmt_f64(r.server_cpu.softirq),
        r.packets_to_server,
        r.packets_to_client,
        r.nagle_holds,
        r.exchanges_received,
    )
}

/// Compares `digest` with the golden file at `golden_path` (relative to
/// the package root), or rewrites the file when `BLESS_GOLDEN` is set.
pub fn check_or_bless(digest: &str, golden_path: &str, what: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(golden_path);
    if std::env::var("BLESS_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir golden");
        std::fs::write(&path, digest).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden file missing — rerun the test with BLESS_GOLDEN=1");
    assert_eq!(digest, golden, "{what} diverged from the golden trace");
}
