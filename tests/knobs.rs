//! Multi-knob control-plane acceptance.
//!
//! Two gates: (a) an N = 8 star with the *joint* plane — Nagle +
//! delayed-ACK + cork limit all adaptive — replays bit-identically
//! across executions, per-knob counters included; (b) a plane with only
//! the Nagle knob attached is *bitwise* indistinguishable from the
//! retired single-knob Dynamic policy, at N = 1 and N = 8 — its golden
//! digest was recorded from that policy's runs, so folding the policy
//! into the plane stays a pure generalization, not a behavior change.

mod common;

use common::{check_or_bless, digest_point, fmt_f64, fmt_ns};
use e2e_batching::batchpolicy::{BreakerConfig, Objective};
use e2e_batching::e2e_apps::experiments::{
    adversary_breaker, AdversaryClass, ChaosClass, CHAOS_STALENESS_BOUND,
};
use e2e_batching::e2e_apps::runner::{run_point, Overrides, PointResult, RunConfig};
use e2e_batching::e2e_apps::{NagleSetting, WorkloadSpec};
use e2e_batching::e2e_core::ValidateConfig;
use e2e_batching::littles::Nanos;

const NAGLE_PLANE_GOLDEN_PATH: &str = "tests/golden/nagle_plane_digest.txt";

fn knobs_cfg(nagle: NagleSetting, num_clients: usize) -> RunConfig {
    RunConfig {
        warmup: Nanos::from_millis(50),
        measure: Nanos::from_millis(150),
        num_clients,
        seed: 0xBE7C,
        overrides: Overrides {
            // The knobs experiment's uniform delack setting: long enough
            // that delayed-ACK decisions visibly matter.
            delack_timeout: Some(Nanos::from_micros(500)),
            ..Overrides::default()
        },
        ..RunConfig::new(WorkloadSpec::fig4a(24_000.0), nagle)
    }
}

fn opt_bits(v: Option<f64>) -> Option<u64> {
    v.map(f64::to_bits)
}

/// Field-by-field bitwise comparison of two runs (floats via `to_bits`:
/// the whole point is bit-identity, not approximate equality).
fn assert_bitwise_equal(a: &PointResult, b: &PointResult) {
    assert_eq!(a.samples, b.samples);
    assert_eq!(a.achieved_rps.to_bits(), b.achieved_rps.to_bits());
    assert_eq!(a.measured_mean, b.measured_mean);
    assert_eq!(a.measured_p50, b.measured_p50);
    assert_eq!(a.measured_p99, b.measured_p99);
    assert_eq!(a.estimated_bytes, b.estimated_bytes);
    assert_eq!(a.estimated_packets, b.estimated_packets);
    assert_eq!(a.estimated_messages, b.estimated_messages);
    assert_eq!(a.estimated_hint, b.estimated_hint);
    assert_eq!(a.tracker_mean, b.tracker_mean);
    assert_eq!(a.srtt, b.srtt);
    assert_eq!(a.client_cpu.app.to_bits(), b.client_cpu.app.to_bits());
    assert_eq!(a.server_cpu.app.to_bits(), b.server_cpu.app.to_bits());
    assert_eq!(a.packets_to_server, b.packets_to_server);
    assert_eq!(a.packets_to_client, b.packets_to_client);
    assert_eq!(a.nagle_holds, b.nagle_holds);
    assert_eq!(a.exchanges_received, b.exchanges_received);
    assert_eq!(opt_bits(a.client_on_fraction), opt_bits(b.client_on_fraction));
    assert_eq!(opt_bits(a.server_on_fraction), opt_bits(b.server_on_fraction));
    assert_eq!(a.server_aggregate_latency, b.server_aggregate_latency);
    assert_eq!(a.per_client.len(), b.per_client.len());
    for (ca, cb) in a.per_client.iter().zip(&b.per_client) {
        assert_eq!(ca.samples, cb.samples);
        assert_eq!(ca.measured_mean, cb.measured_mean);
        assert_eq!(ca.achieved_rps.to_bits(), cb.achieved_rps.to_bits());
    }
}

/// (a) The all-knobs adaptive star replays exactly: decisions, per-knob
/// switch counters, exploration count, and every measured series.
#[test]
fn joint_plane_n8_run_is_deterministic() {
    let cfg = knobs_cfg(
        NagleSetting::Plane {
            objective: Objective::MinLatency,
            delack: true,
            cork: true,
        },
        8,
    );
    let a = run_point(&cfg);
    let b = run_point(&cfg);

    assert_eq!(a.num_clients, 8);
    assert!(a.samples > 0, "the run must measure traffic");
    assert_bitwise_equal(&a, &b);

    // The plane must have been live on all three knobs, and its decision
    // stream must replay exactly.
    assert!(a.plane_nagle_switches.is_some(), "plane counters populated");
    assert_eq!(a.plane_nagle_switches, b.plane_nagle_switches);
    assert_eq!(a.plane_delack_switches, b.plane_delack_switches);
    assert_eq!(a.plane_cork_switches, b.plane_cork_switches);
    assert_eq!(a.plane_explorations, b.plane_explorations);
    assert_eq!(a.plane_cork_limit, b.plane_cork_limit);
    assert!(
        a.plane_explorations.unwrap_or(0) > 0,
        "coordinated exploration must have run"
    );
}

/// The adaptive configurations the Nagle-only plane is pinned on: the
/// plain knob-grid cell, the chaos grid's adaptive arm (staleness bound,
/// default breaker, bursty loss) and the adversary grid's guarded arm
/// (validator, pessimistic breaker, exchange corruption).
fn pinned_cfgs() -> Vec<(String, RunConfig)> {
    let nagle = NagleSetting::Plane {
        objective: Objective::MinLatency,
        delack: false,
        cork: false,
    };
    let rto = Overrides {
        min_rto: Some(Nanos::from_millis(5)),
        max_rto: Some(Nanos::from_millis(40)),
        ..Overrides::default()
    };
    let mut cfgs = Vec::new();
    for n in [1usize, 8] {
        cfgs.push((format!("plain/N={n}"), knobs_cfg(nagle, n)));
        cfgs.push((
            format!("chaos-loss/N={n}"),
            RunConfig {
                // Light enough per connection that N = 1 stays clear of
                // the go-back-N loss collapse and still measures.
                workload: WorkloadSpec::fig4a(12_000.0),
                fault: ChaosClass::Loss.fault_at(1.0),
                staleness_bound: Some(CHAOS_STALENESS_BOUND),
                breaker: Some(BreakerConfig::default()),
                overrides: rto,
                ..knobs_cfg(nagle, n)
            },
        ));
        cfgs.push((
            format!("adversary-corrupt/N={n}"),
            RunConfig {
                workload: WorkloadSpec::fig4a(95_000.0),
                fault: AdversaryClass::Corrupt.fault_at(1.0),
                staleness_bound: Some(CHAOS_STALENESS_BOUND),
                breaker: Some(adversary_breaker()),
                validate: Some(ValidateConfig::default()),
                overrides: rto,
                ..knobs_cfg(nagle, n)
            },
        ));
    }
    cfgs
}

/// One digest line per pinned run: every field the golden digest covers
/// plus the policy's own outputs (decision mix, breaker trips, listener
/// aggregate, validator verdicts) and each connection's slice.
fn pinned_digest() -> String {
    let mut lines = Vec::new();
    for (label, cfg) in pinned_cfgs() {
        let r = run_point(&cfg);
        assert!(r.samples > 0, "{label}: the run must measure traffic");
        let v = r.validation.unwrap_or_default();
        let mut line = format!(
            "{} on={:?}/{:?} trips={:?}/{:?} agg={} valid={}/{}/{} faults={}",
            digest_point(&label, &r),
            opt_bits(r.client_on_fraction),
            opt_bits(r.server_on_fraction),
            r.client_breaker_trips,
            r.server_breaker_trips,
            fmt_ns(r.server_aggregate_latency),
            v.accepted,
            v.rejected,
            v.epoch_changes,
            r.link_faults.iter().map(|f| f.total()).sum::<u64>(),
        );
        for c in &r.per_client {
            line.push_str(&format!(
                " [{} {} {}]",
                c.samples,
                fmt_ns(c.measured_mean),
                fmt_f64(c.achieved_rps)
            ));
        }
        lines.push(line);
    }
    lines.join("\n") + "\n"
}

/// (b) A plane with only the Nagle knob attached is the retired
/// single-knob Dynamic policy, bit for bit: same seeds, same decision
/// stream, same actuation (one Nagle setting per tick through the apply
/// path), so every measured quantity matches the digest recorded from
/// that policy — on the plain grid and under the chaos and adversary
/// stacks, at N = 1 and N = 8.
#[test]
fn nagle_only_plane_is_bitwise_identical_to_dynamic() {
    check_or_bless(
        &pinned_digest(),
        NAGLE_PLANE_GOLDEN_PATH,
        "Nagle-only plane runs",
    );
}
