//! Sharded-proxy acceptance: K = 4 shards behind a terminating proxy.
//!
//! The skewed K = 4 runs of the two-tier runner's batching study must
//! match a golden digest field for field and replay bit-identically
//! across invocations (the whole two-tier event order — client arrivals,
//! proxy re-framing, upstream flushes, per-shard plane decisions — hangs
//! off one `(time, seq)` queue), and the proxy-side socket invariant
//! ledgers must be demonstrably non-vacuous: every client-facing *and*
//! upstream socket on the proxy booked real traffic in both directions.
//! To regenerate the digest after an *intentional* behavior change:
//!
//! ```sh
//! BLESS_GOLDEN=1 cargo test --test shard k4_runs_match_golden
//! ```

#[allow(dead_code)] // this binary digests shard results, not `PointResult`s
mod common;

use e2e_batching::batchpolicy::{Objective, RetryConfig};
use e2e_batching::e2e_apps::{
    run_failover_point, CostProfile, FailoverArm, FailoverPointResult, FailoverRunConfig,
    LancetClient, ProxyApp, RedisServer, Resilience, ShardRouter, ShardSetting, WorkloadSpec,
};
use e2e_batching::littles::Nanos;
use e2e_batching::simnet::{
    run, CpuContext, EventQueue, FaultConfig, LinkConfig, RestartSchedule, ShardBrownout,
    ShardFaultPlan, WindowSchedule,
};
use e2e_batching::tcpsim::{Host, HostId, TcpConfig, TierSim};

use common::{check_or_bless, fmt_f64, fmt_ns};

fn k4_cfg(setting: ShardSetting) -> FailoverRunConfig {
    FailoverRunConfig {
        num_clients: 4,
        num_shards: 4,
        hot_fraction: 0.7,
        warmup: Nanos::from_millis(50),
        measure: Nanos::from_millis(150),
        seed: 0x5AAD_16,
        upstream: Some(setting),
        ..FailoverRunConfig::new(WorkloadSpec::shard(30_000.0), FailoverArm::NoDefense, None)
    }
}

#[test]
fn k4_skewed_grid_replays_bit_identically() {
    for setting in [
        ShardSetting::Corner { nagle: false },
        ShardSetting::Corner { nagle: true },
        ShardSetting::Adaptive {
            objective: Objective::MinLatency,
        },
    ] {
        let cfg = k4_cfg(setting);
        let a = run_failover_point(&cfg);
        let b = run_failover_point(&cfg);

        assert!(a.samples > 0, "run must carry traffic");
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.events, b.events);
        assert_eq!(a.measured_mean, b.measured_mean);
        assert_eq!(a.measured_p99, b.measured_p99);
        assert_eq!(a.achieved_rps.to_bits(), b.achieved_rps.to_bits());
        assert_eq!(a.hot_shard, b.hot_shard);
        assert_eq!(a.per_shard_requests, b.per_shard_requests);
        assert_eq!(a.shard_estimates, b.shard_estimates);
        assert_eq!(a.shard_rtt_p99, b.shard_rtt_p99);
        assert_eq!(a.hot_rank_fraction.map(f64::to_bits), b.hot_rank_fraction.map(f64::to_bits));
        for (fa, fb) in a.shard_on_fraction.iter().zip(&b.shard_on_fraction) {
            assert_eq!(fa.to_bits(), fb.to_bits());
        }
    }
}

fn fmt_opt_f64(v: Option<f64>) -> String {
    v.map_or_else(|| "-".to_string(), fmt_f64)
}

/// Two lines per run with every field of the result, floats by bit
/// pattern; the hot-shard ranking gets its own line.
fn digest_shard(label: &str, r: &FailoverPointResult) -> String {
    let list = |v: Vec<String>| v.join(",");
    format!(
        "{label} events={} samples={} offered={} achieved={} mean={} p50={} p99={} hot={} \
         per_shard={:?} est={} rtt_p99={} on={} arms={} pcpu={}/{}\n{label} hot_rank={}\n",
        r.events,
        r.samples,
        fmt_f64(r.offered_rps),
        fmt_f64(r.achieved_rps),
        fmt_ns(r.measured_mean),
        fmt_ns(r.measured_p50),
        fmt_ns(r.measured_p99),
        r.hot_shard,
        r.per_shard_requests,
        list(r.shard_estimates.iter().map(|&e| fmt_ns(e)).collect()),
        list(r.shard_rtt_p99.iter().map(|&e| fmt_ns(e)).collect()),
        list(r.shard_on_fraction.iter().map(|&f| fmt_f64(f)).collect()),
        list(
            r.shard_arm_scores
                .iter()
                .map(|&(off, on)| format!("{}/{}", fmt_opt_f64(off), fmt_opt_f64(on)))
                .collect()
        ),
        fmt_f64(r.proxy_cpu.app),
        fmt_f64(r.proxy_cpu.softirq),
        fmt_opt_f64(r.hot_rank_fraction),
    )
}

/// Every field of the K = 4 runs under both static corners and the
/// per-shard planes, pinned bit for bit against a golden file.
#[test]
fn k4_runs_match_golden() {
    let mut digest = String::new();
    for (label, setting) in [
        ("corner-off", ShardSetting::Corner { nagle: false }),
        ("corner-on", ShardSetting::Corner { nagle: true }),
        (
            "adaptive",
            ShardSetting::Adaptive {
                objective: Objective::MinLatency,
            },
        ),
    ] {
        digest += &digest_shard(label, &run_failover_point(&k4_cfg(setting)));
    }
    check_or_bless(&digest, "tests/golden/shard_runner_digest.txt", "K = 4 shard runs");
}

/// The skew is deterministic in the seed and independent of the upstream
/// knob: every arm routes the same keys to the same shards, so the
/// corners and the adaptive run are measuring the same offered traffic.
/// Both serve it: every shard busy, every shard estimated, the hot one
/// ranked.
#[test]
fn all_arms_route_the_same_skew() {
    let off = run_failover_point(&k4_cfg(ShardSetting::Corner { nagle: false }));
    let adaptive = run_failover_point(&k4_cfg(ShardSetting::Adaptive {
        objective: Objective::MinLatency,
    }));
    assert_eq!(off.hot_shard, adaptive.hot_shard);
    for r in [&off, &adaptive] {
        assert!(r.samples > 500, "only {} samples", r.samples);
        assert!(r.achieved_rps > 0.5 * r.offered_rps);
        assert!(
            r.per_shard_requests.iter().all(|&c| c > 0),
            "idle shard: {:?}",
            r.per_shard_requests
        );
        assert_eq!(r.shard_on_fraction.len(), 4);
        assert!(r.shard_estimates.iter().all(Option::is_some));
        assert!(r.hot_rank_fraction.is_some());
        // The hot shard leads and carries the configured skew.
        let total: u64 = r.per_shard_requests.iter().sum();
        let hot = r.per_shard_requests[r.hot_shard];
        assert!(
            hot as f64 >= 0.6 * total as f64,
            "hot shard carried {hot}/{total}, expected ~70%"
        );
    }
}

/// Builds the two-tier topology directly and checks that every socket on
/// the proxy host — the N accepted client connections *and* the K
/// upstream connections it opened — booked real bytes through both
/// invariant ledgers. The conservation/continuity gates on the proxy's
/// sockets ran against live data on both legs, not on idle sockets.
#[test]
fn invariant_gates_are_nonvacuous_on_proxy_sockets() {
    let (n, k) = (4, 4);
    let profile = CostProfile::shard_tier();
    let tcp = TcpConfig::default();
    let warmup = Nanos::from_millis(20);
    let end = Nanos::from_millis(120);

    let mut spec = WorkloadSpec::shard(12_000.0);
    spec.rate_rps /= n as f64;
    let clients: Vec<LancetClient> = (0..n)
        .map(|_| LancetClient::new(spec, profile.app, tcp, warmup, end))
        .collect();
    let router = ShardRouter::new(k, 0x5AAD);
    let shard_ids: Vec<HostId> = (0..k).map(|j| HostId::from_index(n + 1 + j)).collect();
    let proxy = ProxyApp::new(profile.app, tcp, shard_ids, router);
    let shards: Vec<RedisServer> = (0..k).map(|_| RedisServer::new(profile.app)).collect();

    let client_hosts: Vec<Host> = (0..n)
        .map(|i| {
            Host::new(
                HostId::from_index(i),
                CpuContext::new("client-app"),
                CpuContext::new("client-softirq"),
                profile.client_stack,
                tcp,
            )
        })
        .collect();
    let proxy_host = Host::new(
        HostId::from_index(n),
        CpuContext::new("proxy-app"),
        CpuContext::new("proxy-softirq"),
        profile.client_stack,
        tcp,
    );
    let shard_hosts: Vec<Host> = (0..k)
        .map(|j| {
            Host::new(
                HostId::from_index(n + 1 + j),
                CpuContext::new("shard-app"),
                CpuContext::new("shard-softirq"),
                profile.server_stack,
                tcp,
            )
        })
        .collect();

    let mut sim = TierSim::two_tier_with_faults(
        clients,
        proxy,
        shards,
        client_hosts,
        proxy_host,
        shard_hosts,
        LinkConfig::default(),
        LinkConfig::default(),
        0x5AAD,
        FaultConfig::default(),
    );
    let mut queue = EventQueue::new();
    sim.start(&mut queue);
    run(&mut sim, &mut queue, end);

    assert_eq!(
        sim.proxy_host().socket_count(),
        n + k,
        "proxy terminates all client connections and opened every upstream"
    );
    let socks: Vec<_> = sim.proxy_host().socket_ids().collect();
    for s in socks {
        let inv = sim.proxy_host().socket(s).invariants();
        assert!(
            inv.unread.entered() > 0,
            "proxy socket {s:?}: no inbound bytes through the unread ledger"
        );
        assert!(
            inv.unacked.entered() > 0,
            "proxy socket {s:?}: no outbound bytes through the unacked ledger"
        );
    }
    // Every shard accepted exactly the proxy's upstream and served on it.
    for j in 0..k {
        assert_eq!(sim.shard_host(j).socket_count(), 1, "shard {j}");
        let s = sim.shard_host(j).socket_ids().next().expect("one socket");
        let inv = sim.shard_host(j).socket(s).invariants();
        assert!(inv.unread.entered() > 0, "shard {j}: no requests arrived");
        assert!(inv.unacked.entered() > 0, "shard {j}: no responses sent");
    }
    // The proxy actually forwarded and completed traffic. The run stops
    // dead at `end` with no drain phase, so a handful of requests may
    // still be in flight on the back leg — but never more than one per
    // upstream's unflushed tail.
    assert!(sim.proxy.stats.responses > 0);
    let in_flight = sim.proxy.stats.forwarded - sim.proxy.stats.responses;
    assert!(
        in_flight <= 2 * k as u64,
        "{in_flight} requests unaccounted for (forwarded {}, responses {})",
        sim.proxy.stats.forwarded,
        sim.proxy.stats.responses
    );
}

/// FIFO response pairing must survive an upstream reconnect: every
/// request in flight on an upstream when its connection tears down is
/// failed (or retried) at teardown — never left in the pairing queue to
/// be matched against the *next* connection's responses. The scenario
/// stalls shard 0 so in-flight requests pile up on its upstream, then
/// crashes it mid-stall; without the teardown drain the replacement
/// connection's first responses would pop the stale entries and every
/// later response would pair one slot off for the rest of the run
/// (orphans spike, goodput craters). Checked at both points: right
/// after the reset (queue emptied while the pile was provably deep) and
/// at the end (proxy healthy, accounting closed).
#[test]
fn fifo_pairing_survives_upstream_reconnect() {
    let (n, k) = (2, 2);
    let profile = CostProfile::shard_tier();
    let tcp = TcpConfig::default();
    let warmup = Nanos::from_millis(10);
    let end = Nanos::from_millis(120);
    let crash_at = Nanos::from_millis(32);

    let mut spec = WorkloadSpec::shard(24_000.0);
    spec.rate_rps /= n as f64;
    let clients: Vec<LancetClient> = (0..n)
        .map(|_| LancetClient::new(spec, profile.app, tcp, warmup, end))
        .collect();
    let router = ShardRouter::new(k, 0x5AAD);
    let shard_ids: Vec<HostId> = (0..k).map(|j| HostId::from_index(n + 1 + j)).collect();
    let proxy = ProxyApp::new(profile.app, tcp, shard_ids, router)
        .with_resilience(Resilience::timeout_only(RetryConfig::default()));
    let shards: Vec<RedisServer> = (0..k).map(|_| RedisServer::new(profile.app)).collect();

    let client_hosts: Vec<Host> = (0..n)
        .map(|i| {
            Host::new(
                HostId::from_index(i),
                CpuContext::new("client-app"),
                CpuContext::new("client-softirq"),
                profile.client_stack,
                tcp,
            )
        })
        .collect();
    let proxy_host = Host::new(
        HostId::from_index(n),
        CpuContext::new("proxy-app"),
        CpuContext::new("proxy-softirq"),
        profile.client_stack,
        tcp,
    );
    let shard_hosts: Vec<Host> = (0..k)
        .map(|j| {
            Host::new(
                HostId::from_index(n + 1 + j),
                CpuContext::new("shard-app"),
                CpuContext::new("shard-softirq"),
                profile.server_stack,
                tcp,
            )
        })
        .collect();

    // One 4 ms stall on shard 0 starting at 30 ms (no repeat within the
    // run), with the crash pinned to 32 ms — mid-stall, when the
    // upstream's pairing queue is at its deepest.
    let faults = FaultConfig {
        shard: ShardFaultPlan {
            crash: Some(RestartSchedule {
                first_at: crash_at,
                period: Nanos::ZERO,
            }),
            crash_target: Some(0),
            brownout: Some(ShardBrownout {
                shard: 0,
                windows: WindowSchedule {
                    first_at: Nanos::from_millis(30),
                    period: Nanos::from_millis(1000),
                    duration: Nanos::from_millis(4),
                },
            }),
            ..ShardFaultPlan::default()
        },
        start_at: warmup,
        ..FaultConfig::default()
    };

    let mut sim = TierSim::two_tier_with_faults(
        clients,
        proxy,
        shards,
        client_hosts,
        proxy_host,
        shard_hosts,
        LinkConfig::default(),
        LinkConfig::default(),
        0x5AAD,
        faults,
    );
    let mut queue = EventQueue::new();
    sim.start(&mut queue);

    // Run up to just before the crash: the stall has held shard 0's
    // responses for 2 ms, so its pairing queue is provably deep.
    run(&mut sim, &mut queue, crash_at - Nanos::from_nanos(1));
    let piled = sim.proxy.upstream_waiting(0);
    assert!(
        piled >= 8,
        "stall should pile in-flight requests on shard 0's upstream, got {piled}"
    );

    // Step past the crash: the reset must have drained the pile into
    // failures, leaving at most the trickle of post-reset dispatches.
    run(&mut sim, &mut queue, crash_at + Nanos::from_micros(100));
    assert_eq!(sim.proxy.stats.upstream_resets, 1, "the crash resets the upstream once");
    let after = sim.proxy.upstream_waiting(0);
    assert!(
        after <= 4,
        "teardown left {after} stale entries in the pairing queue (was {piled})"
    );
    assert!(
        sim.proxy.stats.failed > 0,
        "drained in-flight requests must be failed back, not dropped silently"
    );

    // Run out the rest. A mis-paired queue would shift every subsequent
    // response one slot off permanently: orphans would grow for the rest
    // of the run and the last requests would never complete. Healthy
    // recovery means bounded failures, bounded orphans, closed books.
    run(&mut sim, &mut queue, end);
    let stats = &sim.proxy.stats;
    assert!(stats.responses > 1000, "proxy kept serving after the reconnect");
    assert!(
        stats.failed <= 80,
        "failures must stay confined to the fault window, got {}",
        stats.failed
    );
    assert!(
        stats.orphan_responses <= 40,
        "orphan responses must stay confined to the fault window, got {}",
        stats.orphan_responses
    );
    for j in 0..k {
        let depth = sim.proxy.upstream_waiting(j);
        assert!(depth <= 4, "shard {j}: {depth} requests still paired at end");
    }
    assert!(
        sim.proxy.pending_requests() <= 8,
        "pending ledger must drain, got {}",
        sim.proxy.pending_requests()
    );
    // Attempt accounting closes: every forwarded attempt was answered
    // (to a live request or as an orphan), failed at teardown/deadline,
    // or is part of the end-of-run tail above.
    let answered = stats.responses + stats.orphan_responses;
    let open = (0..k).map(|j| sim.proxy.upstream_waiting(j) as u64).sum::<u64>();
    assert!(
        stats.forwarded <= answered + stats.failed + open,
        "attempts leaked: forwarded {} > answered {answered} + failed {} + open {open}",
        stats.forwarded,
        stats.failed
    );
    let achieved: f64 = sim.clients.iter().map(|lg| lg.achieved_rps()).sum();
    assert!(
        achieved >= 0.85 * 24_000.0,
        "goodput cratered after the reconnect: {achieved:.0} rps"
    );
}
