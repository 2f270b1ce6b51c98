//! Fan-in acceptance: N = 16 concurrent connections into one server.
//!
//! Two of the PR's acceptance gates live here: the N = 16 topology must
//! be deterministic across invocations, and the per-connection
//! `SocketInvariants` gates must be demonstrably non-vacuous (every one
//! of the 16 server-side sockets booked real traffic through its
//! ledgers).

use e2e_batching::batchpolicy::Objective;
use e2e_batching::e2e_apps::{
    run_point, CostProfile, LancetClient, NagleSetting, RedisServer, RunConfig, WorkloadSpec,
};
use e2e_batching::littles::Nanos;
use e2e_batching::simnet::{run, CpuContext, EventQueue, FaultConfig, LinkConfig};
use e2e_batching::tcpsim::{Host, HostId, NetSim, TcpConfig};

fn n16_cfg(nagle: NagleSetting) -> RunConfig {
    RunConfig {
        warmup: Nanos::from_millis(50),
        measure: Nanos::from_millis(150),
        num_clients: 16,
        seed: 0xFA41_16,
        ..RunConfig::new(WorkloadSpec::fig4a(64_000.0), nagle)
    }
}

#[test]
fn n16_fanin_is_deterministic_across_invocations() {
    let a = run_point(&n16_cfg(NagleSetting::Off));
    let b = run_point(&n16_cfg(NagleSetting::Off));

    assert_eq!(a.num_clients, 16);
    assert_eq!(a.samples, b.samples);
    assert_eq!(a.measured_mean, b.measured_mean);
    assert_eq!(a.measured_p99, b.measured_p99);
    assert_eq!(a.packets_to_server, b.packets_to_server);
    assert_eq!(a.packets_to_client, b.packets_to_client);
    assert_eq!(a.achieved_rps.to_bits(), b.achieved_rps.to_bits());
    assert_eq!(a.estimated_bytes, b.estimated_bytes);

    assert_eq!(a.per_client.len(), 16);
    for (ca, cb) in a.per_client.iter().zip(&b.per_client) {
        assert!(ca.samples > 0, "every connection must carry traffic");
        assert_eq!(ca.samples, cb.samples);
        assert_eq!(ca.measured_mean, cb.measured_mean);
        assert_eq!(ca.achieved_rps.to_bits(), cb.achieved_rps.to_bits());
        assert_eq!(ca.exchanges_received, cb.exchanges_received);
    }
}

/// The listener-wide dynamic policy path (shared ε-greedy over the
/// 16-connection aggregate) must be deterministic too, and must actually
/// produce a server-side aggregate view.
#[test]
fn n16_dynamic_policy_is_deterministic_and_aggregates() {
    let cfg = n16_cfg(NagleSetting::Plane {
        objective: Objective::MinLatency,
        delack: false,
        cork: false,
    });
    let a = run_point(&cfg);
    let b = run_point(&cfg);

    assert_eq!(a.samples, b.samples);
    assert_eq!(a.measured_mean, b.measured_mean);
    assert_eq!(a.packets_to_server, b.packets_to_server);
    assert_eq!(a.server_on_fraction, b.server_on_fraction);
    assert_eq!(a.server_aggregate_latency, b.server_aggregate_latency);

    assert!(
        a.server_on_fraction.is_some(),
        "listener policy must have decided"
    );
    assert!(
        a.server_aggregate_latency.is_some(),
        "listener policy must have formed aggregate estimates"
    );
}

/// Builds the 16-client star directly and checks that every server-side
/// socket's invariant ledgers booked real traffic: the conservation /
/// continuity gates ran against live data on all 16 connections, not on
/// idle sockets.
#[test]
fn invariant_gates_are_nonvacuous_on_all_16_connections() {
    let n = 16;
    let profile = CostProfile::calibrated();
    let tcp = TcpConfig::default();
    let warmup = Nanos::from_millis(20);
    let end = Nanos::from_millis(120);

    let clients: Vec<LancetClient> = (0..n)
        .map(|_| LancetClient::new(WorkloadSpec::fig4a(3_000.0), profile.app, tcp, warmup, end))
        .collect();
    let server = RedisServer::new(profile.app);
    let client_hosts: Vec<Host> = (0..n)
        .map(|i| {
            Host::new(
                HostId(i),
                CpuContext::new("client-app"),
                CpuContext::new("client-softirq"),
                profile.client_stack,
                tcp,
            )
        })
        .collect();
    let server_host = Host::new(
        HostId(n),
        CpuContext::new("server-app"),
        CpuContext::new("server-softirq"),
        profile.server_stack,
        tcp,
    );

    let mut sim = NetSim::star_with_faults(
        clients,
        server,
        client_hosts,
        server_host,
        LinkConfig::default(),
        0x1617,
        FaultConfig::default(),
    );
    let mut queue = EventQueue::new();
    sim.start(&mut queue);
    run(&mut sim, &mut queue, end);

    assert_eq!(
        sim.server_host().socket_count(),
        n,
        "server accepted all connections"
    );
    let socks: Vec<_> = sim.server_host().socket_ids().collect();
    for s in socks {
        let inv = sim.server_host().socket(s).invariants();
        assert!(
            inv.unread.entered() > 0,
            "socket {s:?}: no request bytes through the unread ledger"
        );
        assert!(
            inv.unacked.entered() > 0,
            "socket {s:?}: no response bytes through the unacked ledger"
        );
        // The gates also verified departures, not just arrivals.
        assert!(inv.unread.left() > 0, "socket {s:?}: requests never read");
        assert!(inv.unacked.left() > 0, "socket {s:?}: responses never acked");
    }
    // Same on the client side of each connection.
    for i in 0..n {
        let sock = sim.clients[i].sock.expect("client connected");
        let inv = sim.host(i).socket(sock).invariants();
        assert!(inv.unacked.entered() > 0, "client {i}: sent nothing");
        assert!(inv.unread.entered() > 0, "client {i}: received nothing");
    }
}
