//! The in-flight segment slab under faults. Every segment put on the wire
//! (lost ones aside, fault duplicates included) is consumed by TCP input
//! exactly once, whichever path it takes: normal input, SYN accept, or a
//! stray for a crashed flow. So a run driven to idle holds no segment,
//! and slots are recycled rather than grown per packet.

use littles::Nanos;
use simnet::{
    run_until_idle, CorruptConfig, CpuContext, DuplicateConfig, EventQueue, FaultConfig,
    GilbertElliott, LinkConfig, LinkId, RestartSchedule, ShardFaultPlan, Topology,
};
use tcpsim::config::{CostConfig, TcpConfig};
use tcpsim::host::{Host, HostId};
use tcpsim::sim::{App, HostCtx, NetSim, SlabUsage};
use tcpsim::socket::{SocketId, WakeReason};
use tcpsim::{Payload, TierSim};

/// Event budget for a drain; far above what these runs process.
const LIMIT: u64 = 10_000_000;
/// Load stops here; afterwards the stack finishes what is in flight.
const END: Nanos = Nanos::from_millis(60);
const PERIOD: Nanos = Nanos::from_micros(100);
/// `on_call` token of the write ticker (smaller tokens name a socket to
/// read).
const TICK: u64 = u64::MAX;

/// Streams a 3 KiB write to each of its `peers` every [`PERIOD`] until
/// [`END`], reconnecting after a crash, and reads whatever arrives on
/// any socket. With no peers it is a pure sink.
struct Node {
    peers: Vec<HostId>,
    /// Outgoing connection per peer, and whether it is established.
    upstreams: Vec<(SocketId, bool)>,
    received: u64,
    resets: u32,
}

impl Node {
    fn new(peers: Vec<HostId>) -> Self {
        Node {
            peers,
            upstreams: Vec::new(),
            received: 0,
            resets: 0,
        }
    }
}

impl App for Node {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        for &peer in &self.peers {
            let sock = ctx.connect_to(peer, TcpConfig::default());
            self.upstreams.push((sock, false));
        }
        if !self.peers.is_empty() {
            ctx.call_after(PERIOD, TICK);
        }
    }

    fn on_wake(&mut self, ctx: &mut HostCtx<'_>, sock: SocketId, reason: WakeReason) {
        let upstream = self.upstreams.iter().position(|&(s, _)| s == sock);
        match (reason, upstream) {
            (WakeReason::Connected, Some(i)) => self.upstreams[i].1 = true,
            (WakeReason::Reset, Some(i)) => {
                self.resets += 1;
                let fresh = ctx.connect_to(self.peers[i], TcpConfig::default());
                self.upstreams[i] = (fresh, false);
            }
            (WakeReason::Reset, None) => self.resets += 1,
            (WakeReason::Readable, _) => ctx.wake_app_thread(sock.0 as u64),
            _ => {}
        }
    }

    fn on_call(&mut self, ctx: &mut HostCtx<'_>, token: u64) {
        if token != TICK {
            let (data, _) = ctx.recv(SocketId(token as usize), usize::MAX);
            self.received += data.len() as u64;
            return;
        }
        let payload = Payload::from(vec![0x5A; 3 * 1024]);
        for &(sock, established) in &self.upstreams {
            if established {
                ctx.send(sock, &payload);
            }
        }
        if ctx.now() + PERIOD <= END {
            ctx.call_after(PERIOD, TICK);
        }
    }
}

fn host(i: usize) -> Host {
    Host::new(
        HostId::from_index(i),
        CpuContext::new("app"),
        CpuContext::new("softirq"),
        CostConfig::default(),
        TcpConfig::default(),
    )
}

fn packets_sent(topology: &Topology) -> u64 {
    (0..topology.num_links())
        .map(|i| {
            let link = topology.link(LinkId::from_index(i));
            link.a_to_b.packets_sent() + link.b_to_a.packets_sent()
        })
        .sum()
}

/// Idle means no segment is parked. Recycled means the high-water mark is
/// the peak number of segments simultaneously in flight, a small fraction
/// of the segments that crossed the slab (without the free list it would
/// be at least the packet count).
fn assert_drained(slab: SlabUsage, packets: u64) {
    assert_eq!(slab.live, 0, "segments left in the slab at idle: {slab:?}");
    assert!(
        packets >= 2_000,
        "the run must carry real traffic, sent {packets}"
    );
    assert!(
        slab.high_water > 0 && (slab.high_water as u64) * 20 <= packets,
        "slab grew to {} slots for {packets} packets: slots are not recycled",
        slab.high_water
    );
}

/// Loss, duplication, exchange corruption and one client restart on a
/// four-client star, drained to idle.
#[test]
fn chaos_star_drains_the_slab() {
    let n = 4;
    let fault = FaultConfig {
        loss: Some(GilbertElliott::bursty(0.02, 4.0)),
        duplicate: Some(DuplicateConfig { probability: 0.1 }),
        corrupt: Some(CorruptConfig { probability: 0.1 }),
        restart: Some(RestartSchedule {
            first_at: Nanos::from_millis(30),
            period: Nanos::ZERO,
        }),
        start_at: Nanos::from_millis(5),
        ..FaultConfig::default()
    };
    let server = HostId::from_index(n);
    let clients = (0..n).map(|_| Node::new(vec![server])).collect();
    let mut sim = NetSim::star_with_faults(
        clients,
        Node::new(Vec::new()),
        (0..n).map(host).collect(),
        host(n),
        LinkConfig::default(),
        0x51AB,
        fault,
    );
    let mut queue = EventQueue::new();
    sim.start(&mut queue);
    run_until_idle(&mut sim, &mut queue, LIMIT);

    let faults = sim
        .fault_plan()
        .expect("fault plan is live")
        .per_link_counters();
    let fired = |f: fn(&simnet::FaultCounters) -> u64| faults.iter().map(f).sum::<u64>();
    assert!(fired(|c| c.drops) > 0, "loss never fired");
    assert!(fired(|c| c.duplicates) > 0, "duplication never fired");
    assert!(fired(|c| c.corruptions) > 0, "corruption never fired");
    assert_eq!(
        sim.clients.iter().map(|c| c.resets).sum::<u32>(),
        1,
        "one client restarted"
    );
    assert!(sim.server.received > 0);
    assert_drained(sim.segment_slab(), packets_sent(sim.topology()));
}

/// A shard crash on the two-tier topology (both ends of each connection
/// to the shard reset, in-flight segments become strays), drained to
/// idle.
#[test]
fn shard_crash_drains_the_slab() {
    let (n, k) = (2, 2);
    let fault = FaultConfig {
        shard: ShardFaultPlan {
            crash: Some(RestartSchedule {
                first_at: Nanos::from_millis(30),
                period: Nanos::ZERO,
            }),
            crash_target: Some(0),
            ..ShardFaultPlan::default()
        },
        start_at: Nanos::from_millis(5),
        ..FaultConfig::default()
    };
    let proxy = HostId::from_index(n);
    let shard_ids = (0..k).map(|j| HostId::from_index(n + 1 + j)).collect();
    let mut sim = TierSim::two_tier_with_faults(
        (0..n).map(|_| Node::new(vec![proxy])).collect(),
        Node::new(shard_ids),
        (0..k).map(|_| Node::new(Vec::new())).collect(),
        (0..n).map(host).collect(),
        host(n),
        (0..k).map(|j| host(n + 1 + j)).collect(),
        LinkConfig::default(),
        LinkConfig::default(),
        0x51AB,
        fault,
    );
    let mut queue = EventQueue::new();
    sim.start(&mut queue);
    run_until_idle(&mut sim, &mut queue, LIMIT);

    assert_eq!(sim.proxy.resets, 1, "the crash resets the proxy's upstream");
    assert_eq!(sim.shards[0].resets, 1, "and the shard's end");
    assert!(sim.shards.iter().all(|s| s.received > 0));
    assert_drained(sim.segment_slab(), packets_sent(sim.topology()));
}
