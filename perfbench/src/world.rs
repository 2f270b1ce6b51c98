//! The three workloads and the worlds they run on.
//!
//! Each world is assembled here from the library's public constructors,
//! step for step as `run_point` / `run_failover_point` assemble theirs, so
//! the benchmark can time set-up apart from the event loop and can wrap
//! the very same applications for the traced run. [`fingerprint`] and the
//! library-side fingerprints let the benchmark check, field for field,
//! that its assembly reproduces the library runner at the same config.

use std::borrow::Borrow;

use batchpolicy::{
    AimdBatchLimit, BreakerConfig, CircuitBreaker, ControlPlane, DelAckToggler, EpsilonGreedy,
    Objective, TickController,
};
use e2e_apps::experiments::CHAOS_STALENESS_BOUND;
use e2e_apps::{
    CostProfile, EstimateRecorder, FailoverArm, FailoverPointResult, FailoverRunConfig,
    FailoverScenario, KeyPool, LancetClient, ListenerPlaneDriver, NagleSetting, PlaneDriver,
    PointResult, ProxyApp, ProxyDriver, RedisServer, Resilience, RunConfig, ShardRouter,
    WorkloadSpec,
};
use e2e_core::{DelaySet, Estimate, MultiConnectionAggregator, ValidateConfig, ValidateStats};
use littles::Nanos;
use simnet::{
    BusySnapshot, CpuContext, EventQueue, FaultConfig, Histogram, LinkConfig, Pcg32, ShardBrownout,
    ShardFaultPlan, Topology, WindowSchedule, World,
};
use tcpsim::config::ExchangeConfig;
use tcpsim::{App, Event, Host, HostId, LinkId, NagleMode, NetSim, TcpConfig, TierSim, Unit};

/// Simulated time after the measure window during which in-flight
/// responses may still complete (the library runners use the same).
pub const DRAIN: Nanos = Nanos::from_millis(20);

/// One experiment point, in the library's own config types.
// A run holds a dozen of these at most; boxing would buy nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Copy)]
pub enum Config {
    /// N clients → one server.
    Star(RunConfig),
    /// Clients → proxy → hashed shards.
    Tier(FailoverRunConfig),
}

impl Config {
    /// Warm-up end and measure-window end.
    pub fn window(&self) -> (Nanos, Nanos) {
        let (w, m) = match self {
            Config::Star(c) => (c.warmup, c.measure),
            Config::Tier(c) => (c.warmup, c.measure),
        };
        (w, w + m)
    }
}

/// A named workload.
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Sub-seeds pooled into one run's simulated results.
    pub subseeds: u64,
    /// The config for one sub-seed.
    pub config: fn(u64) -> Config,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "fanin_1024",
        subseeds: 3,
        config: fanin_1024,
    },
    Workload {
        name: "adaptive_8",
        subseeds: 8,
        config: adaptive_8,
    },
    Workload {
        name: "tier_brownout",
        subseeds: 12,
        config: tier_brownout,
    },
];

/// 1024 `TCP_NODELAY` clients, Figure-4a SETs at 40 kRPS aggregate (at
/// 80 kRPS the shared server saturates and the tail varies from seed to
/// seed far beyond any usable bound).
fn fanin_1024(seed: u64) -> Config {
    Config::Star(RunConfig {
        warmup: Nanos::from_millis(50),
        measure: Nanos::from_millis(150),
        seed,
        num_clients: 1024,
        ..RunConfig::new(WorkloadSpec::fig4a(40_000.0), NagleSetting::Off)
    })
}

/// 8 clients at 70 kRPS under the joint Nagle + delayed-ACK + cork plane,
/// guarded by a staleness bound, the validator and the breaker (at
/// 80 kRPS the server's softirq is oversubscribed and the tail is
/// unsteady across seeds).
fn adaptive_8(seed: u64) -> Config {
    Config::Star(RunConfig {
        warmup: Nanos::from_millis(200),
        measure: Nanos::from_millis(600),
        seed,
        num_clients: 8,
        staleness_bound: Some(CHAOS_STALENESS_BOUND),
        breaker: Some(BreakerConfig::default()),
        validate: Some(ValidateConfig::default()),
        ..RunConfig::new(
            WorkloadSpec::fig4a(70_000.0),
            NagleSetting::Plane {
                objective: Objective::MinLatency,
                delack: true,
                cork: true,
            },
        )
    })
}

/// 4 clients → proxy → 4 shards, 512 B values, half GETs, 30 kRPS, a
/// browning-out cold shard and the full defense stack. The 800 ms warm-up
/// writes every key many times over before the first measured GET.
fn tier_brownout(seed: u64) -> Config {
    let spec = WorkloadSpec {
        set_ratio: 0.5,
        ..WorkloadSpec::shard(30_000.0)
    };
    let mut cfg = FailoverRunConfig::new(
        spec,
        FailoverArm::Full,
        Some(FailoverScenario::BrownoutCold),
    );
    cfg.warmup = Nanos::from_millis(800);
    cfg.measure = Nanos::from_millis(400);
    cfg.seed = seed;
    Config::Tier(cfg)
}

/// A host's role, for per-role CPU shares and app self time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A load generator.
    Client = 0,
    /// A Redis-like server (the star's server or a shard).
    Server = 1,
    /// The sharding proxy.
    Proxy = 2,
}

/// Every role, in metric order.
pub const ROLES: [Role; 3] = [Role::Client, Role::Server, Role::Proxy];

impl Role {
    /// Metric-name label.
    pub fn label(self) -> &'static str {
        match self {
            Role::Client => "client",
            Role::Server => "server",
            Role::Proxy => "proxy",
        }
    }
}

/// Read access to an assembled world, whatever wraps its applications.
pub trait Observed: World<Event = Event> {
    /// Number of hosts.
    fn num_hosts(&self) -> usize;
    /// Host by index.
    fn host_at(&self, idx: usize) -> &Host;
    /// Role of host `idx`.
    fn role(&self, idx: usize) -> Role;
    /// The load generators, in host order.
    fn clients(&self) -> Vec<&LancetClient>;
    /// The servers (star server or shards), in host order.
    fn servers(&self) -> Vec<&RedisServer>;
    /// The proxy, on the tier.
    fn proxy(&self) -> Option<&ProxyApp>;
    /// The topology.
    fn topo(&self) -> &Topology;
}

impl<C, S> Observed for NetSim<C, S>
where
    C: App + Borrow<LancetClient>,
    S: App + Borrow<RedisServer>,
{
    fn num_hosts(&self) -> usize {
        self.num_clients() + 1
    }
    fn host_at(&self, idx: usize) -> &Host {
        self.host(idx)
    }
    fn role(&self, idx: usize) -> Role {
        if idx < self.num_clients() {
            Role::Client
        } else {
            Role::Server
        }
    }
    fn clients(&self) -> Vec<&LancetClient> {
        self.clients.iter().map(Borrow::borrow).collect()
    }
    fn servers(&self) -> Vec<&RedisServer> {
        vec![self.server.borrow()]
    }
    fn proxy(&self) -> Option<&ProxyApp> {
        None
    }
    fn topo(&self) -> &Topology {
        self.topology()
    }
}

impl<C, P, S> Observed for TierSim<C, P, S>
where
    C: App + Borrow<LancetClient>,
    P: App + Borrow<ProxyApp>,
    S: App + Borrow<RedisServer>,
{
    fn num_hosts(&self) -> usize {
        self.num_clients() + 1 + self.num_shards()
    }
    fn host_at(&self, idx: usize) -> &Host {
        self.host(idx)
    }
    fn role(&self, idx: usize) -> Role {
        let n = self.num_clients();
        match idx {
            i if i < n => Role::Client,
            i if i == n => Role::Proxy,
            _ => Role::Server,
        }
    }
    fn clients(&self) -> Vec<&LancetClient> {
        self.clients.iter().map(Borrow::borrow).collect()
    }
    fn servers(&self) -> Vec<&RedisServer> {
        self.shards.iter().map(Borrow::borrow).collect()
    }
    fn proxy(&self) -> Option<&ProxyApp> {
        Some(self.proxy.borrow())
    }
    fn topo(&self) -> &Topology {
        self.topology()
    }
}

/// `run_point`'s TCP configuration with default overrides: exchanges on
/// in byte and message units, 500 µs apart.
fn tcp_config(nagle: NagleMode) -> TcpConfig {
    TcpConfig {
        nagle,
        exchange: ExchangeConfig {
            enabled: true,
            min_interval: Nanos::from_micros(500),
            units: [true, false, true],
        },
        ..TcpConfig::default()
    }
}

fn shield<T: batchpolicy::BatchToggler>(inner: T, b: Option<BreakerConfig>) -> CircuitBreaker<T> {
    match b {
        Some(bc) => CircuitBreaker::new(inner, bc),
        None => CircuitBreaker::disabled(inner),
    }
}

/// Assembles `run_point`'s star for the settings the workloads use
/// (`Off` and `Plane`, default overrides), each app passed through a
/// wrapper: the identity for the untraced run, a timer for the traced.
///
/// # Panics
///
/// Panics on a setting or override the workloads never use.
pub fn build_star<C: App, S: App>(
    cfg: &RunConfig,
    wrap_client: impl Fn(LancetClient) -> C,
    wrap_server: impl FnOnce(RedisServer) -> S,
) -> NetSim<C, S> {
    assert_eq!(
        cfg.overrides,
        Default::default(),
        "workloads use default overrides"
    );
    let n = cfg.num_clients;
    let plane = match cfg.nagle {
        NagleSetting::Off => None,
        NagleSetting::Plane {
            objective,
            delack,
            cork,
        } => Some((objective, delack, cork)),
        other => panic!("no workload runs {other:?}"),
    };
    let mode = if plane.is_some() {
        NagleMode::Dynamic
    } else {
        NagleMode::Off
    };
    let tcp = tcp_config(mode);
    let mut spec = cfg.workload;
    spec.rate_rps = cfg.workload.rate_rps / n as f64;
    let tick = Nanos::from_millis(1);
    let alpha = 0.4;
    let recorder = |unit: Unit| {
        let mut r = EstimateRecorder::new(unit);
        if let Some(bound) = cfg.staleness_bound {
            r = r.with_staleness_bound(bound);
        }
        if let Some(v) = cfg.validate {
            r = r.with_validation(v);
        }
        r
    };
    let plane_for = |objective: Objective, delack: bool, cork: bool, seed: u64| {
        let mut p = ControlPlane::new(EpsilonGreedy::new(objective, 0.05, 4, alpha, seed), 8);
        if delack {
            p = p.with_delack(DelAckToggler::new(
                EpsilonGreedy::new(objective, 0.05, 4, alpha, seed ^ 0xDE1A),
                tcp.delack.timeout,
            ));
        }
        if cork {
            p = p.with_cork(AimdBatchLimit::new(objective, 0, 0, 65_536, 1_448));
        }
        TickController::new(shield(p, cfg.breaker), tick)
    };

    let clients = (0..n)
        .map(|i| {
            let mut client = LancetClient::new(
                spec,
                cfg.profile.app,
                tcp,
                cfg.warmup,
                cfg.warmup + cfg.measure,
            )
            .with_recorder(recorder(Unit::Bytes))
            .with_recorder(recorder(Unit::Packets))
            .with_recorder(recorder(Unit::Messages));
            if cfg.use_hints {
                client = client.with_hints();
            }
            if let Some((objective, delack, cork)) = plane {
                let seed = cfg.seed ^ 0xC ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let mut driver =
                    PlaneDriver::new(Unit::Bytes, plane_for(objective, delack, cork, seed));
                if let Some(bound) = cfg.staleness_bound {
                    driver = driver.with_staleness_bound(bound);
                }
                if let Some(v) = cfg.validate {
                    driver = driver.with_validation(v);
                }
                client = client.with_plane(driver);
            }
            wrap_client(client)
        })
        .collect();

    let mut server = RedisServer::new(cfg.profile.app).with_hint_recorder();
    if let Some((objective, delack, cork)) = plane {
        let mut driver = ListenerPlaneDriver::new(
            Unit::Bytes,
            plane_for(objective, delack, cork, cfg.seed ^ 0x5),
        );
        if let Some(bound) = cfg.staleness_bound {
            driver = driver.with_staleness_bound(bound);
        }
        if let Some(v) = cfg.validate {
            driver = driver.with_validation(v);
        }
        server = server.with_plane(driver);
    }

    let client_hosts = (0..n).map(|i| client_host(i, &cfg.profile, tcp)).collect();
    let server_host = Host::new(
        HostId::from_index(n),
        CpuContext::new("server-app"),
        CpuContext::new("server-softirq"),
        cfg.profile.server_stack,
        tcp,
    );
    NetSim::star_with_faults(
        clients,
        wrap_server(server),
        client_hosts,
        server_host,
        LinkConfig::default(),
        cfg.seed,
        cfg.fault,
    )
}

fn client_host(i: usize, profile: &CostProfile, tcp: TcpConfig) -> Host {
    Host::new(
        HostId::from_index(i),
        CpuContext::with_multiplier("client-app", profile.client_app_multiplier),
        CpuContext::new("client-softirq"),
        profile.client_stack,
        tcp,
    )
}

/// Keys each shard owns on the consistent-hash ring.
pub fn owned_keys(router: &ShardRouter, key_space: usize) -> Vec<Vec<u64>> {
    let mut owned = vec![Vec::new(); router.num_shards()];
    for idx in 0..key_space as u64 {
        let key = format!("key:{idx:012}");
        owned[router.route(key.as_bytes())].push(idx);
    }
    owned
}

/// Assembles `run_failover_point`'s two-tier world for the brownout
/// scenario (or the never-failed oracle), without client restarts.
///
/// # Panics
///
/// Panics on a scenario or fault class the workloads never use.
pub fn build_tier<C: App, P: App, S: App>(
    cfg: &FailoverRunConfig,
    wrap_client: impl Fn(LancetClient) -> C,
    wrap_proxy: impl FnOnce(ProxyApp) -> P,
    wrap_shard: impl Fn(RedisServer) -> S,
) -> TierSim<C, P, S> {
    assert!(cfg.client_restart.is_none(), "no workload restarts clients");
    let (n, k) = (cfg.num_clients, cfg.num_shards);
    let tcp = tcp_config(NagleMode::Off);

    let router = ShardRouter::new(k, cfg.seed);
    let owned = owned_keys(&router, cfg.workload.key_space);
    let by_size = |skip: Option<usize>| {
        owned
            .iter()
            .enumerate()
            .filter(|(s, _)| Some(*s) != skip)
            .max_by_key(|(_, keys)| keys.len())
            .map(|(s, _)| s)
            .expect("at least two shards")
    };
    let hot_shard = by_size(None);
    let cold_shard = by_size(Some(hot_shard));
    let hot = owned[hot_shard].clone();
    let cold: Vec<u64> = owned
        .iter()
        .enumerate()
        .filter(|(s, _)| *s != hot_shard)
        .flat_map(|(_, keys)| keys.iter().copied())
        .collect();

    let mut skew_rng = Pcg32::named(cfg.seed, "failover.skew");
    let mut spec = cfg.workload;
    spec.rate_rps = cfg.workload.rate_rps / n as f64;
    let end = cfg.warmup + cfg.measure;
    let clients = (0..n)
        .map(|_| {
            let pool = KeyPool::new(hot.clone(), cold.clone(), cfg.hot_fraction, skew_rng.fork());
            wrap_client(
                LancetClient::new(spec, cfg.profile.app, tcp, cfg.warmup, end).with_key_pool(pool),
            )
        })
        .collect();

    let tick = Nanos::from_millis(1);
    let controllers = (0..k)
        .map(|j| {
            let seed = cfg.seed ^ 0xD ^ (j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let toggler =
                EpsilonGreedy::new(Objective::MinLatency, 0.01, 8, 0.5, seed).with_settle(3);
            TickController::new(shield(ControlPlane::new(toggler, 8), None), tick)
        })
        .collect();
    let driver =
        ProxyDriver::new(Unit::Bytes, controllers).with_validation(ValidateConfig::default());
    let shard_ids = (0..k).map(|j| HostId::from_index(n + 1 + j)).collect();
    let proxy = ProxyApp::new(cfg.profile.app, tcp, shard_ids, router).with_driver(driver);
    let retry = FailoverRunConfig::retry_config();
    let proxy = match cfg.arm {
        FailoverArm::NoDefense => proxy,
        FailoverArm::TimeoutOnly => proxy.with_resilience(Resilience::timeout_only(retry)),
        FailoverArm::Retry => proxy.with_resilience(Resilience::with_retries(retry)),
        FailoverArm::Full => {
            proxy.with_resilience(Resilience::full(retry, FailoverRunConfig::breaker_config()))
        }
    };
    let shards = (0..k)
        .map(|_| wrap_shard(RedisServer::new(cfg.profile.app)))
        .collect();

    let client_hosts = (0..n).map(|i| client_host(i, &cfg.profile, tcp)).collect();
    let proxy_host = Host::new(
        HostId::from_index(n),
        CpuContext::new("proxy-app"),
        CpuContext::new("proxy-softirq"),
        cfg.profile.client_stack,
        tcp,
    );
    let shard_hosts = (0..k)
        .map(|j| {
            Host::new(
                HostId::from_index(n + 1 + j),
                CpuContext::new("shard-app"),
                CpuContext::new("shard-softirq"),
                cfg.profile.server_stack,
                tcp,
            )
        })
        .collect();
    let fault = match cfg.scenario {
        None => FaultConfig::default(),
        Some(FailoverScenario::BrownoutCold) => FaultConfig {
            shard: ShardFaultPlan {
                brownout: Some(ShardBrownout {
                    shard: cold_shard,
                    windows: WindowSchedule {
                        first_at: cfg.warmup + Nanos::from_millis(4),
                        period: Nanos::from_millis(16),
                        duration: Nanos::from_millis(4),
                    },
                }),
                ..ShardFaultPlan::default()
            },
            start_at: cfg.warmup,
            ..FaultConfig::default()
        },
        Some(other) => panic!("no workload runs {other:?}"),
    };
    TierSim::two_tier_with_faults(
        clients,
        wrap_proxy(proxy),
        shards,
        client_hosts,
        proxy_host,
        shard_hosts,
        LinkConfig::default(),
        LinkConfig {
            propagation: Nanos::from_micros(80),
            ..LinkConfig::default()
        },
        cfg.seed,
        fault,
    )
}

/// Everything one run of a world simulates. Deterministic per sub-seed:
/// two runs of one sub-seed, traced or not, must agree in every field.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Events processed (warm-up, window and drain).
    pub events: u64,
    /// Requests the clients issued inside the measure window.
    pub issued: u64,
    /// Responses to in-window requests that the clients processed,
    /// failed-back ones included.
    pub responded: u64,
    /// Requests the proxy failed back during the window.
    pub failed_back: u64,
    /// Latencies of `responded`, merged over clients.
    pub hist: Histogram,
    /// Requests issued over the whole run.
    pub sent_total: u64,
    /// Responses processed over the whole run.
    pub completed_total: u64,
    /// Per-client goodput as the library reports it, summed in order.
    pub achieved_rps: f64,
    /// The estimator's mean latency over the window (star: byte-unit,
    /// throughput-weighted over connections; tier: the proxy's composed
    /// estimate, weighted by each shard's share of forwarded commands).
    pub estimate: Option<Nanos>,
    /// Owned keys the shards had not stored by the window start.
    pub uncovered_keys: u64,
    /// Packets over every link, both directions.
    pub link_packets: u64,
    /// Simulated busy share over the window, mean over each role's
    /// hosts: `[role][0 = app, 1 = softirq]`.
    pub cpu_util: [[f64; 2]; 3],
    /// Sockets alive at the end.
    pub sockets: u64,
    /// Payload bytes sent, summed over every socket.
    pub bytes_sent: u64,
    /// Wire packets summed over every socket.
    pub wire_packets: u64,
    /// Pure ACKs summed over every socket.
    pub pure_acks: u64,
    /// Nagle holds summed over every socket.
    pub nagle_holds: u64,
    /// Cork holds summed over every socket.
    pub cork_holds: u64,
    /// RTO retransmissions summed over every socket.
    pub retransmissions: u64,
    /// Payload bytes the clients' sockets received.
    pub client_bytes_received: u64,
    /// Exchanges received by every socket.
    pub exchanges: u64,
    /// Exchanges received by the clients' sockets.
    pub client_exchanges: u64,
    /// Validator rejections over every estimator.
    pub validator_rejects: u64,
    /// Control-plane knob switches over every plane.
    pub switches: u64,
    /// Control-plane explorations over every plane.
    pub explorations: u64,
    /// Mean batching-on share over every plane's decisions.
    pub on_fraction: f64,
    /// Breaker trips: plane breakers plus the proxy's upstream breakers.
    pub breaker_trips: u64,
    /// Requests the servers executed.
    pub server_requests: u64,
    /// Processing passes the servers made.
    pub server_batches: u64,
    /// The proxy's counters, on the tier.
    pub proxy: Option<ProxyCounters>,
}

/// The proxy-side counters `run_failover_point` reports.
#[derive(Debug, Clone)]
pub struct ProxyCounters {
    /// Commands routed upstream per shard (attempts included).
    pub per_shard: Vec<u64>,
    /// Commands admitted from clients.
    pub forwarded: u64,
    /// Responses relayed back to clients.
    pub responses: u64,
    /// Requests failed back over the whole run.
    pub failed: u64,
    /// Attempts that outlived their deadline.
    pub timeouts: u64,
    /// Retries granted.
    pub retries: u64,
    /// Hedges granted.
    pub hedges: u64,
    /// Attempts the budget denied.
    pub budget_denied: u64,
    /// Upstream breaker trips.
    pub upstream_trips: u64,
    /// Attempts redirected from the home shard.
    pub failovers: u64,
    /// Responses that arrived for an already answered request.
    pub orphans: u64,
    /// Duplicate tagged SETs the shards suppressed.
    pub dedup_hits: u64,
}

/// What the window boundaries saw.
#[derive(Debug, Default, Clone, Copy)]
pub struct Boundaries {
    /// Clients' `sent` at the window start and end.
    pub sent: [u64; 2],
    /// The proxy's `failed` at the window start and end.
    pub failed: [u64; 2],
    /// Owned keys missing from the shards at the window start.
    pub uncovered_keys: u64,
}

/// The clients' `sent` and the proxy's `failed`, summed, right now.
fn snapshot<W: Observed>(sim: &W) -> (u64, u64) {
    let sent = sim.clients().iter().map(|c| c.sent).sum();
    let failed = sim.proxy().map_or(0, |p| p.stats.failed);
    (sent, failed)
}

/// Drives a started world through warm-up, window and drain with
/// `advance`, snapshotting the window edges. Returns the events processed,
/// the edges, and the CPU snapshots taken at the warm-up boundary.
pub fn drive<W: Observed>(
    sim: &mut W,
    queue: &mut EventQueue<Event>,
    cfg: &Config,
    advance: &mut dyn FnMut(&mut W, &mut EventQueue<Event>, Nanos) -> u64,
) -> (u64, Boundaries, Vec<[BusySnapshot; 2]>) {
    let (warmup, end) = cfg.window();
    let tick = Nanos::from_nanos(1);
    let mut b = Boundaries::default();
    let mut events = advance(sim, queue, warmup - tick);
    (b.sent[0], b.failed[0]) = snapshot(sim);
    if let (Config::Tier(c), Some(proxy)) = (cfg, sim.proxy()) {
        let owned = owned_keys(proxy.router(), c.workload.key_space);
        b.uncovered_keys = sim
            .servers()
            .iter()
            .zip(&owned)
            .map(|(s, keys)| keys.len().saturating_sub(s.kv().len()) as u64)
            .sum();
    }
    events += advance(sim, queue, warmup);
    let now = queue.now();
    let cpu = (0..sim.num_hosts())
        .map(|h| {
            let host = sim.host_at(h);
            [
                host.app_cpu.busy_snapshot(now),
                host.softirq_cpu.busy_snapshot(now),
            ]
        })
        .collect();
    events += advance(sim, queue, end - tick);
    (b.sent[1], b.failed[1]) = snapshot(sim);
    events += advance(sim, queue, end);
    events += advance(sim, queue, end + DRAIN);
    (events, b, cpu)
}

/// Reads a driven world's results.
pub fn outcome<W: Observed>(
    sim: &W,
    cfg: &Config,
    events: u64,
    b: &Boundaries,
    cpu: &[[BusySnapshot; 2]],
) -> Outcome {
    let (from, to) = cfg.window();
    let clients = sim.clients();
    let servers = sim.servers();
    let mut hist = Histogram::new();
    for c in &clients {
        hist.merge(&c.hist);
    }

    let mut cpu_util = [[0.0; 2]; 3];
    let mut per_role = [0u32; 3];
    for (h, snap) in cpu.iter().enumerate() {
        let host = sim.host_at(h);
        let r = sim.role(h) as usize;
        cpu_util[r][0] += host.app_cpu.utilization_since(&snap[0], to);
        cpu_util[r][1] += host.softirq_cpu.utilization_since(&snap[1], to);
        per_role[r] += 1;
    }
    for (util, n) in cpu_util.iter_mut().zip(per_role) {
        if n > 0 {
            util[0] /= f64::from(n);
            util[1] /= f64::from(n);
        }
    }

    let mut o = Outcome {
        events,
        issued: b.sent[1] - b.sent[0],
        responded: clients.iter().map(|c| c.completed_in_window).sum(),
        failed_back: b.failed[1] - b.failed[0],
        hist,
        sent_total: clients.iter().map(|c| c.sent).sum(),
        completed_total: clients.iter().map(|c| c.completed).sum(),
        achieved_rps: clients.iter().map(|c| c.achieved_rps()).sum(),
        estimate: None,
        uncovered_keys: b.uncovered_keys,
        link_packets: (0..sim.topo().num_links())
            .map(|l| {
                let link = sim.topo().link(LinkId::from_index(l));
                link.a_to_b.packets_sent() + link.b_to_a.packets_sent()
            })
            .sum(),
        cpu_util,
        sockets: 0,
        bytes_sent: 0,
        wire_packets: 0,
        pure_acks: 0,
        nagle_holds: 0,
        cork_holds: 0,
        retransmissions: 0,
        client_bytes_received: 0,
        exchanges: 0,
        client_exchanges: 0,
        validator_rejects: 0,
        switches: 0,
        explorations: 0,
        on_fraction: 0.0,
        breaker_trips: 0,
        server_requests: servers.iter().map(|s| s.stats.requests).sum(),
        server_batches: servers.iter().map(|s| s.stats.batches).sum(),
        proxy: None,
    };
    for h in 0..sim.num_hosts() {
        let host = sim.host_at(h);
        for id in host.socket_ids() {
            let sock = host.socket(id);
            let st = sock.stats();
            o.sockets += 1;
            o.bytes_sent += st.bytes_sent;
            o.wire_packets += st.wire_packets_sent;
            o.pure_acks += st.pure_acks_sent;
            o.nagle_holds += st.nagle_holds;
            o.cork_holds += st.cork_holds;
            o.retransmissions += st.retransmissions;
            o.exchanges += sock.remote().received;
            if sim.role(h) == Role::Client {
                o.client_bytes_received += st.bytes_received;
                o.client_exchanges += sock.remote().received;
            }
        }
    }

    // Validators and planes: the clients' recorders and planes, the
    // server listener planes, and the proxy's per-shard planes.
    let mut rejects = ValidateStats::default();
    let mut on = Vec::new();
    let mut add_plane = |o: &mut Outcome, p: &ControlPlane, trips: u64, on_frac: f64| {
        o.switches += p.nagle_switches() + p.delack_switches() + p.cork_switches();
        o.explorations += p.nagle_explorations() + p.delack_explorations() + p.cork_explorations();
        o.breaker_trips += trips;
        on.push(on_frac);
    };
    for c in &clients {
        for r in &c.recorders {
            if let Some(s) = r.validation_stats() {
                rejects.merge(&s);
            }
        }
        if let Some(p) = &c.plane {
            if let Some(s) = p.recorder.validation_stats() {
                rejects.merge(&s);
            }
            add_plane(&mut o, p.plane(), p.breaker().trips(), p.on_fraction());
        }
    }
    for s in &servers {
        if let Some(p) = &s.plane {
            rejects.merge(&p.validation_stats());
            add_plane(&mut o, p.plane(), p.breaker().trips(), p.on_fraction());
        }
    }
    if let Some(proxy) = sim.proxy() {
        let d = proxy.driver.as_ref().expect("the tier proxy runs a driver");
        rejects.merge(&d.validation_stats());
        for j in 0..d.num_shards() {
            add_plane(&mut o, d.plane(j), d.breaker(j).trips(), d.on_fraction(j));
        }
        o.breaker_trips += proxy.breaker_trips();
        let stats = &proxy.stats;
        let policy = proxy.retry_policy();
        o.proxy = Some(ProxyCounters {
            per_shard: stats.per_shard.clone(),
            forwarded: stats.forwarded,
            responses: stats.responses,
            failed: stats.failed,
            timeouts: stats.timeouts,
            retries: policy.map_or(0, |p| p.retries()),
            hedges: policy.map_or(0, |p| p.hedges()),
            budget_denied: policy.map_or(0, |p| p.budget_denied()),
            upstream_trips: proxy.breaker_trips(),
            failovers: stats.failovers,
            orphans: stats.orphan_responses,
            dedup_hits: servers.iter().map(|s| s.kv().dedup_hits()).sum(),
        });
        // The back leg alone is not public; the composed (front + back)
        // estimate is the proxy's end-to-end view.
        let (mut sum, mut weight) = (0.0, 0.0);
        for (j, &w) in stats.per_shard.iter().enumerate() {
            if let Some(lat) = d.shard_mean_latency_in(j, from, to) {
                sum += lat.as_nanos() as f64 * w as f64;
                weight += w as f64;
            }
        }
        o.estimate = (weight > 0.0).then(|| Nanos::from_nanos((sum / weight) as u64));
    } else {
        // run_point's throughput-weighted byte-unit aggregate.
        let mut agg = MultiConnectionAggregator::new();
        for c in &clients {
            let r = c.recorders.iter().find(|r| r.unit == Unit::Bytes);
            let lat = r.and_then(|r| r.mean_latency_in(from, to));
            let tput = r.and_then(|r| r.mean_throughput_in(from, to));
            if let (Some(lat), Some(tput)) = (lat, tput) {
                agg.add(Estimate {
                    at: to,
                    latency: lat,
                    smoothed_latency: lat,
                    throughput: tput,
                    local_view: lat,
                    remote_view: lat,
                    confidence: 1.0,
                    remote_stale: false,
                    components: DelaySet::default(),
                });
            }
        }
        o.estimate = agg.aggregate().map(|a| a.latency);
    }
    o.validator_rejects = rejects.rejected;
    if !on.is_empty() {
        o.on_fraction = on.iter().sum::<f64>() / on.len() as f64;
    }
    o
}

/// One named field, rendered exactly.
pub type Field = (&'static str, String);

fn common(
    events: u64,
    hist: (u64, Option<Nanos>, Option<Nanos>, Option<Nanos>),
    achieved_rps: f64,
) -> Vec<Field> {
    vec![
        ("events", events.to_string()),
        ("samples", hist.0.to_string()),
        ("measured_mean", format!("{:?}", hist.1)),
        ("measured_p50", format!("{:?}", hist.2)),
        ("measured_p99", format!("{:?}", hist.3)),
        ("achieved_rps", format!("{:x}", achieved_rps.to_bits())),
    ]
}

/// The benchmark's view of the fields the library runner reports.
pub fn fingerprint(o: &Outcome) -> Vec<Field> {
    let h = &o.hist;
    let mut f = common(
        o.events,
        (h.count(), h.mean(), h.p50(), h.p99()),
        o.achieved_rps,
    );
    match &o.proxy {
        None => f.extend([
            ("estimated_bytes", format!("{:?}", o.estimate)),
            ("packets", o.link_packets.to_string()),
            ("nagle_holds", o.nagle_holds.to_string()),
            ("exchanges_received", o.client_exchanges.to_string()),
            (
                "server_cpu",
                format!("{:?}", o.cpu_util[Role::Server as usize]),
            ),
            ("validation_rejected", o.validator_rejects.to_string()),
        ]),
        Some(p) => f.extend([
            ("per_shard_requests", format!("{:?}", p.per_shard)),
            ("failed", p.failed.to_string()),
            ("timeouts", p.timeouts.to_string()),
            ("retries", p.retries.to_string()),
            ("hedges", p.hedges.to_string()),
            ("budget_denied", p.budget_denied.to_string()),
            ("breaker_trips", p.upstream_trips.to_string()),
            ("failovers", p.failovers.to_string()),
            ("orphan_responses", p.orphans.to_string()),
            ("dedup_hits", p.dedup_hits.to_string()),
        ]),
    }
    f
}

/// The same fields, from `run_point`.
pub fn point_fingerprint(r: &PointResult) -> Vec<Field> {
    let mut f = common(
        r.events,
        (r.samples, r.measured_mean, r.measured_p50, r.measured_p99),
        r.achieved_rps,
    );
    f.extend([
        ("estimated_bytes", format!("{:?}", r.estimated_bytes)),
        (
            "packets",
            (r.packets_to_server + r.packets_to_client).to_string(),
        ),
        ("nagle_holds", r.nagle_holds.to_string()),
        ("exchanges_received", r.exchanges_received.to_string()),
        (
            "server_cpu",
            format!("{:?}", [r.server_cpu.app, r.server_cpu.softirq]),
        ),
        (
            "validation_rejected",
            r.validation.map_or(0, |v| v.rejected).to_string(),
        ),
    ]);
    f
}

/// The same fields, from `run_failover_point`.
pub fn failover_fingerprint(r: &FailoverPointResult) -> Vec<Field> {
    let mut f = common(
        r.events,
        (r.samples, r.measured_mean, r.measured_p50, r.measured_p99),
        r.achieved_rps,
    );
    f.extend([
        ("per_shard_requests", format!("{:?}", r.per_shard_requests)),
        ("failed", r.failed.to_string()),
        ("timeouts", r.timeouts.to_string()),
        ("retries", r.retries.to_string()),
        ("hedges", r.hedges.to_string()),
        ("budget_denied", r.budget_denied.to_string()),
        ("breaker_trips", r.breaker_trips.to_string()),
        ("failovers", r.failovers.to_string()),
        ("orphan_responses", r.orphan_responses.to_string()),
        ("dedup_hits", r.dedup_hits.to_string()),
    ]);
    f
}
