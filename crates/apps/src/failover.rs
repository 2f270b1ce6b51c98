//! Running one two-tier (sharded proxy) experiment point.
//!
//! The star harness ([`crate::runner`]) measures one leg; this one
//! measures the composed path of the datacenter topology: N load
//! generators fan into a [`ProxyApp`](crate::proxy::ProxyApp) which
//! routes by key over K [`RedisServer`] shards. The proxy runs the
//! estimation machinery on *both* legs and composes them per shard
//! (client→proxy + proxy→shard, Figure 3 terms summed), so the run
//! reports a per-shard service-level estimate. The workload is skewed: a
//! configurable fraction of requests draw keys owned by one *hot* shard
//! (the shard owning the largest slice of the key space), the rest
//! spread over the cold shards.
//!
//! One runner serves two studies:
//!
//! * **Batching** ([`FailoverRunConfig::upstream`] set): a healthy tier,
//!   comparing [`ShardSetting::Corner`] (one global static batching
//!   choice for every upstream) against [`ShardSetting::Adaptive`]
//!   (per-shard planes free to batch the hot upstream while leaving cold
//!   ones latency-optimal).
//! * **Survival** (`upstream: None`, every leg `TCP_NODELAY`): a
//!   tier-aware [`ShardFaultPlan`](simnet::ShardFaultPlan) kills or
//!   browns out shards mid-run, against a ladder of proxy defense arms
//!   ([`FailoverArm`]): the naive no-defense proxy, deadlines only,
//!   budgeted retries, and the full retry + hedge + breaker stack with
//!   ring-successor failover routing. Each arm is compared against the
//!   *never-failed oracle* — the identical configuration with the fault
//!   plan disabled. A defense stack earns its keep when its P99 and
//!   goodput stay within a small factor of the oracle while the naive
//!   proxy collapses (a dead hot shard head-of-line-blocks every
//!   client's pipelined connection).

use batchpolicy::{BreakerConfig, ControlPlane, EpsilonGreedy, Objective, RetryConfig, TickController};
use e2e_core::{AggregateEstimate, ValidateConfig};
use littles::Nanos;
use simnet::{
    run, CpuContext, EventQueue, FaultConfig, Histogram, LinkConfig, Pcg32, RestartSchedule,
    ShardBrownout, ShardFaultPlan, WindowSchedule,
};
use tcpsim::{Host, HostId, NagleMode, TierSim, Unit};

use crate::cost::CostProfile;
use crate::driver::ProxyDriver;
use crate::loadgen::{KeyPool, LancetClient};
use crate::proxy::{ProxyApp, Resilience, ShardRouter};
use crate::runner::{shield, tcp_config, CpuUtil, Overrides};
use crate::server::RedisServer;
use crate::workload::WorkloadSpec;

/// How the proxy's upstream (proxy → shard) batching is controlled in the
/// batching study. The client → proxy leg stays `TCP_NODELAY` in every
/// arm so the comparison isolates the knob under study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShardSetting {
    /// One static choice applied to every upstream connection.
    Corner {
        /// Nagle enabled on every upstream.
        nagle: bool,
    },
    /// Per-shard control planes at the proxy, each deciding on its
    /// shard's back-leg estimate (the leg the knob controls) while the
    /// composed two-leg estimate provides the service-level ranking.
    Adaptive {
        /// The optimization objective.
        objective: Objective,
    },
}

/// The proxy's defense ladder, weakest to strongest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailoverArm {
    /// The naive proxy: no deadlines, no reconnect. A reset upstream is
    /// forgotten and every request routed to it is silently lost.
    NoDefense,
    /// Per-attempt deadlines only: stranded requests fail fast back to
    /// the client, and reset upstreams are re-dialed — but nothing is
    /// ever re-sent.
    TimeoutOnly,
    /// Deadlines plus budgeted retries with backoff, alternating between
    /// the home shard and its ring-successor failover replica.
    Retry,
    /// The full stack: retries, estimate-driven hedging to the failover
    /// replica, and per-upstream breakers redirecting traffic away from
    /// a dead shard at admit time.
    Full,
}

impl FailoverArm {
    /// All arms, weakest first.
    pub const ALL: [FailoverArm; 4] = [
        FailoverArm::NoDefense,
        FailoverArm::TimeoutOnly,
        FailoverArm::Retry,
        FailoverArm::Full,
    ];

    /// Stable lowercase label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            FailoverArm::NoDefense => "no_defense",
            FailoverArm::TimeoutOnly => "timeout_only",
            FailoverArm::Retry => "retry",
            FailoverArm::Full => "full",
        }
    }
}

/// What goes wrong mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailoverScenario {
    /// The hot shard (owner of the skewed traffic) crashes a quarter of
    /// the way into the measurement window: both ends of its proxy link
    /// reset, in-flight requests die. The host keeps listening, so a
    /// defense that re-dials recovers; the naive proxy never does.
    CrashHot,
    /// A cold shard's application thread browns out periodically
    /// (GC-pause-like stalls), stretching its service time far past the
    /// healthy tail without ever dropping the connection.
    BrownoutCold,
}

impl FailoverScenario {
    /// Both scenarios, in grid order.
    pub const ALL: [FailoverScenario; 2] =
        [FailoverScenario::CrashHot, FailoverScenario::BrownoutCold];

    /// Stable lowercase label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            FailoverScenario::CrashHot => "crash_hot",
            FailoverScenario::BrownoutCold => "brownout_cold",
        }
    }
}

/// Everything that defines one two-tier experiment point.
#[derive(Debug, Clone, Copy)]
pub struct FailoverRunConfig {
    /// The aggregate workload (rate split evenly across clients; keys
    /// drawn from the skewed pool, not the round-robin walk).
    pub workload: WorkloadSpec,
    /// CPU cost profile (clients and the proxy use the client stack —
    /// the proxy is a lean router — shards the server stack).
    pub profile: CostProfile,
    /// The proxy's defense arm.
    pub arm: FailoverArm,
    /// The injected fault; `None` is the never-failed oracle.
    pub scenario: Option<FailoverScenario>,
    /// Warmup duration (excluded from measurement).
    pub warmup: Nanos,
    /// Measurement duration.
    pub measure: Nanos,
    /// RNG seed.
    pub seed: u64,
    /// Client hosts fanning into the proxy.
    pub num_clients: usize,
    /// Shard hosts behind the proxy.
    pub num_shards: usize,
    /// Fraction of requests drawing keys owned by the hot shard.
    pub hot_fraction: f64,
    /// Optional client-endpoint restart chaos (the PR-5 fault class),
    /// layered on top of the scenario's shard faults. Restart victims
    /// draw from `fault.restart`, shard-crash victims from
    /// `fault.shard_crash` — composing the two shifts neither stream.
    pub client_restart: Option<RestartSchedule>,
    /// Upstream batching under study. `None` is the failover study: every
    /// upstream pinned `TCP_NODELAY` with the planes scoring `MinLatency`
    /// (inert on the pinned sockets), so defense arms compare on identical
    /// transport behaviour, and skew drawn from its own stream.
    pub upstream: Option<ShardSetting>,
}

impl FailoverRunConfig {
    /// A standard two-tier run: 4 clients, 4 shards, 70% hot traffic,
    /// 200 ms warmup, 800 ms measurement, no upstream batching under
    /// study.
    pub fn new(workload: WorkloadSpec, arm: FailoverArm, scenario: Option<FailoverScenario>) -> Self {
        FailoverRunConfig {
            workload,
            profile: CostProfile::shard_tier(),
            arm,
            scenario,
            warmup: Nanos::from_millis(200),
            measure: Nanos::from_millis(800),
            seed: 0xFA11,
            num_clients: 4,
            num_shards: 4,
            hot_fraction: 0.7,
            client_restart: None,
            upstream: None,
        }
    }

    /// The retry/hedge tuning every resilient arm runs with.
    pub fn retry_config() -> RetryConfig {
        RetryConfig::default()
    }

    /// The breaker tuning the full arm runs with.
    pub fn breaker_config() -> BreakerConfig {
        BreakerConfig {
            min_confidence: 0.2,
            trip_after: 4,
            safe_on: false,
            initial_backoff: Nanos::from_millis(1),
            max_backoff: Nanos::from_millis(8),
            restore_after: 2,
        }
    }
}

/// The result of one two-tier run.
#[derive(Debug, Clone)]
pub struct FailoverPointResult {
    /// Offered aggregate load (requests/second).
    pub offered_rps: f64,
    /// Achieved goodput across every client.
    pub achieved_rps: f64,
    /// Measured mean end-to-end latency (client arrival → response
    /// processed, both legs included).
    pub measured_mean: Option<Nanos>,
    /// Measured median latency.
    pub measured_p50: Option<Nanos>,
    /// Measured 99th-percentile latency.
    pub measured_p99: Option<Nanos>,
    /// Latency samples in the window.
    pub samples: u64,
    /// The shard owning the hot key pool (the crash victim).
    pub hot_shard: usize,
    /// The browned-out cold shard (victim of `BrownoutCold`).
    pub cold_shard: usize,
    /// Commands the proxy routed to each shard.
    pub per_shard_requests: Vec<u64>,
    /// Shard crashes the fault plan fired.
    pub shard_crashes: u64,
    /// Client-endpoint restarts the fault plan fired.
    pub endpoint_restarts: u64,
    /// Peer epoch changes the proxy's back-leg registries detected — a
    /// crashed shard's replacement connection announces a new counter
    /// generation, and the estimator resynchronizes instead of computing
    /// a garbage delta across the wipe.
    pub back_epoch_changes: u64,
    /// Upstream connection resets the proxy observed.
    pub upstream_resets: u64,
    /// Attempts that outlived their deadline.
    pub timeouts: u64,
    /// Requests failed back to clients.
    pub failed: u64,
    /// Retries granted by the budget.
    pub retries: u64,
    /// Hedges granted by the budget.
    pub hedges: u64,
    /// Attempts denied by the exhausted budget.
    pub budget_denied: u64,
    /// Breaker trips across shards.
    pub breaker_trips: u64,
    /// Attempts redirected away from their home shard.
    pub failovers: u64,
    /// Hedge/retry losers whose responses arrived after the winner.
    pub orphan_responses: u64,
    /// Duplicate tagged SETs suppressed by the shards' idempotency
    /// windows (summed across shards).
    pub dedup_hits: u64,
    /// Mean composed (two-leg) estimated latency per shard over the
    /// measurement window.
    pub shard_estimates: Vec<Option<Nanos>>,
    /// Measured back-leg (proxy → shard) round-trip p99 per shard, over
    /// the whole run including warmup — the ground truth behind the
    /// back-leg estimates.
    pub shard_rtt_p99: Vec<Option<Nanos>>,
    /// Fraction of proxy ticks in the measurement window, among those
    /// every shard reported, at which the hot shard's composed estimate
    /// ranked highest — the "can the estimate find the hot shard"
    /// acceptance metric.
    pub hot_rank_fraction: Option<f64>,
    /// Fraction of plane decisions with batching on, per shard
    /// (meaningful for [`ShardSetting::Adaptive`]; the planes still run,
    /// inert, on statically pinned upstreams).
    pub shard_on_fraction: Vec<f64>,
    /// Each shard plane's learned (off, on) arm scores at the end of the
    /// run (negated µs under `MinLatency`; `None` = arm never scored).
    pub shard_arm_scores: Vec<(Option<f64>, Option<f64>)>,
    /// Proxy-host CPU utilization over the window.
    pub proxy_cpu: CpuUtil,
    /// Simulator events processed.
    pub events: u64,
}

/// Builds the fault plan for a scenario (empty = oracle, bit-identical
/// to a fault-free run).
fn fault_config(cfg: &FailoverRunConfig, hot_shard: usize, cold_shard: usize) -> FaultConfig {
    let Some(scenario) = cfg.scenario else {
        return FaultConfig {
            restart: cfg.client_restart,
            ..FaultConfig::default()
        };
    };
    let shard = match scenario {
        // One decisive crash a quarter into the measurement window,
        // pinned to the hot shard (pinned victims draw nothing from the
        // crash stream, keeping the cell replayable by inspection).
        FailoverScenario::CrashHot => ShardFaultPlan {
            crash: Some(RestartSchedule {
                first_at: cfg.warmup + Nanos::from_nanos(cfg.measure.as_nanos() / 4),
                period: Nanos::ZERO,
            }),
            crash_target: Some(hot_shard),
            ..ShardFaultPlan::default()
        },
        // Periodic 4 ms app-thread stalls at 25% duty cycle on a cold
        // shard: connections stay up, service time stretches ~20× past
        // the healthy tail inside each window.
        FailoverScenario::BrownoutCold => ShardFaultPlan {
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
    };
    FaultConfig {
        shard,
        restart: cfg.client_restart,
        start_at: cfg.warmup,
        ..FaultConfig::default()
    }
}

/// Fraction of proxy ticks in `[from, to)` at which the hot shard's
/// composed smoothed latency ranked strictly highest across shards. A
/// shard's series starts at its first back-leg aggregate and skips ticks
/// while its upstream is down, so the series are joined on the tick
/// timestamp and only ticks that every shard reported count.
fn hot_rank_fraction(
    series: &[Vec<(Nanos, AggregateEstimate)>],
    hot: usize,
    from: Nanos,
    to: Nanos,
) -> Option<f64> {
    let (mut ranked, mut total) = (0u64, 0u64);
    'ticks: for (at, hot_est) in series[hot].iter().filter(|(at, _)| (from..to).contains(at)) {
        let mut hottest = true;
        for (j, s) in series.iter().enumerate() {
            let Ok(i) = s.binary_search_by_key(at, |(t, _)| *t) else {
                continue 'ticks;
            };
            hottest &= j == hot || s[i].1.smoothed_latency < hot_est.smoothed_latency;
        }
        total += 1;
        ranked += u64::from(hottest);
    }
    (total > 0).then(|| ranked as f64 / total as f64)
}

/// Executes one two-tier experiment point.
pub fn run_failover_point(cfg: &FailoverRunConfig) -> FailoverPointResult {
    let n = cfg.num_clients;
    let k = cfg.num_shards;
    assert!(n > 0, "a run needs at least one client");
    assert!(k > 1, "a two-tier run needs at least two shards");

    let ov = Overrides::default();
    // Front leg pinned NODELAY in every run; only the upstream mode
    // varies (Dynamic so per-shard planes can actuate, or a static pin).
    let front_tcp = tcp_config(NagleMode::Off, &ov);
    let (upstream_mode, objective) = match cfg.upstream {
        None | Some(ShardSetting::Corner { nagle: false }) => {
            (NagleMode::Off, Objective::MinLatency)
        }
        Some(ShardSetting::Corner { nagle: true }) => (NagleMode::On, Objective::MinLatency),
        Some(ShardSetting::Adaptive { objective }) => (NagleMode::Dynamic, objective),
    };
    let upstream_tcp = tcp_config(upstream_mode, &ov);
    // Shards answer with NODELAY in every run: the knob under study is
    // the proxy's request batching, not the shard's response batching.
    let shard_tcp = tcp_config(NagleMode::Off, &ov);

    // Key → shard ownership and the hot/cold split. The hot shard is the
    // one owning the largest slice (deterministic in the seed).
    let router = ShardRouter::new(k, cfg.seed);
    let mut owned: Vec<Vec<u64>> = vec![Vec::new(); k];
    for idx in 0..cfg.workload.key_space as u64 {
        let key = format!("key:{idx:012}");
        owned[router.route(key.as_bytes())].push(idx);
    }
    let hot_shard = owned
        .iter()
        .enumerate()
        .max_by_key(|(_, keys)| keys.len())
        .map(|(s, _)| s)
        .expect("at least one shard");
    // The brownout victim: the cold shard owning the most keys (so the
    // stalls hit real traffic without touching the hot path).
    let cold_shard = owned
        .iter()
        .enumerate()
        .filter(|(s, _)| *s != hot_shard)
        .max_by_key(|(_, keys)| keys.len())
        .map(|(s, _)| s)
        .expect("at least two shards");
    let cold: Vec<u64> = owned
        .iter()
        .enumerate()
        .filter(|(s, _)| *s != hot_shard)
        .flat_map(|(_, keys)| keys.iter().copied())
        .collect();

    // The skew stream: forked per client so the draws never perturb
    // arrival/value RNG sequences. The batching and failover studies
    // each draw from their own declared stream so their published grids
    // never correlate draws.
    let mut skew_rng = match cfg.upstream {
        Some(_) => Pcg32::named(cfg.seed, "shard.skew"),
        None => Pcg32::named(cfg.seed, "failover.skew"),
    };
    let mut spec = cfg.workload;
    spec.rate_rps = cfg.workload.rate_rps / n as f64;
    let end = cfg.warmup + cfg.measure;

    let clients: Vec<LancetClient> = (0..n)
        .map(|_| {
            LancetClient::new(spec, cfg.profile.app, front_tcp, cfg.warmup, end).with_key_pool(
                KeyPool::new(
                    owned[hot_shard].clone(),
                    cold.clone(),
                    cfg.hot_fraction,
                    skew_rng.fork(),
                ),
            )
        })
        .collect();

    // Per-shard estimation planes run in every run: Nagle bandits seeded
    // independently per shard (0xD keeps the streams disjoint from the
    // star harness's client policies at 0xC and listener at 0x5). The
    // full arm's hedge timing and breaker confidence feed read them; on
    // statically pinned upstreams their Nagle actuation is inert, so
    // every arm pays the same estimation overhead and the comparison
    // isolates the knob or the defense, not the estimator.
    let tick = Nanos::from_millis(1);
    let controllers = (0..k)
        .map(|j| {
            let seed = cfg.seed ^ 0xD ^ (j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            // Calmer than the star harness's client planes (ε .05, dwell
            // 4, α .4): a wrong arm on a saturated shard is catastrophic,
            // so the per-shard bandits explore rarely, dwell longer, and
            // smooth harder — the per-window signal between arms is tens
            // of µs against comparable sampling noise on a sparse
            // upstream. The settle period keeps post-switch windows
            // (still dominated by the previous arm's traffic) from being
            // credited to the new arm.
            let toggler = EpsilonGreedy::new(objective, 0.01, 8, 0.5, seed).with_settle(3);
            let plane = ControlPlane::new(toggler, 8);
            TickController::new(shield(plane, None), tick)
        })
        .collect();
    // Peer-state validation on every registry: after a shard crash the
    // replacement connection's exchanges carry a new epoch, and the back
    // registry must resynchronize rather than difference counters across
    // the wipe.
    let driver =
        ProxyDriver::new(Unit::Bytes, controllers).with_validation(ValidateConfig::default());

    let shard_hosts_ids: Vec<HostId> = (0..k).map(|j| HostId::from_index(n + 1 + j)).collect();
    let mut proxy = ProxyApp::new(cfg.profile.app, upstream_tcp, shard_hosts_ids, router.clone())
        .with_driver(driver);
    let retry = FailoverRunConfig::retry_config();
    proxy = match cfg.arm {
        FailoverArm::NoDefense => proxy,
        FailoverArm::TimeoutOnly => proxy.with_resilience(Resilience::timeout_only(retry)),
        FailoverArm::Retry => proxy.with_resilience(Resilience::with_retries(retry)),
        FailoverArm::Full => proxy.with_resilience(Resilience::full(
            retry,
            FailoverRunConfig::breaker_config(),
        )),
    };

    let shards: Vec<RedisServer> = (0..k).map(|_| RedisServer::new(cfg.profile.app)).collect();

    let client_hosts: Vec<Host> = (0..n)
        .map(|i| {
            Host::new(
                HostId::from_index(i),
                CpuContext::with_multiplier("client-app", cfg.profile.client_app_multiplier),
                CpuContext::new("client-softirq"),
                cfg.profile.client_stack,
                front_tcp,
            )
        })
        .collect();
    // The proxy runs the lean client stack: it is an L7 router, not a
    // store — parse, hash, re-frame. Keeping it off the critical path
    // lets the back-leg queueing (the hot *shard's* backlog) dominate
    // each shard's composed estimate instead of shared proxy read delay.
    let proxy_host = Host::new(
        HostId::from_index(n),
        CpuContext::new("proxy-app"),
        CpuContext::new("proxy-softirq"),
        cfg.profile.client_stack,
        front_tcp, // accept config for client-facing connections
    );
    let shard_hosts: Vec<Host> = (0..k)
        .map(|j| {
            Host::new(
                HostId::from_index(n + 1 + j),
                CpuContext::new("shard-app"),
                CpuContext::new("shard-softirq"),
                cfg.profile.server_stack,
                shard_tcp, // accept config for the proxy's upstreams
            )
        })
        .collect();

    // The back leg crosses the fabric (proxy and shards sit in different
    // racks), so its propagation is real: a Nagle hold on an upstream
    // waits a full ACK round trip. That is what makes the knob a genuine
    // per-shard tradeoff — on a sparse cold upstream a held request eats
    // the round trip for nothing, while on the hot upstream the same hold
    // window coalesces several requests into one delivery and spares the
    // shard's receive path.
    let back_link = LinkConfig {
        propagation: Nanos::from_micros(80),
        ..LinkConfig::default()
    };
    let mut sim = TierSim::two_tier_with_faults(
        clients,
        proxy,
        shards,
        client_hosts,
        proxy_host,
        shard_hosts,
        LinkConfig::default(),
        back_link,
        cfg.seed,
        fault_config(cfg, hot_shard, cold_shard),
    );
    let mut queue = EventQueue::new();
    sim.start(&mut queue);

    let mut events = run(&mut sim, &mut queue, cfg.warmup);
    let proxy_snap = (
        sim.proxy_host().app_cpu.busy_snapshot(queue.now()),
        sim.proxy_host().softirq_cpu.busy_snapshot(queue.now()),
    );
    events += run(&mut sim, &mut queue, end);
    events += run(&mut sim, &mut queue, end + Nanos::from_millis(20));

    let (from, to) = (cfg.warmup, end);
    let proxy_host = sim.proxy_host();
    let proxy_cpu = CpuUtil {
        app: proxy_host.app_cpu.utilization_since(&proxy_snap.0, to),
        softirq: proxy_host.softirq_cpu.utilization_since(&proxy_snap.1, to),
    };

    let mut hist = Histogram::new();
    for lg in &sim.clients {
        hist.merge(&lg.hist);
    }
    let achieved_rps: f64 = sim.clients.iter().map(|lg| lg.achieved_rps()).sum();
    let dedup_hits: u64 = (0..k).map(|j| sim.shards[j].kv().dedup_hits()).sum();
    let shard_crashes = sim.fault_plan().map(|p| p.shard_crashes()).unwrap_or(0);
    let endpoint_restarts = sim.fault_plan().map(|p| p.restarts()).unwrap_or(0);
    let driver = sim.proxy.driver.as_ref().expect("driver attached above");
    let back_epoch_changes = (0..k)
        .map(|j| driver.back_validation_stats(j).epoch_changes)
        .sum();

    let stats = &sim.proxy.stats;
    let (retries, hedges, budget_denied) = sim
        .proxy
        .retry_policy()
        .map(|p| (p.retries(), p.hedges(), p.budget_denied()))
        .unwrap_or((0, 0, 0));

    FailoverPointResult {
        offered_rps: cfg.workload.rate_rps,
        achieved_rps,
        measured_mean: hist.mean(),
        measured_p50: hist.p50(),
        measured_p99: hist.p99(),
        samples: hist.count(),
        hot_shard,
        cold_shard,
        per_shard_requests: stats.per_shard.clone(),
        shard_crashes,
        endpoint_restarts,
        back_epoch_changes,
        upstream_resets: stats.upstream_resets,
        timeouts: stats.timeouts,
        failed: stats.failed,
        retries,
        hedges,
        budget_denied,
        breaker_trips: sim.proxy.breaker_trips(),
        failovers: stats.failovers,
        orphan_responses: stats.orphan_responses,
        dedup_hits,
        shard_estimates: (0..k)
            .map(|j| driver.shard_mean_latency_in(j, from, to))
            .collect(),
        shard_rtt_p99: stats.back_rtt.iter().map(|h| h.p99()).collect(),
        hot_rank_fraction: hot_rank_fraction(&driver.shard_series, hot_shard, from, to),
        shard_on_fraction: (0..k).map(|j| driver.on_fraction(j)).collect(),
        shard_arm_scores: (0..k)
            .map(|j| {
                let p = driver.plane(j);
                (p.nagle_arm_score(false), p.nagle_arm_score(true))
            })
            .collect(),
        proxy_cpu,
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_cfg(arm: FailoverArm, scenario: Option<FailoverScenario>) -> FailoverRunConfig {
        let mut cfg = FailoverRunConfig::new(WorkloadSpec::shard(8_000.0), arm, scenario);
        cfg.num_clients = 2;
        cfg.num_shards = 3;
        cfg.warmup = Nanos::from_millis(50);
        cfg.measure = Nanos::from_millis(250);
        cfg
    }

    #[test]
    fn oracle_run_is_healthy_and_quiet() {
        let r = run_failover_point(&smoke_cfg(FailoverArm::Full, None));
        assert!(r.samples > 500, "only {} samples", r.samples);
        assert!(r.achieved_rps > 0.8 * r.offered_rps);
        assert_eq!(r.shard_crashes, 0);
        assert_eq!(r.upstream_resets, 0);
        assert_eq!(r.failed, 0, "oracle must not fail requests");
    }

    #[test]
    fn hot_rank_joins_shards_on_the_tick_timestamp() {
        let est = |us: u64| AggregateEstimate {
            at: Nanos::ZERO,
            latency: Nanos::from_micros(us),
            smoothed_latency: Nanos::from_micros(us),
            throughput: 1.0,
            connections: 1,
            confidence: 1.0,
            stale_connections: 0,
            components: Default::default(),
        };
        let ms = Nanos::from_millis;
        // Ticks every 1 ms and every latency grows with time, the hot
        // shard (1) always 5 µs above the cold ones at the same tick
        // except at 8 ms. Cold shard 0's series starts a tick late and
        // cold shard 2 misses the 5 ms tick (upstream down), so pairing
        // by index would compare estimates from different ticks.
        let series: Vec<Vec<(Nanos, AggregateEstimate)>> = vec![
            (2..=9).map(|t| (ms(t), est(10 * t))).collect(),
            (1..=9)
                .map(|t| (ms(t), est(if t == 8 { 1 } else { 10 * t + 5 })))
                .collect(),
            (1..=9)
                .filter(|&t| t != 5)
                .map(|t| (ms(t), est(10 * t)))
                .collect(),
        ];
        // Joint ticks 2, 3, 4, 6, 7, 8, 9: ranked at all but 8 ms.
        assert_eq!(
            hot_rank_fraction(&series, 1, ms(1), ms(10)),
            Some(6.0 / 7.0)
        );
        // The window bounds the ticks: [from, to).
        assert_eq!(hot_rank_fraction(&series, 1, ms(3), ms(8)), Some(1.0));
        // No tick every shard reported: no ranking.
        assert_eq!(hot_rank_fraction(&series, 1, ms(1), ms(2)), None);
    }

    #[test]
    fn crash_collapses_the_naive_proxy_but_not_the_full_stack() {
        let naive = run_failover_point(&smoke_cfg(
            FailoverArm::NoDefense,
            Some(FailoverScenario::CrashHot),
        ));
        let full = run_failover_point(&smoke_cfg(
            FailoverArm::Full,
            Some(FailoverScenario::CrashHot),
        ));
        let oracle = run_failover_point(&smoke_cfg(FailoverArm::Full, None));
        assert_eq!(naive.shard_crashes, 1);
        assert_eq!(full.shard_crashes, 1);
        assert!(full.upstream_resets >= 1);
        // The naive proxy loses the hot shard's traffic for good.
        assert!(
            naive.achieved_rps < 0.7 * oracle.achieved_rps,
            "naive goodput {} vs oracle {}",
            naive.achieved_rps,
            oracle.achieved_rps
        );
        // The full stack recovers to near-oracle goodput.
        assert!(
            full.achieved_rps > 0.9 * oracle.achieved_rps,
            "full goodput {} vs oracle {}",
            full.achieved_rps,
            oracle.achieved_rps
        );
    }

    #[test]
    fn brownout_exercises_retries_and_hedges() {
        let r = run_failover_point(&smoke_cfg(
            FailoverArm::Full,
            Some(FailoverScenario::BrownoutCold),
        ));
        assert!(r.timeouts + r.hedges > 0, "fault plan never bit");
        assert!(
            r.retries + r.hedges > 0,
            "defense never engaged: {r:?}"
        );
    }

    #[test]
    fn shard_crash_resyncs_the_back_leg_epoch() {
        let oracle = run_failover_point(&smoke_cfg(FailoverArm::Full, None));
        assert_eq!(
            oracle.back_epoch_changes, 0,
            "no crash, no new counter generation"
        );
        let crashed = run_failover_point(&smoke_cfg(
            FailoverArm::Full,
            Some(FailoverScenario::CrashHot),
        ));
        // The replacement upstream announces a fresh epoch; the proxy's
        // back registry resynchronizes instead of differencing counters
        // across the wipe.
        assert!(
            crashed.back_epoch_changes > 0,
            "back leg never saw the crashed shard's new epoch: {crashed:?}"
        );
    }

    #[test]
    fn endpoint_restart_chaos_composes_with_shard_crash() {
        let mut cfg = smoke_cfg(FailoverArm::Full, Some(FailoverScenario::CrashHot));
        cfg.client_restart = Some(RestartSchedule {
            first_at: cfg.warmup + Nanos::from_millis(40),
            period: Nanos::from_millis(80),
        });
        let a = run_failover_point(&cfg);
        assert_eq!(a.shard_crashes, 1, "the shard fault still fires");
        assert!(a.endpoint_restarts > 0, "the client fault still fires");
        assert!(a.samples > 500, "clients keep measuring through both");
        // Composing the two chaos kinds stays deterministic: each draws
        // from its own named stream.
        let b = run_failover_point(&cfg);
        assert_eq!(a.events, b.events);
        assert_eq!(a.measured_p99, b.measured_p99);
        assert_eq!(a.endpoint_restarts, b.endpoint_restarts);
    }

    #[test]
    fn crash_cell_replays_bit_identically() {
        let cfg = smoke_cfg(FailoverArm::Full, Some(FailoverScenario::CrashHot));
        let a = run_failover_point(&cfg);
        let b = run_failover_point(&cfg);
        assert_eq!(a.events, b.events);
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.measured_p99, b.measured_p99);
        assert_eq!(a.per_shard_requests, b.per_shard_requests);
        assert_eq!(a.retries, b.retries);
        assert_eq!(a.hedges, b.hedges);
        assert_eq!(a.breaker_trips, b.breaker_trips);
    }
}
