//! Estimation and policy plumbing shared by client and server apps.
//!
//! A [`PlaneDriver`] is what an endpoint runs on its periodic tick: it
//! snapshots the socket's local queues, pairs them with the peer's latest
//! exchange, updates an [`E2eEstimator`], records the estimate series (the
//! "estimated" curves of Figure 4), and actuates the knobs its
//! [`ControlPlane`] decides. [`ListenerPlaneDriver`] is the listener-wide
//! form and [`ProxyDriver`] the per-shard form of the same loop.

use batchpolicy::{AimdBatchLimit, BreakerState, CircuitBreaker, ControlPlane, TickController};
use e2e_core::combine::{combine_delays, EndpointSnapshots, EndpointWindows};
use e2e_core::compose::compose_two;
use e2e_core::hints::{HintEstimate, HintEstimator};
use e2e_core::{
    AggregateEstimate, E2eEstimator, Estimate, EstimatorRegistry, ValidateConfig, ValidateStats,
};
use littles::wire::{WireExchange, WireScale};
use littles::Nanos;
use tcpsim::{HostCtx, KnobSetting, SocketId, Unit};

/// One recorded estimate sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimateSample {
    /// Sample time.
    pub at: Nanos,
    /// The estimate.
    pub estimate: Estimate,
}

/// One socket's estimator inputs at `now`, in `unit`: its local queue
/// snapshots, the peer's latest exchanged window, and the smoothed RTT
/// that anchors the validator's delay bound (ignored when validation is
/// off).
fn socket_inputs(
    ctx: &HostCtx<'_>,
    sock: SocketId,
    now: Nanos,
    unit: Unit,
) -> (EndpointSnapshots, Option<WireExchange>, Option<Nanos>) {
    let socket = ctx.socket(sock);
    let snaps = socket.local_snapshots(now, unit);
    let local = EndpointSnapshots {
        unacked: snaps.unacked,
        unread: snaps.unread,
        ackdelay: snaps.ackdelay,
    };
    (local, socket.remote().unit(unit).cur, socket.srtt())
}

/// Fraction of recorded decisions with batching on (0 before the first).
fn on_fraction(toggles: &[(Nanos, bool)]) -> f64 {
    if toggles.is_empty() {
        return 0.0;
    }
    toggles.iter().filter(|(_, on)| *on).count() as f64 / toggles.len() as f64
}

/// Mean of the latencies sampled in `[from, to)`, or `None` if none was.
pub(crate) fn mean_latency_in(
    samples: impl IntoIterator<Item = (Nanos, Nanos)>,
    from: Nanos,
    to: Nanos,
) -> Option<Nanos> {
    let mut sum = 0u128;
    let mut n = 0u64;
    for (at, latency) in samples {
        if at >= from && at < to {
            sum += latency.as_nanos() as u128;
            n += 1;
        }
    }
    (n > 0).then(|| Nanos::from_nanos((sum / n as u128) as u64))
}

/// Per-unit estimate recording (no actuation).
///
/// The series grows by one sample per tick for the lifetime of the run;
/// it is intended for bounded experiment windows. Long-lived deployments
/// should drain or cap `series` periodically.
#[derive(Debug)]
pub struct EstimateRecorder {
    /// The message unit this recorder estimates in.
    pub unit: Unit,
    estimator: E2eEstimator,
    /// The recorded series.
    pub series: Vec<EstimateSample>,
    /// Checkpoints of the estimator's cumulative (local, remote) windows,
    /// taken at ticks that folded in a fresh exchange. Range queries
    /// difference two checkpoints and evaluate the decomposition over the
    /// resulting long window, instead of averaging noisy per-tick delay
    /// ratios. Checkpointing at exchange ticks keeps both sides' sums
    /// aligned to the same exchange boundaries and self-scales the memory:
    /// at high per-connection load it is one entry per tick, at high
    /// fan-in one entry per (sparse) exchange.
    cum_series: Vec<(Nanos, EndpointWindows, EndpointWindows)>,
    /// `remote_epoch` at the last checkpoint.
    cum_epoch: u64,
}

impl EstimateRecorder {
    /// Creates a recorder for one unit.
    pub fn new(unit: Unit) -> Self {
        EstimateRecorder {
            unit,
            estimator: E2eEstimator::new(WireScale::default(), 1.0),
            series: Vec::new(),
            cum_series: Vec::new(),
            cum_epoch: 0,
        }
    }

    /// Bounds how long the estimator trusts a cached remote window (see
    /// [`E2eEstimator::with_staleness_bound`]).
    pub fn with_staleness_bound(mut self, bound: Nanos) -> Self {
        self.estimator = self.estimator.with_staleness_bound(bound);
        self
    }

    /// Validates every incoming exchange against locally observable
    /// signals before it can influence the estimate (see
    /// [`e2e_core::validate`]).
    pub fn with_validation(mut self, config: ValidateConfig) -> Self {
        self.estimator = self.estimator.with_validation(config);
        self
    }

    /// Validation counters, if validation is enabled.
    pub fn validation_stats(&self) -> Option<ValidateStats> {
        self.estimator.validation_stats()
    }

    /// Runs one tick against `sock`.
    pub fn tick(&mut self, ctx: &HostCtx<'_>, sock: SocketId) {
        let now = ctx.now();
        let (local, remote, srtt) = socket_inputs(ctx, sock, now, self.unit);
        if let Some(estimate) = self.estimator.update_validated(now, local, remote, srtt) {
            self.series.push(EstimateSample { at: now, estimate });
        }
        if self.estimator.remote_epoch() != self.cum_epoch {
            self.cum_epoch = self.estimator.remote_epoch();
            let (cl, cr) = self.estimator.cumulative_windows();
            self.cum_series.push((now, cl, cr));
        }
    }

    /// The cumulative-window difference across the checkpoints falling in
    /// `[from, to)`: one long (local, remote) window pair covering the
    /// range, or `None` when fewer than two checkpoints fall inside it.
    fn range_windows(&self, from: Nanos, to: Nanos) -> Option<(EndpointWindows, EndpointWindows)> {
        let mut inside = self
            .cum_series
            .iter()
            .filter(|(at, _, _)| *at >= from && *at < to);
        let first = inside.next()?;
        let last = inside.last()?;
        let near = last.1.since(&first.1);
        let far = last.2.since(&first.2);
        (!near.unacked.dt.is_zero()).then_some((near, far))
    }

    /// Mean estimated latency over `[from, to)`.
    ///
    /// Evaluated by differencing cumulative queue windows across the range
    /// and applying the §3.2 decomposition to the one long window —
    /// Little's law with integrals and departures summed *before*
    /// dividing. Averaging the per-tick estimates instead is biased at low
    /// per-connection load (high fan-in): item residences straddle tick
    /// windows, the per-window delay ratios swing by milliseconds, and
    /// taking the larger of two noisy views each tick rectifies that
    /// noise into a positive bias that once made the N = 64 fan-in
    /// estimate ~32× the measured latency. Over the long window both
    /// views are computed from hundreds of departures and the larger one
    /// is a faithful guard against underestimation, as in the paper.
    /// Falls back to the plain mean of recorded samples when the range
    /// holds fewer than two exchange checkpoints.
    pub fn mean_latency_in(&self, from: Nanos, to: Nanos) -> Option<Nanos> {
        if let Some((near, far)) = self.range_windows(from, to) {
            let lv = combine_delays(&near, &far).latency();
            let rv = combine_delays(&far, &near).latency();
            return Some(lv.max(rv));
        }
        mean_latency_in(
            self.series.iter().map(|s| (s.at, s.estimate.latency)),
            from,
            to,
        )
    }

    /// Mean estimated throughput over `[from, to)`: departures over
    /// elapsed time from the range's cumulative window when available
    /// (see [`Self::mean_latency_in`]), otherwise the plain mean of the
    /// per-tick samples.
    pub fn mean_throughput_in(&self, from: Nanos, to: Nanos) -> Option<f64> {
        if let Some((near, _)) = self.range_windows(from, to) {
            return Some(near.unread.throughput());
        }
        let samples: Vec<f64> = self
            .series
            .iter()
            .filter(|s| s.at >= from && s.at < to)
            .map(|s| s.estimate.throughput)
            .collect();
        (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
    }
}

/// The (time, latency) samples of a hint series that carry a latency.
pub(crate) fn hint_latencies<'a>(
    series: impl IntoIterator<Item = &'a (Nanos, HintEstimate)> + 'a,
) -> impl Iterator<Item = (Nanos, Nanos)> + 'a {
    series
        .into_iter()
        .filter_map(|(at, e)| Some((*at, e.latency?)))
}

/// Hint-based estimate recording (server side of §3.3).
#[derive(Debug, Default)]
pub struct HintRecorder {
    estimator: HintEstimator,
    /// The recorded series.
    pub series: Vec<(Nanos, HintEstimate)>,
}

impl HintRecorder {
    /// Creates a recorder.
    pub fn new() -> Self {
        HintRecorder {
            estimator: HintEstimator::new(WireScale::default()),
            series: Vec::new(),
        }
    }

    /// Runs one tick against `sock`, consuming the latest forwarded hint.
    pub fn tick(&mut self, ctx: &HostCtx<'_>, sock: SocketId) {
        if let Some(hint) = ctx.socket(sock).remote().hint.cur {
            if let Some(est) = self.estimator.update(hint) {
                self.series.push((ctx.now(), est));
            }
        }
    }

    /// Mean hint-estimated latency over `[from, to)`.
    pub fn mean_latency_in(&self, from: Nanos, to: Nanos) -> Option<Nanos> {
        mean_latency_in(hint_latencies(&self.series), from, to)
    }
}

/// Estimation plus AIMD actuation: drives the socket's gradual batch
/// limit (paper §5, "Better Batching Heuristics") instead of a binary
/// Nagle switch.
#[derive(Debug)]
pub struct AimdDriver {
    /// The estimate source.
    pub recorder: EstimateRecorder,
    controller: AimdBatchLimit,
    /// Recorded (time, limit) trajectory.
    pub limits: Vec<(Nanos, u64)>,
}

impl AimdDriver {
    /// Creates a driver estimating in `unit` with the given controller.
    pub fn new(unit: Unit, controller: AimdBatchLimit) -> Self {
        AimdDriver {
            recorder: EstimateRecorder::new(unit),
            controller,
            limits: Vec::new(),
        }
    }

    /// Runs one tick: estimate, adapt the limit, actuate through the
    /// uniform knob path (`KnobSetting::CorkLimit`).
    pub fn tick(&mut self, ctx: &mut HostCtx<'_>, sock: SocketId) {
        self.recorder.tick(ctx, sock);
        if let Some(sample) = self.recorder.series.last().copied() {
            let limit = self.controller.update(&sample.estimate);
            self.limits.push((ctx.now(), limit));
            ctx.apply(sock, KnobSetting::CorkLimit(limit));
        }
    }

    /// The most recently applied limit.
    pub fn current_limit(&self) -> Option<u64> {
        self.limits.last().map(|(_, l)| *l)
    }

    /// Mean limit over the recorded trajectory in `[from, to)`.
    pub fn mean_limit_in(&self, from: Nanos, to: Nanos) -> Option<f64> {
        let vals: Vec<u64> = self
            .limits
            .iter()
            .filter(|(at, _)| *at >= from && *at < to)
            .map(|(_, l)| *l)
            .collect();
        (!vals.is_empty()).then(|| vals.iter().sum::<u64>() as f64 / vals.len() as f64)
    }
}

/// Proxy-side estimation and per-shard actuation (the two-tier topology's
/// policy seat).
///
/// The proxy terminates every client connection (the *front* leg) and
/// holds one upstream connection per shard (the *back* legs). This driver
/// runs one front [`EstimatorRegistry`] over all accepted client
/// connections, one back registry per shard, and — per shard — composes
/// the two legs into a service-level [`AggregateEstimate`]
/// ([`compose_two`]: latencies summed along the path as in Figure 3,
/// confidence the weakest leg's). The composed series is the *reporting*
/// view: it is what ranks shards by end-to-end delay. Each shard's
/// [`ControlPlane`] decides on the *back-leg* estimate alone — the leg
/// its knob actually controls — so the shared front leg's queueing noise
/// (identical for every shard) cannot drown the per-shard signal. The
/// decision actuates on that shard's upstream socket: a hot shard can
/// batch while cold shards stay latency-optimal, independently.
#[derive(Debug)]
pub struct ProxyDriver {
    /// The message unit the per-connection estimators use.
    pub unit: Unit,
    front: EstimatorRegistry,
    backs: Vec<EstimatorRegistry>,
    controllers: Vec<TickController<CircuitBreaker<ControlPlane>>>,
    /// Per-shard recorded headline (Nagle) decisions (time, batching-on).
    pub toggles: Vec<Vec<(Nanos, bool)>>,
    /// Recorded front-leg (client → proxy) aggregate series.
    pub front_series: Vec<(Nanos, AggregateEstimate)>,
    /// Per-shard recorded *composed* (front + back) estimate series — the
    /// service-level view that ranks shards by end-to-end latency.
    pub shard_series: Vec<Vec<(Nanos, AggregateEstimate)>>,
}

impl ProxyDriver {
    /// Creates a driver estimating in `unit` with one controller per
    /// shard (each wrapped in a — possibly disabled — circuit breaker).
    pub fn new(
        unit: Unit,
        controllers: Vec<TickController<CircuitBreaker<ControlPlane>>>,
    ) -> Self {
        let shards = controllers.len();
        ProxyDriver {
            unit,
            front: EstimatorRegistry::new(WireScale::default(), 1.0),
            backs: (0..shards)
                .map(|_| EstimatorRegistry::new(WireScale::default(), 1.0))
                .collect(),
            controllers,
            toggles: vec![Vec::new(); shards],
            front_series: Vec::new(),
            shard_series: vec![Vec::new(); shards],
        }
    }

    /// Applies a staleness bound to every estimator the driver's
    /// registries create.
    pub fn with_staleness_bound(mut self, bound: Nanos) -> Self {
        self.front = self.front.with_staleness_bound(bound);
        self.backs = self
            .backs
            .drain(..)
            .map(|b| b.with_staleness_bound(bound))
            .collect();
        self
    }

    /// Applies peer-state validation to every estimator the driver's
    /// registries create.
    pub fn with_validation(mut self, config: ValidateConfig) -> Self {
        self.front = self.front.with_validation(config);
        self.backs = self
            .backs
            .drain(..)
            .map(|b| b.with_validation(config))
            .collect();
        self
    }

    /// Validation counters summed across the front registry and every
    /// shard's back registry.
    pub fn validation_stats(&self) -> ValidateStats {
        let mut total = self.front.validation_stats();
        for b in &self.backs {
            total.merge(&b.validation_stats());
        }
        total
    }

    /// Validation counters for one shard's back-leg registry alone —
    /// after a shard crash this is where the replacement connection's
    /// epoch change (and the resync it forces) shows up.
    pub fn back_validation_stats(&self, shard: usize) -> ValidateStats {
        self.backs[shard].validation_stats()
    }

    /// Number of shards the driver controls.
    pub fn num_shards(&self) -> usize {
        self.controllers.len()
    }

    /// The circuit breaker around one shard's plane.
    pub fn breaker(&self, shard: usize) -> &CircuitBreaker<ControlPlane> {
        self.controllers[shard].inner()
    }

    /// One shard's control plane.
    pub fn plane(&self, shard: usize) -> &ControlPlane {
        self.controllers[shard].inner().inner()
    }

    /// Client connections the front registry has seen.
    pub fn front_connections(&self) -> usize {
        self.front.connections()
    }

    /// Runs one tick: update the front registry over every client
    /// connection and each shard's back registry over its upstream
    /// connection, compose per-shard service estimates, and let each
    /// shard's plane decide and actuate on its own upstream socket.
    pub fn tick(
        &mut self,
        ctx: &mut HostCtx<'_>,
        client_socks: &[SocketId],
        upstreams: &[Option<SocketId>],
    ) {
        assert_eq!(upstreams.len(), self.backs.len(), "one upstream per shard");
        let now = ctx.now();
        for &sock in client_socks {
            let (local, remote, srtt) = socket_inputs(ctx, sock, now, self.unit);
            self.front
                .update_validated(sock.0 as u64, now, local, remote, srtt);
        }
        let front = self.front.aggregate();
        if let Some(f) = front {
            self.front_series.push((now, f));
        }
        for (shard, up) in upstreams.iter().enumerate() {
            let Some(sock) = *up else { continue };
            let (local, remote, srtt) = socket_inputs(ctx, sock, now, self.unit);
            self.backs[shard].update_validated(0, now, local, remote, srtt);
            let Some(back) = self.backs[shard].aggregate() else {
                continue;
            };
            // Until the front leg estimates (e.g. clients still idle) the
            // back leg alone is the best available service view.
            let composed = match front.as_ref() {
                Some(f) => compose_two(f, &back),
                None => back,
            };
            // Decide on the back leg: the Nagle knob only shapes
            // proxy → shard traffic, and the front leg's aggregate delay
            // is common to every shard — composing it in would only add
            // shared noise to each plane's signal.
            let on = self.controllers[shard].offer_aggregate(now, &back);
            self.shard_series[shard].push((now, composed));
            self.toggles[shard].push((now, on));
            for setting in plane_settings(&self.controllers[shard], on) {
                ctx.apply(sock, setting);
            }
        }
    }

    /// Fraction of one shard's decisions with batching on.
    pub fn on_fraction(&self, shard: usize) -> f64 {
        on_fraction(&self.toggles[shard])
    }

    /// The newest composed (front + back) service estimate for one shard.
    pub fn latest_composed(&self, shard: usize) -> Option<&AggregateEstimate> {
        self.shard_series[shard].last().map(|(_, e)| e)
    }

    /// Mean composed service latency for one shard over `[from, to)`.
    pub fn shard_mean_latency_in(&self, shard: usize, from: Nanos, to: Nanos) -> Option<Nanos> {
        let series = self.shard_series[shard].iter();
        mean_latency_in(series.map(|(at, agg)| (*at, agg.latency)), from, to)
    }
}

/// The settings a plane driver actuates this tick: the plane's learned
/// settings while the surrounding breaker is closed, its safe static
/// corner otherwise. `on` is the breaker-filtered headline decision, so
/// for a Nagle-only plane this is exactly `[Nagle(on)]` either way.
fn plane_settings(
    controller: &TickController<CircuitBreaker<ControlPlane>>,
    on: bool,
) -> Vec<KnobSetting> {
    let breaker = controller.inner();
    if breaker.state() == BreakerState::Closed {
        breaker.inner().settings()
    } else {
        debug_assert_eq!(on, breaker.safe_on(), "degraded decision is the safe mode");
        breaker.inner().safe_settings(on)
    }
}

/// Estimation plus multi-knob actuation: one [`ControlPlane`] decision
/// per tick, routed per-knob component views, every controlled knob
/// actuated through [`HostCtx::apply`].
#[derive(Debug)]
pub struct PlaneDriver {
    /// The estimate source.
    pub recorder: EstimateRecorder,
    controller: TickController<CircuitBreaker<ControlPlane>>,
    /// Recorded headline (Nagle) decisions (time, batching-on).
    pub toggles: Vec<(Nanos, bool)>,
}

impl PlaneDriver {
    /// Creates a driver estimating in `unit` and deciding with the given
    /// control plane (wrapped in a — possibly disabled — circuit
    /// breaker).
    pub fn new(unit: Unit, controller: TickController<CircuitBreaker<ControlPlane>>) -> Self {
        PlaneDriver {
            recorder: EstimateRecorder::new(unit),
            controller,
            toggles: Vec::new(),
        }
    }

    /// Bounds how long this driver's estimator trusts a cached remote
    /// window.
    pub fn with_staleness_bound(mut self, bound: Nanos) -> Self {
        self.recorder = self.recorder.with_staleness_bound(bound);
        self
    }

    /// Validates every incoming exchange before it can influence the
    /// plane's estimate.
    pub fn with_validation(mut self, config: ValidateConfig) -> Self {
        self.recorder = self.recorder.with_validation(config);
        self
    }

    /// The circuit breaker around the plane.
    pub fn breaker(&self) -> &CircuitBreaker<ControlPlane> {
        self.controller.inner()
    }

    /// The control plane itself.
    pub fn plane(&self) -> &ControlPlane {
        self.controller.inner().inner()
    }

    /// Runs one tick: estimate, decide across every knob, actuate each
    /// knob's setting.
    pub fn tick(&mut self, ctx: &mut HostCtx<'_>, sock: SocketId) {
        self.recorder.tick(ctx, sock);
        if let Some(sample) = self.recorder.series.last().copied() {
            let on = self.controller.offer(ctx.now(), &sample.estimate);
            self.toggles.push((ctx.now(), on));
            for setting in plane_settings(&self.controller, on) {
                ctx.apply(sock, setting);
            }
        }
    }

    /// Fraction of ticks with batching on.
    pub fn on_fraction(&self) -> f64 {
        on_fraction(&self.toggles)
    }
}

/// Listener-wide estimation plus actuation (paper §3.2, last paragraph).
///
/// Where a [`PlaneDriver`] watches one connection, a
/// `ListenerPlaneDriver` runs one [`E2eEstimator`] per accepted
/// connection inside an [`EstimatorRegistry`], folds their latest
/// estimates into a throughput-weighted [`AggregateEstimate`] each tick,
/// makes a *single* [`ControlPlane`] decision on the aggregate, and
/// applies every knob's setting to every connection — the listener-wide
/// default a server actually toggles. With one connection the aggregate
/// degenerates to that connection's estimate.
#[derive(Debug)]
pub struct ListenerPlaneDriver {
    /// The message unit the per-connection estimators use.
    pub unit: Unit,
    registry: EstimatorRegistry,
    controller: TickController<CircuitBreaker<ControlPlane>>,
    /// Recorded headline (Nagle) decisions (time, batching-on).
    pub toggles: Vec<(Nanos, bool)>,
    /// Recorded aggregate series.
    pub series: Vec<(Nanos, AggregateEstimate)>,
}

impl ListenerPlaneDriver {
    /// Creates a driver estimating in `unit` and deciding with the given
    /// control plane (wrapped in a — possibly disabled — circuit
    /// breaker).
    pub fn new(unit: Unit, controller: TickController<CircuitBreaker<ControlPlane>>) -> Self {
        ListenerPlaneDriver {
            unit,
            registry: EstimatorRegistry::new(WireScale::default(), 1.0),
            controller,
            toggles: Vec::new(),
            series: Vec::new(),
        }
    }

    /// Applies a staleness bound to every per-connection estimator the
    /// registry creates.
    pub fn with_staleness_bound(mut self, bound: Nanos) -> Self {
        self.registry = self.registry.with_staleness_bound(bound);
        self
    }

    /// Applies peer-state validation to every per-connection estimator
    /// the registry creates.
    pub fn with_validation(mut self, config: ValidateConfig) -> Self {
        self.registry = self.registry.with_validation(config);
        self
    }

    /// Validation counters summed across every connection's estimator.
    pub fn validation_stats(&self) -> ValidateStats {
        self.registry.validation_stats()
    }

    /// The circuit breaker around the plane.
    pub fn breaker(&self) -> &CircuitBreaker<ControlPlane> {
        self.controller.inner()
    }

    /// The control plane itself.
    pub fn plane(&self) -> &ControlPlane {
        self.controller.inner().inner()
    }

    /// Runs one tick over every live connection: update each estimator,
    /// aggregate, decide once across every knob, actuate everywhere.
    pub fn tick(&mut self, ctx: &mut HostCtx<'_>, socks: &[SocketId]) {
        let now = ctx.now();
        for &sock in socks {
            let (local, remote, srtt) = socket_inputs(ctx, sock, now, self.unit);
            self.registry
                .update_validated(sock.0 as u64, now, local, remote, srtt);
        }
        if let Some(agg) = self.registry.aggregate() {
            let on = self.controller.offer_aggregate(now, &agg);
            self.series.push((now, agg));
            self.toggles.push((now, on));
            let settings = plane_settings(&self.controller, on);
            for &sock in socks {
                for &setting in &settings {
                    ctx.apply(sock, setting);
                }
            }
        }
    }

    /// Connections the registry has seen.
    pub fn connections(&self) -> usize {
        self.registry.connections()
    }

    /// Fraction of ticks with batching on.
    pub fn on_fraction(&self) -> f64 {
        on_fraction(&self.toggles)
    }

    /// Mean aggregate estimated latency over `[from, to)`.
    pub fn mean_aggregate_latency_in(&self, from: Nanos, to: Nanos) -> Option<Nanos> {
        let series = self.series.iter();
        mean_latency_in(series.map(|(at, agg)| (*at, agg.latency)), from, to)
    }
}
