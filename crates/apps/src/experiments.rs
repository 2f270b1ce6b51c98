//! The paper's figures as runnable experiments.
//!
//! Each function regenerates one figure's data on the simulated testbed
//! and returns a serializable structure the examples and benches print.
//! See EXPERIMENTS.md for the paper-vs-measured comparison.
//!
//! The six acceptance experiments (fan-in, knobs, chaos, adversary,
//! shard, failover) are each declared once here as a grid type with two
//! instances — `FULL`, the published grid its bench runs into
//! `BENCH_*.json`, and `SMOKE`, the short grid its example's `--smoke`
//! mode runs in CI — plus one `violations` method on the result that
//! holds every acceptance gate. The example and the bench only pick a
//! grid, `sweep` it, print its `table` and [`assert_gates`].

use batchpolicy::{figure1_model, BatchOutcome, BreakerConfig, Figure1Params, Objective};
use e2e_core::ValidateConfig;
use littles::Nanos;
use simnet::{
    CorruptConfig, DuplicateConfig, FaultConfig, GilbertElliott, JitterConfig, ReorderConfig,
    RestartSchedule, WindowSchedule,
};

use crate::failover::{
    run_failover_point, FailoverArm, FailoverPointResult, FailoverRunConfig, FailoverScenario,
    ShardSetting,
};
use crate::runner::{run_point, NagleSetting, Overrides, PointResult, RunConfig};
use crate::grid::{default_threads, run_grid};
use crate::sweep::{run_sweep, SweepResult};
use crate::workload::WorkloadSpec;
use crate::cost::CostProfile;

/// The paper's 500 µs latency SLO.
pub const PAPER_SLO: Nanos = Nanos::from_micros(500);

/// Warmup of the published grids and the figure benches.
pub const BENCH_WARMUP: Nanos = Nanos::from_millis(200);
/// Measurement window of the published grids and the figure benches.
pub const BENCH_MEASURE: Nanos = Nanos::from_millis(600);
/// Seed of the published grids and the figure benches (fixed: the runs
/// are deterministic).
pub const BENCH_SEED: u64 = 0xBE7C;
/// Warmup of the smoke grids.
const SMOKE_WARMUP: Nanos = Nanos::from_millis(50);
/// Measurement window of the smoke grids.
const SMOKE_MEASURE: Nanos = Nanos::from_millis(150);

/// Panics listing every violated acceptance gate of `experiment`.
pub fn assert_gates(experiment: &str, violations: &[String]) {
    assert!(
        violations.is_empty(),
        "{experiment}: {} acceptance gate(s) failed:\n{}",
        violations.len(),
        violations.join("\n")
    );
}

/// Microseconds with one decimal, or `n/a`.
fn fmt_us(v: Option<Nanos>) -> String {
    v.map(|n| format!("{:.1}", n.as_micros_f64()))
        .unwrap_or_else(|| "n/a".into())
}

/// A ratio with two decimals, or `n/a`.
fn fmt_ratio(r: Option<f64>) -> String {
    r.map(|r| format!("{r:.2}")).unwrap_or_else(|| "n/a".into())
}

/// The better (lower) of two static P99s; a side without samples drops
/// out.
fn better_p99(a: Option<Nanos>, b: Option<Nanos>) -> Option<Nanos> {
    a.into_iter().chain(b).min()
}

/// `p99` as a multiple of `reference` (> 1 means worse).
fn p99_ratio(p99: Option<Nanos>, reference: Option<Nanos>) -> Option<f64> {
    Some(p99?.as_nanos() as f64 / reference?.as_nanos().max(1) as f64)
}

/// True if `p99 ≤ factor × reference + slack`. The additive slack
/// absorbs references so small that a fixed ratio would gate on
/// scheduling noise. A side without samples is a failed run, not a pass.
fn within(p99: Option<Nanos>, reference: Option<Nanos>, factor: f64, slack: Nanos) -> bool {
    match (p99, reference) {
        (Some(p99), Some(reference)) => {
            p99 <= Nanos::from_nanos((reference.as_nanos() as f64 * factor) as u64) + slack
        }
        _ => false,
    }
}

/// Figure 1: the analytical model for c ∈ {1, 3, 5} (and a few more).
pub fn figure1() -> Vec<BatchOutcome> {
    (0..=6)
        .map(|c| figure1_model(Figure1Params::paper(c as f64)))
        .collect()
}

/// One cell of Figure 2: a fixed-load run on one client platform with one
/// Nagle setting.
#[derive(Debug, Clone)]
pub struct Figure2Cell {
    /// Human-readable platform label.
    pub platform: String,
    /// Whether Nagle was on.
    pub nagle_on: bool,
    /// The run's results.
    pub result: PointResult,
}

/// Figure 2: bare-metal vs. VM client at a fixed 20 kRPS.
#[derive(Debug, Clone)]
pub struct Figure2Data {
    /// The four cells: (bare, off), (bare, on), (vm, off), (vm, on).
    pub cells: Vec<Figure2Cell>,
}

impl Figure2Data {
    fn cell(&self, platform: &str, nagle_on: bool) -> &PointResult {
        &self
            .cells
            .iter()
            .find(|c| c.platform == platform && c.nagle_on == nagle_on)
            .expect("cell exists")
            .result
    }

    /// (a) Client CPU: VM vs. bare metal (no-Nagle runs).
    pub fn client_cpu_ratio(&self) -> f64 {
        let total = |r: &PointResult| r.client_cpu.app + r.client_cpu.softirq;
        total(self.cell("vm", false)) / total(self.cell("bare", false))
    }

    /// (b) Server CPU: VM vs. bare metal (should be ≈ 1).
    pub fn server_cpu_ratio(&self) -> f64 {
        let total = |r: &PointResult| r.server_cpu.app + r.server_cpu.softirq;
        total(self.cell("vm", false)) / total(self.cell("bare", false))
    }

    /// (c) Does Nagle help (lower measured latency) on each platform?
    pub fn nagle_helps(&self, platform: &str) -> bool {
        let on = self.cell(platform, true).measured_mean;
        let off = self.cell(platform, false).measured_mean;
        match (on, off) {
            (Some(on), Some(off)) => on < off,
            _ => false,
        }
    }
}

/// Runs Figure 2: the same fixed-rate workload with the client on "bare
/// metal" and "in a VM" (application CPU multiplier), Nagle on and off.
pub fn figure2(rate_rps: f64, warmup: Nanos, measure: Nanos, seed: u64) -> Figure2Data {
    let mut cells = Vec::new();
    for (platform, profile) in [
        ("bare", CostProfile::fig2_bare()),
        ("vm", CostProfile::vm_client()),
    ] {
        for nagle_on in [false, true] {
            let cfg = RunConfig {
                workload: WorkloadSpec::fig2(rate_rps, 4096),
                profile,
                nagle: if nagle_on {
                    NagleSetting::On
                } else {
                    NagleSetting::Off
                },
                use_hints: true,
                warmup,
                measure,
                seed,
                num_clients: 1,
                overrides: crate::runner::Overrides::default(),
                fault: simnet::FaultConfig::default(),
                staleness_bound: None,
                breaker: None,
                validate: None,
            };
            cells.push(Figure2Cell {
                platform: platform.to_string(),
                nagle_on,
                result: run_point(&cfg),
            });
        }
    }
    Figure2Data { cells }
}

/// Figure 4 data: the sweep plus the derived headline quantities.
#[derive(Debug, Clone)]
pub struct Figure4Data {
    /// Which variant ("4a" or "4b").
    pub variant: String,
    /// The full sweep.
    pub sweep: SweepResult,
    /// The SLO used.
    pub slo: Nanos,
    /// Highest SLO-compliant rate with Nagle off.
    pub sustainable_off: Option<f64>,
    /// Highest SLO-compliant rate with Nagle on.
    pub sustainable_on: Option<f64>,
    /// Range-extension factor (paper 4a: ≈ 1.93×).
    pub extension_factor: Option<f64>,
    /// Measured cutoff rate (where Nagle starts winning).
    pub cutoff_measured: Option<f64>,
    /// Byte-estimate cutoff rate (4a: coincides; 4b: does not).
    pub cutoff_estimated: Option<f64>,
}

fn figure4(
    variant: &str,
    rates: &[f64],
    spec_at: impl Fn(f64) -> WorkloadSpec + Sync,
    warmup: Nanos,
    measure: Nanos,
    seed: u64,
) -> Figure4Data {
    let base = RunConfig {
        warmup,
        measure,
        seed,
        ..RunConfig::new(spec_at(rates[0]), NagleSetting::Off)
    };
    let sweep = run_sweep(rates, spec_at, &base, false);
    let sustainable_off = sweep.sustainable_rate(PAPER_SLO, |r| &r.off);
    let sustainable_on = sweep.sustainable_rate(PAPER_SLO, |r| &r.on);
    let extension_factor = match (sustainable_off, sustainable_on) {
        (Some(off), Some(on)) if off > 0.0 => Some(on / off),
        _ => None,
    };
    Figure4Data {
        variant: variant.to_string(),
        cutoff_measured: sweep.cutoff_rate(),
        cutoff_estimated: sweep.estimated_cutoff_rate(),
        sweep,
        slo: PAPER_SLO,
        sustainable_off,
        sustainable_on,
        extension_factor,
    }
}

/// The default rate grid for Figure 4 sweeps (requests/second), spanning
/// from well below the measured cutoff (~75 kRPS) past both knees
/// (no-Nagle ≈ 88 kRPS, Nagle ≈ 115 kRPS with the calibrated profile).
pub fn default_rates() -> Vec<f64> {
    vec![
        5_000.0, 10_000.0, 20_000.0, 30_000.0, 40_000.0, 50_000.0, 60_000.0, 65_000.0, 70_000.0,
        75_000.0, 80_000.0, 85_000.0, 88_000.0, 95_000.0, 105_000.0, 115_000.0,
    ]
}

/// Figure 4a: SET-only, 16 B keys, 16 KiB values.
pub fn figure4a(rates: &[f64], warmup: Nanos, measure: Nanos, seed: u64) -> Figure4Data {
    figure4("4a", rates, WorkloadSpec::fig4a, warmup, measure, seed)
}

/// Figure 4b: SET:GET = 95:5 — the byte-unit estimate degrades.
pub fn figure4b(rates: &[f64], warmup: Nanos, measure: Nanos, seed: u64) -> Figure4Data {
    figure4("4b", rates, WorkloadSpec::fig4b, warmup, measure, seed)
}

/// One fan-in row: the same aggregate load split across `num_clients`
/// connections.
#[derive(Debug, Clone)]
pub struct FaninRow {
    /// Concurrent client connections.
    pub num_clients: usize,
    /// The load sweep at this fan-in.
    pub sweep: SweepResult,
    /// Measured cutoff rate (where Nagle starts winning) at this fan-in.
    pub cutoff_measured: Option<f64>,
    /// Byte-estimate cutoff rate at this fan-in.
    pub cutoff_estimated: Option<f64>,
}

/// The fan-in experiment: how the Nagle cutoff moves as one aggregate
/// load spreads over more connections.
#[derive(Debug, Clone)]
pub struct FaninData {
    /// One row per fan-in width, ascending.
    pub rows: Vec<FaninRow>,
}

impl FaninData {
    /// The measured cutoff at a given fan-in width.
    pub fn cutoff_for(&self, num_clients: usize) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.num_clients == num_clients)
            .and_then(|r| r.cutoff_measured)
    }

    /// One sweep table per width: measured and byte-estimated mean
    /// latency with Nagle off and on, plus the two cutoffs.
    pub fn table(&self) -> String {
        let mut lines = Vec::new();
        for row in &self.rows {
            lines.push(format!("--- N = {} ---", row.num_clients));
            lines.push(format!(
                "{:>8} | {:>9} {:>9} | {:>9} {:>9} | {:>8}",
                "rate", "off-meas", "off-est", "on-meas", "on-est", "achieved"
            ));
            for p in &row.sweep.rows {
                lines.push(format!(
                    "{:>8.0} | {:>9} {:>9} | {:>9} {:>9} | {:>8.0}",
                    p.rate_rps,
                    fmt_us(p.off.measured_mean),
                    fmt_us(p.off.estimated_bytes),
                    fmt_us(p.on.measured_mean),
                    fmt_us(p.on.estimated_bytes),
                    p.off.achieved_rps,
                ));
            }
            lines.push(format!(
                "cutoff: measured {:?} vs byte-estimated {:?}\n",
                row.cutoff_measured, row.cutoff_estimated
            ));
        }
        lines.join("\n") + "\n"
    }

    /// The acceptance gates: the fan-in path exercised every connection
    /// of every point.
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        for row in &self.rows {
            for p in &row.sweep.rows {
                for (label, point) in [("off", &p.off), ("on", &p.on)] {
                    let tag = format!("N={}/{:.0} rps [{label}]", row.num_clients, p.rate_rps);
                    if point.num_clients != row.num_clients
                        || point.per_client.len() != row.num_clients
                    {
                        v.push(format!(
                            "{tag}: ran {} clients with {} per-client slices",
                            point.num_clients,
                            point.per_client.len()
                        ));
                    }
                    for (i, c) in point.per_client.iter().enumerate() {
                        if c.samples == 0 {
                            v.push(format!("{tag}: client {i} measured no samples"));
                        }
                    }
                }
            }
        }
        v
    }
}

/// One fan-in grid: the widths and aggregate rates it sweeps.
#[derive(Debug, Clone, Copy)]
pub struct FaninGrid {
    /// Fan-in widths, ascending.
    pub ns: &'static [usize],
    /// Aggregate offered rates (requests/second), ascending.
    pub rates: &'static [f64],
    /// Warmup excluded from measurement.
    pub warmup: Nanos,
    /// Measurement window.
    pub measure: Nanos,
    /// RNG seed.
    pub seed: u64,
}

impl FaninGrid {
    /// The published grid (`BENCH_fanin.json`).
    pub const FULL: FaninGrid = FaninGrid {
        ns: &[1, 4, 16, 64, 256, 1024],
        rates: &[40_000.0, 60_000.0, 75_000.0, 88_000.0, 105_000.0],
        warmup: BENCH_WARMUP,
        measure: BENCH_MEASURE,
        seed: BENCH_SEED,
    };
    /// The CI smoke grid: N = 4 at two rates.
    pub const SMOKE: FaninGrid = FaninGrid {
        ns: &[4],
        rates: &[40_000.0, 80_000.0],
        warmup: SMOKE_WARMUP,
        measure: SMOKE_MEASURE,
        seed: 0xFA41,
    };

    /// Runs the fan-in experiment: for each `N ∈ ns`, sweep the
    /// *aggregate* offered rate over `rates` with the load split across N
    /// connections into one shared server.
    ///
    /// Per-connection rates shrink as N grows, so each connection's Nagle
    /// hold waits longer for enough bytes (or the ACK) to flush — the
    /// batching-on latency penalty grows with N while the no-Nagle curve
    /// stays nearly N-independent until the shared server CPU collapses.
    /// The cutoff where batching starts winning therefore moves *right*
    /// (to higher aggregate rates) as N grows, converging on the collapse
    /// point itself; the throughput-weighted aggregate estimate
    /// identifies it at every width.
    pub fn sweep(&self) -> FaninData {
        let rows = self
            .ns
            .iter()
            .map(|&n| {
                let base = RunConfig {
                    warmup: self.warmup,
                    measure: self.measure,
                    seed: self.seed,
                    num_clients: n,
                    ..RunConfig::new(WorkloadSpec::fig4a(self.rates[0]), NagleSetting::Off)
                };
                let sweep = run_sweep(self.rates, WorkloadSpec::fig4a, &base, false);
                FaninRow {
                    num_clients: n,
                    cutoff_measured: sweep.cutoff_rate(),
                    cutoff_estimated: sweep.estimated_cutoff_rate(),
                    sweep,
                }
            })
            .collect();
        FaninData { rows }
    }
}

/// The §5 dynamic-toggling experiment: off vs. on vs. ε-greedy dynamic at
/// each rate.
pub fn dynamic_toggle(rates: &[f64], warmup: Nanos, measure: Nanos, seed: u64) -> SweepResult {
    let base = RunConfig {
        warmup,
        measure,
        seed,
        nagle: NagleSetting::Plane {
            objective: Objective::MinLatency,
            delack: false,
            cork: false,
        },
        ..RunConfig::new(WorkloadSpec::fig4a(rates[0]), NagleSetting::Off)
    };
    run_sweep(rates, WorkloadSpec::fig4a, &base, true)
}

/// Staleness bound used by the adaptive chaos profile: a peer snapshot
/// older than this stops being trusted and the estimator falls back to
/// local-only estimation with zero confidence. Four exchange intervals
/// (500 µs each) of headroom keeps healthy runs comfortably fresh while a
/// blackout or server stall trips the fallback within two policy ticks.
pub const CHAOS_STALENESS_BOUND: Nanos = Nanos::from_millis(2);

/// The stated degradation bound the adaptive policy must satisfy in every
/// chaos cell: P99 within `CHAOS_BOUND_FACTOR × oracle +
/// CHAOS_BOUND_SLACK`, where the oracle is the better static mode for
/// that cell. The factor absorbs ε-greedy exploration (a few percent of
/// decisions deliberately sample the worse mode) plus run-to-run
/// divergence in which packets a fault episode hits; the slack keeps
/// cells whose oracle P99 is tiny from gating on scheduler noise.
pub const CHAOS_BOUND_FACTOR: f64 = 3.0;
/// Additive slack for the chaos degradation bound.
pub const CHAOS_BOUND_SLACK: Nanos = Nanos::from_micros(300);

/// The fault classes the chaos experiment sweeps. Each maps one intensity
/// knob in `(0, 1]` onto a single-dimension [`FaultConfig`], so a cell
/// isolates the policy stack's response to one impairment at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosClass {
    /// Gilbert–Elliott bursty loss, up to a 4% stationary rate in bursts
    /// of ~8 packets.
    Loss,
    /// Bounded reordering: up to 30% of packets held back ≤ 150 µs.
    Reorder,
    /// Packet duplication, up to 10% of packets delivered twice.
    Duplicate,
    /// Uniform per-packet delay jitter, up to 100 µs.
    Jitter,
    /// Periodic link blackouts (switch flap): up to 2 ms dark every 25 ms.
    Blackout,
    /// Periodic server application-thread stalls (GC pause): up to 2 ms
    /// every 25 ms.
    ServerStall,
}

impl ChaosClass {
    /// Every class, in sweep order.
    pub const ALL: [ChaosClass; 6] = [
        ChaosClass::Loss,
        ChaosClass::Reorder,
        ChaosClass::Duplicate,
        ChaosClass::Jitter,
        ChaosClass::Blackout,
        ChaosClass::ServerStall,
    ];

    /// Stable label used in tables and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            ChaosClass::Loss => "loss",
            ChaosClass::Reorder => "reorder",
            ChaosClass::Duplicate => "duplicate",
            ChaosClass::Jitter => "jitter",
            ChaosClass::Blackout => "blackout",
            ChaosClass::ServerStall => "server_stall",
        }
    }

    /// The fault configuration for this class at `intensity ∈ (0, 1]`.
    ///
    /// All faults start at 10 ms — past the handshake, inside any
    /// realistic warmup — and scheduled windows repeat every 25 ms so
    /// even a short measurement window sees several episodes.
    ///
    /// # Panics
    ///
    /// Panics if `intensity` is outside `(0, 1]`.
    pub fn fault_at(&self, intensity: f64) -> FaultConfig {
        assert!(
            intensity > 0.0 && intensity <= 1.0,
            "chaos intensity must be in (0, 1], got {intensity}"
        );
        let scaled_us = |max_us: f64| Nanos::from_nanos((1_000.0 * max_us * intensity) as u64);
        let start = Nanos::from_millis(10);
        let window = |duration: Nanos| WindowSchedule {
            first_at: start,
            period: Nanos::from_millis(25),
            duration,
        };
        let mut fault = FaultConfig {
            start_at: start,
            ..FaultConfig::default()
        };
        match self {
            ChaosClass::Loss => {
                // Bursty, but not a total outage inside a burst: dropping
                // only half the packets in the bad state leaves fast
                // retransmissions a fighting chance, which is the regime
                // where the policies differ rather than everything
                // reducing to RTO waits. Stationary loss rate is
                // π_bad · loss_bad = 4% · intensity.
                let pi_bad = 2.0 * 0.04 * intensity;
                fault.loss = Some(GilbertElliott {
                    p_bad_to_good: 1.0 / 8.0,
                    p_good_to_bad: pi_bad / (1.0 - pi_bad) / 8.0,
                    loss_good: 0.0,
                    loss_bad: 0.5,
                });
            }
            ChaosClass::Reorder => {
                fault.reorder = Some(ReorderConfig {
                    probability: 0.3 * intensity,
                    max_extra: Nanos::from_micros(150),
                });
            }
            ChaosClass::Duplicate => {
                fault.duplicate = Some(DuplicateConfig {
                    probability: 0.10 * intensity,
                });
            }
            ChaosClass::Jitter => {
                fault.jitter = Some(JitterConfig {
                    max: scaled_us(100.0),
                });
            }
            ChaosClass::Blackout => {
                fault.blackout = Some(window(scaled_us(2_000.0)));
            }
            ChaosClass::ServerStall => {
                fault.server_stall = Some(window(scaled_us(2_000.0)));
            }
        }
        fault
    }
}

/// One chaos cell: a fault class at one intensity and fan-in width, run
/// under both static baselines and the adaptive (breaker-guarded,
/// staleness-aware) Nagle-only plane.
#[derive(Debug, Clone)]
pub struct ChaosCell {
    /// The injected fault class.
    pub class: ChaosClass,
    /// The class intensity knob in `(0, 1]`.
    pub intensity: f64,
    /// Concurrent client connections.
    pub num_clients: usize,
    /// Static Nagle-off baseline under this fault.
    pub off: PointResult,
    /// Static Nagle-on baseline under this fault.
    pub on: PointResult,
    /// Adaptive policy (Nagle-only plane + staleness bound + circuit
    /// breaker).
    pub adaptive: PointResult,
}

impl ChaosCell {
    /// The static oracle: the better (lower) of the two static P99s —
    /// what an omniscient operator would have picked for this cell.
    pub fn oracle_p99(&self) -> Option<Nanos> {
        better_p99(self.off.measured_p99, self.on.measured_p99)
    }

    /// Adaptive-vs-oracle P99 ratio (> 1 means the adaptive policy was
    /// worse than the best static choice).
    pub fn regression(&self) -> Option<f64> {
        p99_ratio(self.adaptive.measured_p99, self.oracle_p99())
    }

    /// Circuit-breaker trips of the adaptive run, client 0 plus server.
    pub fn breaker_trips(&self) -> u64 {
        self.adaptive.client_breaker_trips.unwrap_or(0)
            + self.adaptive.server_breaker_trips.unwrap_or(0)
    }

    /// True if the adaptive P99 stays within `factor × oracle + slack`.
    pub fn within_bound(&self, factor: f64, slack: Nanos) -> bool {
        within(self.adaptive.measured_p99, self.oracle_p99(), factor, slack)
    }
}

/// The chaos experiment's result: every cell of one grid.
#[derive(Debug, Clone)]
pub struct ChaosData {
    /// One cell per (fan-in, class, intensity), in sweep order.
    pub cells: Vec<ChaosCell>,
}

impl ChaosData {
    /// The worst adaptive-vs-oracle P99 ratio across the grid.
    pub fn worst_regression(&self) -> Option<f64> {
        self.cells
            .iter()
            .filter_map(|c| c.regression())
            .max_by(|a, b| a.total_cmp(b))
    }

    /// Per-cell table: the three P99s, the oracle ratio, breaker trips
    /// and the faults injected into the adaptive run.
    pub fn table(&self) -> String {
        let mut lines = vec![format!(
            "{:>3} {:>12} {:>5} | {:>9} {:>9} {:>9} | {:>9} {:>6} | {:>5} {:>6}",
            "N",
            "class",
            "int",
            "off-p99",
            "on-p99",
            "adap-p99",
            "oracle",
            "ratio",
            "trips",
            "faults"
        )];
        for c in &self.cells {
            let faults: u64 = c.adaptive.link_faults.iter().map(|f| f.total()).sum();
            lines.push(format!(
                "{:>3} {:>12} {:>5.2} | {:>9} {:>9} {:>9} | {:>9} {:>6} | {:>5} {:>6}",
                c.num_clients,
                c.class.name(),
                c.intensity,
                fmt_us(c.off.measured_p99),
                fmt_us(c.on.measured_p99),
                fmt_us(c.adaptive.measured_p99),
                fmt_us(c.oracle_p99()),
                fmt_ratio(c.regression()),
                c.breaker_trips(),
                faults,
            ));
        }
        lines.push(format!(
            "\nworst adaptive-vs-oracle P99 ratio: {}",
            fmt_ratio(self.worst_regression())
        ));
        lines.join("\n") + "\n"
    }

    /// The acceptance gates, per cell: every arm measured, the fault
    /// actually fired (loss dropped packets, blackouts darkened the
    /// links), the adaptive stack was live, and its P99 stayed within
    /// [`CHAOS_BOUND_FACTOR`] × oracle + [`CHAOS_BOUND_SLACK`].
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        for c in &self.cells {
            let tag = format!("{}/{:.2}/N={}", c.class.name(), c.intensity, c.num_clients);
            for (label, p) in [("off", &c.off), ("on", &c.on), ("adaptive", &c.adaptive)] {
                if p.samples == 0 {
                    v.push(format!("{tag} [{label}]: no samples survived the faults"));
                }
            }
            // A chaos run where nothing went wrong gates nothing. Stalls
            // and jitter leave no per-packet tally.
            let injected: u64 = c.adaptive.link_faults.iter().map(|f| f.total()).sum();
            let untallied = matches!(c.class, ChaosClass::ServerStall | ChaosClass::Jitter);
            if injected == 0 && !untallied && c.adaptive.fault_blackout_time.is_zero() {
                v.push(format!("{tag}: fault class never fired"));
            }
            match c.class {
                ChaosClass::Loss if c.off.link_faults.iter().all(|f| f.drops == 0) => {
                    v.push(format!("{tag}: loss dropped nothing"));
                }
                ChaosClass::Blackout
                    if c.off.fault_blackout_time.is_zero()
                        || c.off.link_faults.iter().all(|f| f.blackout_drops == 0) =>
                {
                    v.push(format!("{tag}: blackout windows dropped nothing"));
                }
                _ => {}
            }
            let adaptive = &c.adaptive;
            if adaptive.client_on_fraction.is_none()
                || adaptive.client_breaker_trips.is_none()
                || adaptive.server_breaker_trips.is_none()
            {
                v.push(format!("{tag}: the adaptive stack was not live"));
            }
            if !c.within_bound(CHAOS_BOUND_FACTOR, CHAOS_BOUND_SLACK) {
                v.push(format!(
                    "{tag}: adaptive p99 {:?} exceeds {CHAOS_BOUND_FACTOR}x oracle {:?} \
                     + {CHAOS_BOUND_SLACK}",
                    adaptive.measured_p99,
                    c.oracle_p99()
                ));
            }
        }
        v
    }
}

/// The degradation bound the joint adaptive control plane must satisfy
/// in every knob-grid cell: P99 within `KNOBS_BOUND_FACTOR ×
/// best-static-corner + KNOBS_BOUND_SLACK`. Much tighter than the chaos
/// bound — the grid is fault-free, so the only adaptive overheads are
/// ε-greedy exploration and the knobs' convergence transient.
pub const KNOBS_BOUND_FACTOR: f64 = 1.1;
/// Additive slack for the knob-grid degradation bound.
pub const KNOBS_BOUND_SLACK: Nanos = Nanos::from_micros(100);

/// Delayed-ACK timeout used uniformly across every knob-grid arm. The
/// Linux-default 40 ms would turn each Nagle/delayed-ACK interaction
/// stall into an outage at simulated timescales; 500 µs keeps the stall
/// real (it dominates the affected corners' P99) but lets every arm
/// finish inside the measure window.
pub const KNOBS_DELACK_TIMEOUT: Nanos = Nanos::from_micros(500);

/// One static corner of the knob cube, labeled.
#[derive(Debug, Clone)]
pub struct KnobCorner {
    /// Corner coordinates: Nagle, delayed ACKs, fixed cork limit.
    pub nagle: bool,
    /// Delayed ACKs enabled.
    pub delayed_ack: bool,
    /// Two-MSS cork limit enabled.
    pub cork: bool,
    /// The run's results.
    pub result: PointResult,
}

impl KnobCorner {
    /// Stable label, e.g. `"nagle+delack-cork"`.
    pub fn label(&self) -> String {
        let sign = |b: bool| if b { '+' } else { '-' };
        format!(
            "{}nagle{}delack{}cork",
            sign(self.nagle),
            sign(self.delayed_ack),
            sign(self.cork)
        )
    }
}

/// One cell of the knob grid: a (client cost c, fan-in N) point run
/// under all eight static knob corners, the Nagle-only adaptive plane
/// (the paper's single-knob policy), and the joint adaptive plane
/// driving all three knobs.
#[derive(Debug, Clone)]
pub struct KnobsCell {
    /// The client per-response app cost `c` (Figure 1's client cost).
    pub client_cost: Nanos,
    /// Concurrent client connections.
    pub num_clients: usize,
    /// The eight static corners, in (nagle, delack, cork) binary order.
    pub corners: Vec<KnobCorner>,
    /// The Nagle-only adaptive plane (today's single-knob behaviour).
    pub nagle_only: PointResult,
    /// The joint adaptive plane (Nagle + delayed-ACK + cork).
    pub joint: PointResult,
}

impl KnobsCell {
    /// The best (lowest) static-corner P99 — what an omniscient operator
    /// sweeping all eight corners would have picked.
    pub fn best_corner_p99(&self) -> Option<Nanos> {
        self.corners
            .iter()
            .filter_map(|c| c.result.measured_p99)
            .min()
    }

    /// The label of the best static corner.
    pub fn best_corner_label(&self) -> Option<String> {
        self.corners
            .iter()
            .filter(|c| c.result.measured_p99.is_some())
            .min_by_key(|c| c.result.measured_p99)
            .map(|c| c.label())
    }

    /// Joint-vs-best-corner P99 ratio (> 1 means the joint plane was
    /// worse than the best static corner).
    pub fn regression(&self) -> Option<f64> {
        p99_ratio(self.joint.measured_p99, self.best_corner_p99())
    }

    /// True if the joint plane's P99 stays within `factor × best-corner +
    /// slack`.
    pub fn within_bound(&self, factor: f64, slack: Nanos) -> bool {
        within(
            self.joint.measured_p99,
            self.best_corner_p99(),
            factor,
            slack,
        )
    }

    /// True if the joint plane's P99 strictly beats the Nagle-only
    /// adaptive plane's — the multi-knob payoff.
    pub fn joint_beats_nagle_only(&self) -> bool {
        match (self.joint.measured_p99, self.nagle_only.measured_p99) {
            (Some(joint), Some(single)) => joint < single,
            _ => false,
        }
    }
}

/// The knob grid experiment's full result.
#[derive(Debug, Clone)]
pub struct KnobsData {
    /// One cell per (client cost, fan-in), in sweep order.
    pub cells: Vec<KnobsCell>,
}

impl KnobsData {
    /// The worst joint-vs-best-corner P99 ratio across the grid.
    pub fn worst_regression(&self) -> Option<f64> {
        self.cells
            .iter()
            .filter_map(|c| c.regression())
            .max_by(|a, b| a.total_cmp(b))
    }

    /// The cell at the grid's highest client cost and fan-in — where the
    /// Nagle/delayed-ACK interaction bites hardest and the multi-knob
    /// plane must strictly beat the single-knob one.
    pub fn high_cell(&self) -> Option<&KnobsCell> {
        self.cells.iter().max_by_key(|c| (c.client_cost, c.num_clients))
    }

    /// Per-cell table: best static corner, the Nagle-only and joint
    /// planes' P99s, and the joint plane's per-knob counters.
    pub fn table(&self) -> String {
        let mut lines = vec![format!(
            "{:>6} {:>3} | {:>9} {:>18} | {:>9} {:>9} {:>6} | {:>5} {:>5} {:>5} {:>5}",
            "c-us",
            "N",
            "best-p99",
            "best-corner",
            "1knob-p99",
            "joint-p99",
            "ratio",
            "nag",
            "dack",
            "cork",
            "expl"
        )];
        for c in &self.cells {
            lines.push(format!(
                "{:>6.1} {:>3} | {:>9} {:>18} | {:>9} {:>9} {:>6} | {:>5} {:>5} {:>5} {:>5}",
                c.client_cost.as_micros_f64(),
                c.num_clients,
                fmt_us(c.best_corner_p99()),
                c.best_corner_label().unwrap_or_else(|| "n/a".into()),
                fmt_us(c.nagle_only.measured_p99),
                fmt_us(c.joint.measured_p99),
                fmt_ratio(c.regression()),
                c.joint.plane_nagle_switches.unwrap_or(0),
                c.joint.plane_delack_switches.unwrap_or(0),
                c.joint.plane_cork_switches.unwrap_or(0),
                c.joint.plane_explorations.unwrap_or(0),
            ));
        }
        lines.push(format!(
            "\nworst joint-vs-best-corner P99 ratio: {}",
            fmt_ratio(self.worst_regression())
        ));
        lines.join("\n") + "\n"
    }

    /// The acceptance gates: every corner measured, the joint plane was
    /// live on every knob and stayed within [`KNOBS_BOUND_FACTOR`] ×
    /// best corner + [`KNOBS_BOUND_SLACK`] in every cell, and on the
    /// [`high_cell`](Self::high_cell) it strictly beat the Nagle-only
    /// plane.
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        for c in &self.cells {
            let tag = format!("c={}/N={}", c.client_cost, c.num_clients);
            for corner in &c.corners {
                if corner.result.samples == 0 {
                    v.push(format!("{tag} corner {}: no samples", corner.label()));
                }
            }
            if !c.within_bound(KNOBS_BOUND_FACTOR, KNOBS_BOUND_SLACK) {
                v.push(format!(
                    "{tag}: joint p99 {:?} exceeds {KNOBS_BOUND_FACTOR}x best corner {:?} \
                     + {KNOBS_BOUND_SLACK}",
                    c.joint.measured_p99,
                    c.best_corner_p99()
                ));
            }
            if c.joint.plane_nagle_switches.is_none() {
                v.push(format!("{tag}: the joint plane reported no counters"));
            }
            if c.joint.plane_explorations.unwrap_or(0) == 0 {
                v.push(format!("{tag}: the joint plane never explored"));
            }
        }
        match self.high_cell() {
            Some(high) if !high.joint_beats_nagle_only() => v.push(format!(
                "high cell c={}/N={}: joint {:?} does not beat nagle-only {:?}",
                high.client_cost,
                high.num_clients,
                high.joint.measured_p99,
                high.nagle_only.measured_p99
            )),
            Some(_) => {}
            None => v.push("empty grid".into()),
        }
        v
    }
}

/// One knob grid: every (client cost, fan-in) cell it sweeps and the
/// load and window each cell's ten runs share.
#[derive(Debug, Clone, Copy)]
pub struct KnobsGrid {
    /// Client per-response app costs `c`.
    pub costs: &'static [Nanos],
    /// Fan-in widths.
    pub ns: &'static [usize],
    /// Aggregate offered load (requests/second).
    pub rate_rps: f64,
    /// Warmup excluded from measurement.
    pub warmup: Nanos,
    /// Measurement window.
    pub measure: Nanos,
    /// RNG seed.
    pub seed: u64,
}

impl KnobsGrid {
    /// The published grid (`BENCH_knobs.json`). Client cost c: the
    /// calibrated default, the Figure 2 bare-metal cost, and a heavier
    /// stand-in for an expensive client. The moderate aggregate load
    /// leaves enough backlog that every knob has a real effect, low
    /// enough that the single-connection high-c cell stays unsaturated.
    pub const FULL: KnobsGrid = KnobsGrid {
        costs: &[
            Nanos::from_nanos(300),
            Nanos::from_micros(4),
            Nanos::from_micros(12),
        ],
        ns: &[1, 4, 8],
        rate_rps: 24_000.0,
        warmup: BENCH_WARMUP,
        measure: BENCH_MEASURE,
        seed: BENCH_SEED,
    };
    /// The CI smoke grid: the c = 4 µs, N = 8 cell.
    pub const SMOKE: KnobsGrid = KnobsGrid {
        costs: &[Nanos::from_micros(4)],
        ns: &[8],
        rate_rps: 24_000.0,
        warmup: SMOKE_WARMUP,
        measure: SMOKE_MEASURE,
        seed: BENCH_SEED,
    };

    /// Runs the knob grid: for each client per-response cost `c` and
    /// each fan-in width, one cell of ten runs (eight static corners,
    /// Nagle-only plane, joint plane) at the same aggregate rate.
    ///
    /// Every arm shares the same uniform delayed-ACK timeout
    /// ([`KNOBS_DELACK_TIMEOUT`]) so the corners and the adaptive planes
    /// pay the same stall when delayed ACKs interact with Nagle.
    pub fn sweep(&self) -> KnobsData {
        // Cells (one per cost x width) run in parallel; the ten runs inside a
        // cell stay serial. Index-ordered merge keeps the output identical to
        // the serial nested loop.
        let mut specs = Vec::new();
        for &cost in self.costs {
            for &n in self.ns {
                specs.push((cost, n));
            }
        }
        let cells = run_grid(specs.len(), default_threads(), |i| {
            let (cost, n) = specs[i];
            let mut profile = CostProfile::calibrated();
            profile.app.client_response_base = cost;
            let base = RunConfig {
                profile,
                warmup: self.warmup,
                measure: self.measure,
                seed: self.seed,
                num_clients: n,
                overrides: Overrides {
                    delack_timeout: Some(KNOBS_DELACK_TIMEOUT),
                    ..Overrides::default()
                },
                ..RunConfig::new(WorkloadSpec::fig4a(self.rate_rps), NagleSetting::Off)
            };
            let corners = [false, true]
                .iter()
                .flat_map(|&nagle| {
                    [false, true].iter().flat_map(move |&delayed_ack| {
                        [false, true].iter().map(move |&cork| (nagle, delayed_ack, cork))
                    })
                })
                .map(|(nagle, delayed_ack, cork)| KnobCorner {
                    nagle,
                    delayed_ack,
                    cork,
                    result: run_point(&RunConfig {
                        nagle: NagleSetting::Corner {
                            nagle,
                            delayed_ack,
                            cork,
                        },
                        ..base
                    }),
                })
                .collect();
            let nagle_only = run_point(&RunConfig {
                nagle: NagleSetting::Plane {
                    objective: Objective::MinLatency,
                    delack: false,
                    cork: false,
                },
                ..base
            });
            let joint = run_point(&RunConfig {
                nagle: NagleSetting::Plane {
                    objective: Objective::MinLatency,
                    delack: true,
                    cork: true,
                },
                ..base
            });
            KnobsCell {
                client_cost: cost,
                num_clients: n,
                corners,
                nagle_only,
                joint,
            }
        });
        KnobsData { cells }
    }
}

/// One chaos grid: every (fan-in, class, intensity) cell it sweeps and
/// the load and window each cell's three runs share.
#[derive(Debug, Clone, Copy)]
pub struct ChaosGrid {
    /// Fault classes, in sweep order.
    pub classes: &'static [ChaosClass],
    /// Class intensities in `(0, 1]`.
    pub intensities: &'static [f64],
    /// Fan-in widths.
    pub ns: &'static [usize],
    /// Aggregate offered load (requests/second).
    pub rate_rps: f64,
    /// Warmup excluded from measurement.
    pub warmup: Nanos,
    /// Measurement window.
    pub measure: Nanos,
    /// RNG seed.
    pub seed: u64,
}

impl ChaosGrid {
    /// The published grid (`BENCH_chaos.json`). Fan-in starts at 4: the
    /// aggregate rate over a single connection puts bursty loss into the
    /// documented go-back-N collapse regime (EXPERIMENTS.md, known
    /// divergence 4). The moderate load is high enough that batching
    /// matters, low enough that a lossy go-back-N connection can still
    /// drain its backlog.
    pub const FULL: ChaosGrid = ChaosGrid {
        classes: &ChaosClass::ALL,
        intensities: &[0.5, 1.0],
        ns: &[4, 8],
        rate_rps: 24_000.0,
        warmup: BENCH_WARMUP,
        measure: BENCH_MEASURE,
        seed: BENCH_SEED,
    };
    /// The CI smoke grid: one loss and one blackout cell at N = 4.
    pub const SMOKE: ChaosGrid = ChaosGrid {
        classes: &[ChaosClass::Loss, ChaosClass::Blackout],
        intensities: &[1.0],
        ns: &[4],
        rate_rps: 40_000.0,
        warmup: SMOKE_WARMUP,
        measure: SMOKE_MEASURE,
        seed: 0xC405,
    };

    /// Runs the chaos grid: for each fan-in width, each fault class, and
    /// each intensity, one cell of three runs (static off, static on,
    /// adaptive) at the same aggregate rate.
    ///
    /// The adaptive run is the graceful-degradation configuration under
    /// test: the Nagle-only control plane behind a [`CircuitBreaker`]
    /// (batchpolicy::CircuitBreaker) with the default trip/backoff
    /// profile, with estimator confidence driven by
    /// [`CHAOS_STALENESS_BOUND`].
    pub fn sweep(&self) -> ChaosData {
        // Enumerate the grid up front, then run cells in parallel; the merge
        // is by cell index, so the output order (and every byte in it) matches
        // the serial triple loop this replaces.
        let mut specs = Vec::new();
        for &n in self.ns {
            for &class in self.classes {
                for &intensity in self.intensities {
                    specs.push((n, class, intensity));
                }
            }
        }
        let cells = run_grid(specs.len(), default_threads(), |i| {
            let (n, class, intensity) = specs[i];
            let base = RunConfig {
                warmup: self.warmup,
                measure: self.measure,
                seed: self.seed,
                num_clients: n,
                fault: class.fault_at(intensity),
                overrides: Overrides {
                    // The Linux-default 200 ms RTO floor exceeds the
                    // whole measure window, and exponential backoff
                    // toward the 60 s cap can park a lossy connection
                    // past it entirely; clamp both (identically in
                    // all three arms) so loss episodes recover at
                    // simulation timescales.
                    min_rto: Some(Nanos::from_millis(5)),
                    max_rto: Some(Nanos::from_millis(40)),
                    ..Overrides::default()
                },
                ..RunConfig::new(WorkloadSpec::fig4a(self.rate_rps), NagleSetting::Off)
            };
            let off = run_point(&base);
            let on = run_point(&RunConfig {
                nagle: NagleSetting::On,
                ..base
            });
            let adaptive = run_point(&RunConfig {
                nagle: NagleSetting::Plane {
                    objective: Objective::MinLatency,
                    delack: false,
                    cork: false,
                },
                staleness_bound: Some(CHAOS_STALENESS_BOUND),
                breaker: Some(BreakerConfig::default()),
                ..base
            });
            ChaosCell {
                class,
                intensity,
                num_clients: n,
                off,
                on,
                adaptive,
            }
        });
        ChaosData { cells }
    }
}

/// The adversarial fault classes the adversary experiment sweeps: unlike
/// the chaos classes, which impair *delivery*, these impair the
/// *metadata* itself — the exchange payload is garbled, or the peer that
/// produced it restarts and its counters start over from zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversaryClass {
    /// Deterministic bit flips on the in-flight exchange option: one
    /// random (field, bit) target per corrupted segment, up to 25% of
    /// exchange-carrying segments at full intensity.
    Corrupt,
    /// Periodic endpoint restarts: a client process dies mid-run, every
    /// socket's counters reset, and it reconnects with a fresh epoch —
    /// every 50 ms at full intensity.
    Restart,
}

impl AdversaryClass {
    /// Every class, in sweep order.
    pub const ALL: [AdversaryClass; 2] = [AdversaryClass::Corrupt, AdversaryClass::Restart];

    /// Stable label used in tables and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            AdversaryClass::Corrupt => "corrupt",
            AdversaryClass::Restart => "restart",
        }
    }

    /// The fault configuration for this class at `intensity ∈ (0, 1]`.
    ///
    /// Corruption starts at 10 ms (past the handshake); restarts first
    /// fire at 25 ms and then repeat with a period of `50 ms / intensity`,
    /// so even the smoke window sees several full die/reconnect/resync
    /// cycles.
    ///
    /// # Panics
    ///
    /// Panics if `intensity` is outside `(0, 1]`.
    pub fn fault_at(&self, intensity: f64) -> FaultConfig {
        assert!(
            intensity > 0.0 && intensity <= 1.0,
            "adversary intensity must be in (0, 1], got {intensity}"
        );
        let mut fault = FaultConfig {
            start_at: Nanos::from_millis(10),
            ..FaultConfig::default()
        };
        match self {
            AdversaryClass::Corrupt => {
                fault.corrupt = Some(CorruptConfig {
                    probability: 0.25 * intensity,
                });
            }
            AdversaryClass::Restart => {
                fault.restart = Some(RestartSchedule {
                    first_at: Nanos::from_millis(25),
                    period: Nanos::from_nanos((50_000_000.0 / intensity) as u64),
                });
            }
        }
        fault
    }
}

/// One adversary cell: an adversarial fault class at one intensity and
/// fan-in width, run under both static baselines plus two otherwise
/// identical adaptive arms that differ only in whether incoming exchanges
/// are validated. The guarded arm is the hardened configuration under
/// test; the exposed arm is the ablation showing validation is
/// load-bearing.
#[derive(Debug, Clone)]
pub struct AdversaryCell {
    /// The injected fault class.
    pub class: AdversaryClass,
    /// The class intensity knob in `(0, 1]`.
    pub intensity: f64,
    /// Concurrent client connections.
    pub num_clients: usize,
    /// Static Nagle-off baseline under this fault.
    pub off: PointResult,
    /// Static Nagle-on baseline under this fault.
    pub on: PointResult,
    /// Adaptive policy with peer-state validation (Nagle-only plane +
    /// staleness bound + safe-on circuit breaker + validator).
    pub guarded: PointResult,
    /// The same adaptive policy with validation disabled — garbled or
    /// restart-spanning windows reach the estimator unchecked.
    pub exposed: PointResult,
}

impl AdversaryCell {
    /// The static oracle: the better (lower) of the two static P99s.
    pub fn oracle_p99(&self) -> Option<Nanos> {
        better_p99(self.off.measured_p99, self.on.measured_p99)
    }

    /// Guarded-vs-oracle P99 ratio (> 1 means the guarded policy was
    /// worse than the best static choice).
    pub fn regression(&self) -> Option<f64> {
        p99_ratio(self.guarded.measured_p99, self.oracle_p99())
    }

    /// Exposed-vs-oracle P99 ratio — how badly unvalidated metadata
    /// poisons the same policy stack.
    pub fn exposed_regression(&self) -> Option<f64> {
        p99_ratio(self.exposed.measured_p99, self.oracle_p99())
    }

    /// Circuit-breaker trips of the guarded run, client 0 plus server.
    pub fn breaker_trips(&self) -> u64 {
        self.guarded.client_breaker_trips.unwrap_or(0)
            + self.guarded.server_breaker_trips.unwrap_or(0)
    }

    /// True if the guarded P99 stays within `factor × oracle + slack` —
    /// the same degradation bound the chaos grid enforces.
    pub fn within_bound(&self, factor: f64, slack: Nanos) -> bool {
        within(self.guarded.measured_p99, self.oracle_p99(), factor, slack)
    }

    /// True if the *exposed* arm stays within the bound. The experiment's
    /// point is that at least one cell fails this: without validation the
    /// same policy stack degrades past the bound.
    pub fn exposed_within_bound(&self, factor: f64, slack: Nanos) -> bool {
        within(self.exposed.measured_p99, self.oracle_p99(), factor, slack)
    }
}

/// The adversary experiment's result: every cell of one grid.
#[derive(Debug, Clone)]
pub struct AdversaryData {
    /// One cell per (fan-in, class, intensity), in sweep order.
    pub cells: Vec<AdversaryCell>,
    /// The grid the cells ran.
    pub grid: AdversaryGrid,
}

impl AdversaryData {
    /// The worst guarded-vs-oracle P99 ratio across the grid.
    pub fn worst_regression(&self) -> Option<f64> {
        self.cells
            .iter()
            .filter_map(|c| c.regression())
            .max_by(|a, b| a.total_cmp(b))
    }

    /// Exposed arms that broke the degradation bound — at least one
    /// means the validator is demonstrably load-bearing on this grid, not
    /// a no-op rubber stamp.
    pub fn exposed_breaches(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| !c.exposed_within_bound(CHAOS_BOUND_FACTOR, self.grid.bound_slack))
            .count()
    }

    /// Per-cell table: all four P99s, both oracle ratios, and the
    /// guarded arm's validator verdicts and breaker trips.
    pub fn table(&self) -> String {
        let mut lines = vec![format!(
            "{:>3} {:>8} {:>5} | {:>9} {:>9} {:>9} {:>9} | {:>9} {:>6} {:>6} | {:>7} {:>6} {:>5}",
            "N",
            "class",
            "int",
            "off-p99",
            "on-p99",
            "guard-p99",
            "expo-p99",
            "oracle",
            "g-rat",
            "e-rat",
            "rejects",
            "epochs",
            "trips"
        )];
        for c in &self.cells {
            let v = c.guarded.validation.unwrap_or_default();
            lines.push(format!(
                "{:>3} {:>8} {:>5.2} | {:>9} {:>9} {:>9} {:>9} | {:>9} {:>6} {:>6} | {:>7} {:>6} {:>5}",
                c.num_clients,
                c.class.name(),
                c.intensity,
                fmt_us(c.off.measured_p99),
                fmt_us(c.on.measured_p99),
                fmt_us(c.guarded.measured_p99),
                fmt_us(c.exposed.measured_p99),
                fmt_us(c.oracle_p99()),
                fmt_ratio(c.regression()),
                fmt_ratio(c.exposed_regression()),
                v.rejected,
                v.epoch_changes,
                c.breaker_trips(),
            ));
        }
        lines.push(format!(
            "\nworst guarded-vs-oracle P99 ratio: {}",
            fmt_ratio(self.worst_regression())
        ));
        lines.push(format!(
            "exposed arms breaking the bound: {}/{}",
            self.exposed_breaches(),
            self.cells.len()
        ));
        lines.join("\n") + "\n"
    }

    /// The acceptance gates: per cell, every arm measured, the fault
    /// reached the metadata path and the validator caught it (corruption
    /// rejected, restarts seen as epoch changes with goodput kept), and
    /// the guarded P99 stayed within [`CHAOS_BOUND_FACTOR`] × oracle +
    /// the grid's slack; across the grid, at least one exposed arm broke
    /// that bound.
    pub fn violations(&self) -> Vec<String> {
        let slack = self.grid.bound_slack;
        let mut v = Vec::new();
        for c in &self.cells {
            let tag = format!("{}/{:.2}/N={}", c.class.name(), c.intensity, c.num_clients);
            for (label, p) in [
                ("off", &c.off),
                ("on", &c.on),
                ("guarded", &c.guarded),
                ("exposed", &c.exposed),
            ] {
                if p.samples == 0 {
                    v.push(format!("{tag} [{label}]: no samples survived the faults"));
                }
            }
            let g = &c.guarded;
            let checks = g.validation.unwrap_or_default();
            match c.class {
                AdversaryClass::Corrupt => {
                    let corrupted: u64 = g.link_faults.iter().map(|f| f.corruptions).sum();
                    if corrupted == 0 {
                        v.push(format!("{tag}: no exchange was ever corrupted"));
                    } else if checks.rejected == 0 {
                        v.push(format!(
                            "{tag}: corruption fired {corrupted} times but the validator \
                             rejected nothing"
                        ));
                    }
                }
                AdversaryClass::Restart => {
                    if g.fault_restarts == 0 || g.client_restarts == 0 {
                        v.push(format!(
                            "{tag}: {} restarts injected, {} observed by clients",
                            g.fault_restarts, g.client_restarts
                        ));
                    }
                    if checks.epoch_changes == 0 {
                        v.push(format!("{tag}: no epoch change was detected"));
                    }
                    // Recovery, not just survival: the guarded arm keeps
                    // serving a solid majority of the offered load across
                    // every die/reconnect/resync cycle.
                    if g.achieved_rps <= 0.5 * g.offered_rps {
                        v.push(format!(
                            "{tag}: guarded arm served only {:.0}/{:.0} rps across restarts",
                            g.achieved_rps, g.offered_rps
                        ));
                    }
                }
            }
            if !c.within_bound(CHAOS_BOUND_FACTOR, slack) {
                v.push(format!(
                    "{tag}: guarded p99 {:?} exceeds {CHAOS_BOUND_FACTOR}x oracle {:?} + {slack}",
                    g.measured_p99,
                    c.oracle_p99()
                ));
            }
        }
        if self.exposed_breaches() == 0 {
            v.push(
                "every exposed arm stayed within the bound — validation is not load-bearing".into(),
            );
        }
        v
    }
}

/// The breaker profile for the adversary's adaptive arms — deliberately
/// more pessimistic than [`BreakerConfig::default`], because the threat
/// model differs. Chaos faults impair *delivery*: staleness collapses
/// confidence for the whole outage, so a short backoff and quick restore
/// suffice. Adversarial faults impair the *metadata*: a garbled window
/// small enough to pass plausibility checks carries full confidence, so
/// the only trustworthy signal is the validator's rejection stream — and
/// any rejection means the peer state cannot currently be trusted at
/// all. Hence: `min_confidence` 0.75 (a single rejected exchange halves
/// confidence to 0.5 and already counts), `trip_after` 1 (first suspect
/// tick fails static-safe), a long escalating backoff with a slow
/// restore (a still-corrupted probe re-opens and doubles the wait), and
/// `safe_on` true because at the experiment's operating point — past the
/// no-Nagle knee — the safe static mode is batching *on* (the paper's
/// range-extension argument), not the Redis default.
pub fn adversary_breaker() -> BreakerConfig {
    BreakerConfig {
        min_confidence: 0.75,
        trip_after: 1,
        safe_on: true,
        initial_backoff: Nanos::from_millis(50),
        max_backoff: Nanos::from_secs(2),
        restore_after: 8,
    }
}

/// One adversary grid: every (fan-in, class, intensity) cell it sweeps,
/// the load and window each cell's four runs share, and the slack its
/// degradation bound allows.
#[derive(Debug, Clone, Copy)]
pub struct AdversaryGrid {
    /// Adversarial fault classes, in sweep order.
    pub classes: &'static [AdversaryClass],
    /// Class intensities in `(0, 1]`.
    pub intensities: &'static [f64],
    /// Fan-in widths.
    pub ns: &'static [usize],
    /// Aggregate offered load (requests/second).
    pub rate_rps: f64,
    /// Warmup excluded from measurement.
    pub warmup: Nanos,
    /// Measurement window.
    pub measure: Nanos,
    /// RNG seed.
    pub seed: u64,
    /// Additive slack of the degradation bound (the factor is
    /// [`CHAOS_BOUND_FACTOR`]).
    pub bound_slack: Nanos,
}

impl AdversaryGrid {
    /// The published grid (`BENCH_adversary.json`). Fan-in stays small:
    /// the adversarial faults target the metadata plane, not delivery, so
    /// a single connection exercises them fully; N = 2 adds the
    /// multi-connection listener registry to the attack surface. The
    /// load sits past the no-Nagle knee (~88 kRPS), where the static arms
    /// genuinely disagree (off collapses, on holds), so a poisoned policy
    /// pinned on the wrong arm shows up as a large P99 regression.
    pub const FULL: AdversaryGrid = AdversaryGrid {
        classes: &AdversaryClass::ALL,
        intensities: &[0.5, 1.0],
        ns: &[1, 2],
        rate_rps: 95_000.0,
        warmup: BENCH_WARMUP,
        measure: BENCH_MEASURE,
        seed: BENCH_SEED,
        bound_slack: CHAOS_BOUND_SLACK,
    };
    /// The CI smoke grid: both classes at full intensity, N = 1. Its
    /// 150 ms window holds just a handful of restart/recovery cycles, so
    /// the guarded P99 lands inside the recovery transient instead of
    /// averaging over it the way the full grid's window does; its slack
    /// is [`CHAOS_BOUND_SLACK`] plus 300 µs to absorb that sampling
    /// noise.
    pub const SMOKE: AdversaryGrid = AdversaryGrid {
        classes: &AdversaryClass::ALL,
        intensities: &[1.0],
        ns: &[1],
        rate_rps: 95_000.0,
        warmup: SMOKE_WARMUP,
        measure: SMOKE_MEASURE,
        seed: 0xC405,
        bound_slack: Nanos::from_micros(600),
    };

    /// Runs the adversary grid: for each fan-in width, each adversarial
    /// fault class, and each intensity, one cell of four runs (static
    /// off, static on, guarded adaptive, exposed adaptive) at the same
    /// aggregate rate.
    ///
    /// The guarded and exposed arms share every knob — objective, seeds,
    /// staleness bound, breaker — and differ only in `validate`, so any
    /// latency gap between them is attributable to peer-state validation.
    pub fn sweep(&self) -> AdversaryData {
        // Same parallel-cells/serial-merge shape as the chaos grid.
        let mut specs = Vec::new();
        for &n in self.ns {
            for &class in self.classes {
                for &intensity in self.intensities {
                    specs.push((n, class, intensity));
                }
            }
        }
        let cells = run_grid(specs.len(), default_threads(), |i| {
            let (n, class, intensity) = specs[i];
            let base = RunConfig {
                warmup: self.warmup,
                measure: self.measure,
                seed: self.seed,
                num_clients: n,
                fault: class.fault_at(intensity),
                // The validator rides along in the static arms too:
                // it cannot change their latency (no policy consumes
                // the estimates) but its counters prove the faults
                // actually reached the metadata path.
                validate: Some(ValidateConfig::default()),
                overrides: Overrides {
                    // Same RTO clamps as the chaos grid, identical in
                    // all four arms, so restart-induced loss episodes
                    // recover at simulation timescales.
                    min_rto: Some(Nanos::from_millis(5)),
                    max_rto: Some(Nanos::from_millis(40)),
                    ..Overrides::default()
                },
                ..RunConfig::new(WorkloadSpec::fig4a(self.rate_rps), NagleSetting::Off)
            };
            let off = run_point(&base);
            let on = run_point(&RunConfig {
                nagle: NagleSetting::On,
                ..base
            });
            let guarded_cfg = RunConfig {
                nagle: NagleSetting::Plane {
                    objective: Objective::MinLatency,
                    delack: false,
                    cork: false,
                },
                staleness_bound: Some(CHAOS_STALENESS_BOUND),
                breaker: Some(adversary_breaker()),
                ..base
            };
            let guarded = run_point(&guarded_cfg);
            let exposed = run_point(&RunConfig {
                validate: None,
                ..guarded_cfg
            });
            AdversaryCell {
                class,
                intensity,
                num_clients: n,
                off,
                on,
                guarded,
                exposed,
            }
        });
        AdversaryData { cells, grid: *self }
    }
}

/// Minimum fraction of measurement windows in which the service-level
/// estimates must rank the hot shard's composed delay highest, checked
/// on the *unadapted* (`TCP_NODELAY`-pinned) run at the saturated top
/// rate. The diagnostic claim lives on that arm deliberately: the
/// adaptive planes consume the very signal being measured — once the
/// hot upstream flips to batching, its delay drops back into the pack.
pub const SHARD_HOT_RANK_MIN: f64 = 0.9;
/// Degradation bound for every shard-grid cell: adaptive P99 within
/// `SHARD_BOUND_FACTOR × best-static-corner + SHARD_BOUND_SLACK`. Looser
/// than the knob-grid bound because at unsaturated rates the per-shard
/// planes pay exploration excursions on upstreams where both corners are
/// already cheap; the headline claim (strictly beating the best corner)
/// is asserted separately on the saturated cell.
pub const SHARD_BOUND_FACTOR: f64 = 1.5;
/// Additive slack for the shard-grid degradation bound.
pub const SHARD_BOUND_SLACK: Nanos = Nanos::from_micros(60);

/// One cell of the sharded-proxy grid: both static upstream corners and
/// the per-shard adaptive planes, at one aggregate rate.
#[derive(Debug, Clone)]
pub struct ShardCell {
    /// Aggregate offered load (requests/second).
    pub rate_rps: f64,
    /// Upstreams pinned `TCP_NODELAY`.
    pub off: FailoverPointResult,
    /// Upstreams pinned Nagle-on.
    pub on: FailoverPointResult,
    /// Per-shard adaptive planes at the proxy.
    pub adaptive: FailoverPointResult,
}

impl ShardCell {
    /// The best (lowest) static-corner P99 — the global pin an operator
    /// sweeping both corners would have picked for the whole fleet.
    pub fn best_corner_p99(&self) -> Option<Nanos> {
        better_p99(self.off.measured_p99, self.on.measured_p99)
    }

    /// Adaptive-vs-best-corner P99 ratio (< 1 means the per-shard planes
    /// beat every global static choice).
    pub fn regression(&self) -> Option<f64> {
        p99_ratio(self.adaptive.measured_p99, self.best_corner_p99())
    }

    /// True if the adaptive P99 stays within `factor × best-corner +
    /// slack`.
    pub fn within_bound(&self, factor: f64, slack: Nanos) -> bool {
        within(
            self.adaptive.measured_p99,
            self.best_corner_p99(),
            factor,
            slack,
        )
    }
}

/// The sharded-proxy experiment's full result.
#[derive(Debug, Clone)]
pub struct ShardData {
    /// One cell per aggregate rate, in sweep order.
    pub cells: Vec<ShardCell>,
    /// The grid the cells ran.
    pub grid: ShardGrid,
}

impl ShardData {
    /// Per-rate table: the three P99s, the best-corner ratio, the hot
    /// shard's rank on the unadapted run, and each shard's on-fraction
    /// (`*` marks the hot shard).
    pub fn table(&self) -> String {
        let mut lines = vec![format!(
            "{:>8} | {:>9} {:>9} {:>9} | {:>6} | {:>8} {:>8} | {:>16}",
            "rate",
            "off-p99",
            "on-p99",
            "adap-p99",
            "ratio",
            "hot-rank",
            "pxy-cpu",
            "on-frac/shard"
        )];
        for c in &self.cells {
            let fracs: Vec<String> = c
                .adaptive
                .shard_on_fraction
                .iter()
                .enumerate()
                .map(|(s, f)| {
                    let tag = if s == c.adaptive.hot_shard { "*" } else { "" };
                    format!("{tag}{f:.2}")
                })
                .collect();
            lines.push(format!(
                "{:>8.0} | {:>9} {:>9} {:>9} | {:>6} | {:>8} {:>8.2} | {:>16}",
                c.rate_rps,
                fmt_us(c.off.measured_p99),
                fmt_us(c.on.measured_p99),
                fmt_us(c.adaptive.measured_p99),
                fmt_ratio(c.regression()),
                c.off
                    .hot_rank_fraction
                    .map(|f| format!("{:.0}%", f * 100.0))
                    .unwrap_or_else(|| "n/a".into()),
                c.off.proxy_cpu.app,
                fracs.join(" "),
            ));
        }
        lines.join("\n") + "\n"
    }

    /// The acceptance gates. Per cell: every arm measured, kept every
    /// shard busy and routed most traffic to the hot shard; every shard
    /// has a composed estimate; and the adaptive P99 stays within
    /// [`SHARD_BOUND_FACTOR`] × best corner + [`SHARD_BOUND_SLACK`]. On
    /// the last cell of a grid that [`saturates`](ShardGrid::saturates),
    /// the headline claims: the unadapted
    /// run's estimates rank the hot shard first in at least
    /// [`SHARD_HOT_RANK_MIN`] of windows, the per-shard planes strictly
    /// beat the best corner, and they diverged — the hot plane settled
    /// on batching while a cold one did not.
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        for c in &self.cells {
            let tag = format!("rate {}", c.rate_rps);
            for (label, r) in [("off", &c.off), ("on", &c.on), ("adaptive", &c.adaptive)] {
                if r.samples == 0 {
                    v.push(format!("{tag}: {label} arm recorded no samples"));
                }
                if r.per_shard_requests.contains(&0) {
                    v.push(format!(
                        "{tag}: {label} arm left a shard idle: {:?}",
                        r.per_shard_requests
                    ));
                }
                // Skew reached the wire: the hot shard carried the most
                // requests.
                let busiest =
                    (0..r.per_shard_requests.len()).max_by_key(|&s| r.per_shard_requests[s]);
                if busiest != Some(r.hot_shard) {
                    v.push(format!(
                        "{tag}: {label} arm routed most traffic to shard {busiest:?}, expected \
                         hot {}",
                        r.hot_shard
                    ));
                }
            }
            if c.adaptive.shard_estimates.iter().any(|e| e.is_none()) {
                v.push(format!("{tag}: missing per-shard estimates"));
            }
            if !c.within_bound(SHARD_BOUND_FACTOR, SHARD_BOUND_SLACK) {
                v.push(format!(
                    "{tag}: adaptive {:?} exceeded {SHARD_BOUND_FACTOR}x best corner {:?} + \
                     {SHARD_BOUND_SLACK}",
                    c.adaptive.measured_p99,
                    c.best_corner_p99()
                ));
            }
        }
        if !self.grid.saturates {
            return v;
        }
        let Some(hot) = self.cells.last() else {
            v.push("empty grid".into());
            return v;
        };
        let tag = format!("rate {}", hot.rate_rps);
        match hot.off.hot_rank_fraction {
            Some(rank) if rank >= SHARD_HOT_RANK_MIN => {}
            rank => v.push(format!(
                "{tag}: estimate ranked the hot shard first in {rank:?} of windows"
            )),
        }
        if !hot.regression().is_some_and(|r| r < 1.0) {
            v.push(format!(
                "{tag}: adaptive P99 {:?} did not beat the best corner {:?}",
                hot.adaptive.measured_p99,
                hot.best_corner_p99()
            ));
        }
        // The win is per-shard, not a lucky global flip.
        let fracs = &hot.adaptive.shard_on_fraction;
        let hot_frac = fracs[hot.adaptive.hot_shard];
        let min_cold = (0..fracs.len())
            .filter(|&s| s != hot.adaptive.hot_shard)
            .map(|s| fracs[s])
            .fold(f64::INFINITY, f64::min);
        if !(hot_frac > 0.8 && min_cold < 0.6) {
            v.push(format!(
                "{tag}: planes did not diverge (hot on-fraction {hot_frac:.2}, coldest \
                 {min_cold:.2})"
            ));
        }
        v
    }
}

/// One sharded-proxy grid: the aggregate rates it sweeps and the tier
/// shape, skew and window every cell shares.
#[derive(Debug, Clone, Copy)]
pub struct ShardGrid {
    /// Aggregate offered rates (requests/second), ascending; the last is
    /// the saturated cell the headline claims are checked on.
    pub rates: &'static [f64],
    /// Client connections into the proxy.
    pub num_clients: usize,
    /// Shards behind the proxy.
    pub num_shards: usize,
    /// Fraction of the traffic concentrated on the hot shard.
    pub hot_fraction: f64,
    /// Warmup excluded from measurement.
    pub warmup: Nanos,
    /// Measurement window.
    pub measure: Nanos,
    /// RNG seed.
    pub seed: u64,
    /// Whether the last cell saturates the hot shard's core under
    /// `TCP_NODELAY`, so the headline claims are checked on it.
    pub saturates: bool,
}

impl ShardGrid {
    /// The published grid (`BENCH_shard.json`): comfortably unsaturated,
    /// moderate, and hot enough that the skewed shard's per-delivery
    /// receive work saturates its core under `TCP_NODELAY`.
    pub const FULL: ShardGrid = ShardGrid {
        rates: &[30_000.0, 60_000.0, 90_000.0],
        num_clients: 8,
        num_shards: 4,
        hot_fraction: 0.7,
        warmup: BENCH_WARMUP,
        measure: BENCH_MEASURE,
        seed: BENCH_SEED,
        saturates: true,
    };
    /// The CI smoke grid: the moderate cell alone, which does not
    /// saturate.
    pub const SMOKE: ShardGrid = ShardGrid {
        rates: &[60_000.0],
        num_clients: 8,
        num_shards: 4,
        hot_fraction: 0.7,
        warmup: SMOKE_WARMUP,
        measure: SMOKE_MEASURE,
        seed: 0x5AAD,
        saturates: false,
    };

    /// Runs the sharded-proxy grid: for each aggregate rate, one
    /// skewed-load cell of three two-tier runs — upstreams pinned off,
    /// pinned on, and per-shard adaptive. The skew concentrates
    /// `hot_fraction` of the traffic on one shard, so a *global* static
    /// pin is wrong for someone: the hot upstream wants request batching
    /// (amortizing the hot shard's per-delivery receive work), the cold
    /// ones want immediacy. The cell exposes whether the composed
    /// per-shard estimates (a) rank the hot shard first and (b) let the
    /// per-shard planes beat both global pins.
    pub fn sweep(&self) -> ShardData {
        let cells = run_grid(self.rates.len(), default_threads(), |i| {
            let rate = self.rates[i];
            let base = FailoverRunConfig {
                num_clients: self.num_clients,
                num_shards: self.num_shards,
                hot_fraction: self.hot_fraction,
                warmup: self.warmup,
                measure: self.measure,
                seed: self.seed,
                ..FailoverRunConfig::new(WorkloadSpec::shard(rate), FailoverArm::NoDefense, None)
            };
            let with = |setting| {
                run_failover_point(&FailoverRunConfig {
                    upstream: Some(setting),
                    ..base
                })
            };
            let off = with(ShardSetting::Corner { nagle: false });
            let on = with(ShardSetting::Corner { nagle: true });
            let adaptive = with(ShardSetting::Adaptive {
                objective: Objective::MinLatency,
            });
            ShardCell {
                rate_rps: rate,
                off,
                on,
                adaptive,
            }
        });
        ShardData { cells, grid: *self }
    }
}

/// Degradation bound for the full defense stack in every failover cell:
/// P99 within `FAILOVER_BOUND_FACTOR × never-failed oracle +
/// FAILOVER_BOUND_SLACK`. The slack absorbs the deadline-scan
/// granularity (a hedge can fire at most one proxy tick late).
pub const FAILOVER_BOUND_FACTOR: f64 = 3.0;
/// Additive slack for the full-stack failover bound.
pub const FAILOVER_BOUND_SLACK: Nanos = Nanos::from_micros(300);
/// The naive proxy must exceed this P99 multiple of the oracle in at
/// least one cell — the collapse the defense ladder exists to prevent.
pub const FAILOVER_NAIVE_FACTOR: f64 = 10.0;
/// Goodput floor for the full stack, as a fraction of the oracle's.
pub const FAILOVER_GOODPUT_MIN: f64 = 0.9;

/// One cell of the failover grid: a fault scenario, the never-failed
/// oracle, and the full defense-arm ladder under that fault.
#[derive(Debug, Clone)]
pub struct FailoverCell {
    /// The injected fault.
    pub scenario: FailoverScenario,
    /// The identical configuration with the fault plan disabled.
    pub oracle: FailoverPointResult,
    /// One run per [`FailoverArm`], in `FailoverArm::ALL` order.
    pub arms: Vec<(FailoverArm, FailoverPointResult)>,
}

impl FailoverCell {
    /// The result for one arm.
    pub fn arm(&self, arm: FailoverArm) -> &FailoverPointResult {
        &self
            .arms
            .iter()
            .find(|(a, _)| *a == arm)
            .expect("every arm runs in every cell")
            .1
    }

    /// One arm's P99 as a multiple of the oracle's.
    pub fn p99_ratio(&self, arm: FailoverArm) -> Option<f64> {
        p99_ratio(self.arm(arm).measured_p99, self.oracle.measured_p99)
    }

    /// True when the full stack holds the cell's acceptance bound: P99
    /// within `factor × oracle + slack` and goodput within
    /// [`FAILOVER_GOODPUT_MIN`] of the oracle's.
    pub fn full_within_bound(&self, factor: f64, slack: Nanos) -> bool {
        let full = self.arm(FailoverArm::Full);
        within(full.measured_p99, self.oracle.measured_p99, factor, slack)
            && full.achieved_rps >= FAILOVER_GOODPUT_MIN * self.oracle.achieved_rps
    }

    /// True when the naive proxy's P99 blew past `factor ×` the oracle
    /// (or stopped producing samples at all — total collapse).
    pub fn naive_collapsed(&self, factor: f64) -> bool {
        match self.p99_ratio(FailoverArm::NoDefense) {
            Some(r) => r > factor,
            None => true,
        }
    }
}

/// The failover experiment's full result.
#[derive(Debug, Clone)]
pub struct FailoverData {
    /// One cell per scenario, in [`FailoverScenario::ALL`] order.
    pub cells: Vec<FailoverCell>,
}

impl FailoverData {
    /// Per-scenario tables: the oracle, then each arm's P99 (and its
    /// multiple of the oracle's), goodput and defense counters.
    pub fn table(&self) -> String {
        let mut lines = Vec::new();
        for c in &self.cells {
            lines.push(format!(
                "scenario {:<13} oracle: p99 {:>8}µs goodput {:>7.0} rps",
                c.scenario.label(),
                fmt_us(c.oracle.measured_p99),
                c.oracle.achieved_rps,
            ));
            lines.push(format!(
                "  {:>12} | {:>9} {:>7} | {:>7} {:>6} {:>6} {:>5} {:>6} {:>6} {:>5}",
                "arm", "p99-us", "ratio", "rps", "t/o", "retry", "hedge", "trips", "fails", "dedup"
            ));
            for (arm, r) in &c.arms {
                lines.push(format!(
                    "  {:>12} | {:>9} {:>7} | {:>7.0} {:>6} {:>6} {:>5} {:>6} {:>6} {:>5}",
                    arm.label(),
                    fmt_us(r.measured_p99),
                    c.p99_ratio(*arm)
                        .map(|x| format!("{x:.1}x"))
                        .unwrap_or_else(|| "n/a".into()),
                    r.achieved_rps,
                    r.timeouts,
                    r.retries,
                    r.hedges,
                    r.breaker_trips,
                    r.failed,
                    r.dedup_hits,
                ));
            }
        }
        lines.join("\n") + "\n"
    }

    /// The acceptance gates. Per cell: a clean oracle, every arm
    /// measured, the fault engaged the full stack, and the full stack
    /// held its bound ([`FailoverCell::full_within_bound`] at
    /// [`FAILOVER_BOUND_FACTOR`] and [`FAILOVER_BOUND_SLACK`]). Across
    /// the grid: the naive proxy collapsed past
    /// [`FAILOVER_NAIVE_FACTOR`] somewhere, and retries, hedges, breaker
    /// trips and idempotency dedups all fired.
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        let (mut retries, mut hedges, mut trips, mut dedups) = (0, 0, 0, 0);
        for c in &self.cells {
            let tag = c.scenario.label();
            let oracle = &c.oracle;
            if oracle.samples == 0 || oracle.failed > 0 || oracle.upstream_resets > 0 {
                v.push(format!("{tag}: oracle run was not clean"));
            }
            for (arm, r) in &c.arms {
                if r.samples == 0 {
                    v.push(format!("{tag}: {} arm recorded no samples", arm.label()));
                }
            }
            let full = c.arm(FailoverArm::Full);
            if full.upstream_resets + full.timeouts + full.hedges == 0 {
                v.push(format!("{tag}: fault plan never engaged the full stack"));
            }
            if !c.full_within_bound(FAILOVER_BOUND_FACTOR, FAILOVER_BOUND_SLACK) {
                v.push(format!(
                    "{tag}: full stack p99 {:?} / goodput {:.0} outside \
                     {FAILOVER_BOUND_FACTOR}x+{FAILOVER_BOUND_SLACK} of oracle p99 {:?} / \
                     goodput {:.0}",
                    full.measured_p99, full.achieved_rps, oracle.measured_p99, oracle.achieved_rps,
                ));
            }
            let retry = c.arm(FailoverArm::Retry);
            retries += full.retries + retry.retries;
            hedges += full.hedges;
            trips += full.breaker_trips;
            dedups += full.dedup_hits + retry.dedup_hits;
        }
        if !self
            .cells
            .iter()
            .any(|c| c.naive_collapsed(FAILOVER_NAIVE_FACTOR))
        {
            v.push(format!(
                "no cell pushed the naive proxy past {FAILOVER_NAIVE_FACTOR}x oracle p99"
            ));
        }
        for (count, what) in [
            (retries, "no retry ever granted"),
            (hedges, "no hedge ever granted"),
            (trips, "no breaker ever tripped"),
            (dedups, "idempotency window never deduplicated a write"),
        ] {
            if count == 0 {
                v.push(format!("{what} across the grid"));
            }
        }
        v
    }
}

/// One failover grid: the load, tier shape, skew and window every
/// fault scenario's runs share.
#[derive(Debug, Clone, Copy)]
pub struct FailoverGrid {
    /// Aggregate offered load (requests/second).
    pub rate_rps: f64,
    /// Client connections into the proxy.
    pub num_clients: usize,
    /// Shards behind the proxy.
    pub num_shards: usize,
    /// Fraction of the traffic concentrated on the hot shard.
    pub hot_fraction: f64,
    /// Warmup excluded from measurement.
    pub warmup: Nanos,
    /// Measurement window.
    pub measure: Nanos,
    /// RNG seed.
    pub seed: u64,
}

impl FailoverGrid {
    /// The published grid (`BENCH_failover.json`). The load is hot
    /// enough that a crashed hot shard's traffic meaningfully loads its
    /// failover replica, comfortably below tier saturation so the
    /// oracle's tail stays tight. The grid pins its own window and seed:
    /// the crash lands a quarter into the window, the brownout duty cycle
    /// was tuned against this horizon, and the seed fixes which shard
    /// owns the hot key pool.
    pub const FULL: FailoverGrid = FailoverGrid {
        rate_rps: 30_000.0,
        num_clients: 4,
        num_shards: 4,
        hot_fraction: 0.7,
        warmup: BENCH_WARMUP,
        measure: Nanos::from_millis(800),
        seed: 0xFA11,
    };
    /// The CI smoke grid: a lighter load over a shorter window.
    pub const SMOKE: FailoverGrid = FailoverGrid {
        rate_rps: 20_000.0,
        num_clients: 4,
        num_shards: 4,
        hot_fraction: 0.7,
        warmup: SMOKE_WARMUP,
        measure: Nanos::from_millis(250),
        seed: 0xFA11,
    };

    /// Runs the failover grid: for each fault scenario (hot-shard crash,
    /// cold-shard brownout), the never-failed oracle plus every defense
    /// arm — naive, deadlines only, +retries, and the full
    /// retry/hedge/breaker stack with ring-successor failover routing.
    /// The cells expose the robustness claim: end-to-end estimation is
    /// not only a batching signal but the timing source for hedges and
    /// the confidence feed for breakers, and with both in place a shard
    /// can die mid-run while the client-visible tail stays within a small
    /// factor of a healthy tier.
    pub fn sweep(&self) -> FailoverData {
        let scenarios = FailoverScenario::ALL;
        let cells = run_grid(scenarios.len(), default_threads(), |i| {
            let scenario = scenarios[i];
            let base = FailoverRunConfig {
                num_clients: self.num_clients,
                num_shards: self.num_shards,
                hot_fraction: self.hot_fraction,
                warmup: self.warmup,
                measure: self.measure,
                seed: self.seed,
                ..FailoverRunConfig::new(
                    WorkloadSpec::shard(self.rate_rps),
                    FailoverArm::Full,
                    Some(scenario),
                )
            };
            let oracle = run_failover_point(&FailoverRunConfig {
                scenario: None,
                ..base
            });
            let arms = FailoverArm::ALL
                .iter()
                .map(|&arm| (arm, run_failover_point(&FailoverRunConfig { arm, ..base })))
                .collect();
            FailoverCell {
                scenario,
                oracle,
                arms,
            }
        });
        FailoverData { cells }
    }
}
