//! Layer-by-layer benchmark of the simulated service and the simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fanin_1024|adaptive_8|tier_brownout> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run repeats the workload's world, sub-seed after sub-seed, until
//! `--seconds` of host time have passed. The first pass over the
//! sub-seeds gives the simulated results (exact per seed); every later
//! repetition must reproduce them bit for bit. Host times are medians
//! over repetitions, scaled by a reference kernel timed in the same run
//! (see [`Kernel`]). `--trace 0` prints the end-to-end metrics; `--trace 1`
//! alternates untraced and traced repetitions of the same sub-seed and
//! prints the per-layer metrics. The last line of standard output is one
//! JSON object; any failed correctness check makes the exit code 1.
//! See `perfbench/README.md` for the workloads and the metrics.

mod trace;
mod world;

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use e2e_apps::{run_failover_point, run_point};
use simnet::{EventQueue, Histogram};
use tcpsim::Event;

use trace::{run_traced, Timed, Tracer, KINDS};
use world::{
    build_star, build_tier, drive, failover_fingerprint, fingerprint, outcome, point_fingerprint,
    Config, Observed, Outcome, Workload, DRAIN, ROLES, WORKLOADS,
};

/// Latency reported when a percentile falls on a failed or unanswered
/// request: above any limit.
const ABOVE_ANY_LIMIT_US: f64 = 1e12;

/// Set-up samples taken beside each repetition, so that they span the
/// run as the repetitions do.
const SETUP_SAMPLES_PER_REP: usize = 5;

/// Host time one set-up sample spans at least: a sample averages as many
/// builds of a small world as fit, so per-build jitter averages out.
const SETUP_SAMPLE_S: f64 = 0.002;

/// The reference kernel's time on the machine in `README.md` at its
/// typical speed. Host times are scaled by it: see [`Kernel`].
const REFERENCE_S: f64 = 0.03;

/// A fixed workload in the benchmark's own code, which no change to the
/// repository can speed up: pseudo-random read-modify-writes plus a bounded
/// binary heap, once over a 256 KiB table (cache-resident) and once over a
/// 16 MiB table (DRAM-bound). It is timed after every repetition; a run
/// reports its host times × `REFERENCE_S` ÷ the median of the geometric
/// means of the two passes. When other tenants slow the whole machine, the
/// kernel slows with the workload and the scaled time holds still.
struct Kernel {
    small: Vec<u64>,
    big: Vec<u64>,
    heap: BinaryHeap<Reverse<u64>>,
}

impl Kernel {
    fn new() -> Self {
        Kernel {
            small: vec![1; 1 << 15],
            big: vec![1; 1 << 21],
            heap: BinaryHeap::with_capacity(4097),
        }
    }

    /// Geometric mean of the two passes' host seconds.
    fn time(&mut self) -> f64 {
        let small = Self::pass(&mut self.small, &mut self.heap);
        let big = Self::pass(&mut self.big, &mut self.heap);
        (small * big).sqrt()
    }

    fn pass(table: &mut [u64], heap: &mut BinaryHeap<Reverse<u64>>) -> f64 {
        let t = Instant::now();
        let mask = table.len() - 1;
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        heap.clear();
        for i in 0..300_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut table[x as usize & mask];
            *slot = slot.wrapping_add(i);
            heap.push(Reverse(x >> 20));
            if heap.len() > 4096 {
                heap.pop();
            }
        }
        std::hint::black_box(&*table);
        t.elapsed().as_secs_f64()
    }
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The `i`-th sub-seed of a run seed (SplitMix64 finalizer).
fn subseed(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One repetition of a world.
struct Rep {
    /// Host seconds in the event loop per simulated second.
    host_per_sim: f64,
    /// Host seconds in the event loop.
    loop_s: f64,
    /// Simulated seconds.
    sim_s: f64,
    outcome: Outcome,
}

fn finish<W: Observed>(
    sim: &mut W,
    queue: &mut EventQueue<Event>,
    cfg: &Config,
    advance: &mut dyn FnMut(&mut W, &mut EventQueue<Event>, littles::Nanos) -> u64,
) -> Rep {
    let t = Instant::now();
    let (events, edges, cpu) = drive(sim, queue, cfg, advance);
    let loop_s = t.elapsed().as_secs_f64();
    let sim_s = (cfg.window().1 + DRAIN).as_secs_f64();
    Rep {
        host_per_sim: loop_s / sim_s,
        loop_s,
        sim_s,
        outcome: outcome(sim, cfg, events, &edges, &cpu),
    }
}

/// Builds, starts and drives one world: bare with `simnet::run`, or with
/// every app timed and the traced loop when a tracer is given.
fn rep(cfg: &Config, tracer: Option<&mut Tracer>) -> Rep {
    let mut queue = EventQueue::new();
    match (cfg, tracer) {
        (Config::Star(c), None) => {
            let mut sim = build_star(c, |a| a, |a| a);
            sim.start(&mut queue);
            finish(&mut sim, &mut queue, cfg, &mut simnet::run)
        }
        (Config::Star(c), Some(tr)) => {
            let clock = tr.clock.clone();
            let mut sim = build_star(
                c,
                |a| Timed::new(a, world::Role::Client, &clock),
                |a| Timed::new(a, world::Role::Server, &clock),
            );
            sim.start(&mut queue);
            finish(&mut sim, &mut queue, cfg, &mut |w, q, u| {
                run_traced(w, q, u, tr)
            })
        }
        (Config::Tier(c), None) => {
            let mut sim = build_tier(c, |a| a, |a| a, |a| a);
            sim.start(&mut queue);
            finish(&mut sim, &mut queue, cfg, &mut simnet::run)
        }
        (Config::Tier(c), Some(tr)) => {
            let clock = tr.clock.clone();
            let mut sim = build_tier(
                c,
                |a| Timed::new(a, world::Role::Client, &clock),
                |a| Timed::new(a, world::Role::Proxy, &clock),
                |a| Timed::new(a, world::Role::Server, &clock),
            );
            sim.start(&mut queue);
            finish(&mut sim, &mut queue, cfg, &mut |w, q, u| {
                run_traced(w, q, u, tr)
            })
        }
    }
}

/// Host seconds to assemble a world and call `start()`, nothing more.
fn setup_only(cfg: &Config) -> f64 {
    let mut queue = EventQueue::new();
    let t = Instant::now();
    match cfg {
        Config::Star(c) => {
            let mut sim = build_star(c, |a| a, |a| a);
            sim.start(&mut queue);
            t.elapsed().as_secs_f64()
        }
        Config::Tier(c) => {
            let mut sim = build_tier(c, |a| a, |a| a, |a| a);
            sim.start(&mut queue);
            t.elapsed().as_secs_f64()
        }
    }
}

/// `n` samples of set-up seconds per world.
fn setup_samples(cfg: &Config, n: usize) -> Vec<f64> {
    let builds = (SETUP_SAMPLE_S / setup_only(cfg)).ceil().max(1.0) as usize;
    (0..n)
        .map(|_| (0..builds).map(|_| setup_only(cfg)).sum::<f64>() / builds as f64)
        .collect()
}

fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The simulated results of the first pass, pooled over sub-seeds.
struct Pooled {
    hist: Histogram,
    /// In-window requests issued.
    issued: u64,
    /// In-window requests answered with a real response.
    answered: u64,
    /// In-window requests the proxy failed back.
    failed_back: u64,
    /// In-window requests with no response after the drain.
    unanswered: u64,
    window_s: f64,
    est_ratio: Option<f64>,
}

impl Pooled {
    fn new(firsts: &[Outcome], window_s: f64, fails: &mut Vec<String>) -> Self {
        let mut p = Pooled {
            hist: Histogram::new(),
            issued: 0,
            answered: 0,
            failed_back: 0,
            unanswered: 0,
            window_s: window_s * firsts.len() as f64,
            est_ratio: None,
        };
        let (mut est, mut meas) = (0.0, 0.0);
        let mut est_missing = false;
        for (k, o) in firsts.iter().enumerate() {
            // Requests are conserved: issued = answered + failed back +
            // unanswered, every term non-negative.
            if o.responded > o.issued || o.failed_back > o.responded {
                fails.push(format!(
                    "sub-seed {k}: requests not conserved: issued {} responded {} failed back {}",
                    o.issued, o.responded, o.failed_back
                ));
                continue;
            }
            let answered = o.responded - o.failed_back;
            let unanswered = o.issued - o.responded;
            // Across layers: no app answers more than was asked of it.
            let served = o
                .proxy
                .as_ref()
                .map_or(o.server_requests, |p| p.responses + p.failed);
            if o.completed_total > o.sent_total || o.completed_total > served {
                fails.push(format!(
                    "sub-seed {k}: clients completed {} of {} sent, {} served",
                    o.completed_total, o.sent_total, served
                ));
            }
            if o.uncovered_keys > 0 {
                fails.push(format!(
                    "sub-seed {k}: warm-up left {} keys unwritten",
                    o.uncovered_keys
                ));
            }
            if o.hist.count() == 0 {
                fails.push(format!("sub-seed {k}: no latency samples"));
            }
            p.issued += o.issued;
            p.answered += answered;
            p.failed_back += o.failed_back;
            p.unanswered += unanswered;
            p.hist.merge(&o.hist);
            match (o.estimate, o.hist.mean()) {
                (Some(e), Some(m)) => {
                    let n = o.hist.count() as f64;
                    est += e.as_nanos() as f64 * n;
                    meas += m.as_nanos() as f64 * n;
                }
                _ => est_missing = true,
            }
        }
        if est_missing || meas <= 0.0 {
            fails.push("the estimator produced no estimate in the window".into());
        } else {
            p.est_ratio = Some(est / meas);
        }
        p
    }

    /// The `q`-quantile over every in-window request, µs. Failed-back and
    /// unanswered requests rank above every answered one; a failed-back
    /// request's own recorded latency is dropped from the top.
    fn quantile_us(&self, q: f64) -> f64 {
        if self.issued == 0 {
            return ABOVE_ANY_LIMIT_US;
        }
        let rank = ((q * self.issued as f64).ceil() as u64).clamp(1, self.issued);
        if rank > self.answered {
            return ABOVE_ANY_LIMIT_US;
        }
        rank_value_ns(&self.hist, rank) / 1e3
    }

    fn failed(&self) -> u64 {
        self.failed_back + self.unanswered
    }
}

/// Lower edge and width of the bucket holding `v` ns in
/// `simnet::Histogram`'s layout: exact below 32, then 32 linear
/// sub-buckets per octave.
fn bucket(v: u64) -> (u64, u64) {
    if v < 32 {
        return (v, 1);
    }
    let shift = 63 - v.leading_zeros() - 5;
    ((v >> shift) << shift, 1 << shift)
}

/// The sample of 1-based rank `r`, ns, interpolated linearly by rank
/// inside its bucket, so that a percentile moves with the data instead of
/// sticking to a bucket midpoint.
fn rank_value_ns(h: &Histogram, r: u64) -> f64 {
    let n = h.count();
    let lo_of = |r: u64| {
        let v = h.quantile((r as f64 - 0.5) / n as f64).expect("non-empty");
        bucket(v.as_nanos()).0
    };
    let (lo, width) = bucket(
        h.quantile((r as f64 - 0.5) / n as f64)
            .expect("non-empty")
            .as_nanos(),
    );
    // Ranks map monotonically onto buckets: search each edge of r's bucket.
    let (mut a, mut b) = (1, r);
    while a < b {
        let m = (a + b) / 2;
        if lo_of(m) == lo {
            b = m;
        } else {
            a = m + 1;
        }
    }
    let first = a;
    let (mut a, mut b) = (r, n);
    while a < b {
        let m = (a + b).div_ceil(2);
        if lo_of(m) == lo {
            a = m;
        } else {
            b = m - 1;
        }
    }
    let within = ((r - first) as f64 + 0.5) / ((a - first + 1) as f64);
    lo as f64 + width as f64 * within
}

/// Metrics in print order: name, value, unit.
type Metrics = Vec<(String, f64, &'static str)>;

/// `scale` turns host seconds as measured into host seconds at the
/// reference speed: see [`Kernel`].
fn end_to_end(
    plain: &[Rep],
    setups: Vec<f64>,
    scale: f64,
    rss: Option<f64>,
    pooled: &Pooled,
) -> Metrics {
    let m = |n: &str, v: f64, u| (n.to_string(), v, u);
    let host_per_sim = median(plain.iter().map(|r| r.host_per_sim).collect());
    vec![
        m("host_s_per_sim_s", host_per_sim * scale, "s/s"),
        m("setup_s", median(setups) * scale, "s"),
        m("peak_rss_mib", rss.unwrap_or(f64::NAN), "MiB"),
        m("sim_p50_us", pooled.quantile_us(0.50), "us"),
        m("sim_p99_us", pooled.quantile_us(0.99), "us"),
        m(
            "sim_goodput_rps",
            pooled.answered as f64 / pooled.window_s,
            "1/s",
        ),
        m(
            "answered_frac",
            pooled.answered as f64 / pooled.issued.max(1) as f64,
            "ratio",
        ),
    ]
}

fn per_layer(
    plain: &[Rep],
    traced: &[Rep],
    tracer: &Tracer,
    first_counts: &[u64; 8],
    firsts: &[Outcome],
    pooled: &Pooled,
) -> Metrics {
    let sum = |f: &dyn Fn(&Outcome) -> u64| firsts.iter().map(f).sum::<u64>() as f64;
    let proxy = |f: &dyn Fn(&world::ProxyCounters) -> u64| {
        sum(&|o: &Outcome| o.proxy.as_ref().map_or(0, f))
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let traced_sim_s: f64 = traced.iter().map(|r| r.sim_s).sum();
    let per_sim_s = |ns: u64| ns as f64 / 1e9 / traced_sim_s;
    let k = firsts.len() as f64;

    let mut out: Metrics = Vec::new();
    let mut m = |n: &str, v: f64, u| out.push((n.to_string(), v, u));
    m("simnet.events", sum(&|o| o.events), "count");
    m(
        "simnet.events_per_host_s",
        ratio(
            plain.iter().map(|r| r.outcome.events as f64).sum(),
            plain.iter().map(|r| r.loop_s).sum(),
        ),
        "1/s",
    );
    m("simnet.pop_s", per_sim_s(tracer.pop_ns), "s/s");
    m("simnet.link_packets", sum(&|o| o.link_packets), "count");
    for role in ROLES {
        for (i, ctx) in ["app", "softirq"].iter().enumerate() {
            let util = firsts
                .iter()
                .map(|o| o.cpu_util[role as usize][i])
                .sum::<f64>()
                / k;
            m(
                &format!("simnet.cpu.{}.{ctx}_util", role.label()),
                util,
                "ratio",
            );
        }
    }
    for (i, kind) in KINDS.iter().enumerate() {
        m(
            &format!("tcpsim.{kind}.count"),
            first_counts[i] as f64,
            "count",
        );
        m(
            &format!("tcpsim.{kind}.self_s"),
            per_sim_s(tracer.self_ns[i]),
            "s/s",
        );
    }
    m("tcpsim.sockets", sum(&|o| o.sockets), "count");
    m(
        "tcpsim.bytes_per_packet",
        ratio(sum(&|o| o.bytes_sent), sum(&|o| o.wire_packets)),
        "B",
    );
    m("tcpsim.pure_acks", sum(&|o| o.pure_acks), "count");
    m("tcpsim.nagle_holds", sum(&|o| o.nagle_holds), "count");
    m("tcpsim.cork_holds", sum(&|o| o.cork_holds), "count");
    m(
        "tcpsim.retransmissions",
        sum(&|o| o.retransmissions),
        "count",
    );
    m("core.exchanges_received", sum(&|o| o.exchanges), "count");
    m(
        "core.validator_rejects",
        sum(&|o| o.validator_rejects),
        "count",
    );
    m(
        "core.est_err",
        pooled.est_ratio.map_or(f64::NAN, |r| (r - 1.0).abs()),
        "ratio",
    );
    m("policy.switches", sum(&|o| o.switches), "count");
    m("policy.explorations", sum(&|o| o.explorations), "count");
    m(
        "policy.on_fraction",
        firsts.iter().map(|o| o.on_fraction).sum::<f64>() / k,
        "ratio",
    );
    m("policy.breaker_trips", sum(&|o| o.breaker_trips), "count");
    m("policy.retries", proxy(&|p| p.retries), "count");
    m("policy.hedges", proxy(&|p| p.hedges), "count");
    m("policy.budget_denied", proxy(&|p| p.budget_denied), "count");
    m(
        "policy.wasted_attempt_ratio",
        ratio(proxy(&|p| p.orphans), proxy(&|p| p.forwarded)),
        "ratio",
    );
    for role in ROLES {
        m(
            &format!("apps.{}.self_s", role.label()),
            per_sim_s(tracer.clock.get(role)),
            "s/s",
        );
    }
    m(
        "apps.server.mean_batch",
        ratio(sum(&|o| o.server_requests), sum(&|o| o.server_batches)),
        "count",
    );
    m(
        "apps.client.bytes_per_response",
        ratio(
            sum(&|o| o.client_bytes_received),
            sum(&|o| o.completed_total),
        ),
        "B",
    );
    m("apps.client.requests", pooled.issued as f64, "count");
    let host_per_sim = |reps: &[Rep]| median(reps.iter().map(|r| r.host_per_sim).collect());
    m(
        "trace.overhead",
        ratio(host_per_sim(traced), host_per_sim(plain)),
        "ratio",
    );
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.map(|w| w.name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let wl = args.workload;
    let cfgs: Vec<Config> = (0..wl.subseeds)
        .map(|i| (wl.config)(subseed(args.seed, i)))
        .collect();
    let mut fails: Vec<String> = Vec::new();

    let start = Instant::now();
    let k = cfgs.len();
    let mut tracer = Tracer::default();
    let mut first_counts = [0u64; 8];
    let (mut plain, mut traced, mut firsts) = (Vec::new(), Vec::new(), Vec::new());
    let (mut rss, mut setups, mut kernel_s) = (None, Vec::new(), Vec::new());
    let mut kernel: Option<Kernel> = None;
    let mut i = 0;
    while i <= k || start.elapsed().as_secs_f64() < args.seconds {
        let cfg = &cfgs[i % k];
        let r = rep(cfg, None);
        if i == 0 {
            // One world in a fresh process. Later worlds add only the
            // allocator's fragmentation, which varies from run to run.
            rss = peak_rss_mib();
        }
        if !args.trace {
            setups.extend(setup_samples(cfg, SETUP_SAMPLES_PER_REP));
            kernel_s.push(kernel.get_or_insert_with(Kernel::new).time());
        }
        let seen = format!("{:?}", r.outcome);
        if i < k {
            firsts.push(r.outcome.clone());
        } else if seen != format!("{:?}", firsts[i % k]) {
            fails.push(format!(
                "sub-seed {}: a repeated run simulated differently",
                i % k
            ));
        }
        if args.trace {
            let t = rep(cfg, Some(&mut tracer));
            if format!("{:?}", t.outcome) != seen {
                fails.push(format!(
                    "sub-seed {}: the traced run simulated differently",
                    i % k
                ));
            }
            traced.push(t);
            if i + 1 == k {
                first_counts = tracer.count;
            }
        }
        plain.push(r);
        i += 1;
    }

    // The library runner at the first sub-seed's config must agree with
    // the benchmark's own world field for field.
    let library = match &cfgs[0] {
        Config::Star(c) => point_fingerprint(&run_point(c)),
        Config::Tier(c) => failover_fingerprint(&run_failover_point(c)),
    };
    for (ours, theirs) in fingerprint(&firsts[0]).iter().zip(&library) {
        if ours != theirs {
            fails.push(format!(
                "assembly differs from the library runner: {ours:?} vs {theirs:?}"
            ));
        }
    }

    let (warmup, end) = cfgs[0].window();
    let pooled = Pooled::new(&firsts, (end - warmup).as_secs_f64(), &mut fails);
    let metrics = if args.trace {
        per_layer(&plain, &traced, &tracer, &first_counts, &firsts, &pooled)
    } else {
        let kernel_median = median(kernel_s);
        let scale = REFERENCE_S / kernel_median;
        eprintln!("reference kernel median {kernel_median:.5} s: host times scaled by {scale:.4}");
        end_to_end(&plain, setups, scale, rss, &pooled)
    };
    for (name, v, _) in &metrics {
        if !v.is_finite() {
            fails.push(format!("{name} is not a number"));
        }
    }

    eprintln!(
        "{} seed {}: {} repetitions in {:.1} s; {} in-window requests over {} sub-seeds: {} answered, {} failed back, {} unanswered (failed_frac {:.6}); percentiles over {} samples",
        wl.name,
        args.seed,
        plain.len(),
        start.elapsed().as_secs_f64(),
        pooled.issued,
        k,
        pooled.answered,
        pooled.failed_back,
        pooled.unanswered,
        pooled.failed() as f64 / pooled.issued.max(1) as f64,
        pooled.issued,
    );
    let per_rep: Vec<String> = plain
        .iter()
        .map(|r| format!("{:.3}", r.host_per_sim))
        .collect();
    eprintln!(
        "host s per simulated s, by repetition: {}",
        per_rep.join(" ")
    );
    for f in &fails {
        eprintln!("CHECK FAILED: {f}");
    }
    let mut json = String::new();
    for (name, v, unit) in &metrics {
        let v = if v.is_finite() { *v } else { -1.0 };
        let sep = if json.is_empty() { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        fails.is_empty(),
        pooled.issued.max(1),
        pooled.failed(),
    );
    if fails.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
