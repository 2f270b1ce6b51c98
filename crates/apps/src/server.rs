//! The Redis-like key-value server.
//!
//! Single application thread, epoll-style event loop: a readability wakeup
//! schedules one processing pass on the app CPU; the pass reads everything
//! available, executes every complete request, and writes the responses.
//! Under load, several requests are handled per wakeup — the
//! "adaptive batching" of requests that IX performs and the paper's
//! Figure 1 models (per-batch cost amortized over the batch).
//!
//! Like Redis, the server disables Nagle by default; experiments override
//! this through [`TcpConfig::nagle`](tcpsim::TcpConfig) on the accept
//! configuration, including the `Dynamic` mode driven by an attached
//! [`ListenerPlaneDriver`].

use std::collections::BTreeMap;

use littles::Nanos;
use simnet::Histogram;
use tcpsim::{App, HostCtx, SocketId, WakeReason};

use crate::cost::AppCosts;
use crate::driver::{hint_latencies, mean_latency_in, HintRecorder, ListenerPlaneDriver};
use crate::kv::KvStore;
use crate::outbox::Outbox;
use crate::resp::{Command, CommandParser, Replies};

const TOKEN_KIND_SHIFT: u32 = 32;
const KIND_PROCESS: u64 = 1;
const KIND_TICK: u64 = 2;
const KIND_FLUSH: u64 = 3;

fn token(kind: u64, sock: usize) -> u64 {
    (kind << TOKEN_KIND_SHIFT) | sock as u64
}

#[derive(Default)]
struct Conn {
    parser: CommandParser,
    call_pending: bool,
    /// Responses (or response tails) awaiting send-buffer space.
    outbox: Outbox,
}

/// Per-run server statistics.
#[derive(Debug, Default, Clone)]
pub struct ServerStats {
    /// Requests executed.
    pub requests: u64,
    /// Processing passes (app wakeup batches).
    pub batches: u64,
    /// Largest number of requests handled in one pass.
    pub max_batch: u64,
}

/// The Redis-like server application.
pub struct RedisServer {
    costs: AppCosts,
    kv: KvStore,
    replies: Replies,
    /// Live connections, keyed by socket id. BTreeMap, not HashMap: the
    /// tick path iterates connections, and simulation state must iterate
    /// in a deterministic order.
    conns: BTreeMap<usize, Conn>,
    /// Request-batch size distribution (requests per processing pass).
    pub batch_hist: Histogram,
    /// Aggregate statistics.
    pub stats: ServerStats,
    /// Optional listener-wide multi-knob control plane: one aggregate
    /// decision per tick, every knob applied to every connection.
    pub plane: Option<ListenerPlaneDriver>,
    /// Per-connection hint-based estimate recording (paper §3.3), when
    /// enabled via [`with_hint_recorder`](RedisServer::with_hint_recorder).
    pub hint_recorders: BTreeMap<usize, HintRecorder>,
    hints_enabled: bool,
    tick_period: Nanos,
}

impl RedisServer {
    /// Creates a server with the given application costs.
    pub fn new(costs: AppCosts) -> Self {
        RedisServer {
            costs,
            kv: KvStore::new(),
            replies: Replies::new(),
            conns: BTreeMap::new(),
            batch_hist: Histogram::new(),
            stats: ServerStats::default(),
            plane: None,
            hint_recorders: BTreeMap::new(),
            hints_enabled: false,
            tick_period: Nanos::from_micros(500),
        }
    }

    /// Attaches a listener-wide multi-knob control plane (requires the
    /// accept configuration to use [`NagleMode::Dynamic`](tcpsim::NagleMode)).
    pub fn with_plane(mut self, plane: ListenerPlaneDriver) -> Self {
        self.plane = Some(plane);
        self
    }

    /// Enables hint-based estimation recording (one recorder per
    /// connection, created on accept).
    pub fn with_hint_recorder(mut self) -> Self {
        self.hints_enabled = true;
        self
    }

    /// The store (for inspection).
    pub fn kv(&self) -> &KvStore {
        &self.kv
    }

    /// Mean hint-estimated latency pooled over every connection's
    /// recorder in `[from, to)`.
    pub fn hint_mean_latency_in(&self, from: Nanos, to: Nanos) -> Option<Nanos> {
        let series = self.hint_recorders.values().flat_map(|r| &r.series);
        mean_latency_in(hint_latencies(series), from, to)
    }

    fn process(&mut self, ctx: &mut HostCtx<'_>, sock: SocketId) {
        let conn = self.conns.entry(sock.0).or_default();
        conn.call_pending = false;
        let (data, _msgs) = ctx.recv(sock, usize::MAX);
        conn.parser.feed(data);

        let mut batch = 0u64;
        while let Some(cmd) = conn.parser.next_command() {
            let payload = match &cmd {
                Command::Set { key, value, .. } => key.len() + value.len(),
                Command::Get { key, .. } => key.len(),
            };
            ctx.charge_app(self.costs.server_request(payload));
            let resp = self.kv.execute(cmd);
            let wire = self.replies.encode_response(&resp);
            conn.outbox.send(ctx, sock, wire, None);
            batch += 1;
        }
        if batch > 0 {
            // The per-pass cost β (charged once, amortized over the batch).
            ctx.charge_app(self.costs.server_batch_base);
            self.stats.requests += batch;
            self.stats.batches += 1;
            self.stats.max_batch = self.stats.max_batch.max(batch);
            self.batch_hist.record(Nanos::from_nanos(batch));
        }
    }
}

impl App for RedisServer {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        if self.plane.is_some() || self.hints_enabled {
            ctx.call_after(self.tick_period, token(KIND_TICK, 0));
        }
    }

    fn on_wake(&mut self, ctx: &mut HostCtx<'_>, sock: SocketId, reason: WakeReason) {
        match reason {
            WakeReason::Accepted => {
                self.conns.insert(sock.0, Conn::default());
            }
            WakeReason::Readable => {
                let conn = self.conns.entry(sock.0).or_default();
                if !conn.call_pending {
                    conn.call_pending = true;
                    ctx.wake_app_thread(token(KIND_PROCESS, sock.0));
                }
            }
            WakeReason::Writable => {
                let conn = self.conns.entry(sock.0).or_default();
                if conn.outbox.wants_flush() {
                    let at = ctx.app_free_at();
                    ctx.call_at(at, token(KIND_FLUSH, sock.0));
                }
            }
            _ => {}
        }
    }

    fn on_call(&mut self, ctx: &mut HostCtx<'_>, tok: u64) {
        let kind = tok >> TOKEN_KIND_SHIFT;
        let sock = SocketId((tok & 0xFFFF_FFFF) as usize);
        match kind {
            KIND_PROCESS => self.process(ctx, sock),
            KIND_FLUSH => {
                let conn = self.conns.entry(sock.0).or_default();
                conn.outbox.flush(ctx, Some(sock));
            }
            KIND_TICK => {
                // Sorted connection order (BTreeMap) keeps the tick path
                // deterministic however many connections fan in.
                let socks: Vec<SocketId> = self.conns.keys().map(|&s| SocketId(s)).collect();
                if self.hints_enabled {
                    for &s in &socks {
                        self.hint_recorders
                            .entry(s.0)
                            .or_default()
                            .tick(ctx, s);
                    }
                }
                if let Some(plane) = self.plane.as_mut() {
                    // One listener-wide decision over the aggregate, not
                    // one per connection.
                    plane.tick(ctx, &socks);
                }
                ctx.call_after(self.tick_period, token(KIND_TICK, 0));
            }
            other => panic!("unknown server token kind {other}"),
        }
    }
}
