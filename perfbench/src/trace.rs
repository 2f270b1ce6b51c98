//! The traced run's pass-through wrappers, all timed from the benchmark's
//! own code: an [`App`] wrapper per host role, a [`World`] wrapper that
//! classifies each event, and an event loop of its own around
//! [`EventQueue::pop`]. None of them touches simulated state, so a traced
//! run simulates exactly what the untraced one does.

use std::borrow::Borrow;
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use littles::Nanos;
use simnet::{EventQueue, World};
use tcpsim::{App, Event, HostCtx, SocketId, WakeReason};

use crate::world::Role;

/// `tcpsim::Event` variants, in metric order.
pub const KINDS: [&str; 8] = [
    "deliver",
    "softirq_rx",
    "timer",
    "app_wake",
    "app_call",
    "nic_complete",
    "restart",
    "shard_crash",
];

fn kind_of(event: &Event) -> usize {
    match event {
        Event::Deliver { .. } => 0,
        Event::SoftirqRx { .. } => 1,
        Event::Timer { .. } => 2,
        Event::AppWake { .. } => 3,
        Event::AppCall { .. } => 4,
        Event::NicComplete { .. } => 5,
        Event::Restart => 6,
        Event::ShardCrash => 7,
    }
}

fn nanos_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Host nanoseconds spent inside application callbacks, per role.
#[derive(Debug, Default)]
pub struct AppClock {
    ns: [Cell<u64>; 3],
}

impl AppClock {
    fn add(&self, role: Role, ns: u64) {
        let c = &self.ns[role as usize];
        c.set(c.get() + ns);
    }

    /// Nanoseconds charged to `role`.
    pub fn get(&self, role: Role) -> u64 {
        self.ns[role as usize].get()
    }

    fn total(&self) -> u64 {
        self.ns.iter().map(Cell::get).sum()
    }
}

/// An application whose callbacks are timed into an [`AppClock`].
pub struct Timed<A> {
    inner: A,
    role: Role,
    clock: Rc<AppClock>,
}

impl<A> Timed<A> {
    /// Wraps `inner`, charging its callbacks to `role`.
    pub fn new(inner: A, role: Role, clock: &Rc<AppClock>) -> Self {
        Timed {
            inner,
            role,
            clock: Rc::clone(clock),
        }
    }
}

impl<A> Borrow<A> for Timed<A> {
    fn borrow(&self) -> &A {
        &self.inner
    }
}

impl<A: App> App for Timed<A> {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        let t = Instant::now();
        self.inner.on_start(ctx);
        self.clock.add(self.role, nanos_since(t));
    }

    fn on_wake(&mut self, ctx: &mut HostCtx<'_>, sock: SocketId, reason: WakeReason) {
        let t = Instant::now();
        self.inner.on_wake(ctx, sock, reason);
        self.clock.add(self.role, nanos_since(t));
    }

    fn on_call(&mut self, ctx: &mut HostCtx<'_>, token: u64) {
        let t = Instant::now();
        self.inner.on_call(ctx, token);
        self.clock.add(self.role, nanos_since(t));
    }
}

/// What the traced loop measured.
#[derive(Debug, Default)]
pub struct Tracer {
    /// Application self time, shared with every [`Timed`] app.
    pub clock: Rc<AppClock>,
    /// Events handled, per kind.
    pub count: [u64; 8],
    /// Host nanoseconds in `World::handle` minus nested app callbacks,
    /// per kind.
    pub self_ns: [u64; 8],
    /// Host nanoseconds in `EventQueue::peek_time` and `pop`.
    pub pop_ns: u64,
}

/// A borrowed world whose `handle` is classified and timed.
struct TracedWorld<'a, W> {
    inner: &'a mut W,
    tracer: &'a mut Tracer,
}

impl<W: World<Event = Event>> World for TracedWorld<'_, W> {
    type Event = Event;

    fn handle(&mut self, queue: &mut EventQueue<Event>, event: Event) {
        let kind = kind_of(&event);
        let app_before = self.tracer.clock.total();
        let t = Instant::now();
        self.inner.handle(queue, event);
        let ns = nanos_since(t);
        let app = self.tracer.clock.total() - app_before;
        self.tracer.count[kind] += 1;
        self.tracer.self_ns[kind] += ns.saturating_sub(app);
    }
}

/// `simnet::run` with every pop and every handled event timed.
pub fn run_traced<W: World<Event = Event>>(
    world: &mut W,
    queue: &mut EventQueue<Event>,
    until: Nanos,
    tracer: &mut Tracer,
) -> u64 {
    let mut traced = TracedWorld {
        inner: world,
        tracer,
    };
    let mut n = 0;
    loop {
        let t = Instant::now();
        let next = match queue.peek_time() {
            Some(at) if at <= until => queue.pop(),
            _ => None,
        };
        traced.tracer.pop_ns += nanos_since(t);
        let Some((_, event)) = next else {
            return n;
        };
        traced.handle(queue, event);
        n += 1;
    }
}
