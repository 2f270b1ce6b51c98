//! The network simulation: application hosts on a graph topology.
//!
//! [`NetSim`] wires client [`Host`]s to a server host through a star
//! [`Topology`] and drives their [`TcpSocket`]s and applications as a
//! [`World`] over one global discrete-event queue. Applications implement
//! [`App`] and interact with the stack only through [`HostCtx`] — the
//! simulated socket API. The classic two-host pair is the `N = 1` special
//! case (client host 0, server host 1) and reproduces bit-identically.
//! The machinery underneath ([`SimCore`]) is topology-agnostic: the
//! two-tier proxy simulation (`tier`) reuses it unchanged, with requests
//! crossing two links instead of one.
//!
//! Fan-in contention is modelled faithfully: every connection terminating
//! at the server shares the *same* server [`Host`] and therefore the same
//! application-thread and softirq [`CpuContext`](simnet::CpuContext)s —
//! exactly the regime where per-packet costs and batching policies have a
//! listener-wide blast radius. Each client host keeps its own independent
//! seeded RNG, split from the simulation seed, so arrival streams are
//! independent across clients yet deterministic as a whole.
//!
//! ## Execution-context convention
//!
//! `on_wake` is invoked from *softirq context* (the moment the stack learns
//! data is available); applications must only set flags or schedule work
//! there. Real work — `recv`, request processing, `send` — happens in
//! `on_call`, which applications schedule onto the *application thread* via
//! [`HostCtx::wake_app_thread`] / [`HostCtx::call_at`], charging CPU as they
//! go. This mirrors how an epoll-driven server actually runs and is what
//! makes application batching (one wakeup amortized over several requests)
//! emerge naturally under load, as in the paper's Figure 1.
//!
//! ## Events
//!
//! Every [`Event`] is a small handle (at most 32 bytes, asserted at
//! compile time), since the timer wheel stores one per queued event.
//! A segment in flight lives in the core's segment slab from transmit
//! to TCP input; its events carry a [`SegRef`]. A socket timer has at
//! most one queued event: the host keeps its [`EventToken`], and
//! re-arming or cancelling the timer cancels that event (a restart or
//! shard crash cancels all of a socket's timers), so every `Timer` event
//! that fires is live.
//!
//! [`EventToken`]: simnet::EventToken

use crate::payload::Payload;
use littles::{Nanos, Snapshot};
use simnet::{
    CorruptTarget, DuplexLink, EventQueue, FaultConfig, FaultPlan, HostId, LinkConfig, LinkId,
    Pcg32, Topology, World,
};

use crate::config::TcpConfig;
use crate::host::Host;
use crate::knob::KnobSetting;
use crate::segment::{E2eOption, FlowId, Segment};
use crate::socket::{Action, SocketId, TcpSocket, TcpState, TimerKind, TxEnv, WakeReason};
use crate::table::FlowMap;

/// Delay between a packet leaving the NIC and the transmit-completion
/// interrupt that frees its ring slot (what auto-corking waits for).
const NIC_COMPLETION_DELAY: Nanos = Nanos::from_micros(2);

/// The simulation's event alphabet.
///
/// Every variant is a few words: a segment in flight rides as a
/// [`SegRef`] into the simulation's segment slab, not by value, so a wheel
/// cell stays small however large a [`Segment`] (with its options) is.
#[derive(Debug)]
pub enum Event {
    /// A segment finished traversing a link and reached `dst`'s NIC.
    Deliver {
        /// Destination host.
        dst: HostId,
        /// The segment, parked in the segment slab.
        seg: SegRef,
    },
    /// Softirq finished processing a received segment; run TCP input.
    SoftirqRx {
        /// Receiving host.
        host: HostId,
        /// The segment, parked in the segment slab.
        seg: SegRef,
    },
    /// A socket timer fired. A re-armed or cancelled timer's superseded
    /// event is removed from the queue, so every fire is live.
    Timer {
        /// Host the socket lives on.
        host: HostId,
        /// Socket the timer belongs to.
        sock: SocketId,
        /// Which timer.
        kind: TimerKind,
    },
    /// The stack wants the application's attention (softirq context).
    AppWake {
        /// Host whose application is woken.
        host: HostId,
        /// Socket the wake concerns.
        sock: SocketId,
        /// Why.
        reason: WakeReason,
    },
    /// An application-scheduled continuation (application context).
    AppCall {
        /// Host whose application runs.
        host: HostId,
        /// Opaque token the application chose.
        token: u64,
    },
    /// NIC transmit-completion interrupt.
    NicComplete {
        /// Host whose NIC completed.
        host: HostId,
        /// Ring slots freed.
        packets: u32,
    },
    /// A scheduled endpoint crash: one client host (drawn from the fault
    /// plan's restart stream) loses all socket state and must reconnect.
    Restart,
    /// A scheduled shard crash on the two-tier topology: one shard host
    /// loses all socket state, and so does the far (proxy) end of every
    /// connection terminating there — both sides wake with `Reset`.
    ShardCrash,
}

// The event is what the timer wheel stores per cell; keep it a handle.
const _: () = assert!(std::mem::size_of::<Event>() <= 32);

/// A handle to a segment in flight: the segment-slab slot an
/// [`Event::Deliver`] or [`Event::SoftirqRx`] carries instead of the
/// segment itself. Deliberately not `Clone`: each stored segment has
/// exactly one handle, and TCP input consumes it to free the slot.
#[derive(Debug)]
pub struct SegRef(u32);

/// Segments in flight, between transmit and TCP input, in recycled slots.
///
/// A transmit stores the segment once; delivery and softirq processing
/// read it in place through the [`SegRef`] and TCP input frees the slot.
/// Freed slots go on a free list, so storage grows only to the high-water
/// mark of segments simultaneously in flight and steady state allocates
/// nothing (the same discipline as the timer wheel's cell slab).
#[derive(Debug, Default)]
pub(crate) struct SegmentSlab {
    slots: Vec<Option<Segment>>,
    free: Vec<u32>,
    live: usize,
}

impl SegmentSlab {
    /// Parks `seg`, returning its handle.
    // hot-path: runs once per segment put on the wire; must not allocate per call in steady state
    fn store(&mut self, seg: Segment) -> SegRef {
        self.live += 1;
        if let Some(idx) = self.free.pop() {
            self.slots[idx as usize] = Some(seg);
            return SegRef(idx);
        }
        let idx = u32::try_from(self.slots.len()).expect("segment slab capacity");
        self.slots.push(Some(seg));
        SegRef(idx)
    }

    /// The segment behind a live handle.
    // hot-path: runs on every delivery and softirq receive
    fn get(&self, seg: &SegRef) -> &Segment {
        let Some(Some(seg)) = self.slots.get(seg.0 as usize) else {
            unreachable!("a SegRef names a live slot")
        };
        seg
    }

    /// Drops the segment and recycles its slot.
    // hot-path: runs once per segment consumed by TCP input
    fn release(&mut self, seg: SegRef) {
        self.slots[seg.0 as usize] = None;
        self.free.push(seg.0);
        self.live -= 1;
    }

    /// Live segments and the high-water mark.
    pub(crate) fn usage(&self) -> SlabUsage {
        SlabUsage {
            live: self.live,
            high_water: self.slots.len(),
        }
    }
}

/// Occupancy of a simulation's segment slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlabUsage {
    /// Segments currently in flight (delivered or queued for softirq, not
    /// yet consumed by TCP input).
    pub live: usize,
    /// Slots ever allocated: the most segments simultaneously in flight.
    pub high_water: usize,
}

/// Which CPU context pays for transmit work triggered by socket actions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Charge {
    /// Application thread (send/connect/close syscalls).
    App,
    /// Softirq (ACKs, retransmissions, timer-driven sends).
    Softirq,
}

/// The two ends of a connection: who opened it and who accepted it.
///
/// Registered when the initiating application calls
/// [`HostCtx::connect_to`]; every transmitted segment of the flow is
/// delivered to [`other`](Self::other) end, whichever host sends it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowRoute {
    /// The host that opened the connection.
    pub initiator: HostId,
    /// The host that accepted it.
    pub acceptor: HostId,
}

impl FlowRoute {
    /// The far end as seen from `host`.
    ///
    /// # Panics
    ///
    /// Panics when `host` is neither end of the flow.
    pub fn other(&self, host: HostId) -> HostId {
        if host == self.initiator {
            self.acceptor
        } else if host == self.acceptor {
            self.initiator
        } else {
            panic!("{host:?} is not an end of this flow")
        }
    }
}

/// A simulated application.
///
/// See the module docs for the execution-context convention.
pub trait App {
    /// Called once at simulation start (application context).
    fn on_start(&mut self, ctx: &mut HostCtx<'_>);
    /// Called from softirq context when a socket event occurs.
    fn on_wake(&mut self, ctx: &mut HostCtx<'_>, sock: SocketId, reason: WakeReason);
    /// Called when an application-scheduled continuation fires.
    fn on_call(&mut self, ctx: &mut HostCtx<'_>, token: u64);
}

/// The application's view of its host: the socket API plus CPU-time
/// accounting.
pub struct HostCtx<'a> {
    /// This host's id.
    pub host_id: HostId,
    /// The host (CPU contexts, sockets, NIC).
    pub host: &'a mut Host,
    /// This host's deterministic randomness stream.
    pub rng: &'a mut Pcg32,
    queue: &'a mut EventQueue<Event>,
    net: &'a mut Network,
    next_flow: &'a mut u64,
    /// Shared scratch buffer for socket actions; `apply_actions` drains
    /// it, so it is empty between events and never reallocated in steady
    /// state.
    actions: &'a mut Vec<Action>,
    /// Where a plain [`connect`](Self::connect) goes (the server in a
    /// star, the proxy for two-tier clients).
    default_peer: HostId,
}

impl HostCtx<'_> {
    /// Current simulated time.
    pub fn now(&self) -> Nanos {
        self.queue.now()
    }

    /// Opens a connection to this host's default peer (the server in a
    /// star); completion is signalled by a [`WakeReason::Connected`] wake.
    /// Charged to the application thread.
    pub fn connect(&mut self, config: TcpConfig) -> SocketId {
        self.connect_to(self.default_peer, config)
    }

    /// Opens a connection to an explicit adjacent host (the proxy's
    /// per-shard upstreams use this). Completion is signalled by a
    /// [`WakeReason::Connected`] wake. Charged to the application thread.
    ///
    /// # Panics
    ///
    /// Panics on a self-connection; the first transmit panics when no
    /// link joins the two hosts.
    pub fn connect_to(&mut self, peer: HostId, config: TcpConfig) -> SocketId {
        assert_ne!(peer, self.host_id, "cannot connect a host to itself");
        let now = self.now();
        let flow = FlowId(*self.next_flow);
        *self.next_flow += 1;
        // Segments of this flow are delivered to whichever end did not
        // send them.
        self.net.routes.set(
            flow,
            FlowRoute {
                initiator: self.host_id,
                acceptor: peer,
            },
        );
        let sock = TcpSocket::client(flow, config, now, self.actions);
        let id = self.host.add_socket(sock);
        let syscall = self.host.costs.syscall;
        self.host.app_cpu.run(now, syscall);
        apply_actions(
            self.host,
            self.net,
            self.queue,
            self.rng,
            id,
            self.actions,
            Charge::App,
        );
        id
    }

    /// Sends application data (one message boundary per call — the
    /// send-syscall approximation). Returns bytes accepted. Charged to the
    /// application thread.
    ///
    /// The socket keeps the accepted prefix as a view of `data`'s
    /// allocation: an app that backlogs the rest sends
    /// `data.slice(accepted, data.len())` later, and the two halves join
    /// back into one chunk in the send buffer.
    pub fn send(&mut self, sock: SocketId, data: &Payload) -> usize {
        let now = self.now();
        let syscall = self.host.costs.syscall;
        self.host.app_cpu.run(now, syscall);
        let env = TxEnv {
            nic_in_flight: self.host.nic_in_flight(),
        };
        let accepted = self
            .host
            .socket_mut(sock)
            .send(now, data, env, self.actions);
        apply_actions(
            self.host,
            self.net,
            self.queue,
            self.rng,
            sock,
            self.actions,
            Charge::App,
        );
        accepted
    }

    /// Like [`send`](Self::send), but first installs the application's
    /// request-queue hint (the ancillary-data path of §3.3).
    pub fn send_with_hint(&mut self, sock: SocketId, data: &Payload, hint: Snapshot) -> usize {
        self.host.socket_mut(sock).set_hint(hint);
        self.send(sock, data)
    }

    /// Reads up to `max` in-order bytes; returns the bytes and the number
    /// of whole messages consumed. Charged to the application thread.
    pub fn recv(&mut self, sock: SocketId, max: usize) -> (Payload, usize) {
        let now = self.now();
        let syscall = self.host.costs.syscall;
        self.host.app_cpu.run(now, syscall);
        let out = self.host.socket_mut(sock).recv(now, max, self.actions);
        apply_actions(
            self.host,
            self.net,
            self.queue,
            self.rng,
            sock,
            self.actions,
            Charge::App,
        );
        out
    }

    /// Initiates a graceful close.
    pub fn close(&mut self, sock: SocketId) {
        let now = self.now();
        let env = TxEnv {
            nic_in_flight: self.host.nic_in_flight(),
        };
        self.host.socket_mut(sock).close(now, env, self.actions);
        apply_actions(
            self.host,
            self.net,
            self.queue,
            self.rng,
            sock,
            self.actions,
            Charge::App,
        );
    }

    /// Charges `cost` of work to the application thread; returns the time
    /// the work completes (serialized behind earlier app work).
    pub fn charge_app(&mut self, cost: Nanos) -> Nanos {
        let now = self.now();
        self.host.app_cpu.run(now, cost)
    }

    /// When the application thread becomes free.
    pub fn app_free_at(&self) -> Nanos {
        self.host.app_cpu.busy_until().max(self.now())
    }

    /// Schedules `on_call(token)` at an absolute time.
    pub fn call_at(&mut self, at: Nanos, token: u64) {
        self.queue.schedule_at(
            at,
            Event::AppCall {
                host: self.host_id,
                token,
            },
        );
    }

    /// Schedules `on_call(token)` after a delay.
    pub fn call_after(&mut self, delay: Nanos, token: u64) {
        self.call_at(self.now().saturating_add(delay), token);
    }

    /// Standard wakeup path: charges the wakeup cost to the application
    /// thread and schedules `on_call(token)` at its completion. Call this
    /// from `on_wake` to transfer control to application context.
    pub fn wake_app_thread(&mut self, token: u64) {
        let cost = self.host.costs.app_wakeup;
        let done = self.charge_app(cost);
        self.call_at(done, token);
    }

    /// Applies one control-plane [`KnobSetting`] to a socket through the
    /// uniform actuation path: dispatches to the socket's `apply`,
    /// executes any disposal actions it emits (a delayed-ACK flush or
    /// timer re-arm, in app context), and re-runs the transmit path so a
    /// changed gate takes effect immediately. Returns true if socket
    /// state changed.
    pub fn apply(&mut self, sock: SocketId, setting: KnobSetting) -> bool {
        let now = self.now();
        let changed = self
            .host
            .socket_mut(sock)
            .apply(now, setting, self.actions);
        if !self.actions.is_empty() {
            apply_actions(
                self.host,
                self.net,
                self.queue,
                self.rng,
                sock,
                self.actions,
                Charge::App,
            );
        }
        self.repoll(sock);
        changed
    }

    /// Re-runs a socket's transmit path after an actuator changed its
    /// gating state, applying any resulting actions in app context.
    fn repoll(&mut self, sock: SocketId) {
        let now = self.now();
        let env = TxEnv {
            nic_in_flight: self.host.nic_in_flight(),
        };
        self.host
            .socket_mut(sock)
            .poll_transmit(now, env, self.actions);
        apply_actions(
            self.host,
            self.net,
            self.queue,
            self.rng,
            sock,
            self.actions,
            Charge::App,
        );
    }

    /// Immutable access to a socket (for estimators and policies).
    pub fn socket(&self, sock: SocketId) -> &TcpSocket {
        self.host.socket(sock)
    }
}

/// Executes socket actions: transmits segments (charging CPU, ringing the
/// doorbell, driving the right directed link), manages timers, and queues
/// app wakes. The destination host comes from the flow's [`FlowRoute`]
/// (registered at `connect_to` time): whichever end did not send the
/// segment receives it.
fn apply_actions(
    host: &mut Host,
    net: &mut Network,
    queue: &mut EventQueue<Event>,
    rng: &mut Pcg32,
    sock: SocketId,
    actions: &mut Vec<Action>,
    charge: Charge,
) {
    let now = queue.now();
    let host_id = host.id;
    let mut transmitted = false;
    for action in actions.drain(..) {
        match action {
            Action::Transmit(mut seg) => {
                let cost = host.tx_cost(&seg);
                let cpu = match charge {
                    Charge::App => &mut host.app_cpu,
                    Charge::Softirq => &mut host.softirq_cpu,
                };
                cpu.run(now, cost);
                // Pure ACKs ride a prebuilt skb with no doorbell of their
                // own; data segments pay one doorbell per flush batch.
                transmitted |= !seg.is_pure_ack();
                host.nic_enqueue(seg.wire_packets);
                let depart = match charge {
                    Charge::App => host.app_cpu.busy_until(),
                    Charge::Softirq => host.softirq_cpu.busy_until(),
                };
                let dst = net
                    .routes
                    .get(seg.flow)
                    .expect("transmit on an unrouted flow")
                    .other(host_id);
                let wire_len = seg.wire_len();
                let (link_id, a_to_b) = net.topology.hop_index(host_id, dst);
                let link = net.topology.directed_mut(link_id, a_to_b);
                let mut arrival = link.transmit_lossy(depart, wire_len, rng);
                let serialized_at = link.busy_until().max(depart);
                queue.schedule_at(
                    serialized_at + NIC_COMPLETION_DELAY,
                    Event::NicComplete {
                        host: host_id,
                        packets: seg.wire_packets,
                    },
                );
                // The fault layer sits above the link: it may drop,
                // duplicate, or delay the packet after serialization.
                // Handshake segments are exempt so a duplicated SYN can't
                // mint phantom server sockets.
                let mut duplicate = false;
                if let (Some(plan), Some(t)) = (net.faults.as_mut(), arrival) {
                    if !seg.flags.syn {
                        let decision = plan.on_transmit(link_id, a_to_b, depart);
                        if decision.drop {
                            net.topology
                                .directed_mut(link_id, a_to_b)
                                .record_drop(wire_len);
                            arrival = None;
                        } else {
                            arrival = Some(t + decision.extra_delay);
                            duplicate = decision.duplicate;
                            // Corruption garbles only the exchange option —
                            // the data payload survives, but the shared
                            // counters lie. Applied before duplication so
                            // both copies carry the same lie.
                            if let Some(opt) = seg.options.e2e.as_mut() {
                                if let Some(target) =
                                    plan.corrupt_exchange(link_id, a_to_b, depart)
                                {
                                    garble_e2e(opt, target);
                                }
                            }
                        }
                    }
                }
                if let Some(arrival) = arrival {
                    if duplicate {
                        // The duplicate is a separate packet with a slot
                        // (and a TCP input) of its own.
                        let copy = net.segments.store(seg.clone());
                        queue.schedule_at(
                            arrival + Nanos::from_micros(1),
                            Event::Deliver { dst, seg: copy },
                        );
                    }
                    let seg = net.segments.store(seg);
                    queue.schedule_at(arrival, Event::Deliver { dst, seg });
                }
            }
            Action::ArmTimer(kind, delay) => {
                if kind == TimerKind::Cork {
                    // The cork timer arms exactly on the uncorked → corked
                    // transition, so this keeps the host's NIC-drain
                    // waiter list covering every corked socket.
                    host.note_cork_wait(sock);
                }
                let pending = host.timer_token(sock, kind);
                if let Some(superseded) = pending.take() {
                    queue.cancel(superseded);
                }
                let event = Event::Timer {
                    host: host_id,
                    sock,
                    kind,
                };
                *pending = Some(queue.schedule(delay, event));
            }
            Action::CancelTimer(kind) => cancel_timer(host, queue, sock, kind),
            Action::Wake(reason) => {
                queue.schedule(
                    Nanos::ZERO,
                    Event::AppWake {
                        host: host_id,
                        sock,
                        reason,
                    },
                );
            }
        }
    }
    if transmitted {
        // One doorbell per action batch (xmit_more-style amortization).
        let cpu = match charge {
            Charge::App => &mut host.app_cpu,
            Charge::Softirq => &mut host.softirq_cpu,
        };
        cpu.run(now, host.costs.tx_doorbell);
        host.doorbells += 1;
    }
}

/// Removes a socket timer's pending event from the queue, if any.
fn cancel_timer(host: &mut Host, queue: &mut EventQueue<Event>, sock: SocketId, kind: TimerKind) {
    if let Some(token) = host.timer_token(sock, kind).take() {
        queue.cancel(token);
    }
}

/// Tears down a socket for a crash: its state is lost, its flow unbound
/// (in-flight and retransmitted segments for the old connection become
/// strays the softirq path drops), its pending timers removed, and the
/// application woken with [`WakeReason::Reset`].
fn crash_socket(host: &mut Host, queue: &mut EventQueue<Event>, sock: SocketId) {
    let flow = host.socket(sock).flow();
    host.socket_mut(sock).reset();
    host.remove_flow(flow);
    for kind in [TimerKind::Rto, TimerKind::Delack, TimerKind::Cork] {
        cancel_timer(host, queue, sock, kind);
    }
    queue.schedule(
        Nanos::ZERO,
        Event::AppWake {
            host: host.id,
            sock,
            reason: WakeReason::Reset,
        },
    );
}

/// Applies one deterministic bit flip to an exchange option. Fields
/// `0..=8` target a counter — `field / 3` selects the queue (unacked,
/// unread, ackdelay), `field % 3` the `(time, total, integral)` component
/// — in every carried unit; field `9` flips a bit of the epoch tag (a
/// spurious-restart signal: safe degradation rather than poisoning).
fn garble_e2e(opt: &mut E2eOption, target: CorruptTarget) {
    if target.field == 9 {
        opt.epoch ^= 1 << (target.bit % 8);
        return;
    }
    let mask = 1u32 << (target.bit % 32);
    for ex in opt.exchanges.iter_mut().flatten() {
        let queue = match target.field / 3 {
            0 => &mut ex.unacked,
            1 => &mut ex.unread,
            _ => &mut ex.ackdelay,
        };
        match target.field % 3 {
            0 => queue.time ^= mask,
            1 => queue.total ^= mask,
            _ => queue.integral ^= mask,
        }
    }
}

/// The network state every transmit touches, owned by [`SimCore`] and
/// lent as one borrow to [`HostCtx`] and [`apply_actions`].
pub(crate) struct Network {
    pub(crate) topology: Topology,
    /// Flow → endpoint pair, registered at `connect_to`.
    pub(crate) routes: FlowMap<FlowRoute>,
    /// Fault-injection state; `None` (the lossless default) is guaranteed
    /// not to perturb the simulation in any way.
    pub(crate) faults: Option<FaultPlan>,
    /// Segments between transmit and TCP input.
    pub(crate) segments: SegmentSlab,
}

/// What a non-application event resolved to: an application entry point
/// the owning simulation must dispatch (it knows which app runs on which
/// host — the core does not).
pub(crate) enum AppEvent {
    /// Deliver `on_wake(sock, reason)` to `host`'s application.
    Wake(HostId, SocketId, WakeReason),
    /// Deliver `on_call(token)` to `host`'s application.
    Call(HostId, u64),
}

/// The topology-agnostic simulation machinery: hosts, links, flow routes,
/// per-host RNG streams, fault state, and the handling of every event that
/// does not enter application code. [`NetSim`] (star) and the two-tier
/// proxy simulation both wrap one of these; only app dispatch differs.
pub(crate) struct SimCore {
    pub(crate) hosts: Vec<Host>,
    /// Links, routes, faults and the segments in flight.
    pub(crate) net: Network,
    /// Per-host RNG streams. Host 0 carries the legacy stream
    /// `Pcg32::new(seed)` (so N = 1 replays the two-host pair bit-for-bit);
    /// the rest are independent children forked from one splitter.
    pub(crate) rngs: Vec<Pcg32>,
    pub(crate) next_flow: u64,
    /// Reused socket-action buffer (see `HostCtx::actions`).
    pub(crate) scratch: Vec<Action>,
    /// Reused NIC-drain waiter buffer (see the `NicComplete` arm).
    pub(crate) cork_scratch: Vec<SocketId>,
    /// Hosts `0..restart_pool` are eligible targets for scheduled
    /// endpoint restarts (the client tier).
    pub(crate) restart_pool: usize,
    /// Shard tier location on the two-tier topology: `(first_host, count)`
    /// — shard `j` runs on host `first_host + j` and its back-leg link is
    /// `LinkId(first_host - 1 + j)`. `None` on star topologies, where
    /// shard faults are inert.
    pub(crate) shard_tier: Option<(usize, usize)>,
    /// Per-host default `connect()` peer (a host with no meaningful
    /// default — e.g. the server itself — points at itself, which
    /// `connect_to` rejects).
    pub(crate) default_peers: Vec<HostId>,
}

impl SimCore {
    /// Assembles a core over `topology`. Host `i` must carry
    /// `HostId::from_index(i)`; `default_peers[i]` is where host `i`'s
    /// plain `connect()` goes.
    ///
    /// # Panics
    ///
    /// Panics when the host list does not match the topology or a host id
    /// does not match its index.
    pub(crate) fn new(
        hosts: Vec<Host>,
        topology: Topology,
        default_peers: Vec<HostId>,
        restart_pool: usize,
        seed: u64,
    ) -> Self {
        assert_eq!(hosts.len(), topology.num_hosts(), "one host per node");
        assert_eq!(hosts.len(), default_peers.len(), "one default peer per host");
        for (i, h) in hosts.iter().enumerate() {
            assert_eq!(
                h.id,
                HostId::from_index(i),
                "host {i} must carry HostId({i})"
            );
        }
        // Host 0 keeps the exact legacy stream; the remaining hosts get
        // independent children split from one seeded splitter, so client
        // arrival processes never share draws.
        let mut splitter = Pcg32::new(seed ^ 0x9E37_79B9_7F4A_7C15);
        let rngs = (0..hosts.len())
            .map(|i| {
                if i == 0 {
                    Pcg32::new(seed)
                } else {
                    splitter.fork()
                }
            })
            .collect();
        SimCore {
            hosts,
            net: Network {
                topology,
                routes: FlowMap::new(),
                faults: None,
                segments: SegmentSlab::default(),
            },
            rngs,
            next_flow: 1,
            scratch: Vec::new(),
            cork_scratch: Vec::new(),
            restart_pool,
            shard_tier: None,
            default_peers,
        }
    }

    /// Installs a fault plan (and the server-stall schedule on `stall_on`,
    /// when configured). A fully disabled config is a no-op.
    pub(crate) fn install_faults(&mut self, config: FaultConfig, seed: u64, stall_on: HostId) {
        if !config.is_enabled() {
            return;
        }
        let brownout = self
            .shard_tier
            .zip(config.shard.brownout)
            .map(|((first, count), b)| {
                assert!(b.shard < count, "brownout shard {} of {count}", b.shard);
                (first + b.shard, b.windows)
            });
        let stalls = config.server_stall.map(|s| (stall_on.index(), s));
        // Every target exists: `stall_on` is the constructor's own server
        // or proxy host, and the brownout shard was checked above.
        for (h, schedule) in stalls.into_iter().chain(brownout) {
            if let Some(host) = self.hosts.get_mut(h) {
                host.app_cpu.set_stall_schedule(schedule);
            }
        }
        let links = self.net.topology.num_links();
        let mut plan = FaultPlan::new(config, seed, links);
        if let Some((first, _)) = self.shard_tier {
            plan.bind_shard_links(first - 1);
        }
        self.net.faults = Some(plan);
    }

    /// Queues the first scheduled restart, when the fault plan has one.
    pub(crate) fn schedule_first_restart(&self, queue: &mut EventQueue<Event>) {
        if let Some(rs) = self.net.faults.as_ref().and_then(|p| p.config().restart) {
            queue.schedule_at(rs.first_at, Event::Restart);
        }
    }

    /// Queues the first scheduled shard crash, when the fault plan has one
    /// and the topology actually carries a shard tier.
    pub(crate) fn schedule_first_shard_crash(&self, queue: &mut EventQueue<Event>) {
        if self.shard_tier.is_none() {
            return;
        }
        if let Some(cs) = self
            .net
            .faults
            .as_ref()
            .and_then(|p| p.config().shard.crash)
        {
            queue.schedule_at(cs.first_at, Event::ShardCrash);
        }
    }

    /// An application context for `h`, split-borrowing the core.
    pub(crate) fn ctx<'a>(
        &'a mut self,
        queue: &'a mut EventQueue<Event>,
        h: HostId,
    ) -> HostCtx<'a> {
        let SimCore {
            hosts,
            net,
            rngs,
            next_flow,
            scratch,
            default_peers,
            ..
        } = self;
        HostCtx {
            host_id: h,
            host: &mut hosts[h.index()],
            rng: &mut rngs[h.index()],
            queue,
            net,
            next_flow,
            actions: scratch,
            default_peer: default_peers[h.index()],
        }
    }

    /// Handles one event. Stack-internal events (delivery, softirq, timers,
    /// NIC completions, restarts) are fully absorbed; events that must
    /// enter application code come back as an [`AppEvent`] for the owning
    /// simulation to dispatch.
    pub(crate) fn handle_infra(
        &mut self,
        queue: &mut EventQueue<Event>,
        event: Event,
    ) -> Option<AppEvent> {
        let now = queue.now();
        match event {
            Event::Deliver { dst, seg } => {
                let host = &mut self.hosts[dst.index()];
                let cost = host.rx_cost(self.net.segments.get(&seg));
                let done = host.softirq_cpu.run(now, cost);
                queue.schedule_at(done, Event::SoftirqRx { host: dst, seg });
            }
            Event::SoftirqRx { host: h, seg: handle } => {
                let host = &mut self.hosts[h.index()];
                let env = TxEnv {
                    nic_in_flight: host.nic_in_flight(),
                };
                let seg = self.net.segments.get(&handle);
                let sock_id = match host.socket_for_flow(seg.flow) {
                    Some(id) => {
                        let sock = host.socket_mut(id);
                        sock.on_segment(now, seg, env, &mut self.scratch);
                        // Conservation gates run after every stack entry
                        // point (debug builds only; see tcpsim::invariants).
                        if cfg!(debug_assertions) {
                            crate::invariants::gate(sock.check_invariants(now));
                        }
                        Some(id)
                    }
                    None if seg.flags.syn && !seg.flags.ack => {
                        let config = host.accept_config;
                        let sock =
                            TcpSocket::server_on_syn(seg.flow, config, now, seg, &mut self.scratch);
                        Some(host.add_socket(sock))
                    }
                    None => None, // stray segment for an unknown flow
                };
                // TCP input is done with the segment on every path.
                self.net.segments.release(handle);
                let sock_id = sock_id?;
                apply_actions(
                    host,
                    &mut self.net,
                    queue,
                    &mut self.rngs[h.index()],
                    sock_id,
                    &mut self.scratch,
                    Charge::Softirq,
                );
            }
            Event::Timer {
                host: h,
                sock,
                kind,
            } => {
                let host = &mut self.hosts[h.index()];
                let env = TxEnv {
                    nic_in_flight: host.nic_in_flight(),
                };
                {
                    let s = host.socket_mut(sock);
                    s.on_timer(now, kind, env, &mut self.scratch);
                    if cfg!(debug_assertions) {
                        crate::invariants::gate(s.check_invariants(now));
                    }
                }
                apply_actions(
                    host,
                    &mut self.net,
                    queue,
                    &mut self.rngs[h.index()],
                    sock,
                    &mut self.scratch,
                    Charge::Softirq,
                );
            }
            Event::NicComplete { host: h, packets } => {
                let host = &mut self.hosts[h.index()];
                let rng = &mut self.rngs[h.index()];
                host.nic_complete(packets);
                let env = TxEnv {
                    nic_in_flight: host.nic_in_flight(),
                };
                // Visit only sockets registered as cork waiters (the arm
                // site in `apply_actions` covers every uncorked → corked
                // transition) instead of scanning all N sockets per NIC
                // completion — at N = 1024 fan-in that scan dominated the
                // event loop. Entries can be stale; `is_corked` filters.
                let mut waiters = std::mem::take(&mut self.cork_scratch);
                host.drain_cork_waiters_into(&mut waiters);
                // Ascending socket order, one visit per socket — the
                // visit sequence is exactly the full scan's, minus the
                // uncorked sockets it would have skipped anyway.
                waiters.sort_unstable();
                waiters.dedup();
                for &id in &waiters {
                    if !host.socket(id).is_corked() {
                        continue;
                    }
                    host.socket_mut(id).on_nic_drained(now, env, &mut self.scratch);
                    apply_actions(
                        host,
                        &mut self.net,
                        queue,
                        rng,
                        id,
                        &mut self.scratch,
                        Charge::Softirq,
                    );
                    if host.socket(id).is_corked() {
                        // Still held (e.g. the NIC is busy again): keep it
                        // on the waiter list for the next completion.
                        host.note_cork_wait(id);
                    }
                }
                self.cork_scratch = waiters;
            }
            Event::Restart => {
                let plan = self.net.faults.as_mut()?;
                let target = plan.pick_restart_target(self.restart_pool);
                if let Some(rs) = plan.config().restart {
                    if !rs.period.is_zero() {
                        queue.schedule(rs.period, Event::Restart);
                    }
                }
                // The crash: every live socket on the target host loses
                // its state and the application re-establishes a fresh
                // connection, whose new socket gets a new epoch.
                let host = &mut self.hosts[target];
                for i in 0..host.socket_count() {
                    let id = SocketId(i);
                    if host.socket(id).state() != TcpState::Closed {
                        crash_socket(host, queue, id);
                    }
                }
            }
            Event::ShardCrash => {
                let (first, count) = self.shard_tier?;
                let plan = self.net.faults.as_mut()?;
                let target = first + plan.pick_shard_crash_target(count);
                if let Some(cs) = plan.config().shard.crash {
                    if !cs.period.is_zero() {
                        queue.schedule(cs.period, Event::ShardCrash);
                    }
                }
                // A shard crash takes down *both ends* of every connection
                // terminating at the shard: the shard host loses its socket
                // state exactly like a client restart, and the far (proxy)
                // end is reset too — the peer of a crashed process observes
                // a connection reset, not a silent stall. Both applications
                // wake with `Reset`; in-flight segments for the dead flows
                // are dropped as strays by the softirq path.
                let mut ends: Vec<(usize, SocketId)> = Vec::new();
                let host = &self.hosts[target];
                for i in 0..host.socket_count() {
                    let id = SocketId(i);
                    if host.socket(id).state() != TcpState::Closed {
                        ends.push((target, id));
                    }
                }
                let far: Vec<(usize, SocketId)> = ends
                    .iter()
                    .filter_map(|&(_, id)| {
                        let flow = host.socket(id).flow();
                        let route = self.net.routes.get(flow)?;
                        let other = route.other(host.id);
                        let peer = self.hosts.get(other.index())?.socket_for_flow(flow)?;
                        Some((other.index(), peer))
                    })
                    .collect();
                ends.extend(far);
                for (h, id) in ends {
                    crash_socket(&mut self.hosts[h], queue, id);
                }
            }
            Event::AppWake {
                host: h,
                sock,
                reason,
            } => return Some(AppEvent::Wake(h, sock, reason)),
            Event::AppCall { host: h, token } => return Some(AppEvent::Call(h, token)),
        }
        None
    }
}

/// A complete star simulation: N client apps, one server app, their hosts,
/// and the topology joining them.
pub struct NetSim<C: App, S: App> {
    /// The client applications (client `i` runs on host `i`).
    pub clients: Vec<C>,
    /// The server application (runs on host `num_clients`).
    pub server: S,
    core: SimCore,
}

impl<C: App, S: App> NetSim<C, S> {
    /// Assembles the classic two-host simulation (the N = 1 star),
    /// fault-free.
    pub fn new(
        client: C,
        server: S,
        client_host: Host,
        server_host: Host,
        link_config: LinkConfig,
        seed: u64,
    ) -> Self {
        Self::star_with_faults(
            vec![client],
            server,
            vec![client_host],
            server_host,
            link_config,
            seed,
            FaultConfig::default(),
        )
    }

    /// Assembles an N-client star simulation with a fault-injection plan
    /// layered over the links (and, for stall schedules, over the
    /// server's application thread). Client host `i` must carry
    /// `HostId(i)`; the server host must carry `HostId(num_clients)`. A
    /// fully disabled `FaultConfig` (the default) installs nothing.
    ///
    /// # Panics
    ///
    /// Panics when `clients` is empty, the lengths disagree, or a host id
    /// does not match its topology index.
    pub fn star_with_faults(
        clients: Vec<C>,
        server: S,
        client_hosts: Vec<Host>,
        server_host: Host,
        link_config: LinkConfig,
        seed: u64,
        fault_config: FaultConfig,
    ) -> Self {
        assert!(!clients.is_empty(), "star simulation needs at least one client");
        assert_eq!(
            clients.len(),
            client_hosts.len(),
            "one host per client app"
        );
        let n = clients.len();
        let server_id = HostId::from_index(n);
        let mut hosts = client_hosts;
        hosts.push(server_host);
        // Every host's plain connect() goes to the server (the server's
        // own self-entry is rejected by connect_to, as it should be).
        let default_peers = vec![server_id; n + 1];
        let mut core = SimCore::new(
            hosts,
            Topology::star(n, link_config),
            default_peers,
            n,
            seed,
        );
        core.install_faults(fault_config, seed, server_id);
        NetSim {
            clients,
            server,
            core,
        }
    }

    /// Invokes every application's `on_start` — the server first (so it is
    /// listening before any client connects), then clients in host order.
    /// When the fault plan schedules endpoint restarts, the first crash
    /// event is queued here.
    pub fn start(&mut self, queue: &mut EventQueue<Event>) {
        self.core.schedule_first_restart(queue);
        let server_id = self.server_id();
        self.server.on_start(&mut self.core.ctx(queue, server_id));
        for (i, client) in self.clients.iter_mut().enumerate() {
            client.on_start(&mut self.core.ctx(queue, HostId::from_index(i)));
        }
    }

    /// Number of client hosts.
    pub fn num_clients(&self) -> usize {
        self.clients.len()
    }

    /// Id of the server host.
    fn server_id(&self) -> HostId {
        HostId::from_index(self.clients.len())
    }

    /// Index of the server host.
    pub fn server_index(&self) -> usize {
        self.clients.len()
    }

    /// The first client application (convenience for the N = 1 case).
    pub fn client(&self) -> &C {
        &self.clients[0]
    }

    /// Mutable access to the first client application.
    pub fn client_mut(&mut self) -> &mut C {
        &mut self.clients[0]
    }

    /// Access a host by index.
    pub fn host(&self, idx: usize) -> &Host {
        &self.core.hosts[idx]
    }

    /// Mutable access to a host by index.
    pub fn host_mut(&mut self, idx: usize) -> &mut Host {
        &mut self.core.hosts[idx]
    }

    /// The server host (shared by every connection).
    pub fn server_host(&self) -> &Host {
        &self.core.hosts[self.server_index()]
    }

    /// The link serving client 0 (the two-host pair's only link).
    pub fn link(&self) -> &DuplexLink {
        self.core.net.topology.link(LinkId::from_index(0))
    }

    /// The link serving client `i`.
    pub fn link_for(&self, client: usize) -> &DuplexLink {
        self.core.net.topology.link(LinkId::from_index(client))
    }

    /// The topology (for inspection).
    pub fn topology(&self) -> &Topology {
        &self.core.net.topology
    }

    /// The fault plan, if fault injection is active (for audit counters).
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.core.net.faults.as_ref()
    }

    /// Occupancy of the in-flight segment slab.
    pub fn segment_slab(&self) -> SlabUsage {
        self.core.net.segments.usage()
    }
}

impl<C: App, S: App> World for NetSim<C, S> {
    type Event = Event;

    fn handle(&mut self, queue: &mut EventQueue<Event>, event: Event) {
        let Some(app) = self.core.handle_infra(queue, event) else {
            return;
        };
        let server_id = self.server_id();
        match app {
            AppEvent::Wake(h, sock, reason) => {
                let mut ctx = self.core.ctx(queue, h);
                if h == server_id {
                    self.server.on_wake(&mut ctx, sock, reason);
                } else {
                    self.clients[h.index()].on_wake(&mut ctx, sock, reason);
                }
            }
            AppEvent::Call(h, token) => {
                let mut ctx = self.core.ctx(queue, h);
                if h == server_id {
                    self.server.on_call(&mut ctx, token);
                } else {
                    self.clients[h.index()].on_call(&mut ctx, token);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    //! The timer contract: a socket timer has at most one event in the
    //! queue, and removing the superseded ones moves no live event.

    use super::*;
    use crate::config::CostConfig;
    use simnet::{CpuContext, RestartSchedule, ShardFaultPlan};

    const KINDS: [TimerKind; 3] = [TimerKind::Rto, TimerKind::Delack, TimerKind::Cork];

    fn host(i: usize) -> Host {
        Host::new(
            HostId::from_index(i),
            CpuContext::new("app"),
            CpuContext::new("softirq"),
            CostConfig::default(),
            TcpConfig::default(),
        )
    }

    /// A core over `topology` whose host `on` holds one open socket for
    /// flow 1 (the socket's own opening actions are discarded).
    fn core_with_socket(topology: Topology, on: usize) -> (SimCore, SocketId) {
        let n = topology.num_hosts();
        let hosts = (0..n).map(host).collect();
        let mut core = SimCore::new(hosts, topology, vec![HostId::from_index(0); n], 1, 7);
        let sock = TcpSocket::client(
            FlowId(1),
            TcpConfig::default(),
            Nanos::ZERO,
            &mut core.scratch,
        );
        core.scratch.clear();
        let id = core.hosts[on].add_socket(sock);
        (core, id)
    }

    fn act(
        core: &mut SimCore,
        queue: &mut EventQueue<Event>,
        on: usize,
        sock: SocketId,
        action: Action,
    ) {
        core.scratch.push(action);
        apply_actions(
            &mut core.hosts[on],
            &mut core.net,
            queue,
            &mut core.rngs[on],
            sock,
            &mut core.scratch,
            Charge::Softirq,
        );
    }

    fn arm_all(core: &mut SimCore, queue: &mut EventQueue<Event>, on: usize, sock: SocketId) {
        for kind in KINDS {
            act(
                core,
                queue,
                on,
                sock,
                Action::ArmTimer(kind, Nanos::from_micros(50)),
            );
        }
    }

    /// Drains the queue, returning what fired: `(time, Some(kind))` for
    /// timers, `(time, None)` for anything else.
    fn drain(queue: &mut EventQueue<Event>) -> Vec<(Nanos, Option<TimerKind>)> {
        std::iter::from_fn(|| queue.pop())
            .map(|(at, ev)| match ev {
                Event::Timer { kind, .. } => (at, Some(kind)),
                _ => (at, None),
            })
            .collect()
    }

    #[test]
    fn rearming_leaves_one_live_entry_per_timer() {
        let (mut core, sock) = core_with_socket(Topology::star(1, LinkConfig::default()), 0);
        let mut queue = EventQueue::new();
        for (armed, kind) in KINDS.into_iter().enumerate() {
            for k in 1..=5 {
                act(
                    &mut core,
                    &mut queue,
                    0,
                    sock,
                    Action::ArmTimer(kind, Nanos::from_micros(k)),
                );
                assert_eq!(queue.len(), armed + 1, "{kind:?} re-armed {k} times");
            }
        }
        // Each timer fires once, at its last arming's deadline.
        let fired = drain(&mut queue);
        let last = Nanos::from_micros(5);
        assert_eq!(fired, KINDS.map(|k| (last, Some(k))).to_vec());
    }

    #[test]
    fn cancel_leaves_no_entry() {
        let (mut core, sock) = core_with_socket(Topology::star(1, LinkConfig::default()), 0);
        let mut queue = EventQueue::new();
        arm_all(&mut core, &mut queue, 0, sock);
        for kind in KINDS {
            act(&mut core, &mut queue, 0, sock, Action::CancelTimer(kind));
        }
        assert!(queue.is_empty());
        // Cancelling a timer that is no longer pending is a no-op.
        act(
            &mut core,
            &mut queue,
            0,
            sock,
            Action::CancelTimer(TimerKind::Rto),
        );
        assert!(queue.is_empty());
    }

    #[test]
    fn endpoint_restart_leaves_no_timer() {
        let (mut core, sock) = core_with_socket(Topology::star(1, LinkConfig::default()), 0);
        let once = RestartSchedule {
            first_at: Nanos::ZERO,
            period: Nanos::ZERO,
        };
        let faults = FaultConfig {
            restart: Some(once),
            ..FaultConfig::default()
        };
        core.install_faults(faults, 7, HostId::from_index(1));
        let mut queue = EventQueue::new();
        arm_all(&mut core, &mut queue, 0, sock);
        assert_eq!(queue.len(), 3);
        assert!(core.handle_infra(&mut queue, Event::Restart).is_none());
        // Only the application's `Reset` wake is left.
        assert_eq!(drain(&mut queue), vec![(Nanos::ZERO, None)]);
    }

    #[test]
    fn shard_crash_leaves_no_timer_on_either_end() {
        // Client 0, proxy 1, shard 2; the flow runs proxy → shard.
        let topology = Topology::two_tier(1, 1, LinkConfig::default(), LinkConfig::default());
        let (mut core, shard_sock) = core_with_socket(topology, 2);
        let proxy_sock = core.hosts[1].add_socket(TcpSocket::client(
            FlowId(1),
            TcpConfig::default(),
            Nanos::ZERO,
            &mut core.scratch,
        ));
        core.scratch.clear();
        core.net.routes.set(
            FlowId(1),
            FlowRoute {
                initiator: HostId::from_index(1),
                acceptor: HostId::from_index(2),
            },
        );
        core.shard_tier = Some((2, 1));
        let faults = FaultConfig {
            shard: ShardFaultPlan {
                crash: Some(RestartSchedule {
                    first_at: Nanos::ZERO,
                    period: Nanos::ZERO,
                }),
                ..ShardFaultPlan::default()
            },
            ..FaultConfig::default()
        };
        core.install_faults(faults, 7, HostId::from_index(1));
        let mut queue = EventQueue::new();
        arm_all(&mut core, &mut queue, 2, shard_sock);
        arm_all(&mut core, &mut queue, 1, proxy_sock);
        assert_eq!(queue.len(), 6);
        assert!(core.handle_infra(&mut queue, Event::ShardCrash).is_none());
        // Only the two `Reset` wakes are left.
        assert_eq!(drain(&mut queue), vec![(Nanos::ZERO, None); 2]);
    }

    #[test]
    fn live_timer_keeps_its_time_and_fifo_position() {
        let (mut core, sock) = core_with_socket(Topology::star(1, LinkConfig::default()), 0);
        let mut queue = EventQueue::new();
        let t = Nanos::from_micros(10);
        let call = |token| Event::AppCall {
            host: HostId::from_index(0),
            token,
        };
        act(
            &mut core,
            &mut queue,
            0,
            sock,
            Action::ArmTimer(TimerKind::Delack, t),
        );
        queue.schedule_at(t, call(1));
        // An RTO armed earlier, then re-armed to the shared instant: the
        // superseded event vanishes and the re-armed one queues behind
        // everything already scheduled for `t`.
        act(
            &mut core,
            &mut queue,
            0,
            sock,
            Action::ArmTimer(TimerKind::Rto, Nanos::from_micros(5)),
        );
        act(
            &mut core,
            &mut queue,
            0,
            sock,
            Action::ArmTimer(TimerKind::Rto, t),
        );
        queue.schedule_at(t, call(2));
        let fired: Vec<(Nanos, Option<TimerKind>, Option<u64>)> =
            std::iter::from_fn(|| queue.pop())
                .map(|(at, ev)| match ev {
                    Event::Timer { kind, .. } => (at, Some(kind), None),
                    Event::AppCall { token, .. } => (at, None, Some(token)),
                    other => panic!("unexpected {other:?}"),
                })
                .collect();
        assert_eq!(
            fired,
            vec![
                (t, Some(TimerKind::Delack), None),
                (t, None, Some(1)),
                (t, Some(TimerKind::Rto), None),
                (t, None, Some(2)),
            ]
        );
    }
}
