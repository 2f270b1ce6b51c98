//! A simulated host: CPU contexts, NIC transmit ring, and a socket table.
//!
//! Each host mirrors the paper's experimental machines: one pinned
//! application context and one pinned softirq context ([`CpuContext`]s),
//! plus a NIC whose transmit ring is what auto-corking watches. The host
//! owns its sockets and, per (socket, timer), the [`EventToken`] of the
//! pending timer event in the global queue, so a re-arm or cancel removes
//! the superseded event instead of letting it fire.

use simnet::{CpuContext, EventToken, Nanos};

use crate::config::{CostConfig, TcpConfig};
use crate::segment::{FlowId, Segment};
use crate::socket::{SocketId, TcpSocket, TimerKind};
use crate::table::FlowMap;

// `HostId` moved to the topology layer (hosts are graph nodes now);
// re-exported here so `tcpsim::host::HostId` keeps working.
pub use simnet::HostId;

/// One simulated machine.
#[derive(Debug)]
pub struct Host {
    /// The host's id.
    pub id: HostId,
    /// The pinned application thread.
    pub app_cpu: CpuContext,
    /// The pinned softirq (network receive/transmit) context.
    pub softirq_cpu: CpuContext,
    /// CPU cost parameters.
    pub costs: CostConfig,
    /// Configuration used for passively accepted sockets.
    pub accept_config: TcpConfig,
    sockets: Vec<TcpSocket>,
    /// Flow → socket, dense-indexed by the (small, sequential) flow id.
    flows: FlowMap<SocketId>,
    /// Packets handed to the NIC, not yet completed.
    nic_in_flight: u32,
    /// Per-socket pending timer events, indexed by `SocketId` and
    /// [`TimerKind`]. A token may be stale (its event already fired);
    /// cancelling a stale token is a no-op.
    timers: Vec<[Option<EventToken>; TimerKind::COUNT]>,
    /// Total doorbells rung (one per transmit batch).
    pub doorbells: u64,
    /// Counter-state generations issued (wrapping); each registered socket
    /// gets the next value as its exchange epoch.
    epochs_issued: u8,
    /// Sockets that corked a partial segment and are waiting for the NIC
    /// to drain. Registered on the uncorked → corked transition (the cork
    /// timer arm), drained at every NIC completion; entries can be stale
    /// (the socket may have flushed meanwhile), so consumers re-check
    /// `is_corked`. Keeps NIC completion O(corked), not O(sockets).
    cork_waiters: Vec<SocketId>,
}

impl Host {
    /// Creates a host with the given CPU contexts and costs.
    pub fn new(
        id: HostId,
        app_cpu: CpuContext,
        softirq_cpu: CpuContext,
        costs: CostConfig,
        accept_config: TcpConfig,
    ) -> Self {
        Host {
            id,
            app_cpu,
            softirq_cpu,
            costs,
            accept_config,
            sockets: Vec::new(),
            flows: FlowMap::new(),
            nic_in_flight: 0,
            timers: Vec::new(),
            doorbells: 0,
            epochs_issued: 0,
            cork_waiters: Vec::new(),
        }
    }

    /// Registers a socket, returning its id. The socket is stamped with
    /// the host's next counter-state epoch, so a socket created to replace
    /// a crashed one shares counters under a fresh generation tag.
    pub fn add_socket(&mut self, mut sock: TcpSocket) -> SocketId {
        sock.set_epoch(self.epochs_issued);
        self.epochs_issued = self.epochs_issued.wrapping_add(1);
        let id = SocketId(self.sockets.len());
        self.flows.set(sock.flow(), id);
        self.sockets.push(sock);
        self.timers.push([None; TimerKind::COUNT]);
        id
    }

    /// Drops the flow mapping for a socket (the endpoint-restart fault):
    /// segments for that flow become stray deliveries and are dropped at
    /// the softirq layer, exactly as if the owning process disappeared.
    pub fn remove_flow(&mut self, flow: FlowId) {
        self.flows.remove(flow);
    }

    /// Looks up the socket serving `flow`.
    // hot-path: runs on every segment delivery; must not allocate per call
    pub fn socket_for_flow(&self, flow: FlowId) -> Option<SocketId> {
        self.flows.get(flow).copied()
    }

    /// Immutable access to a socket.
    ///
    /// # Panics
    ///
    /// Panics on an invalid id.
    pub fn socket(&self, id: SocketId) -> &TcpSocket {
        &self.sockets[id.0]
    }

    /// Mutable access to a socket.
    ///
    /// # Panics
    ///
    /// Panics on an invalid id.
    pub fn socket_mut(&mut self, id: SocketId) -> &mut TcpSocket {
        &mut self.sockets[id.0]
    }

    /// All socket ids on this host.
    pub fn socket_ids(&self) -> impl Iterator<Item = SocketId> {
        (0..self.sockets.len()).map(SocketId)
    }

    /// Number of sockets.
    pub fn socket_count(&self) -> usize {
        self.sockets.len()
    }

    /// Current NIC ring occupancy in packets.
    pub fn nic_in_flight(&self) -> u32 {
        self.nic_in_flight
    }

    /// Adds packets to the NIC ring (at transmit).
    pub fn nic_enqueue(&mut self, packets: u32) {
        self.nic_in_flight += packets;
    }

    /// Removes packets from the NIC ring (at completion interrupt).
    pub fn nic_complete(&mut self, packets: u32) {
        self.nic_in_flight = self.nic_in_flight.saturating_sub(packets);
    }

    /// Registers a socket as waiting for NIC drain to revisit its corked
    /// tail. Safe to call redundantly; NIC completion filters on the
    /// socket's live cork state.
    // hot-path: runs on every cork arm; must not allocate per call in steady state
    pub fn note_cork_wait(&mut self, sock: SocketId) {
        if self.cork_waiters.last() != Some(&sock) {
            self.cork_waiters.push(sock);
        }
    }

    /// Moves the pending cork waiters into `out` (clearing both first),
    /// preserving registration order. Both vectors keep their capacity.
    pub fn drain_cork_waiters_into(&mut self, out: &mut Vec<SocketId>) {
        out.clear();
        std::mem::swap(&mut self.cork_waiters, out);
    }

    /// The token of a socket timer's pending event (`None` when the timer
    /// was never armed or was cancelled). Arming stores the new event's
    /// token here after cancelling the old one.
    ///
    /// # Panics
    ///
    /// Panics on an invalid socket id.
    // hot-path: runs on every timer arm/cancel; must not allocate per call
    pub(crate) fn timer_token(
        &mut self,
        sock: SocketId,
        kind: TimerKind,
    ) -> &mut Option<EventToken> {
        &mut self.timers[sock.0][kind as usize]
    }

    /// Softirq receive cost for a segment: one per-delivery charge (the
    /// post-GRO skb) plus per-wire-packet and per-payload terms.
    pub fn rx_cost(&self, seg: &Segment) -> Nanos {
        self.costs.rx_per_delivery
            + self.costs.rx_per_packet * seg.wire_packets as u64
            + Nanos::from_nanos(
                self.costs.rx_per_kib.as_nanos() * seg.payload.len() as u64 / 1024,
            )
    }

    /// Transmit cost for a segment (excluding the doorbell). Pure ACKs use
    /// the flat [`CostConfig::tx_ack`] cost.
    pub fn tx_cost(&self, seg: &Segment) -> Nanos {
        if seg.is_pure_ack() {
            return self.costs.tx_ack;
        }
        self.costs.tx_per_segment
            + Nanos::from_nanos(self.costs.tx_per_kib.as_nanos() * seg.payload.len() as u64 / 1024)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::Payload;
    use crate::socket::Action;
    use littles::Nanos;

    fn host() -> Host {
        Host::new(
            HostId::from_index(0),
            CpuContext::new("app"),
            CpuContext::new("softirq"),
            CostConfig::default(),
            TcpConfig::default(),
        )
    }

    #[test]
    fn socket_registration_and_flow_lookup() {
        let mut h = host();
        let mut actions: Vec<Action> = Vec::new();
        let sock = TcpSocket::client(FlowId(7), TcpConfig::default(), Nanos::ZERO, &mut actions);
        let id = h.add_socket(sock);
        assert_eq!(h.socket_for_flow(FlowId(7)), Some(id));
        assert_eq!(h.socket_for_flow(FlowId(8)), None);
        assert_eq!(h.socket_count(), 1);
    }

    #[test]
    fn nic_ring_accounting() {
        let mut h = host();
        h.nic_enqueue(5);
        assert_eq!(h.nic_in_flight(), 5);
        h.nic_complete(3);
        assert_eq!(h.nic_in_flight(), 2);
        h.nic_complete(10);
        assert_eq!(h.nic_in_flight(), 0, "saturates at zero");
    }

    #[test]
    fn rx_cost_scales_with_packets_and_bytes() {
        let h = host();
        let mut small = Segment::control(
            FlowId(1),
            crate::seq::SeqNum::new(0),
            crate::seq::SeqNum::new(0),
            crate::segment::Flags::default(),
            0,
        );
        small.payload = Payload::from(vec![0u8; 100]);
        let mut big = small.clone();
        big.payload = Payload::from(vec![0u8; 10_000]);
        big.wire_packets = 7;
        assert!(h.rx_cost(&big) > h.rx_cost(&small));
    }
}
