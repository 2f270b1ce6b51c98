//! The applications' one write path.
//!
//! Client, server and proxy all write whole encoded messages to a socket
//! the same way: send at once when nothing is queued ahead, and keep
//! whatever the send buffer does not accept — as a view of the message's
//! own allocation, never a copy — until the socket turns writable again.

use std::collections::VecDeque;

use littles::Snapshot;
use tcpsim::{HostCtx, Payload, SocketId};

/// A socket's write backlog plus its pending-flush flag.
#[derive(Debug, Default)]
pub(crate) struct Outbox {
    /// Messages (or message tails) awaiting send-buffer space, in order.
    backlog: VecDeque<Payload>,
    /// A flush call is already scheduled.
    flush_pending: bool,
}

impl Outbox {
    /// Writes one message: sends it now when nothing is queued ahead of
    /// it, else queues it behind the backlog. The unaccepted tail of a
    /// send is queued as a view. A `hint` rides on the send call (§3.3);
    /// it is dropped when the message has to queue.
    pub(crate) fn send(
        &mut self,
        ctx: &mut HostCtx<'_>,
        sock: SocketId,
        wire: Payload,
        hint: Option<Snapshot>,
    ) {
        if !self.backlog.is_empty() {
            self.backlog.push_back(wire);
            return;
        }
        let sent = match hint {
            Some(hint) => ctx.send_with_hint(sock, &wire, hint),
            None => ctx.send(sock, &wire),
        };
        if sent < wire.len() {
            self.backlog.push_back(wire.slice(sent, wire.len()));
        }
    }

    /// Queues a message without sending (the connection is not up yet).
    pub(crate) fn queue(&mut self, wire: Payload) {
        self.backlog.push_back(wire);
    }

    /// Marks a flush pending and returns true when there is a backlog and
    /// no flush is scheduled yet — the caller then schedules one.
    pub(crate) fn wants_flush(&mut self) -> bool {
        let wants = !self.backlog.is_empty() && !self.flush_pending;
        self.flush_pending |= wants;
        wants
    }

    /// The scheduled flush: drains the backlog as far as the send buffer
    /// allows. `None` when the connection cannot take writes (crashed or
    /// not yet connected); the backlog then waits.
    pub(crate) fn flush(&mut self, ctx: &mut HostCtx<'_>, sock: Option<SocketId>) {
        self.flush_pending = false;
        let Some(sock) = sock else {
            return;
        };
        while let Some(front) = self.backlog.front_mut() {
            let sent = ctx.send(sock, front);
            if sent < front.len() {
                *front = front.slice(sent, front.len());
                break;
            }
            self.backlog.pop_front();
        }
    }

    /// Forgets everything queued (the connection was reset).
    pub(crate) fn clear(&mut self) {
        self.backlog.clear();
        self.flush_pending = false;
    }
}
