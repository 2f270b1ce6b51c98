//! Socket send and receive buffers.
//!
//! Buffers work in 64-bit *stream offsets* (bytes since connection start);
//! the socket maps these to wire sequence numbers. This keeps buffer logic
//! free of 32-bit wrap concerns, exactly like the kernel's separation of
//! `skb` byte queues from sequence arithmetic.
//!
//! Both buffers carry *message boundaries* — stream offsets at which an
//! application `send` call (or an explicit hint) ended — so the instrumented
//! queues can count in message units as well as bytes (paper §3.3).
//!
//! Internally both halves store [`Payload`] views rather than flat byte
//! deques. An application hands `send` a view of the one allocation it
//! encoded its message into; the send buffer keeps the accepted prefix as
//! a view of that allocation, and a later push of the adjacent remainder
//! (a backpressured tail) joins it in place. Segmenting into MSS- or
//! TSO-sized transmissions is an O(1) [`Payload::slice`] per segment. On
//! the receive side, in-order views that are adjacent in one allocation
//! are joined on ingest ([`Payload::try_join`]), so an in-order read of a
//! message that crossed the network in many segments is again a single
//! view of the sender's allocation.
//!
//! Bytes are copied in exactly two places here, both only when a range
//! genuinely spans views that are not adjacent:
//!
//! * a transmission that spans two pushed messages (Nagle, cork or TSO
//!   coalescing a message's tail with the next one's head) is gathered
//!   into one new payload;
//! * a read that spans such pieces is concatenated once.
//!
//! The only other copy on an application message's way from one app to
//! the next is the app's own encode, which creates the allocation.

use std::collections::{BTreeMap, VecDeque};

use crate::payload::Payload;

/// Gathers stream bytes `[from, from + n)` out of a contiguous chunk list
/// (each entry is `(start_offset, bytes)`). A range inside one chunk is an
/// O(1) sub-view; a spanning range concatenates slice-wise (`memcpy`).
// hot-path: runs per emitted segment and per application read
fn gather(chunks: &VecDeque<(u64, Payload)>, from: u64, n: usize) -> Payload {
    if n == 0 {
        return Payload::new();
    }
    let end = from + n as u64;
    // First chunk overlapping `from`: chunks are sorted and contiguous, so
    // binary-search the start offsets.
    let first = chunks.partition_point(|&(start, ref p)| start + p.len() as u64 <= from);
    let (start, p) = &chunks[first];
    let skip = (from - start) as usize;
    if start + p.len() as u64 >= end {
        return p.slice(skip, skip + n);
    }
    let mut out = Vec::with_capacity(n);
    out.extend_from_slice(&p[skip..]);
    for (_, p) in chunks.iter().skip(first + 1) {
        let take = (n - out.len()).min(p.len());
        out.extend_from_slice(&p[..take]);
        if out.len() == n {
            break;
        }
    }
    debug_assert_eq!(out.len(), n, "gather ran past the chunk list");
    out.into()
}

/// The sending half: bytes accepted from the application, split into
/// unacknowledged (`una..nxt`) and unsent (`nxt..end`) regions.
#[derive(Debug, Clone)]
pub struct SendBuffer {
    /// First unacknowledged stream offset.
    una: u64,
    /// Next stream offset to transmit.
    nxt: u64,
    /// End of buffered data.
    end: u64,
    /// Buffered chunks covering `[una, end)` (the front chunk may extend
    /// below `una` until it is fully acknowledged), sorted and contiguous.
    chunks: VecDeque<(u64, Payload)>,
    /// Capacity limit on `end − una`.
    capacity: usize,
    /// Message-end offsets not yet fully acknowledged.
    boundaries: VecDeque<u64>,
}

impl SendBuffer {
    /// Creates an empty buffer with the given byte capacity.
    pub fn new(capacity: usize) -> Self {
        SendBuffer {
            una: 0,
            nxt: 0,
            end: 0,
            chunks: VecDeque::new(),
            capacity,
            boundaries: VecDeque::new(),
        }
    }

    /// Appends as much of `bytes` as capacity allows; returns the number of
    /// bytes accepted. The accepted prefix is kept as a view of the
    /// caller's allocation (no copy); when it continues the previous
    /// chunk in the same allocation, the two are joined into one chunk.
    pub fn push(&mut self, bytes: &Payload) -> usize {
        let room = self.capacity.saturating_sub((self.end - self.una) as usize);
        let n = bytes.len().min(room);
        if n > 0 {
            let view = bytes.slice(0, n);
            let joined = self
                .chunks
                .back_mut()
                .is_some_and(|(_, back)| back.try_join(&view));
            if !joined {
                self.chunks.push_back((self.end, view));
            }
            self.end += n as u64;
        }
        n
    }

    /// Records that an application message ends at the current write
    /// position. No-op if no data is buffered at all (a zero-length send).
    pub fn mark_boundary(&mut self) {
        if self.boundaries.back() != Some(&self.end) && self.end > self.una {
            self.boundaries.push_back(self.end);
        }
    }

    /// First unacknowledged offset.
    pub fn una(&self) -> u64 {
        self.una
    }

    /// Next offset to send.
    pub fn nxt(&self) -> u64 {
        self.nxt
    }

    /// End of buffered data.
    pub fn end(&self) -> u64 {
        self.end
    }

    /// Bytes buffered but not yet transmitted.
    pub fn unsent(&self) -> usize {
        (self.end - self.nxt) as usize
    }

    /// Bytes transmitted but not yet acknowledged.
    pub fn in_flight(&self) -> usize {
        (self.nxt - self.una) as usize
    }

    /// Total buffered bytes (`sk_wmem_queued` analogue).
    pub fn buffered(&self) -> usize {
        (self.end - self.una) as usize
    }

    /// Remaining capacity for `push`.
    pub fn room(&self) -> usize {
        self.capacity.saturating_sub(self.buffered())
    }

    /// Views the next up-to-`max` unsent bytes (without consuming)
    /// together with the message boundaries they contain, and advances
    /// `nxt`. Returns `None` when nothing is unsent or `max == 0`.
    // hot-path: runs per emitted segment; copy-free within one chunk
    pub fn take_chunk(&mut self, max: usize) -> Option<SendChunk> {
        let n = self.unsent().min(max);
        if n == 0 {
            return None;
        }
        let start = self.nxt;
        let bytes = gather(&self.chunks, start, n);
        self.nxt += n as u64;
        let boundaries: Vec<u64> = self
            .boundaries
            .iter()
            .copied()
            .filter(|&b| b > start && b <= self.nxt)
            .collect();
        Some(SendChunk {
            offset: start,
            bytes,
            boundaries,
        })
    }

    /// Re-reads already-transmitted bytes `[offset, offset+len)` for
    /// retransmission (they remain buffered until acknowledged).
    ///
    /// # Panics
    ///
    /// Panics if the range is not fully within `[una, nxt)`.
    pub fn retransmit_chunk(&self, offset: u64, len: usize) -> SendChunk {
        assert!(
            offset >= self.una && offset + len as u64 <= self.nxt,
            "retransmit range [{offset}, +{len}) outside [{}, {})",
            self.una,
            self.nxt
        );
        let bytes = gather(&self.chunks, offset, len);
        let end = offset + len as u64;
        let boundaries: Vec<u64> = self
            .boundaries
            .iter()
            .copied()
            .filter(|&b| b > offset && b <= end)
            .collect();
        SendChunk {
            offset,
            bytes,
            boundaries,
        }
    }

    /// Processes a cumulative acknowledgment up to stream offset `upto`.
    /// Returns the freed byte count and the number of whole messages that
    /// became fully acknowledged.
    // hot-path: runs per received ACK; frees whole chunks, never copies
    pub fn on_ack(&mut self, upto: u64) -> AckResult {
        let upto = upto.min(self.end);
        if upto <= self.una {
            return AckResult {
                bytes: 0,
                messages: 0,
            };
        }
        let n = (upto - self.una) as usize;
        // A partially acknowledged front chunk stays whole until its last
        // byte is covered; the stream offsets keep `gather` exact either
        // way, this only delays freeing its memory slightly.
        while self
            .chunks
            .front()
            .is_some_and(|&(start, ref p)| start + p.len() as u64 <= upto)
        {
            self.chunks.pop_front();
        }
        self.una = upto;
        if self.nxt < self.una {
            self.nxt = self.una;
        }
        let mut messages = 0;
        while self.boundaries.front().is_some_and(|&b| b <= upto) {
            self.boundaries.pop_front();
            messages += 1;
        }
        AckResult { bytes: n, messages }
    }

    /// Rewinds the send pointer to the first unacknowledged byte (go-back-N
    /// after an RTO).
    pub fn rewind_to_una(&mut self) {
        self.nxt = self.una;
    }
}

/// A chunk of stream data handed to the transmit path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendChunk {
    /// Stream offset of the first byte.
    pub offset: u64,
    /// The payload.
    pub bytes: Payload,
    /// Message-end offsets within `(offset, offset + len]`.
    pub boundaries: Vec<u64>,
}

/// Result of processing a cumulative ACK.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckResult {
    /// Bytes newly acknowledged.
    pub bytes: usize,
    /// Whole application messages newly acknowledged.
    pub messages: usize,
}

/// The receiving half: in-order reassembly plus an out-of-order store.
#[derive(Debug, Clone)]
pub struct RecvBuffer {
    /// Next expected stream offset (`rcv_nxt` analogue).
    rcv_nxt: u64,
    /// Offset of the first unread byte (`copied_seq` analogue).
    read_pos: u64,
    /// In-order unread chunks from `read_pos` to `rcv_nxt` (views into
    /// the delivered segments; no reassembly copy).
    ready: VecDeque<Payload>,
    /// Total bytes across `ready`.
    ready_len: usize,
    /// Out-of-order segments keyed by start offset.
    ooo: BTreeMap<u64, Payload>,
    /// Message-end offsets within in-order data, not yet consumed.
    boundaries: VecDeque<u64>,
    /// Out-of-order message-end offsets waiting for in-order delivery.
    ooo_boundaries: BTreeMap<u64, ()>,
    capacity: usize,
}

/// Result of ingesting one data segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestResult {
    /// Bytes that became in-order available (0 for pure out-of-order).
    pub in_order_bytes: usize,
    /// Whole messages that became in-order available.
    pub in_order_messages: usize,
    /// True if the segment was entirely duplicate data.
    pub duplicate: bool,
    /// True if the segment landed out of order.
    pub out_of_order: bool,
}

impl RecvBuffer {
    /// Creates an empty receive buffer with the given capacity.
    pub fn new(capacity: usize) -> Self {
        RecvBuffer {
            rcv_nxt: 0,
            read_pos: 0,
            ready: VecDeque::new(),
            ready_len: 0,
            ooo: BTreeMap::new(),
            boundaries: VecDeque::new(),
            ooo_boundaries: BTreeMap::new(),
            capacity,
        }
    }

    /// Next expected offset.
    pub fn rcv_nxt(&self) -> u64 {
        self.rcv_nxt
    }

    /// Offset of the first unread byte.
    pub fn read_pos(&self) -> u64 {
        self.read_pos
    }

    /// Bytes available for the application to read (`sk_rmem_alloc`
    /// analogue, ignoring out-of-order data).
    pub fn available(&self) -> usize {
        self.ready_len
    }

    /// Whole messages available to read.
    pub fn available_messages(&self) -> usize {
        self.boundaries.len()
    }

    /// Receive window to advertise.
    pub fn window(&self) -> usize {
        self.capacity.saturating_sub(self.ready_len)
    }

    /// Appends in-order bytes, joining them onto the last ready view when
    /// the two are adjacent in one allocation.
    // hot-path: runs per in-order segment; never allocates
    fn push_ready(&mut self, view: Payload) {
        self.ready_len += view.len();
        let joined = self
            .ready
            .back_mut()
            .is_some_and(|back| back.try_join(&view));
        if !joined {
            self.ready.push_back(view);
        }
    }

    /// Ingests a segment at stream offset `offset` carrying `data` and the
    /// message boundaries ending within it. In-order data is retained as a
    /// copy-free view of the segment's payload, joined onto the previous
    /// in-order view when both come from the same sender allocation.
    // hot-path: runs per delivered data segment
    pub fn ingest(&mut self, offset: u64, data: &Payload, boundaries: &[u64]) -> IngestResult {
        let end = offset + data.len() as u64;
        for &b in boundaries {
            debug_assert!(b > offset && b <= end, "boundary {b} outside segment");
            if b > self.rcv_nxt {
                self.ooo_boundaries.insert(b, ());
            }
        }
        if end <= self.rcv_nxt {
            return IngestResult {
                duplicate: true,
                ..IngestResult::default()
            };
        }
        if offset > self.rcv_nxt {
            // Out of order: stash (trimming handled at assembly).
            self.ooo.insert(offset, data.clone());
            return IngestResult {
                out_of_order: true,
                ..IngestResult::default()
            };
        }
        let rcv_nxt_before = self.rcv_nxt;
        // Overlapping or exactly in order: take the new suffix.
        let skip = (self.rcv_nxt - offset) as usize;
        self.push_ready(data.slice(skip, data.len()));
        self.rcv_nxt = end;
        // Pull in any out-of-order data that is now contiguous.
        while let Some((&start, _)) = self.ooo.first_key_value() {
            if start > self.rcv_nxt {
                break;
            }
            let (start, seg) = self.ooo.pop_first().expect("checked non-empty");
            let seg_end = start + seg.len() as u64;
            if seg_end <= self.rcv_nxt {
                continue; // fully duplicate
            }
            let skip = (self.rcv_nxt - start) as usize;
            self.push_ready(seg.slice(skip, seg.len()));
            self.rcv_nxt = seg_end;
        }
        // Promote boundaries that are now in order.
        let mut in_order_messages = 0;
        loop {
            match self.ooo_boundaries.first_key_value() {
                Some((&b, _)) if b <= self.rcv_nxt => {
                    self.ooo_boundaries.pop_first();
                    self.boundaries.push_back(b);
                    in_order_messages += 1;
                }
                _ => break,
            }
        }
        IngestResult {
            in_order_bytes: (self.rcv_nxt - rcv_nxt_before) as usize,
            in_order_messages,
            duplicate: false,
            out_of_order: false,
        }
    }

    /// Reads up to `max` in-order bytes; returns the bytes and the number
    /// of whole messages consumed. A read served by one ready view — which
    /// includes every run of segments cut from one sender allocation — is
    /// copy-free; a read spanning views that are not adjacent
    /// concatenates once.
    // hot-path: runs per application recv
    pub fn read(&mut self, max: usize) -> (Payload, usize) {
        let n = self.ready_len.min(max);
        let bytes = self.take_ready(n);
        self.read_pos += n as u64;
        let mut messages = 0;
        while self.boundaries.front().is_some_and(|&b| b <= self.read_pos) {
            self.boundaries.pop_front();
            messages += 1;
        }
        (bytes, messages)
    }

    /// Removes and returns the first `n` ready bytes.
    fn take_ready(&mut self, n: usize) -> Payload {
        if n == 0 {
            return Payload::new();
        }
        self.ready_len -= n;
        let front = self.ready.front().expect("n > 0 implies a ready chunk");
        if front.len() > n {
            // Split the front chunk: both halves are O(1) views.
            let head = front.slice(0, n);
            let rest = front.slice(n, front.len());
            self.ready[0] = rest;
            return head;
        }
        if front.len() == n {
            return self.ready.pop_front().expect("front exists");
        }
        // Spans several views that could not be joined: concatenate once.
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let chunk = self.ready.pop_front().expect("ready covers n bytes");
            let take = (n - out.len()).min(chunk.len());
            out.extend_from_slice(&chunk[..take]);
            if take < chunk.len() {
                let rest = chunk.slice(take, chunk.len());
                self.ready.push_front(rest);
            }
        }
        out.into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_push_respects_capacity() {
        let mut b = SendBuffer::new(10);
        assert_eq!(b.push(&Payload::from_static(b"hello")), 5);
        assert_eq!(b.push(&Payload::from_static(b"worldxxx")), 5);
        assert_eq!(b.push(&Payload::from_static(b"y")), 0);
        assert_eq!(b.buffered(), 10);
        assert_eq!(b.room(), 0);
    }

    #[test]
    fn send_chunks_advance_nxt() {
        let mut b = SendBuffer::new(100);
        b.push(&Payload::from_static(b"abcdefgh"));
        let c1 = b.take_chunk(3).unwrap();
        assert_eq!(&c1.bytes[..], b"abc");
        assert_eq!(c1.offset, 0);
        let c2 = b.take_chunk(100).unwrap();
        assert_eq!(&c2.bytes[..], b"defgh");
        assert_eq!(c2.offset, 3);
        assert!(b.take_chunk(10).is_none());
        assert_eq!(b.in_flight(), 8);
    }

    #[test]
    fn send_chunk_within_one_push_is_a_view() {
        let mut b = SendBuffer::new(100);
        b.push(&Payload::from_static(b"abcdefgh"));
        let base = b.take_chunk(3).unwrap();
        let more = b.take_chunk(3).unwrap();
        // Same backing allocation: slicing, not copying.
        assert!(std::ptr::eq(
            base.bytes.as_ref().as_ptr().wrapping_add(3),
            more.bytes.as_ref().as_ptr()
        ));
    }

    #[test]
    fn send_push_keeps_a_view_of_the_callers_allocation() {
        let msg = Payload::copy_from_slice(b"abcdefgh");
        let mut b = SendBuffer::new(100);
        assert_eq!(b.push(&msg), 8);
        let c = b.take_chunk(100).unwrap();
        assert!(std::ptr::eq(
            msg.as_ref().as_ptr(),
            c.bytes.as_ref().as_ptr()
        ));
    }

    #[test]
    fn send_push_of_an_adjacent_tail_joins_the_chunk() {
        // A backpressured message: the head is accepted, the tail is
        // pushed later as the adjacent view. A transmission crossing the
        // split is still a view, not a gather.
        let msg = Payload::copy_from_slice(b"abcdefgh");
        let mut b = SendBuffer::new(5);
        assert_eq!(b.push(&msg), 5);
        b.take_chunk(3).unwrap();
        b.on_ack(3);
        assert_eq!(b.push(&msg.slice(5, 8)), 3);
        b.mark_boundary();
        let c = b.take_chunk(100).unwrap();
        assert_eq!(&c.bytes[..], b"defgh");
        assert!(std::ptr::eq(
            msg.as_ref()[3..].as_ptr(),
            c.bytes.as_ref().as_ptr()
        ));
        assert_eq!(c.boundaries, vec![8]);
    }

    #[test]
    fn send_chunk_spanning_pushes_concatenates() {
        let mut b = SendBuffer::new(100);
        b.push(&Payload::from_static(b"abc"));
        b.push(&Payload::from_static(b"def"));
        b.push(&Payload::from_static(b"ghi"));
        let c = b.take_chunk(8).unwrap();
        assert_eq!(&c.bytes[..], b"abcdefgh");
        let rest = b.take_chunk(8).unwrap();
        assert_eq!(&rest.bytes[..], b"i");
    }

    #[test]
    fn send_boundaries_ride_chunks() {
        let mut b = SendBuffer::new(100);
        b.push(&Payload::from_static(b"req1"));
        b.mark_boundary();
        b.push(&Payload::from_static(b"req2!"));
        b.mark_boundary();
        let c = b.take_chunk(6).unwrap();
        assert_eq!(c.boundaries, vec![4]);
        let c2 = b.take_chunk(10).unwrap();
        assert_eq!(c2.boundaries, vec![9]);
    }

    #[test]
    fn ack_frees_bytes_and_messages() {
        let mut b = SendBuffer::new(100);
        b.push(&Payload::from_static(b"req1"));
        b.mark_boundary();
        b.push(&Payload::from_static(b"req2"));
        b.mark_boundary();
        b.take_chunk(100);
        let r = b.on_ack(4);
        assert_eq!(
            r,
            AckResult {
                bytes: 4,
                messages: 1
            }
        );
        assert_eq!(b.buffered(), 4);
        // Duplicate ack is a no-op.
        let r2 = b.on_ack(4);
        assert_eq!(r2.bytes, 0);
        let r3 = b.on_ack(8);
        assert_eq!(r3.messages, 1);
        assert_eq!(b.buffered(), 0);
    }

    #[test]
    fn partial_ack_keeps_retransmit_exact() {
        let mut b = SendBuffer::new(100);
        b.push(&Payload::from_static(b"abcdef"));
        b.take_chunk(6);
        // Ack into the middle of the (single) chunk: the chunk stays, and
        // both retransmit and further acks stay offset-exact.
        b.on_ack(2);
        let c = b.retransmit_chunk(2, 4);
        assert_eq!(&c.bytes[..], b"cdef");
        let r = b.on_ack(6);
        assert_eq!(r.bytes, 4);
        assert_eq!(b.buffered(), 0);
    }

    #[test]
    fn retransmit_rereads_unacked_range() {
        let mut b = SendBuffer::new(100);
        b.push(&Payload::from_static(b"abcdef"));
        b.take_chunk(6);
        let c = b.retransmit_chunk(2, 3);
        assert_eq!(&c.bytes[..], b"cde");
        assert_eq!(c.offset, 2);
    }

    #[test]
    fn rewind_resends_everything_unacked() {
        let mut b = SendBuffer::new(100);
        b.push(&Payload::from_static(b"abcdef"));
        b.take_chunk(6);
        b.on_ack(2);
        b.rewind_to_una();
        let c = b.take_chunk(100).unwrap();
        assert_eq!(c.offset, 2);
        assert_eq!(&c.bytes[..], b"cdef");
    }

    #[test]
    #[should_panic(expected = "retransmit range")]
    fn retransmit_outside_window_panics() {
        let b = SendBuffer::new(100);
        let _ = b.retransmit_chunk(0, 1);
    }

    #[test]
    fn recv_in_order_delivery() {
        let mut r = RecvBuffer::new(100);
        let res = r.ingest(0, &Payload::from_static(b"hello"), &[5]);
        assert_eq!(res.in_order_bytes, 5);
        assert_eq!(res.in_order_messages, 1);
        assert_eq!(r.available(), 5);
        let (bytes, msgs) = r.read(100);
        assert_eq!(&bytes[..], b"hello");
        assert_eq!(msgs, 1);
    }

    #[test]
    fn recv_single_segment_read_is_a_view() {
        let mut r = RecvBuffer::new(100);
        let seg = Payload::from_static(b"hello");
        r.ingest(0, &seg, &[5]);
        let (bytes, _) = r.read(100);
        assert!(std::ptr::eq(seg.as_ref().as_ptr(), bytes.as_ref().as_ptr()));
    }

    #[test]
    fn recv_multi_segment_read_of_one_allocation_is_a_view() {
        // Segments cut from one sender allocation, delivered in order and
        // out of order, join back into one view on ingest.
        let msg = Payload::copy_from_slice(b"abcdefghijkl");
        let mut r = RecvBuffer::new(100);
        r.ingest(0, &msg.slice(0, 4), &[]);
        r.ingest(8, &msg.slice(8, 12), &[12]);
        r.ingest(4, &msg.slice(4, 8), &[]);
        let (bytes, msgs) = r.read(100);
        assert_eq!(msgs, 1);
        assert_eq!(bytes, msg);
        assert!(std::ptr::eq(msg.as_ref().as_ptr(), bytes.as_ref().as_ptr()));
    }

    #[test]
    fn recv_out_of_order_reassembly() {
        let mut r = RecvBuffer::new(100);
        let res1 = r.ingest(5, &Payload::from_static(b"world"), &[10]);
        assert!(res1.out_of_order);
        assert_eq!(r.available(), 0);
        let res2 = r.ingest(0, &Payload::from_static(b"hello"), &[]);
        assert_eq!(res2.in_order_bytes, 10);
        assert_eq!(res2.in_order_messages, 1);
        let (bytes, _) = r.read(100);
        assert_eq!(&bytes[..], b"helloworld");
    }

    #[test]
    fn recv_duplicate_detected() {
        let mut r = RecvBuffer::new(100);
        r.ingest(0, &Payload::from_static(b"abc"), &[]);
        let res = r.ingest(0, &Payload::from_static(b"abc"), &[]);
        assert!(res.duplicate);
        assert_eq!(r.available(), 3);
    }

    #[test]
    fn recv_partial_overlap_takes_suffix() {
        let mut r = RecvBuffer::new(100);
        r.ingest(0, &Payload::from_static(b"abc"), &[]);
        let res = r.ingest(1, &Payload::from_static(b"bcdef"), &[]);
        assert!(!res.duplicate);
        assert_eq!(r.rcv_nxt(), 6);
        let (bytes, _) = r.read(100);
        assert_eq!(&bytes[..], b"abcdef");
    }

    #[test]
    fn recv_partial_read_consumes_messages_lazily() {
        let mut r = RecvBuffer::new(100);
        r.ingest(0, &Payload::from_static(b"req1req2"), &[4, 8]);
        assert_eq!(r.available_messages(), 2);
        let (_, msgs) = r.read(3);
        assert_eq!(msgs, 0, "message 1 not fully consumed yet");
        let (_, msgs) = r.read(1);
        assert_eq!(msgs, 1);
        let (_, msgs) = r.read(100);
        assert_eq!(msgs, 1);
    }

    #[test]
    fn recv_partial_reads_split_chunks_exactly() {
        let mut r = RecvBuffer::new(100);
        r.ingest(0, &Payload::from_static(b"abcdefgh"), &[]);
        let (a, _) = r.read(3);
        assert_eq!(&a[..], b"abc");
        assert_eq!(r.available(), 5);
        let (b, _) = r.read(2);
        assert_eq!(&b[..], b"de");
        let (c, _) = r.read(100);
        assert_eq!(&c[..], b"fgh");
        assert_eq!(r.available(), 0);
    }

    #[test]
    fn recv_window_shrinks_with_unread_data() {
        let mut r = RecvBuffer::new(10);
        r.ingest(0, &Payload::from_static(b"abcde"), &[]);
        assert_eq!(r.window(), 5);
        r.read(5);
        assert_eq!(r.window(), 10);
    }

    #[test]
    fn ooo_chain_reassembles_fully() {
        let mut r = RecvBuffer::new(100);
        r.ingest(6, &Payload::from_static(b"ghi"), &[9]);
        r.ingest(3, &Payload::from_static(b"def"), &[]);
        let res = r.ingest(0, &Payload::from_static(b"abc"), &[]);
        assert_eq!(res.in_order_bytes, 9);
        assert_eq!(res.in_order_messages, 1);
        let (bytes, msgs) = r.read(100);
        assert_eq!(&bytes[..], b"abcdefghi");
        assert_eq!(msgs, 1);
    }
}
