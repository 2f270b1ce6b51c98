//! A RESP (REdis Serialization Protocol) subset.
//!
//! The evaluation workloads speak the protocol Redis speaks: commands are
//! arrays of bulk strings (`*N\r\n$len\r\n<bytes>\r\n...`), SET replies
//! with the simple string `+OK\r\n`, GET with a bulk string or the null
//! bulk `$-1\r\n`. Parsers are incremental — they consume a TCP byte
//! stream fed in arbitrary chunks, exactly as the server's read loop sees
//! it.
//!
//! The byte path is built around one allocation per message. Each
//! `encode_*` writes the whole wire form into one fresh buffer (a SET's
//! value can be written in place, see [`encode_set_filled`]); the fixed
//! `+OK`/`$-1` replies are encoded once per [`Replies`] and shared. The
//! parsers keep their unread bytes as a rope of [`Payload`] views, joined
//! when adjacent in one allocation, and slice values out of it as views.
//! They copy only keys (small, and stored long-lived by the KV map, where
//! a view would pin a whole message buffer) and values that span pieces
//! which are not adjacent.

use std::collections::VecDeque;
use std::io::Write as _;

use tcpsim::Payload;

/// A client command.
///
/// Commands may carry an optional *request id* as a trailing 8-byte bulk
/// argument (`SET key value id8` / `GET key id8`). The proxy tags
/// retried and hedged upstream commands with the originating request's
/// id so the KV app can deduplicate: a retry racing its original, or a
/// hedge racing its primary, must never double-apply. Client-originated
/// traffic stays untagged and byte-identical to the plain encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `SET key value [id]`.
    Set {
        /// The key.
        key: Payload,
        /// The value.
        value: Payload,
        /// Request id for idempotent dedup (proxy-tagged traffic only).
        id: Option<u64>,
    },
    /// `GET key [id]`.
    Get {
        /// The key.
        key: Payload,
        /// Request id for idempotent dedup (proxy-tagged traffic only).
        id: Option<u64>,
    },
}

impl Command {
    /// The request id, when the command is proxy-tagged.
    pub fn id(&self) -> Option<u64> {
        match self {
            Command::Set { id, .. } | Command::Get { id, .. } => *id,
        }
    }
}

/// A server reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// `+OK\r\n` (successful SET).
    Ok,
    /// A bulk string (GET hit).
    Value(Payload),
    /// The null bulk string (GET miss).
    Nil,
}

/// Wire length of a `$len\r\n<len bytes>\r\n` bulk string.
fn bulk_len(len: usize) -> usize {
    let digits = len.checked_ilog10().unwrap_or(0) as usize + 1;
    1 + digits + 2 + len + 2
}

/// Appends a bulk-string header `$len\r\n`.
fn push_bulk_header(out: &mut Vec<u8>, len: usize) {
    // Writing into a Vec cannot fail.
    let _ = write!(out, "${len}\r\n");
}

fn push_bulk(out: &mut Vec<u8>, data: &[u8]) {
    push_bulk_header(out, data.len());
    out.extend_from_slice(data);
    out.extend_from_slice(b"\r\n");
}

/// Encodes `SET key <value> [id]` into one allocation sized exactly for
/// the wire, with a `value_len`-byte value that `fill` writes in place
/// (it sees the value's bytes zeroed).
fn encode_set_into(
    key: &[u8],
    value_len: usize,
    id: Option<u64>,
    fill: impl FnOnce(&mut [u8]),
) -> Payload {
    let (prefix, id_len): (&[u8], usize) = match id {
        Some(_) => (b"*4\r\n$3\r\nSET\r\n", bulk_len(8)),
        None => (b"*3\r\n$3\r\nSET\r\n", 0),
    };
    let mut out =
        Vec::with_capacity(prefix.len() + bulk_len(key.len()) + bulk_len(value_len) + id_len);
    out.extend_from_slice(prefix);
    push_bulk(&mut out, key);
    push_bulk_header(&mut out, value_len);
    let at = out.len();
    out.resize(at + value_len, 0);
    fill(&mut out[at..]);
    out.extend_from_slice(b"\r\n");
    if let Some(id) = id {
        push_bulk(&mut out, &id.to_be_bytes());
    }
    debug_assert_eq!(out.len(), out.capacity(), "wire length precomputed");
    out.into()
}

/// Encodes a SET command.
pub fn encode_set(key: &[u8], value: &[u8]) -> Payload {
    encode_set_into(key, value.len(), None, |v| v.copy_from_slice(value))
}

/// Encodes a SET command whose `value_len`-byte value `fill` writes
/// directly into the wire buffer (zeroed beforehand) — the load
/// generator's path, which never materialises the value on its own.
pub fn encode_set_filled(key: &[u8], value_len: usize, fill: impl FnOnce(&mut [u8])) -> Payload {
    encode_set_into(key, value_len, None, fill)
}

/// Encodes a SET tagged with a request id (proxy → shard traffic that may
/// be retried or hedged).
pub fn encode_set_with_id(key: &[u8], value: &[u8], id: u64) -> Payload {
    encode_set_into(key, value.len(), Some(id), |v| v.copy_from_slice(value))
}

/// Encodes `GET key [id]` into one allocation.
fn encode_get_into(key: &[u8], id: Option<u64>) -> Payload {
    let (prefix, id_len): (&[u8], usize) = match id {
        Some(_) => (b"*3\r\n$3\r\nGET\r\n", bulk_len(8)),
        None => (b"*2\r\n$3\r\nGET\r\n", 0),
    };
    let mut out = Vec::with_capacity(prefix.len() + bulk_len(key.len()) + id_len);
    out.extend_from_slice(prefix);
    push_bulk(&mut out, key);
    if let Some(id) = id {
        push_bulk(&mut out, &id.to_be_bytes());
    }
    out.into()
}

/// Encodes a GET command.
pub fn encode_get(key: &[u8]) -> Payload {
    encode_get_into(key, None)
}

/// Encodes a GET tagged with a request id.
pub fn encode_get_with_id(key: &[u8], id: u64) -> Payload {
    encode_get_into(key, Some(id))
}

/// Response encoder holding the fixed replies, encoded once and handed
/// out as shared views: a `+OK` or `$-1` costs a reference-count bump,
/// not an allocation.
#[derive(Debug, Clone)]
pub struct Replies {
    ok: Payload,
    nil: Payload,
}

impl Default for Replies {
    fn default() -> Self {
        Replies {
            ok: Payload::from_static(b"+OK\r\n"),
            nil: Payload::from_static(b"$-1\r\n"),
        }
    }
}

impl Replies {
    /// Encodes the fixed replies.
    pub fn new() -> Self {
        Self::default()
    }

    /// Encodes a response. A value is copied once into its own wire
    /// buffer; the fixed replies are shared.
    pub fn encode_response(&self, resp: &Response) -> Payload {
        match resp {
            Response::Ok => self.ok.clone(),
            Response::Nil => self.nil.clone(),
            Response::Value(v) => {
                let mut out = Vec::with_capacity(bulk_len(v.len()));
                push_bulk(&mut out, v);
                out.into()
            }
        }
    }
}

/// Unread stream bytes as a rope of payload views. A fed view that
/// continues the last piece in the same allocation is joined onto it, so
/// a message read in several pieces of one sender buffer stays one piece.
#[derive(Debug, Default)]
struct Rope {
    pieces: VecDeque<Payload>,
    len: usize,
}

impl Rope {
    // hot-path: runs per application read; joins or queues, never copies
    fn feed(&mut self, data: Payload) {
        if data.is_empty() {
            return;
        }
        self.len += data.len();
        let joined = self
            .pieces
            .back_mut()
            .is_some_and(|back| back.try_join(&data));
        if !joined {
            self.pieces.push_back(data);
        }
    }

    /// The unread bytes from position `at` on, across pieces.
    fn bytes_from(&self, at: usize) -> impl Iterator<Item = u8> + '_ {
        let mut skip = at;
        let mut first = 0;
        while first < self.pieces.len() && skip >= self.pieces[first].len() {
            skip -= self.pieces[first].len();
            first += 1;
        }
        self.pieces
            .range(first..)
            .enumerate()
            .flat_map(move |(i, p)| p[if i == 0 { skip } else { 0 }..].iter().copied())
    }

    /// True when the bytes at `at` start with `pat`; `None` until enough
    /// bytes are buffered to tell.
    fn has_at(&self, at: usize, pat: &[u8]) -> Option<bool> {
        if self.len < at + pat.len() {
            return None;
        }
        Some(self.bytes_from(at).zip(pat).all(|(b, &p)| b == p))
    }

    /// Copies `out.len()` bytes starting at position `at` into `out`.
    fn copy_at(&self, at: usize, out: &mut [u8]) {
        for (o, b) in out.iter_mut().zip(self.bytes_from(at)) {
            *o = b;
        }
    }

    /// Parses a `<lead><integer>\r\n` header line starting at `at`;
    /// returns the integer and the line's length. `None` while the line is
    /// incomplete. No allocation: digits are folded as they are scanned.
    ///
    /// # Panics
    ///
    /// Panics when the line does not start with `lead` or is not a
    /// decimal integer (the simulation's peers are trusted).
    fn int_line(&self, at: usize, lead: u8) -> Option<(i64, usize)> {
        let mut bytes = self.bytes_from(at);
        let first = bytes.next()?;
        assert_eq!(first, lead, "expected a {:?} header", lead as char);
        let mut used = 1;
        let mut negative = false;
        let mut value: i64 = 0;
        loop {
            let b = bytes.next()?;
            used += 1;
            match b {
                b'-' if used == 2 => negative = true,
                b'0'..=b'9' => value = value * 10 + i64::from(b - b'0'),
                b'\r' => break,
                other => panic!("malformed header byte {other:#x}"),
            }
        }
        assert_eq!(bytes.next()?, b'\n', "header line must end in CRLF");
        Some((if negative { -value } else { value }, used + 1))
    }

    /// Drops the first `n` bytes.
    fn skip(&mut self, mut n: usize) {
        self.len -= n;
        while n > 0 {
            let front = self.pieces.front_mut().expect("rope holds n bytes");
            if front.len() > n {
                *front = front.slice(n, front.len());
                return;
            }
            n -= front.len();
            self.pieces.pop_front();
        }
    }

    /// Removes and returns the first `n` bytes: a view when one piece
    /// holds them, else gathered into one new buffer.
    // hot-path: runs per parsed argument; copies only across pieces
    fn take(&mut self, n: usize) -> Payload {
        let front = match self.pieces.front_mut() {
            Some(front) if n > 0 => front,
            _ => return Payload::new(),
        };
        if front.len() == n {
            self.len -= n;
            return self.pieces.pop_front().expect("front exists");
        }
        if front.len() > n {
            let head = front.slice(0, n);
            self.skip(n);
            return head;
        }
        let mut out = Vec::with_capacity(n);
        for p in &self.pieces {
            let take = (n - out.len()).min(p.len());
            out.extend_from_slice(&p[..take]);
            if out.len() == n {
                break;
            }
        }
        self.skip(n);
        out.into()
    }
}

/// Most arguments a supported command carries (`SET key value id`).
const MAX_ARGS: usize = 4;

/// Incremental parser for client commands (the server's read side).
#[derive(Debug, Default)]
pub struct CommandParser {
    stream: Rope,
}

impl CommandParser {
    /// Creates an empty parser.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends stream bytes, as read from the socket.
    pub fn feed(&mut self, data: Payload) {
        self.stream.feed(data);
    }

    /// Bytes buffered but not yet parsed into a complete command.
    pub fn pending_bytes(&self) -> usize {
        self.stream.len
    }

    /// Extracts the next complete command, if any. The value of a SET is
    /// a view of the fed bytes; the key is a copy.
    ///
    /// # Panics
    ///
    /// Panics on malformed input (the simulation's peers are trusted; a
    /// production implementation would return an error).
    // hot-path: runs per read and per command; the key is its one copy
    pub fn next_command(&mut self) -> Option<Command> {
        let rope = &self.stream;
        let (nargs, mut at) = rope.int_line(0, b'*')?;
        let nargs = usize::try_from(nargs).expect("array length");
        assert!((1..=MAX_ARGS).contains(&nargs), "unsupported arity {nargs}");
        // Locate every argument before consuming anything: an incomplete
        // command leaves the rope untouched.
        let mut args = [(0usize, 0usize); MAX_ARGS];
        for arg in &mut args[..nargs] {
            let (len, header) = rope.int_line(at, b'$')?;
            let len = usize::try_from(len).expect("commands have no null args");
            let start = at + header;
            if rope.len < start + len + 2 {
                return None;
            }
            *arg = (start, len);
            at = start + len + 2;
        }
        let mut verb = [0u8; 3];
        if args[0].1 == verb.len() {
            rope.copy_at(args[0].0, &mut verb);
        }
        // A request id, when present, follows the value (SET) or key (GET).
        let id_arg = match &verb {
            b"SET" => {
                assert!(nargs == 3 || nargs == 4, "SET key value [id]");
                3
            }
            b"GET" => {
                assert!(nargs == 2 || nargs == 3, "GET key [id]");
                2
            }
            _ => panic!("unsupported command of {} bytes", args[0].1),
        };
        let id = (id_arg < nargs).then(|| {
            let (start, len) = args[id_arg];
            assert_eq!(len, 8, "request id is 8 bytes");
            let mut bytes = [0u8; 8];
            rope.copy_at(start, &mut bytes);
            u64::from_be_bytes(bytes)
        });
        // Consume: skip to each argument, cut it out, then drop the rest.
        let (key_at, key_len) = args[1];
        let stream = &mut self.stream;
        stream.skip(key_at);
        let key = Payload::copy_from_slice(&stream.take(key_len));
        let mut consumed = key_at + key_len;
        let cmd = if id_arg == 3 {
            let (value_at, value_len) = args[2];
            stream.skip(value_at - consumed);
            consumed = value_at + value_len;
            let value = stream.take(value_len);
            Command::Set { key, value, id }
        } else {
            Command::Get { key, id }
        };
        stream.skip(at - consumed);
        Some(cmd)
    }
}

/// Incremental parser for server responses (the client's read side).
#[derive(Debug, Default)]
pub struct ResponseParser {
    stream: Rope,
}

impl ResponseParser {
    /// Creates an empty parser.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends stream bytes, as read from the socket.
    pub fn feed(&mut self, data: Payload) {
        self.stream.feed(data);
    }

    /// Extracts the next complete response, if any. A GET value is a view
    /// of the fed bytes.
    ///
    /// # Panics
    ///
    /// Panics on malformed input.
    // hot-path: runs per read and per response; never copies a one-piece value
    pub fn next_response(&mut self) -> Option<Response> {
        let rope = &mut self.stream;
        let kind = rope.bytes_from(0).next()?;
        match kind {
            b'+' => {
                assert!(
                    rope.has_at(0, b"+OK\r\n")?,
                    "only +OK simple strings are used"
                );
                rope.skip(5);
                Some(Response::Ok)
            }
            b'$' => {
                let (len, header) = rope.int_line(0, b'$')?;
                if len == -1 {
                    rope.skip(header);
                    return Some(Response::Nil);
                }
                let len = usize::try_from(len).expect("bulk length");
                if rope.len < header + len + 2 {
                    return None;
                }
                rope.skip(header);
                let value = rope.take(len);
                rope.skip(2);
                Some(Response::Value(value))
            }
            other => panic!("unexpected response type byte {other:#x}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::Pcg32;

    /// Concatenates encoded messages into one contiguous stream.
    fn stream_of(parts: &[Payload]) -> Vec<u8> {
        parts.iter().flat_map(|p| p.iter().copied()).collect()
    }

    #[test]
    fn set_roundtrip() {
        let mut p = CommandParser::new();
        p.feed(encode_set(b"key:0001", b"hello"));
        assert_eq!(
            p.next_command(),
            Some(Command::Set {
                key: Payload::from_static(b"key:0001"),
                value: Payload::from_static(b"hello"),
                id: None,
            })
        );
        assert_eq!(p.next_command(), None);
        assert_eq!(p.pending_bytes(), 0);
    }

    #[test]
    fn get_roundtrip() {
        let mut p = CommandParser::new();
        p.feed(encode_get(b"k"));
        assert_eq!(
            p.next_command(),
            Some(Command::Get {
                key: Payload::from_static(b"k"),
                id: None,
            })
        );
    }

    #[test]
    fn tagged_commands_roundtrip_with_ids() {
        let wire = stream_of(&[
            encode_set_with_id(b"key:0001", b"hello", 0xDEAD_BEEF_0000_0042),
            encode_get_with_id(b"key:0001", 7),
            encode_set(b"key:0002", b"plain"),
        ]);
        let mut p = CommandParser::new();
        p.feed(wire.into());
        assert_eq!(
            p.next_command(),
            Some(Command::Set {
                key: Payload::from_static(b"key:0001"),
                value: Payload::from_static(b"hello"),
                id: Some(0xDEAD_BEEF_0000_0042),
            })
        );
        assert_eq!(
            p.next_command(),
            Some(Command::Get {
                key: Payload::from_static(b"key:0001"),
                id: Some(7),
            })
        );
        // Untagged traffic is unchanged and parses with no id.
        let third = p.next_command().expect("plain SET");
        assert_eq!(third.id(), None);
        assert_eq!(p.next_command(), None);
        assert_eq!(p.pending_bytes(), 0);
    }

    #[test]
    fn partial_feeds_assemble() {
        let wire = encode_set(b"key", &[7u8; 1000]);
        let mut p = CommandParser::new();
        // Feed the stream in 13-byte copies, checking nothing parses early.
        for chunk in wire.chunks(13) {
            assert_eq!(p.next_command(), None, "must not parse early");
            p.feed(Payload::copy_from_slice(chunk));
        }
        let cmd = p.next_command().expect("complete now");
        match cmd {
            Command::Set { value, .. } => assert_eq!(value.len(), 1000),
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn multiple_pipelined_commands() {
        let wire = stream_of(&[
            encode_set(b"a", b"1"),
            encode_get(b"a"),
            encode_set(b"b", b"2"),
        ]);
        let mut p = CommandParser::new();
        p.feed(wire.into());
        assert!(matches!(p.next_command(), Some(Command::Set { .. })));
        assert!(matches!(p.next_command(), Some(Command::Get { .. })));
        assert!(matches!(p.next_command(), Some(Command::Set { .. })));
        assert_eq!(p.next_command(), None);
    }

    #[test]
    fn set_value_is_a_view_and_key_a_copy() {
        let wire = encode_set(b"key:0001", &[5u8; 4096]);
        let mut p = CommandParser::new();
        p.feed(wire.clone());
        let Some(Command::Set { key, value, .. }) = p.next_command() else {
            panic!("expected a SET");
        };
        let base = wire.as_ptr() as usize;
        let within = |q: &Payload| (base..base + wire.len()).contains(&(q.as_ptr() as usize));
        assert!(within(&value), "value shares the wire allocation");
        assert!(!within(&key), "key is copied out");
    }

    #[test]
    fn response_ok_roundtrip() {
        let mut p = ResponseParser::new();
        p.feed(Replies::new().encode_response(&Response::Ok));
        assert_eq!(p.next_response(), Some(Response::Ok));
    }

    #[test]
    fn response_value_roundtrip() {
        let v = Payload::from(vec![9u8; 16384]);
        let mut p = ResponseParser::new();
        p.feed(Replies::new().encode_response(&Response::Value(v.clone())));
        assert_eq!(p.next_response(), Some(Response::Value(v)));
    }

    #[test]
    fn response_nil_roundtrip() {
        let mut p = ResponseParser::new();
        p.feed(Replies::new().encode_response(&Response::Nil));
        assert_eq!(p.next_response(), Some(Response::Nil));
    }

    #[test]
    fn fixed_replies_are_shared_not_reallocated() {
        let replies = Replies::new();
        let a = replies.encode_response(&Response::Ok);
        let b = replies.encode_response(&Response::Ok);
        assert!(std::ptr::eq(a.as_ptr(), b.as_ptr()));
        assert_eq!(&replies.encode_response(&Response::Nil)[..], b"$-1\r\n");
    }

    #[test]
    fn interleaved_response_stream() {
        let replies = Replies::new();
        let wire = stream_of(&[
            replies.encode_response(&Response::Ok),
            replies.encode_response(&Response::Value(Payload::from_static(b"xy"))),
            replies.encode_response(&Response::Ok),
        ]);
        let mut p = ResponseParser::new();
        // Split mid-bulk.
        p.feed(Payload::copy_from_slice(&wire[..8]));
        assert_eq!(p.next_response(), Some(Response::Ok));
        assert_eq!(p.next_response(), None);
        p.feed(Payload::copy_from_slice(&wire[8..]));
        assert_eq!(
            p.next_response(),
            Some(Response::Value(Payload::from_static(b"xy")))
        );
        assert_eq!(p.next_response(), Some(Response::Ok));
    }

    #[test]
    fn long_streams_parse_one_command_per_feed() {
        let mut p = CommandParser::new();
        for i in 0..200 {
            let key = format!("key:{i:04}");
            p.feed(encode_set(key.as_bytes(), &[0u8; 100]));
            let cmd = p.next_command().expect("complete command");
            match cmd {
                Command::Set { key: k, .. } => assert_eq!(k.as_ref(), key.as_bytes()),
                other => panic!("wrong {other:?}"),
            }
        }
        assert_eq!(p.pending_bytes(), 0);
    }

    #[test]
    fn wire_sizes_match_redis_framing() {
        // 16 B key + 16 KiB value: the paper's Figure 4a request.
        let wire = encode_set(&[b'k'; 16], &[0u8; 16384]);
        // *3\r\n (4) + $3\r\nSET\r\n (9) + $16\r\n key \r\n (5+16+2)
        // + $16384\r\n value \r\n (8+16384+2) = 16430.
        assert_eq!(wire.len(), 16_430);
        assert_eq!(Replies::new().encode_response(&Response::Ok).len(), 5);
        // The in-place encoding is byte-identical to the copying one.
        let filled = encode_set_filled(&[b'k'; 16], 16384, |v| v[..8].copy_from_slice(b"01234567"));
        let mut value = vec![0u8; 16384];
        value[..8].copy_from_slice(b"01234567");
        assert_eq!(filled, encode_set(&[b'k'; 16], &value));
        // Tagged framing: one more 8-byte bulk ($8\r\n id \r\n = 14).
        assert_eq!(
            encode_set_with_id(b"k", b"v", 1).len(),
            encode_set(b"k", b"v").len() + 14
        );
        assert_eq!(
            encode_get_with_id(b"k", 1).len(),
            encode_get(b"k").len() + 14
        );
    }

    fn range(rng: &mut Pcg32, lo: usize, hi: usize) -> usize {
        lo + rng.gen_range((hi - lo) as u64) as usize
    }

    /// Random cut points splitting `[0, len)` into pieces.
    fn cuts(rng: &mut Pcg32, len: usize) -> Vec<usize> {
        let mut points: Vec<usize> = (0..range(rng, 0, 24))
            .map(|_| range(rng, 0, len + 1))
            .collect();
        points.push(0);
        points.push(len);
        points.sort_unstable();
        points.dedup();
        points
    }

    /// The three ways a stream reaches a parser: one contiguous copy,
    /// adjacent views of one allocation, and copies that are never
    /// adjacent. Each is a list of feeds.
    fn three_feeds(stream: &Payload, points: &[usize]) -> [Vec<Payload>; 3] {
        let contiguous = vec![Payload::copy_from_slice(stream)];
        let views = points
            .windows(2)
            .map(|w| stream.slice(w[0], w[1]))
            .collect();
        let copies = points
            .windows(2)
            .map(|w| Payload::copy_from_slice(&stream[w[0]..w[1]]))
            .collect();
        [contiguous, views, copies]
    }

    fn random_key(rng: &mut Pcg32) -> Vec<u8> {
        (0..range(rng, 1, 17))
            .map(|_| b'a' + rng.gen_range(26) as u8)
            .collect()
    }

    fn random_value(rng: &mut Pcg32) -> Vec<u8> {
        let len = match rng.gen_range(3) {
            0 => range(rng, 0, 16),
            1 => range(rng, 0, 2048),
            _ => range(rng, 0, 20 * 1024 + 1),
        };
        (0..len).map(|_| rng.next_u32() as u8).collect()
    }

    /// Commands parse identically however the stream is split and however
    /// its pieces relate in memory; values fed as adjacent views share the
    /// stream's allocation, keys never do.
    #[test]
    fn command_parser_differential_sweep() {
        let mut rng = Pcg32::new(0x5EED_0E5A);
        for _ in 0..60 {
            let mut expected = Vec::new();
            let mut wire = Vec::new();
            for _ in 0..range(&mut rng, 1, 8) {
                let key = random_key(&mut rng);
                let id = rng.gen_bool(0.5).then(|| rng.next_u64());
                let (cmd, enc) = if rng.gen_bool(0.6) {
                    let value = random_value(&mut rng);
                    let enc = match id {
                        Some(id) => encode_set_with_id(&key, &value, id),
                        None => encode_set(&key, &value),
                    };
                    let cmd = Command::Set {
                        key: key.as_slice().into(),
                        value: value.into(),
                        id,
                    };
                    (cmd, enc)
                } else {
                    let enc = match id {
                        Some(id) => encode_get_with_id(&key, id),
                        None => encode_get(&key),
                    };
                    (
                        Command::Get {
                            key: key.as_slice().into(),
                            id,
                        },
                        enc,
                    )
                };
                expected.push(cmd);
                wire.push(enc);
            }
            let stream = Payload::from(stream_of(&wire));
            let points = cuts(&mut rng, stream.len());
            let base = stream.as_ptr() as usize;
            let shares = |p: &Payload| (base..base + stream.len()).contains(&(p.as_ptr() as usize));
            for (way, feeds) in three_feeds(&stream, &points).into_iter().enumerate() {
                let mut parser = CommandParser::new();
                let mut got = Vec::new();
                for feed in feeds {
                    parser.feed(feed);
                    while let Some(cmd) = parser.next_command() {
                        got.push(cmd);
                    }
                }
                assert_eq!(got, expected, "feed way {way}");
                assert_eq!(parser.pending_bytes(), 0);
                for cmd in &got {
                    let key = match cmd {
                        Command::Set { key, value, .. } => {
                            if way == 1 && !value.is_empty() {
                                assert!(shares(value), "adjacent views parse to views");
                            }
                            key
                        }
                        Command::Get { key, .. } => key,
                    };
                    assert!(!shares(key), "keys are copied out");
                }
            }
        }
    }

    /// Responses (+OK, values of 0–20 KiB, null bulks) parse identically
    /// under the same three feeds; adjacent-view values are views.
    #[test]
    fn response_parser_differential_sweep() {
        let replies = Replies::new();
        let mut rng = Pcg32::new(0x5EED_0E5B);
        for _ in 0..60 {
            let expected: Vec<Response> = (0..range(&mut rng, 1, 10))
                .map(|_| match rng.gen_range(3) {
                    0 => Response::Ok,
                    1 => Response::Nil,
                    _ => Response::Value(random_value(&mut rng).into()),
                })
                .collect();
            let wire: Vec<Payload> = expected
                .iter()
                .map(|r| replies.encode_response(r))
                .collect();
            let stream = Payload::from(stream_of(&wire));
            let points = cuts(&mut rng, stream.len());
            let base = stream.as_ptr() as usize;
            for (way, feeds) in three_feeds(&stream, &points).into_iter().enumerate() {
                let mut parser = ResponseParser::new();
                let mut got = Vec::new();
                for feed in feeds {
                    parser.feed(feed);
                    while let Some(resp) = parser.next_response() {
                        got.push(resp);
                    }
                }
                assert_eq!(got, expected, "feed way {way}");
                if way == 1 {
                    for resp in &got {
                        if let Response::Value(v) = resp {
                            if !v.is_empty() {
                                let at = v.as_ptr() as usize;
                                assert!((base..base + stream.len()).contains(&at));
                            }
                        }
                    }
                }
            }
        }
    }
}
