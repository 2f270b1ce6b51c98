//! Allocation budget of the application byte path.
//!
//! A SET's bytes are meant to live in one allocation, made when the load
//! generator encodes the request: the socket buffers, the segments, the
//! receive reassembly, the server's parser and the KV store all hold
//! views of it. This test installs a counting global allocator, runs an
//! N = 8 Figure-4a star at two value sizes with identical arrivals, and
//! takes the slope of heap bytes allocated per request per value byte.
//! Everything that does not scale with the value (events, timers, the
//! key, the reply) cancels in the difference, so the slope reads the
//! number of times a value's bytes are allocated on their way through.
//!
//! * `TCP_NODELAY`: every segment is cut from one request's allocation,
//!   so the slope is ~1.0; the bound is 1.25.
//! * Nagle on: a segment that coalesces one request's tail with the next
//!   one's head is gathered into a new buffer, and a value that then
//!   spans that buffer and its own allocation is gathered once more on
//!   the receive side; the bound, 2.0, allows one such extra copy per
//!   request.
//!
//! The file holds exactly one test so no sibling test thread allocates
//! concurrently and pollutes the counter.

// The counting allocator needs `unsafe`: implementing `GlobalAlloc` is
// inherently unsafe. The override is scoped to this integration test.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use e2e_batching::e2e_apps::{CostProfile, LancetClient, RedisServer, WorkloadSpec};
use e2e_batching::littles::Nanos;
use e2e_batching::simnet::{run, CpuContext, EventQueue, LinkConfig};
use e2e_batching::tcpsim::{Host, HostId, NagleMode, NetSim, TcpConfig};

struct CountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growing realloc is a fresh allocation of the new size.
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const CLIENTS: usize = 8;
/// Aggregate offered load: well inside the Figure-4a knee for both value
/// sizes and both Nagle settings, so no run saturates.
const RATE_RPS: f64 = 20_000.0;
const RUN: Nanos = Nanos::from_millis(100);

/// Runs the star and returns (heap bytes allocated, requests issued).
fn allocated_per_run(value_size: usize, nagle: NagleMode) -> (u64, u64) {
    let profile = CostProfile::calibrated();
    let tcp = TcpConfig {
        nagle,
        ..TcpConfig::default()
    };
    let mut spec = WorkloadSpec::fig4a(RATE_RPS / CLIENTS as f64);
    spec.value_size = value_size;
    let before = BYTES.load(Ordering::Relaxed);
    let clients = (0..CLIENTS)
        .map(|_| LancetClient::new(spec, profile.app, tcp, Nanos::from_millis(1), RUN))
        .collect();
    let client_hosts = (0..CLIENTS)
        .map(|i| {
            Host::new(
                HostId::from_index(i),
                CpuContext::with_multiplier("client-app", profile.client_app_multiplier),
                CpuContext::new("client-softirq"),
                profile.client_stack,
                tcp,
            )
        })
        .collect();
    let server_host = Host::new(
        HostId::from_index(CLIENTS),
        CpuContext::new("server-app"),
        CpuContext::new("server-softirq"),
        profile.server_stack,
        tcp,
    );
    let mut sim = NetSim::star(
        clients,
        RedisServer::new(profile.app),
        client_hosts,
        server_host,
        LinkConfig::default(),
        0xA110C,
    );
    let mut queue = EventQueue::new();
    sim.start(&mut queue);
    run(&mut sim, &mut queue, RUN);
    let bytes = BYTES.load(Ordering::Relaxed) - before;
    let sent: u64 = sim.clients.iter().map(|c| c.sent).sum();
    let completed: u64 = sim.clients.iter().map(|c| c.completed).sum();
    assert!(
        completed * 10 >= sent * 9,
        "{value_size} B values under {nagle:?}: only {completed} of {sent} requests completed"
    );
    (bytes, sent)
}

/// Heap bytes allocated per request per value byte, between 1 KiB and
/// 16 KiB values.
fn slope(nagle: NagleMode) -> f64 {
    let (small, small_sent) = allocated_per_run(1024, nagle);
    let (large, large_sent) = allocated_per_run(16 * 1024, nagle);
    assert_eq!(small_sent, large_sent, "both runs see the same arrivals");
    (large as f64 - small as f64) / small_sent as f64 / (15.0 * 1024.0)
}

#[test]
fn one_allocation_per_message_from_encode_to_store() {
    let nodelay = slope(NagleMode::Off);
    let nagle = slope(NagleMode::On);
    eprintln!("allocated bytes per value byte: NODELAY {nodelay:.3}, Nagle {nagle:.3}");
    assert!(
        nodelay <= 1.25,
        "NODELAY slope {nodelay:.3} > 1.25: a value byte is allocated more than once"
    );
    assert!(
        nagle <= 2.0,
        "Nagle slope {nagle:.3} > 2.0: more than one gathered copy per request"
    );
}
