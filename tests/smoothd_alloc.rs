//! Long-run memory regression tests for the steady-state slot loops:
//! the smoothd shard loop and the simulator's `Server → Link → Client`
//! pipeline; and allocation budgets for the Section 5 sweep's set-up
//! and per-run costs (`materialize` and one `simulate`).
//!
//! A counting global allocator wraps the system allocator; after a
//! warmup phase lets every scratch vector, ring, and queue reach its
//! high-water capacity, a long measured run of [`Shard::process_slot`]
//! must perform **zero** heap allocations and free nothing — the same
//! style as the PR 4 hot-path bound, but over the whole serving loop
//! (fair grants, server steps, link delivery, playout rings) instead
//! of one policy. The pipeline test holds `Client::step_into` and the
//! Greedy byte-value index to the same bound.
//!
//! The tests drive `Shard` and the pipeline directly on the test
//! thread: the daemon's workers and the sim engine run exactly these
//! loops. The counters are global, so the tests hold [`SERIAL`] for
//! their whole body: the harness runs tests on parallel threads, and
//! each would otherwise count the other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use rts_bench::workload;
use rts_core::policy::{GreedyByteValue, TailDrop};
use rts_core::tradeoff::SmoothingParams;
use rts_core::{Client, ClientStep, DropPolicy, SentChunk, Server, ServerStep};
use rts_sim::{simulate, Link, LinkModel, SimConfig};
use rts_smoothd::{AdmitRequest, Shard, WirePolicy};
use rts_stream::rng::SplitMix64;
use rts_stream::{FrameKind, InputStream, SliceSpec, Time};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static DEALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to `System`; the counters are updated with
// atomics and never touch the allocator's own invariants.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        DEALLOCS.fetch_add(1, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Held by each test for its whole body, so the global counters see
/// one test at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A failed test poisons the lock; the counters are still sound.
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn snapshot() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::SeqCst),
        DEALLOCS.load(Ordering::SeqCst),
    )
}

/// Allocations and bytes requested (a `realloc` counts its new size)
/// while `f` runs.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (a0, b0) = (ALLOCS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst));
    let out = f();
    let (a1, b1) = (ALLOCS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst));
    (out, a1 - a0, b1 - b0)
}

#[test]
fn materialize_writes_one_slice_column() {
    let _serial = serial();
    // The canonical 1,800-frame trace, one slice per byte: the stream
    // is one slice column plus per-frame spans, sized up front, so a
    // handful of allocations requesting little beyond the slices.
    let trace = workload::section5_trace();
    let (stream, allocs, bytes) = allocations(|| workload::byte_stream(&trace));
    let n = stream.slice_count() as u64;
    assert_eq!(stream.frame_count(), workload::FRAMES);
    assert!(allocs < 64, "materialize made {allocs} allocations");
    assert!(
        bytes < 48 * n,
        "materialize requested {:.1} B per slice",
        bytes as f64 / n as f64
    );
}

#[test]
fn simulate_allocates_outcomes_not_slices() {
    let _serial = serial();
    // One run of the sweep's `simulate` at R = 1.1x the average rate:
    // the record borrows the stream's slices, so a run allocates its
    // 32-byte outcome column, the step series and the pipeline's
    // queues, and copies no slice column.
    let trace = workload::section5_trace();
    let stream = workload::byte_stream(&trace);
    let n = stream.slice_count() as u64;
    let rate = workload::rate_at(&trace, 1.1);
    for k in [1, 26] {
        let buffer = k * trace.max_frame_bytes();
        let params = SmoothingParams::balanced_from_rate_delay(rate, buffer.div_ceil(rate), 1);
        let config = SimConfig::new(params);
        let tail = allocations(|| simulate(&stream, config, TailDrop::new()).metrics);
        let greedy = allocations(|| simulate(&stream, config, GreedyByteValue::new()).metrics);
        for (policy, (metrics, _, bytes)) in [("Tail-Drop", tail), ("Greedy", greedy)] {
            assert!(metrics.played_slices > 0, "{policy} k = {k}: no play");
            assert!(
                bytes < 56 * n,
                "{policy} k = {k}: simulate requested {:.1} B per slice",
                bytes as f64 / n as f64
            );
        }
    }
}

#[test]
fn steady_state_shard_loop_is_allocation_free() {
    let _serial = serial();
    // 1:1: the link carries every reserved rate, so each slot takes
    // the fused single pass.
    assert_steady_state_allocation_free(4 * 128, (1, 1), 256);
    // Overbooked 2:1 with the link one session's rate short of the
    // committed total, so each slot takes the fair-grants pre-pass.
    // Its server buffers fill up to B only over the first several
    // hundred slots, so it warms up longer.
    assert_steady_state_allocation_free(4 * 127, (2, 1), 1024);
}

/// Admits 128 rate-4 CBR sessions to a shard with this link and
/// overbooking, warms it up for `warmup` slots, then requires 2 000
/// slots without a single allocation or free.
fn assert_steady_state_allocation_free(link: u64, overbook: (u64, u64), warmup: u64) {
    let sessions = 128u64;
    let rate = 4u64;
    let mut shard = Shard::new(0, link, overbook);
    let req = AdmitRequest {
        rate,
        delay: 4,
        link_delay: 1,
        buffer: 0, // balanced B = R·D
        weight: 1,
        policy: WirePolicy::Tail,
        per_slot: rate as u32,
        slice_size: rate as u32,
        lifetime: 0, // unbounded: pure steady state, no retirements
    };
    for id in 0..sessions {
        shard.admit(id, &req).expect("within the bookable capacity");
    }

    // Warmup: scratch vectors, server rings, link queues, and playout
    // rings all reach their steady capacity within the first pipeline
    // fill (P + D slots) on an uncontended link — 256 slots is far past
    // any doubling.
    for _ in 0..warmup {
        shard.process_slot();
    }

    let (a0, d0) = snapshot();
    const MEASURED_SLOTS: u64 = 2_000;
    for _ in 0..MEASURED_SLOTS {
        shard.process_slot();
    }
    let (a1, d1) = snapshot();

    assert_eq!(
        a1 - a0,
        0,
        "steady-state shard loop allocated {} time(s) over {MEASURED_SLOTS} slots",
        a1 - a0
    );
    assert_eq!(
        d1 - d0,
        0,
        "steady-state shard loop freed {} time(s) over {MEASURED_SLOTS} slots \
         (something is churning heap memory)",
        d1 - d0
    );

    // The loop did real work the whole time.
    let totals = shard.totals();
    assert!(
        totals.played_bytes >= sessions * rate * MEASURED_SLOTS / 2,
        "sessions stalled: only {} bytes played",
        totals.played_bytes
    );
}

#[test]
fn steady_state_client_pipeline_is_allocation_free() {
    let _serial = serial();
    let any_weight = |rng: &mut SplitMix64, _size: u64| rng.range_u64(1, 12);
    // B = R·D and Bc = B: the client never drops (Lemmas 3.3/3.4).
    let (_, drops) = assert_pipeline_allocation_free(4, 4, 1_024, TailDrop::new(), any_weight);
    assert_eq!(drops, 0, "a balanced client dropped {drops} slices");
    // D = 1 < ⌈B/R⌉ = 4: bytes queued behind a burst miss their
    // deadlines, so the client keeps discarding Late and Incomplete
    // slices throughout the window.
    let (_, drops) = assert_pipeline_allocation_free(4, 1, 1_024, TailDrop::new(), any_weight);
    assert!(
        drops > 1_000,
        "only {drops} client drops: the window is too easy"
    );
    // Greedy on the Section 5 weighting: 12, 8 or 1 per byte over slice
    // sizes 1–3, so its index holds three byte-value classes while the
    // bursts keep the server dropping. Each class has its own deque,
    // which reaches its high-water mark only when a burst of that class
    // peaks, so this input warms up longer.
    let mpeg_weight =
        |rng: &mut SplitMix64, size: u64| [12, 8, 1][rng.range_u64(0, 2) as usize] * size;
    let (drops, _) =
        assert_pipeline_allocation_free(3, 4, 4_096, GreedyByteValue::new(), mpeg_weight);
    assert!(
        drops > 1_000,
        "only {drops} Greedy server drops: the window is too easy"
    );
}

/// Runs a bursty stream through `Server → Link → Client::step_into`
/// with `B = 16`, `R = rate`, `Bc = B`, smoothing delay `delay` and
/// the given drop policy, slice weights drawn by `weight(rng, size)`;
/// warms up for `warmup` slots, then requires 20 000 slots without an
/// allocation or a free. Returns the (server, client) drops inside the
/// window.
fn assert_pipeline_allocation_free<P: DropPolicy>(
    rate: u64,
    delay: Time,
    warmup: Time,
    policy: P,
    weight: impl Fn(&mut SplitMix64, u64) -> u64,
) -> (u64, u64) {
    const MEASURED_SLOTS: Time = 20_000;
    let buffer = 16;
    // Quiet slots of 0–2 small slices, and every 16th slot a burst of
    // 8–12 that overflows the server buffer.
    let mut rng = SplitMix64::new(14);
    let frames: Vec<Vec<SliceSpec>> = (0..warmup + MEASURED_SLOTS)
        .map(|t| {
            let n = if t % 16 == 0 {
                rng.range_u64(8, 12)
            } else {
                rng.range_u64(0, 2)
            };
            (0..n)
                .map(|_| {
                    let size = rng.range_u64(1, 3);
                    SliceSpec::new(size, weight(&mut rng, size), FrameKind::P)
                })
                .collect()
        })
        .collect();
    let stream = InputStream::from_frames(frames);

    let mut server = Server::new(buffer, rate, policy);
    let mut link = Link::new(1);
    let mut client = Client::new(buffer, delay, 1);
    let mut sstep = ServerStep::default();
    let mut cstep = ClientStep::default();
    let mut delivered: Vec<SentChunk> = Vec::new();
    let (mut played, mut server_drops, mut client_drops) = (0u64, 0u64, 0u64);
    let mut window_start = snapshot();
    for (t, frame) in stream.frames().enumerate() {
        let t = t as Time;
        if t == warmup {
            window_start = snapshot();
        }
        server.step_into(t, frame.slices, &mut sstep);
        link.submit(&sstep.sent);
        delivered.clear();
        link.deliver_into(t, &mut delivered);
        client.step_into(t, &delivered, &mut cstep);
        if t >= warmup {
            played += cstep.played.len() as u64;
            server_drops += sstep.dropped.len() as u64;
            client_drops += cstep.dropped.len() as u64;
        }
    }
    let (a0, d0) = window_start;
    let (a1, d1) = snapshot();

    let policy = server.policy_name();
    assert_eq!(
        a1 - a0,
        0,
        "steady-state {policy} pipeline (D = {delay}) allocated {} time(s) over {MEASURED_SLOTS} slots",
        a1 - a0
    );
    assert_eq!(
        d1 - d0,
        0,
        "steady-state {policy} pipeline (D = {delay}) freed {} time(s) over {MEASURED_SLOTS} slots",
        d1 - d0
    );
    assert!(played > MEASURED_SLOTS / 2, "only {played} slices played");
    (server_drops, client_drops)
}

#[test]
fn session_churn_returns_memory_to_the_allocator() {
    let _serial = serial();
    // Not allocation-free (admission and eviction may allocate), but
    // net heap growth across full churn cycles must stay bounded: the
    // daemon cannot leak a session's worth of state per admit/evict.
    let rate = 4u64;
    let mut shard = Shard::new(0, rate * 64, (1, 1));
    let req = AdmitRequest {
        rate,
        delay: 4,
        link_delay: 1,
        buffer: 0,
        weight: 1,
        policy: WirePolicy::Tail,
        per_slot: rate as u32,
        slice_size: rate as u32,
        lifetime: 8,
    };
    let mut retirements = Vec::new();
    // Warmup cycles.
    let mut next_id = 0u64;
    for _ in 0..8 {
        for _ in 0..32 {
            shard.admit(next_id, &req).expect("fits");
            next_id += 1;
        }
        while shard.sessions() > 0 {
            shard.process_slot();
        }
        shard.take_retirements(&mut retirements);
        retirements.clear();
    }

    let (a0, _) = snapshot();
    let net0 = ALLOCS.load(Ordering::SeqCst) as i64 - DEALLOCS.load(Ordering::SeqCst) as i64;
    for _ in 0..32 {
        for _ in 0..32 {
            shard.admit(next_id, &req).expect("fits");
            next_id += 1;
        }
        while shard.sessions() > 0 {
            shard.process_slot();
        }
        shard.take_retirements(&mut retirements);
        retirements.clear();
    }
    let net1 = ALLOCS.load(Ordering::SeqCst) as i64 - DEALLOCS.load(Ordering::SeqCst) as i64;
    let (a1, _) = snapshot();

    // Live-allocation count must not trend upward with cycles: allow a
    // small constant slack for lazily grown scratch, nothing per-cycle.
    assert!(
        net1 - net0 <= 64,
        "heap grows with churn: {} net live allocations over 32 cycles \
         ({} total allocations)",
        net1 - net0,
        a1 - a0
    );
}
