//! Allocation-per-activation regression gate.
//!
//! The engine hot path was rewritten to reuse its activation sets,
//! observation snapshots, and views across steps; this test pins that
//! property with a counting global allocator so a future "harmless"
//! `clone()` or `collect()` in the per-activation path fails CI instead
//! of silently costing 30% throughput.
//!
//! Everything runs inside ONE `#[test]` function: the counter is global
//! to the process, and the libtest harness runs separate tests on
//! separate threads, which would bleed allocations into each other's
//! windows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use stigmergy::async2::{Async2, DriftPolicy};
use stigmergy::session::Network;
use stigmergy::sync2::Sync2;
use stigmergy::CoreError;
use stigmergy_coding::alphabet::LevelAlphabet;
use stigmergy_geometry::Point;
use stigmergy_robots::{Engine, MovementProtocol};
use stigmergy_scheduler::{FairAsync, FaultPlan, Synchronous, WakeAllFirst};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation verbatim to `System`; the counter is
// a relaxed atomic side effect with no influence on the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged to `System.alloc`; the caller
        // upholds `GlobalAlloc`'s layout contract for us.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` came from a matching `alloc` on the
        // same `System` allocator, per the `GlobalAlloc` contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged to `System.realloc`; `ptr` was
        // allocated by this allocator with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let result = f();
    (ALLOCATIONS.load(Ordering::SeqCst) - before, result)
}

fn pair<P: MovementProtocol>(make: impl Fn() -> P, seed: u64) -> Engine<P> {
    Engine::builder()
        .positions([Point::new(0.0, 0.0), Point::new(14.0, 0.0)])
        .protocols([make(), make()])
        .schedule(Synchronous)
        .frame_seed(seed)
        // The production fleet path records nothing in the engine; the
        // streaming trace observer is a separate, measured-elsewhere cost.
        .record_trace(false)
        .build()
        .expect("pair configuration is valid")
}

#[test]
fn allocation_budgets_hold_on_the_hot_paths() {
    // 1. Steady-state silent Sync2: nothing queued, nobody moves. This is
    //    the pure engine loop — schedule, snapshot, views, geometry — and
    //    it must not touch the allocator at all.
    let mut engine = pair(Sync2::new, 0xA110C);
    engine.run(16).expect("collision-free"); // warm every scratch buffer
    let (allocs, _) = allocations_during(|| engine.run(1_000).expect("collision-free"));
    assert_eq!(
        allocs, 0,
        "silent Sync2 steady state must be allocation-free (got {allocs} over 2000 activations)"
    );

    // 2. Transmitting Sync2: framing, bit decode, and inbox assembly are
    //    allowed to allocate, but only amortized-O(1) per delivered bit —
    //    the incremental frame decoder must not re-scan (the old decoder
    //    cost ~3 allocations per observed bit; the budget below would
    //    catch any return to that).
    let mut engine = pair(Sync2::new, 0xA110C);
    engine.run(4).expect("collision-free");
    engine.protocol_mut(0).send(&[0x5A; 32]);
    let (allocs, _) = allocations_during(|| {
        engine
            .run_until(4_000, |e| !e.protocol(1).inbox().is_empty())
            .expect("collision-free")
    });
    let activations = 2 * 2 * (16 + 32 * 8); // 2 robots × (signal+return) × framed bits
    assert!(
        allocs * 8 <= activations,
        "transmitting Sync2 allocated {allocs} times over ~{activations} activations \
         (budget: 1 per 8 activations)"
    );

    // 3. Transmitting byte-coded Sync2 (256 symbols, 8 bits per move):
    //    the same budget per frame bit, so unpacking a symbol into its
    //    bits must stay allocation-free (no per-symbol `BitString`).
    let byte = LevelAlphabet::new(128).expect("valid alphabet");
    let mut engine = pair(|| Sync2::with_alphabet(byte), 0xA110C);
    engine.run(4).expect("collision-free");
    engine.protocol_mut(0).send(&[0x5A; 32]);
    let (allocs, outcome) = allocations_during(|| {
        engine
            .run_until(4_000, |e| !e.protocol(1).inbox().is_empty())
            .expect("collision-free")
    });
    assert!(
        outcome.satisfied,
        "byte-coded Sync2 must deliver within budget"
    );
    let frame_bits = 16 + 32 * 8;
    assert!(
        allocs * 8 <= frame_bits,
        "byte-coded Sync2 allocated {allocs} times for {frame_bits} frame bits \
         (budget: 1 per 8 frame bits)"
    );

    // 4. Async2 delivery: the asynchronous protocol carries more state
    //    per activation (pending observations, drift bookkeeping), so it
    //    gets a pinned budget instead of zero — measured at well under
    //    0.5 allocations per activation after the rewrite.
    let mut engine = pair(|| Async2::new(DriftPolicy::Diverge), 0xA110C);
    engine.run(4).expect("collision-free");
    engine.protocol_mut(0).send(b"adv");
    let (allocs, outcome) = allocations_during(|| {
        engine
            .run_until(600_000, |e| !e.protocol(1).inbox().is_empty())
            .expect("collision-free")
    });
    assert!(outcome.satisfied, "async2 must deliver within budget");
    let stats = engine.stats();
    assert!(
        allocs * 2 <= stats.activations,
        "Async2 allocated {allocs} times over {} activations (budget: 1 per 2 activations)",
        stats.activations
    );

    // 5. A streaming `Network` waiting for delivery, as the batch runner
    //    drives it: every instant runs the engine and checks the
    //    inboxes. With the sender crash-stopped at t0 nothing is ever
    //    sent, and the loop must not allocate.
    let mut net = Network::streaming(
        vec![Point::new(0.0, 0.0), Point::new(14.0, 0.0)],
        None,
        || Async2::new(DriftPolicy::Diverge),
        WakeAllFirst::new(FairAsync::new(0xA110C, 0.5, 16)),
        0xA110C,
        |_| {},
    )
    .expect("pair configuration is valid");
    net.engine_mut()
        .set_fault_plan(FaultPlan::new(0xA110C).crash_stop(0, 0));
    net.send(0, 1, b"adv").expect("valid message");
    net.run(16).expect("collision-free"); // warm every scratch buffer
    let (allocs, outcome) = allocations_during(|| net.run_until_delivered(1_000));
    assert!(
        matches!(outcome, Err(CoreError::Timeout { steps: 1_000 })),
        "a crashed sender delivers nothing: {outcome:?}"
    );
    assert_eq!(
        allocs, 0,
        "the Network delivery loop must be allocation-free (got {allocs} over 1000 instants)"
    );
}
