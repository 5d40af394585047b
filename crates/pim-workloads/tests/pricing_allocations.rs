//! Pricing allocates a fixed handful of times per run, however many rounds
//! the schedule has: BERT's 360-round schedule may allocate no more than
//! the 1-round `MatMul` 24×16×8, plus a small fixed slack. The streamed
//! pass, which lowers each round into one reused buffer as it prices it,
//! allocates a fixed number of times too.
//!
//! A per-thread counting allocator keeps the count free of other tests'
//! threads, so this binary holds only this test's allocator.

use pim_device::{PriceTable, StreamPim, StreamPimConfig};
use pim_trace::NullSink;
use pim_workloads::{DnnKind, WorkloadSpec};
use rm_core::NullProbe;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Allocations a run may make beyond the 1-round schedule's.
const SLACK: u64 = 4;

#[test]
fn pricing_allocations_do_not_grow_with_rounds() {
    for config in [
        StreamPimConfig::paper_default(),
        StreamPimConfig::electrical_bus(),
    ] {
        let device = StreamPim::new(config).expect("built-in configs are valid");
        let lower = |spec: WorkloadSpec| spec.shape_task().lower(&device).expect("lowers");
        let bert = lower(WorkloadSpec::dnn(DnnKind::Bert));
        let small = lower(WorkloadSpec::MatMul { m: 24, k: 16, n: 8 });
        assert_eq!((bert.len(), small.len()), (360, 1));

        let cold = |schedule| {
            allocations(|| {
                std::hint::black_box(device.execute(schedule));
            })
        };
        let warm = |schedule| {
            let mut table = PriceTable::new();
            device.execute_repriced(schedule, &mut table);
            allocations(|| {
                std::hint::black_box(device.execute_repriced(schedule, &mut table));
            })
        };
        let (bert_cold, small_cold) = (cold(&bert), cold(&small));
        let (bert_warm, small_warm) = (warm(&bert), warm(&small));
        assert!(
            bert_cold <= small_cold + SLACK,
            "execute: BERT {bert_cold} allocations vs {small_cold} for 1 round"
        );
        assert!(
            bert_warm <= small_warm + SLACK,
            "warm execute_repriced: BERT {bert_warm} allocations vs {small_warm} for 1 round"
        );
    }
}

/// Allocations the streamed BERT pass may make (53 when this bound was
/// set): its placement, the round buffers, which grow by doubling to the
/// widest round and are reused for every later one, and the pricer's fixed
/// handful. Lowering BERT into a schedule makes 5,549.
const STREAMED_BERT: u64 = 64;

#[test]
fn streamed_pricing_allocations_do_not_grow_with_rounds() {
    for config in [
        StreamPimConfig::paper_default(),
        StreamPimConfig::electrical_bus(),
    ] {
        let device = StreamPim::new(config).expect("built-in configs are valid");
        let bert = WorkloadSpec::dnn(DnnKind::Bert).shape_task();
        let streamed = allocations(|| {
            std::hint::black_box(
                bert.price_instrumented(&device, &NullSink, &NullProbe)
                    .expect("BERT has operations"),
            );
        });
        assert!(
            streamed <= STREAMED_BERT,
            "streamed BERT: {streamed} allocations for 360 rounds"
        );
    }
}
