//! The bit-level dot allocates a bounded amount once warm: the processor's
//! plane datapath nothing at all, and a subarray dot no more than two
//! allocations per operand row it streams (what is left is the mat rows'
//! own packing).
//!
//! A per-thread counting allocator keeps the count free of other tests'
//! threads, so this binary holds only this test's allocator.

use pim_device::flow::SubarrayFlow;
use rm_proc::{ProcScratch, RmProcessor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

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

#[test]
fn warm_processor_dot_allocates_nothing() {
    for lanes in [32u64, 256] {
        let a: Vec<u64> = (0..lanes).map(|i| (i * 37 + 11) % 256).collect();
        let b: Vec<u64> = (0..lanes).map(|i| (i * 91 + 13) % 256).collect();
        let mut proc = RmProcessor::new(8, 2);
        let mut scratch = ProcScratch::new();
        let warm = proc.dot_with(&a, &b, &mut scratch);
        let made = allocations(|| {
            assert_eq!(black_box(proc.dot_with(&a, &b, &mut scratch)), warm);
        });
        assert_eq!(made, 0, "warm {lanes}-lane dot_with");
    }
}

#[test]
fn warm_flow_dot_allocates_at_most_two_per_row_streamed() {
    let mut flow = SubarrayFlow::new().expect("flow builds");
    let k = 32;
    let a: Vec<u8> = (0..k as u32).map(|i| (i * 37 + 5) as u8).collect();
    let b: Vec<u8> = (0..k as u32).map(|i| (i * 91 + 3) as u8).collect();
    flow.load_vector(0, &a).expect("operand fits");
    flow.load_vector(16, &b).expect("operand fits");
    let warm = flow.dot(0, 16, k, 32).expect("dot runs");
    let rows_streamed = 2 * k.div_ceil(flow.elements_per_row()) as u64;
    let made = allocations(|| {
        assert_eq!(flow.dot(0, 16, k, 32).expect("dot runs"), warm);
    });
    assert!(
        made <= 2 * rows_streamed,
        "warm k = {k} dot: {made} allocations for {rows_streamed} rows streamed"
    );
}
