//! Steady-state allocation accounting for the batched evaluation path.
//!
//! The batched engine's promise is O(1) heap allocations per epoch: after
//! the `EvalScratch` arena warms up, evaluating a batch of bindings every
//! decision tick allocates nothing — features, intermediate vectors and
//! call-argument buffers are all recycled. This test pins that down with a
//! counting global allocator: repeated `eval_batch_with` calls through a
//! warm scratch must perform **zero** allocations.
//!
//! (Kept as its own integration-test binary so the global allocator does
//! not interfere with unrelated tests.)

use nada_dsl::{seeds, EvalScratch, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    /// Allocations made by this thread: the harness runs the other tests,
    /// and its own bookkeeping, on other threads meanwhile.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // A thread being torn down may still allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn warm_batched_eval_allocates_nothing() {
    let state = seeds::pensieve_state();
    // A batch of distinct bindings, as the lockstep engine would hold one
    // per live episode.
    let bindings: Vec<Vec<Value>> = (0..4)
        .map(|i| {
            state
                .schema_midpoint_inputs()
                .into_iter()
                .map(|v| match v {
                    Value::Scalar(x) => Value::Scalar(x + i as f64),
                    Value::Vector(mut xs) => {
                        for x in &mut xs {
                            *x += i as f64;
                        }
                        Value::Vector(xs)
                    }
                })
                .collect()
        })
        .collect();

    let mut scratch = EvalScratch::default();
    let mut rows = Vec::new();

    // Warm-up: let the arena and the output buffer reach their fixpoint
    // capacities (the pool's reuse order stabilizes within a few rounds).
    for _ in 0..8 {
        state
            .eval_batch_with(
                bindings.iter().map(|b| b.as_slice()),
                &mut scratch,
                &mut rows,
            )
            .unwrap();
    }

    let before = allocations();
    for _ in 0..100 {
        let n = state
            .eval_batch_with(
                bindings.iter().map(|b| b.as_slice()),
                &mut scratch,
                &mut rows,
            )
            .unwrap();
        assert_eq!(n, bindings.len());
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "warm batched evaluation must not allocate (got {} allocations over 100 batched calls)",
        after - before
    );
}

#[test]
fn cold_path_still_allocates_but_only_while_warming() {
    // Sanity check on the counter itself: the first evaluation through a
    // fresh scratch *does* allocate (arena warm-up), so a zero reading
    // above cannot be a broken counter.
    let state = seeds::cc_state();
    let inputs = state.schema_midpoint_inputs();
    let mut scratch = EvalScratch::default();
    let mut rows = Vec::new();
    let before = allocations();
    state
        .eval_batch_with(std::iter::once(inputs.as_slice()), &mut scratch, &mut rows)
        .unwrap();
    assert!(
        allocations() > before,
        "fresh-arena evaluation should allocate"
    );
}
