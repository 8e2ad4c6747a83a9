//! Steady-state allocation accounting for the batched A2C update.
//!
//! After the trainer's scratch buffers warm up, `A2cTrainer::update` must
//! perform **zero** heap allocations: returns/advantages go into flat
//! reusable buffers, the batched forward/backward recycles layer caches,
//! and clipping + Adam walk parameters through a visitor instead of
//! collecting `Vec<&mut Param>`. Pinned with a counting global allocator.
//!
//! (Kept as its own integration-test binary so the global allocator does
//! not interfere with unrelated tests.)

use nada_nn::{
    A2cConfig, A2cTrainer, Activation, ActorCritic, ArchConfig, BranchKind, FeatureShape, HeadMode,
};
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

/// The two temporal branch families with the most scratch state: LSTM
/// (the heaviest cache discipline) and the Tiny Pensieve conv branch
/// (padded input rows, regrouped weights), each with a dense scalar
/// branch and separate heads.
fn archs() -> [ArchConfig; 2] {
    let lstm = ArchConfig {
        temporal_branch: BranchKind::Lstm { units: 4 },
        temporal_activation: Activation::Tanh,
        scalar_branch: BranchKind::Dense { units: 4 },
        scalar_activation: Activation::Relu,
        hidden_units: 8,
        hidden_layers: 1,
        hidden_activation: Activation::Relu,
        heads: HeadMode::Separate,
    };
    [lstm, ArchConfig::pensieve_original().scaled_down(16)]
}

fn trainer_and_episodes(arch: &ArchConfig) -> (A2cTrainer, Vec<nada_nn::EpisodeBuffer>) {
    let shapes = vec![
        FeatureShape::Temporal(6),
        FeatureShape::Scalar,
        FeatureShape::Scalar,
    ];
    let net = ActorCritic::build(arch, &shapes, 4, 7);
    let trainer = A2cTrainer::new(net, A2cConfig::default(), 11);

    let lens: Vec<usize> = shapes.iter().map(|s| s.len()).collect();
    let stride: usize = lens.iter().sum();
    let mut episodes = Vec::new();
    for e in 0..3 {
        let mut ep = nada_nn::EpisodeBuffer::new();
        for t in 0..12 {
            let row: Vec<f32> = (0..stride)
                .map(|i| ((e * 31 + t * 7 + i) % 13) as f32 * 0.1 - 0.6)
                .collect();
            ep.push_row(&row, &lens, (e + t) % 4, ((t % 5) as f32) * 0.2 - 0.4);
        }
        episodes.push(ep);
    }
    (trainer, episodes)
}

#[test]
fn warm_update_allocates_nothing() {
    for arch in archs() {
        let (mut trainer, episodes) = trainer_and_episodes(&arch);

        // Warm-up: scratch buffers, layer caches and flat return/advantage
        // buffers all reach their fixpoint capacities within a few rounds.
        for _ in 0..8 {
            trainer.update(&episodes);
        }

        let before = allocations();
        for _ in 0..50 {
            let stats = trainer.update(&episodes);
            assert!(stats.grad_norm.is_finite());
        }
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "warm A2C update must not allocate (got {} allocations over 50 updates, {:?})",
            after - before,
            arch.temporal_branch
        );
    }
}

#[test]
fn cold_update_still_allocates_but_only_while_warming() {
    // Sanity check on the counter itself: the very first update through a
    // fresh trainer *does* allocate, so a zero reading above cannot be a
    // broken counter.
    let (mut trainer, episodes) = trainer_and_episodes(&archs()[1]);
    let before = allocations();
    trainer.update(&episodes);
    assert!(
        allocations() > before,
        "fresh-trainer update should allocate"
    );
}
