//! Property tests: the inference-only batched network paths are
//! bit-identical to the caching single-sample paths, for random
//! architectures (all branch kinds, both head modes, widths 1–13), random
//! feature shapes, and random batch sizes — and always for the network a
//! Tiny-scale ABR search trains.

mod common;

use common::{bits, random_case, random_rows, tiny_pensieve, NetCase};
use nada_nn::a2c::A2cTrainer;
use nada_nn::batch::{FeatureLayout, InferScratch};
use nada_nn::graph::{ActorCritic, FeatureShape};
use nada_nn::A2cConfig;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn split_row(row: &[f32], shapes: &[FeatureShape]) -> Vec<Vec<f32>> {
    let mut out = Vec::with_capacity(shapes.len());
    let mut off = 0;
    for s in shapes {
        out.push(row[off..off + s.len()].to_vec());
        off += s.len();
    }
    out
}

/// `policy_batch` + `values_batch` ≡ `forward`, bitwise, row by row.
fn check_inference(case: &NetCase, seed: u64, batch: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_actions = case.n_actions;
    let mut net = ActorCritic::build(&case.arch, &case.shapes, n_actions, seed ^ 0xAB);
    let layout = FeatureLayout::new(&case.shapes);
    let rows = random_rows(&mut rng, layout.stride(), batch);

    let mut logits = Vec::new();
    let mut values = Vec::new();
    let mut scratch = InferScratch::default();
    net.policy_batch(&rows, &layout, &mut logits, &mut scratch);
    net.values_batch(&rows, &layout, &mut values, &mut scratch);
    assert_eq!(logits.len(), batch * n_actions);
    assert_eq!(values.len(), batch);

    for (b, row) in rows.chunks_exact(layout.stride()).enumerate() {
        let (ref_logits, ref_value) = net.forward(&split_row(row, &case.shapes));
        let batch_row = &logits[b * n_actions..(b + 1) * n_actions];
        assert_eq!(bits(batch_row), bits(&ref_logits), "{case:?}");
        assert_eq!(values[b].to_bits(), ref_value.to_bits(), "{case:?}");
    }
}

/// Lockstep acting with pre-drawn uniforms ≡ serial acting: a trainer
/// that pre-draws `batch` uniforms and acts on all rows at once picks the
/// same actions as a twin trainer calling `act_stochastic` row by row.
/// Greedy acting agrees with `act_greedy` the same way.
fn check_acting(case: &NetCase, seed: u64, batch: usize) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xAC7);
    let layout = FeatureLayout::new(&case.shapes);
    let rows = random_rows(&mut rng, layout.stride(), batch);

    let build = || {
        let net = ActorCritic::build(&case.arch, &case.shapes, case.n_actions, seed ^ 0xCD);
        A2cTrainer::new(net, A2cConfig::default(), seed ^ 0xEF)
    };

    let mut serial = build();
    let serial_actions: Vec<usize> = rows
        .chunks_exact(layout.stride())
        .map(|row| serial.act_stochastic(&split_row(row, &case.shapes)))
        .collect();

    let mut batched = build();
    let mut draws = Vec::new();
    batched.draw_uniforms(batch, &mut draws);
    let mut actions = Vec::new();
    batched.act_stochastic_batch(&rows, &layout, &draws, &mut actions);
    assert_eq!(&actions, &serial_actions, "{case:?}");

    let greedy_serial: Vec<usize> = rows
        .chunks_exact(layout.stride())
        .map(|row| serial.act_greedy(&split_row(row, &case.shapes)))
        .collect();
    batched.act_greedy_batch(&rows, &layout, &mut actions);
    assert_eq!(&actions, &greedy_serial, "{case:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn batched_inference_matches_forward(seed in 0u64..1_000_000, batch in 1usize..6) {
        let case = random_case(&mut StdRng::seed_from_u64(seed ^ 0x1F));
        check_inference(&case, seed, batch);
    }

    #[test]
    fn batched_acting_matches_serial_acting(seed in 0u64..1_000_000, batch in 1usize..6) {
        let case = random_case(&mut StdRng::seed_from_u64(seed ^ 0x2F));
        check_acting(&case, seed, batch);
    }
}

#[test]
fn tiny_pensieve_inference_and_acting_match_serial() {
    let case = tiny_pensieve();
    for seed in 0..4 {
        for batch in [1, 2, 5] {
            check_inference(&case, seed, batch);
            check_acting(&case, seed, batch);
        }
    }
}
