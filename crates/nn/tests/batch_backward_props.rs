//! Property tests: the batched *training* kernels are bit-identical to the
//! single-sample caching paths — gradients, optimizer state after a step,
//! and a whole `A2cTrainer::update` against a serial reference — for random
//! architectures (all branch kinds, both head modes, widths 1–13), random
//! feature shapes, and random batch sizes, and always for the network a
//! Tiny-scale ABR search trains.

mod common;

use common::{bits, random_case, random_rows, tiny_pensieve, NetCase};
use nada_nn::a2c::{softmax, A2cTrainer, EpisodeBuffer};
use nada_nn::batch::{FeatureLayout, InferScratch, TrainScratch};
use nada_nn::graph::ActorCritic;
use nada_nn::param::clip_global_grad_norm;
use nada_nn::{A2cConfig, Adam};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The A2C update exactly as the single-step engine ran it: per-episode
/// returns/advantages, batch-wide normalization, then one `forward_flat` +
/// `backward` round trip per step, followed by global clip and one Adam
/// step. The production `update` must match this bit for bit.
fn serial_update_reference(
    net: &mut ActorCritic,
    opt: &mut Adam,
    cfg: &A2cConfig,
    episodes: &[EpisodeBuffer],
) -> (f32, f32, f32, f32) {
    let total_steps: usize = episodes.iter().map(|e| e.len()).sum();
    let norm = 1.0 / total_steps as f32;
    let layout = net.feature_layout();
    let mut infer = InferScratch::default();
    let mut values_buf = Vec::new();

    let mut advantages: Vec<Vec<f32>> = Vec::new();
    let mut all_returns: Vec<Vec<f32>> = Vec::new();
    for ep in episodes {
        let returns = ep.returns(cfg.gamma);
        net.values_batch(ep.states_flat(), &layout, &mut values_buf, &mut infer);
        let advs: Vec<f32> = returns
            .iter()
            .zip(&values_buf)
            .map(|(&r, &value)| r - value)
            .collect();
        advantages.push(advs);
        all_returns.push(returns);
    }
    if cfg.normalize_advantages {
        let flat: Vec<f32> = advantages.iter().flatten().copied().collect();
        let mean = flat.iter().sum::<f32>() / flat.len() as f32;
        let var = flat.iter().map(|a| (a - mean) * (a - mean)).sum::<f32>() / flat.len() as f32;
        let std = var.sqrt().max(1e-6);
        for advs in &mut advantages {
            for a in advs.iter_mut() {
                *a = (*a - mean) / std;
            }
        }
    }

    let mut policy_loss = 0.0f32;
    let mut value_loss = 0.0f32;
    let mut entropy_acc = 0.0f32;
    for (e, ep) in episodes.iter().enumerate() {
        let returns = &all_returns[e];
        for t in 0..ep.len() {
            let (logits, value) = net.forward_flat(ep.state_row(t));
            let probs = softmax(&logits);
            let log_probs: Vec<f32> = probs.iter().map(|p| p.max(1e-10).ln()).collect();
            let a = ep.action(t);
            let adv = advantages[e][t];
            let ent: f32 = -probs
                .iter()
                .zip(&log_probs)
                .map(|(p, lp)| p * lp)
                .sum::<f32>();

            policy_loss += -log_probs[a] * adv;
            value_loss += 0.5 * (value - returns[t]).powi(2);
            entropy_acc += ent;

            let mut dlogits = vec![0.0f32; probs.len()];
            for i in 0..probs.len() {
                let onehot = if i == a { 1.0 } else { 0.0 };
                let d_pg = (probs[i] - onehot) * adv;
                let d_ent = cfg.entropy_coeff * probs[i] * (log_probs[i] + ent);
                dlogits[i] = (d_pg + d_ent) * norm;
            }
            let dvalue = cfg.value_coeff * (value - returns[t]) * norm;
            net.backward(&dlogits, dvalue);
        }
    }

    let grad_norm = {
        let mut params = net.params_mut();
        clip_global_grad_norm(&mut params, cfg.clip_grad_norm)
    };
    let mut params = net.params_mut();
    opt.step(&mut params);
    (
        policy_loss * norm,
        value_loss * norm,
        entropy_acc * norm,
        grad_norm,
    )
}

/// `forward_batch` + `backward_batch` ≡ per-row `forward_flat` +
/// `backward`: outputs, every accumulated gradient, and the full Adam
/// state (`w`, `m`, `v`) after a step, all bitwise.
fn check_backward(case: &NetCase, seed: u64, batch: usize) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBB);
    let n_actions = case.n_actions;
    let mut serial = ActorCritic::build(&case.arch, &case.shapes, n_actions, seed ^ 0xAB);
    let mut batched = serial.clone();
    let layout = FeatureLayout::new(&case.shapes);
    let stride = layout.stride();
    let rows = random_rows(&mut rng, stride, batch);
    let dlogits: Vec<f32> = (0..batch * n_actions)
        .map(|_| rng.gen_range(-1.0..1.0))
        .collect();
    let dvalues: Vec<f32> = (0..batch).map(|_| rng.gen_range(-1.0..1.0)).collect();

    // Serial: immediate-backward discipline, one row at a time.
    let mut ser_logits = Vec::new();
    let mut ser_values = Vec::new();
    for (r, row) in rows.chunks_exact(stride).enumerate() {
        let (lg, v) = serial.forward_flat(row);
        ser_logits.extend(lg);
        ser_values.push(v);
        serial.backward(&dlogits[r * n_actions..(r + 1) * n_actions], dvalues[r]);
    }

    // Batched: one forward, one backward.
    let mut scratch = TrainScratch::default();
    let mut logits = Vec::new();
    let mut values = Vec::new();
    batched.forward_batch(&rows, &layout, &mut logits, &mut values, &mut scratch);
    batched.backward_batch(&dlogits, &dvalues, &mut scratch);

    assert_eq!(bits(&logits), bits(&ser_logits), "{case:?}");
    assert_eq!(bits(&values), bits(&ser_values), "{case:?}");
    for (pa, pb) in serial.params_mut().iter().zip(batched.params_mut().iter()) {
        assert_eq!(bits(&pa.g), bits(&pb.g), "{case:?}");
    }

    // And the optimizer state diverges nowhere after a step.
    let mut opt_a = Adam::new(1e-3);
    opt_a.step(&mut serial.params_mut());
    let mut opt_b = Adam::new(1e-3);
    opt_b.step(&mut batched.params_mut());
    for (pa, pb) in serial.params_mut().iter().zip(batched.params_mut().iter()) {
        assert_eq!(bits(&pa.w), bits(&pb.w), "{case:?}");
        assert_eq!(bits(&pa.m), bits(&pb.m), "{case:?}");
        assert_eq!(bits(&pa.v), bits(&pb.v), "{case:?}");
    }
}

/// The production `A2cTrainer::update` ≡ the serial per-step reference:
/// identical stats and an identical network afterwards, bitwise, over
/// multi-episode batches.
fn check_update(case: &NetCase, seed: u64, n_eps: usize) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBC);
    let n_actions = case.n_actions;
    let layout = FeatureLayout::new(&case.shapes);
    let stride = layout.stride();
    let cfg = A2cConfig {
        normalize_advantages: seed.is_multiple_of(2),
        ..A2cConfig::default()
    };

    let mut episodes = Vec::new();
    for _ in 0..n_eps {
        let steps = rng.gen_range(1..6);
        let mut ep = EpisodeBuffer::new();
        for _ in 0..steps {
            let row = random_rows(&mut rng, stride, 1);
            let action = rng.gen_range(0..n_actions);
            let reward = rng.gen_range(-1.0..1.0);
            ep.push_row(&row, layout.lens(), action, reward);
        }
        episodes.push(ep);
    }

    let reference = ActorCritic::build(&case.arch, &case.shapes, n_actions, seed ^ 0xCD);
    let mut trainer = A2cTrainer::new(reference.clone(), cfg, seed ^ 0xEF);
    let stats = trainer.update(&episodes);

    let mut ref_net = reference;
    let mut ref_opt = Adam::new(cfg.lr);
    let (policy_loss, value_loss, entropy, grad_norm) =
        serial_update_reference(&mut ref_net, &mut ref_opt, &cfg, &episodes);

    assert_eq!(
        stats.policy_loss.to_bits(),
        policy_loss.to_bits(),
        "{case:?}"
    );
    assert_eq!(stats.value_loss.to_bits(), value_loss.to_bits(), "{case:?}");
    assert_eq!(stats.entropy.to_bits(), entropy.to_bits(), "{case:?}");
    assert_eq!(stats.grad_norm.to_bits(), grad_norm.to_bits(), "{case:?}");
    for (pa, pb) in trainer
        .net_mut()
        .params_mut()
        .iter()
        .zip(ref_net.params_mut().iter())
    {
        assert_eq!(bits(&pa.w), bits(&pb.w), "{case:?}");
        assert_eq!(bits(&pa.m), bits(&pb.m), "{case:?}");
        assert_eq!(bits(&pa.v), bits(&pb.v), "{case:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30))]

    #[test]
    fn batched_backward_matches_serial(seed in 0u64..1_000_000, batch in 1usize..6) {
        let case = random_case(&mut StdRng::seed_from_u64(seed ^ 0x3F));
        check_backward(&case, seed, batch);
    }

    #[test]
    fn batched_update_matches_serial_reference(seed in 0u64..1_000_000, n_eps in 1usize..4) {
        let case = random_case(&mut StdRng::seed_from_u64(seed ^ 0x4F));
        check_update(&case, seed, n_eps);
    }
}

#[test]
fn tiny_pensieve_backward_and_update_match_serial() {
    let case = tiny_pensieve();
    for seed in 0..4 {
        for batch in [1, 2, 5] {
            check_backward(&case, seed, batch);
        }
        check_update(&case, seed, 1 + seed as usize % 3);
    }
}
