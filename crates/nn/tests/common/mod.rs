//! Network shapes shared by the bit-identity property tests.
//!
//! Widths run from 1 to 13 so the batched kernels' lane groups see full
//! groups, partial groups and remainders; conv kernels are drawn past the
//! feature length so clamping and single-position outputs occur.

#![allow(dead_code)]

use nada_nn::graph::{ArchConfig, BranchKind, FeatureShape, HeadMode};
use nada_nn::layers::Activation;
use rand::rngs::StdRng;
use rand::Rng;

/// Longest temporal feature drawn.
const MAX_LEN: usize = 12;

/// One network to test: its architecture, input features and action count.
#[derive(Debug, Clone)]
pub struct NetCase {
    pub arch: ArchConfig,
    pub shapes: Vec<FeatureShape>,
    pub n_actions: usize,
}

fn width(rng: &mut StdRng) -> usize {
    rng.gen_range(1..=13)
}

fn activation(rng: &mut StdRng) -> Activation {
    match rng.gen_range(0..5) {
        0 => Activation::Relu,
        1 => Activation::Tanh,
        2 => Activation::LeakyRelu { alpha: 0.05 },
        3 => Activation::Sigmoid,
        _ => Activation::Linear,
    }
}

/// A random architecture (every branch kind, both head modes) over one
/// to four random features.
pub fn random_case(rng: &mut StdRng) -> NetCase {
    let temporal_branch = match rng.gen_range(0..4) {
        0 => BranchKind::Conv1d {
            filters: width(rng),
            kernel: rng.gen_range(1..=MAX_LEN + 2),
        },
        1 => BranchKind::Rnn { units: width(rng) },
        2 => BranchKind::Lstm { units: width(rng) },
        _ => BranchKind::Dense { units: width(rng) },
    };
    let arch = ArchConfig {
        temporal_branch,
        temporal_activation: activation(rng),
        scalar_branch: BranchKind::Dense { units: width(rng) },
        scalar_activation: activation(rng),
        hidden_units: width(rng),
        hidden_layers: rng.gen_range(1..=2),
        hidden_activation: activation(rng),
        heads: if rng.gen_bool(0.5) {
            HeadMode::Separate
        } else {
            HeadMode::Shared
        },
    };
    let shapes = (0..rng.gen_range(1..5))
        .map(|_| {
            if rng.gen_bool(0.5) {
                FeatureShape::Scalar
            } else {
                FeatureShape::Temporal(rng.gen_range(1..=MAX_LEN))
            }
        })
        .collect();
    NetCase {
        arch,
        shapes,
        n_actions: rng.gen_range(2..=7),
    }
}

/// The network a Tiny-scale ABR search trains: the original Pensieve
/// design scaled down 16× (8 filters of kernel 4, 8 hidden units, 6
/// bitrates) over Pensieve's three histories and three scalars.
pub fn tiny_pensieve() -> NetCase {
    NetCase {
        arch: ArchConfig::pensieve_original().scaled_down(16),
        shapes: vec![
            FeatureShape::Temporal(8),
            FeatureShape::Temporal(8),
            FeatureShape::Temporal(6),
            FeatureShape::Scalar,
            FeatureShape::Scalar,
            FeatureShape::Scalar,
        ],
        n_actions: 6,
    }
}

pub fn random_rows(rng: &mut StdRng, stride: usize, n: usize) -> Vec<f32> {
    (0..n * stride).map(|_| rng.gen_range(-2.0..2.0)).collect()
}

pub fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}
