//! Fully connected layer.

use super::lanes::{dot_lanes, sum_start, tile_weights, LANES};
use super::Layer;
use crate::param::{xavier_limit, Param};
use rand::rngs::StdRng;

/// `y = W x + b` with `W` stored row-major `[out][in]`.
#[derive(Debug, Clone)]
pub struct Dense {
    in_dim: usize,
    out_dim: usize,
    w: Param,
    b: Param,
    cache_x: Vec<f32>,
    /// `w` regrouped by [`tile_weights`] for the batched forward, rebuilt
    /// on every call because the optimizer moves `w` between calls.
    tiles: Vec<f32>,
}

impl Dense {
    /// Creates a Xavier-initialized dense layer.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Self {
        assert!(in_dim > 0 && out_dim > 0, "dense dims must be positive");
        let limit = xavier_limit(in_dim, out_dim);
        Self {
            in_dim,
            out_dim,
            w: Param::uniform(in_dim * out_dim, limit, rng),
            b: Param::zeros(out_dim),
            cache_x: Vec::new(),
            tiles: Vec::new(),
        }
    }
}

impl Dense {
    /// Inference-only forward writing into `y` (`out_dim` long): no input
    /// cache, no allocation, bit-identical arithmetic to
    /// [`Layer::forward`].
    pub(crate) fn infer_into(&self, x: &[f32], y: &mut [f32]) {
        debug_assert_eq!(x.len(), self.in_dim, "dense input size mismatch");
        debug_assert_eq!(y.len(), self.out_dim);
        for (o, y_o) in y.iter_mut().enumerate() {
            let row = &self.w.w[o * self.in_dim..(o + 1) * self.in_dim];
            *y_o = self.b.w[o] + row.iter().zip(x).map(|(w, xi)| w * xi).sum::<f32>();
        }
    }

    /// Batched caching forward over `n` rows of `in_dim` values: appends
    /// `n` rows of `out_dim` outputs to `ys` (cleared first) and caches the
    /// inputs for [`Dense::backward_batch`]. Each row is bit-identical to
    /// [`Layer::forward`]; after warm-up no call allocates.
    pub(crate) fn forward_batch(&mut self, xs: &[f32], n: usize, ys: &mut Vec<f32>) {
        debug_assert_eq!(xs.len(), n * self.in_dim, "dense batch size mismatch");
        self.cache_x.clear();
        self.cache_x.extend_from_slice(xs);
        tile_weights(&self.w.w, self.in_dim, &mut self.tiles);
        ys.clear();
        ys.resize(n * self.out_dim, 0.0);
        let start = [sum_start(); LANES];
        for (x, y) in xs
            .chunks_exact(self.in_dim)
            .zip(ys.chunks_exact_mut(self.out_dim))
        {
            for ((tile, ys), bs) in self
                .tiles
                .chunks_exact(self.in_dim * LANES)
                .zip(y.chunks_mut(LANES))
                .zip(self.b.w.chunks(LANES))
            {
                let acc = dot_lanes(tile, x, start);
                for ((y, &b), &a) in ys.iter_mut().zip(bs).zip(&acc) {
                    *y = b + a;
                }
            }
        }
    }

    /// Batched backward over the rows cached by [`Dense::forward_batch`]:
    /// accumulates parameter gradients in serial row order (so the per-weight
    /// addition sequence is exactly what `n` single-sample `backward` calls
    /// would produce) and, when `need_input_grad`, writes per-row input
    /// gradients to `dxs`; otherwise `dxs` is left empty.
    pub(crate) fn backward_batch(
        &mut self,
        dys: &[f32],
        n: usize,
        dxs: &mut Vec<f32>,
        need_input_grad: bool,
    ) {
        debug_assert_eq!(dys.len(), n * self.out_dim);
        debug_assert_eq!(self.cache_x.len(), n * self.in_dim);
        dxs.clear();
        for (grad_out, x) in dys
            .chunks_exact(self.out_dim)
            .zip(self.cache_x.chunks_exact(self.in_dim))
        {
            for (bg, &go) in self.b.g.iter_mut().zip(grad_out) {
                *bg += go;
            }
            for (row_g, &go) in self.w.g.chunks_exact_mut(self.in_dim).zip(grad_out) {
                for (g, &xi) in row_g.iter_mut().zip(x) {
                    *g += go * xi;
                }
            }
        }
        if !need_input_grad {
            return;
        }
        dxs.resize(n * self.in_dim, 0.0);
        for (grad_out, dx) in dys
            .chunks_exact(self.out_dim)
            .zip(dxs.chunks_exact_mut(self.in_dim))
        {
            for (row_w, &go) in self.w.w.chunks_exact(self.in_dim).zip(grad_out) {
                for (d, &w) in dx.iter_mut().zip(row_w) {
                    *d += go * w;
                }
            }
        }
    }
}

impl Layer for Dense {
    fn forward(&mut self, x: &[f32]) -> Vec<f32> {
        debug_assert_eq!(x.len(), self.in_dim, "dense input size mismatch");
        self.cache_x = x.to_vec();
        let mut y = self.b.w.clone();
        for (o, y_o) in y.iter_mut().enumerate() {
            let row = &self.w.w[o * self.in_dim..(o + 1) * self.in_dim];
            *y_o += row.iter().zip(x).map(|(w, xi)| w * xi).sum::<f32>();
        }
        y
    }

    fn backward(&mut self, grad_out: &[f32]) -> Vec<f32> {
        debug_assert_eq!(grad_out.len(), self.out_dim);
        let x = &self.cache_x;
        let mut dx = vec![0.0f32; self.in_dim];
        for (o, &go) in grad_out.iter().enumerate() {
            self.b.g[o] += go;
            let row_w = &self.w.w[o * self.in_dim..(o + 1) * self.in_dim];
            let row_g = &mut self.w.g[o * self.in_dim..(o + 1) * self.in_dim];
            for i in 0..self.in_dim {
                row_g[i] += go * x[i];
                dx[i] += go * row_w[i];
            }
        }
        dx
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.b]
    }

    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w);
        f(&mut self.b);
    }

    fn out_dim(&self) -> usize {
        self.out_dim
    }

    fn in_dim(&self) -> usize {
        self.in_dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck;
    use rand::SeedableRng;

    #[test]
    fn identity_weights_pass_through() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut d = Dense::new(3, 3, &mut rng);
        d.w.w = vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0];
        d.b.w = vec![0.5, 0.0, -0.5];
        assert_eq!(d.forward(&[1.0, 2.0, 3.0]), vec![1.5, 2.0, 2.5]);
    }

    #[test]
    fn gradcheck_dense() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut d = Dense::new(4, 6, &mut rng);
        let x = [0.2, -1.0, 0.7, 0.05];
        gradcheck::check_input_grad(&mut d, &x, 1e-2);
        gradcheck::check_param_grad(&mut d, &x, 1e-2);
    }

    #[test]
    fn gradients_accumulate_across_calls() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut d = Dense::new(2, 2, &mut rng);
        let x = [1.0, 1.0];
        let _ = d.forward(&x);
        let _ = d.backward(&[1.0, 0.0]);
        let g1 = d.b.g.clone();
        let _ = d.forward(&x);
        let _ = d.backward(&[1.0, 0.0]);
        assert_eq!(d.b.g[0], 2.0 * g1[0]);
    }
}
