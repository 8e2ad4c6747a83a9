//! 1-D valid convolution over a single-channel sequence.
//!
//! Pensieve feeds each temporal input (throughput history, download-time
//! history, next-chunk sizes) through a 1-D convolution with 128 filters and
//! kernel 4, then flattens. Output layout is filter-major:
//! `y[f * M + m]` where `M = L - K + 1`.

use super::lanes::{dot_lanes, tile_weights, LANES};
use super::Layer;
use crate::param::{xavier_limit, Param};
use rand::rngs::StdRng;

/// Single-channel 1-D convolution (stride 1, valid padding).
#[derive(Debug, Clone)]
pub struct Conv1d {
    in_len: usize,
    filters: usize,
    kernel: usize,
    w: Param,
    b: Param,
    /// The single-sample input, or after [`Conv1d::forward_batch`] the
    /// batch's rows zero-padded to [`Conv1d::padded_len`].
    cache_x: Vec<f32>,
    /// `w` regrouped by [`tile_weights`] for the batched forward, rebuilt
    /// on every call because the optimizer moves `w` between calls.
    tiles: Vec<f32>,
}

impl Conv1d {
    /// Creates a conv layer for inputs of length `in_len`. If the requested
    /// kernel exceeds the input length it is clamped to `in_len` (generated
    /// state programs may emit short temporal features).
    pub fn new(in_len: usize, filters: usize, kernel: usize, rng: &mut StdRng) -> Self {
        assert!(
            in_len > 0 && filters > 0 && kernel > 0,
            "conv dims must be positive"
        );
        let kernel = kernel.min(in_len);
        let limit = xavier_limit(kernel, filters);
        Self {
            in_len,
            filters,
            kernel,
            w: Param::uniform(filters * kernel, limit, rng),
            b: Param::zeros(filters),
            cache_x: Vec::new(),
            tiles: Vec::new(),
        }
    }

    fn out_len(&self) -> usize {
        self.in_len - self.kernel + 1
    }

    /// Effective kernel size (after clamping to the input length).
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Inference-only forward writing into `y` (`out_dim` long): no input
    /// cache, no allocation, bit-identical arithmetic to
    /// [`Layer::forward`].
    pub(crate) fn infer_into(&self, x: &[f32], y: &mut [f32]) {
        debug_assert_eq!(x.len(), self.in_len, "conv1d input size mismatch");
        let m_len = self.out_len();
        debug_assert_eq!(y.len(), self.filters * m_len);
        for f in 0..self.filters {
            let w = &self.w.w[f * self.kernel..(f + 1) * self.kernel];
            let bias = self.b.w[f];
            for m in 0..m_len {
                let mut acc = bias;
                for (k, &wk) in w.iter().enumerate() {
                    acc += wk * x[m + k];
                }
                y[f * m_len + m] = acc;
            }
        }
    }

    /// Row stride of the batched input cache: each row is followed by
    /// zeros, so [`Conv1d::backward_batch`] can read a full [`LANES`]-wide
    /// window at every position.
    fn padded_len(&self) -> usize {
        self.in_len + LANES - 1
    }

    /// Batched caching forward over `n` rows: appends `n` rows of `out_dim`
    /// outputs to `ys` and caches the inputs for
    /// [`Conv1d::backward_batch`]. Per row bit-identical to
    /// [`Layer::forward`]; allocation-free after warm-up. [`LANES`]
    /// filters advance together, each output's sum starting from its
    /// filter's bias and adding the kernel taps in order.
    pub(crate) fn forward_batch(&mut self, xs: &[f32], n: usize, ys: &mut Vec<f32>) {
        debug_assert_eq!(xs.len(), n * self.in_len, "conv1d batch size mismatch");
        let padded = self.padded_len();
        self.cache_x.clear();
        self.cache_x.resize(n * padded, 0.0);
        for (cached, x) in self
            .cache_x
            .chunks_exact_mut(padded)
            .zip(xs.chunks_exact(self.in_len))
        {
            cached[..self.in_len].copy_from_slice(x);
        }
        tile_weights(&self.w.w, self.kernel, &mut self.tiles);
        let m_len = self.out_len();
        let out_dim = self.out_dim();
        ys.clear();
        ys.resize(n * out_dim, 0.0);
        for (x, y) in xs
            .chunks_exact(self.in_len)
            .zip(ys.chunks_exact_mut(out_dim))
        {
            for ((tile, bs), ys) in self
                .tiles
                .chunks_exact(self.kernel * LANES)
                .zip(self.b.w.chunks(LANES))
                .zip(y.chunks_mut(LANES * m_len))
            {
                let mut start = [0.0; LANES];
                start[..bs.len()].copy_from_slice(bs);
                for (m, window) in x.windows(self.kernel).enumerate() {
                    let acc = dot_lanes(tile, window, start);
                    for (yf, &a) in ys.chunks_exact_mut(m_len).zip(&acc) {
                        yf[m] = a;
                    }
                }
            }
        }
    }

    /// Batched backward over the rows cached by [`Conv1d::forward_batch`].
    /// Filter-outer, row-inner: each filter's bias and weight gradients
    /// are carried across the whole batch and still add their terms in
    /// (row, position) order, as `n` single-sample `backward` calls would.
    /// When `need_input_grad`, per-row input gradients land in `dxs`, each
    /// adding in (filter, position) order; otherwise `dxs` is left empty.
    pub(crate) fn backward_batch(
        &mut self,
        dys: &[f32],
        n: usize,
        dxs: &mut Vec<f32>,
        need_input_grad: bool,
    ) {
        let m_len = self.out_len();
        let out_dim = self.out_dim();
        let padded = self.padded_len();
        debug_assert_eq!(dys.len(), n * out_dim);
        debug_assert_eq!(self.cache_x.len(), n * padded);
        for (f, (wg, bg)) in self
            .w
            .g
            .chunks_exact_mut(self.kernel)
            .zip(&mut self.b.g)
            .enumerate()
        {
            // The bias rides along with the first group of taps.
            let mut bias_acc = *bg;
            for (t, wg) in wg.chunks_mut(LANES).enumerate() {
                let mut acc = [0.0; LANES];
                acc[..wg.len()].copy_from_slice(wg);
                for (grad_out, x) in dys
                    .chunks_exact(out_dim)
                    .zip(self.cache_x.chunks_exact(padded))
                {
                    let taps = x[t * LANES..].windows(LANES);
                    for (&go, window) in grad_out[f * m_len..(f + 1) * m_len].iter().zip(taps) {
                        if t == 0 {
                            bias_acc += go;
                        }
                        for (a, &xv) in acc.iter_mut().zip(window) {
                            *a += go * xv;
                        }
                    }
                }
                wg.copy_from_slice(&acc[..wg.len()]);
            }
            *bg = bias_acc;
        }
        dxs.clear();
        if !need_input_grad {
            return;
        }
        dxs.resize(n * self.in_len, 0.0);
        for (grad_out, dx) in dys
            .chunks_exact(out_dim)
            .zip(dxs.chunks_exact_mut(self.in_len))
        {
            for (gf, wf) in grad_out
                .chunks_exact(m_len)
                .zip(self.w.w.chunks_exact(self.kernel))
            {
                // Kernel taps in reverse: input `j` then receives its terms
                // in ascending position `m = j - k`, the single-sample order.
                for (k, &wk) in wf.iter().enumerate().rev() {
                    for (d, &go) in dx[k..k + m_len].iter_mut().zip(gf) {
                        *d += go * wk;
                    }
                }
            }
        }
    }
}

impl Layer for Conv1d {
    fn forward(&mut self, x: &[f32]) -> Vec<f32> {
        debug_assert_eq!(x.len(), self.in_len, "conv1d input size mismatch");
        self.cache_x = x.to_vec();
        let m_len = self.out_len();
        let mut y = vec![0.0f32; self.filters * m_len];
        for f in 0..self.filters {
            let w = &self.w.w[f * self.kernel..(f + 1) * self.kernel];
            let bias = self.b.w[f];
            for m in 0..m_len {
                let mut acc = bias;
                for (k, &wk) in w.iter().enumerate() {
                    acc += wk * x[m + k];
                }
                y[f * m_len + m] = acc;
            }
        }
        y
    }

    fn backward(&mut self, grad_out: &[f32]) -> Vec<f32> {
        let m_len = self.out_len();
        debug_assert_eq!(grad_out.len(), self.filters * m_len);
        let x = &self.cache_x;
        let mut dx = vec![0.0f32; self.in_len];
        for f in 0..self.filters {
            let w = &self.w.w[f * self.kernel..(f + 1) * self.kernel];
            let wg = &mut self.w.g[f * self.kernel..(f + 1) * self.kernel];
            for m in 0..m_len {
                let go = grad_out[f * m_len + m];
                self.b.g[f] += go;
                for k in 0..self.kernel {
                    wg[k] += go * x[m + k];
                    dx[m + k] += go * w[k];
                }
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
        self.filters * self.out_len()
    }

    fn in_dim(&self) -> usize {
        self.in_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck;
    use rand::SeedableRng;

    #[test]
    fn moving_sum_kernel() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut c = Conv1d::new(5, 1, 2, &mut rng);
        c.w.w = vec![1.0, 1.0];
        c.b.w = vec![0.0];
        let y = c.forward(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(y, vec![3.0, 5.0, 7.0, 9.0]);
    }

    #[test]
    fn output_layout_is_filter_major() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut c = Conv1d::new(3, 2, 2, &mut rng);
        c.w.w = vec![1.0, 0.0, 0.0, 1.0]; // f0 = x[m], f1 = x[m+1]
        c.b.w = vec![0.0, 0.0];
        let y = c.forward(&[10.0, 20.0, 30.0]);
        assert_eq!(y, vec![10.0, 20.0, 20.0, 30.0]);
    }

    #[test]
    fn kernel_clamps_to_short_inputs() {
        let mut rng = StdRng::seed_from_u64(3);
        let c = Conv1d::new(2, 4, 8, &mut rng);
        assert_eq!(c.kernel(), 2);
        assert_eq!(c.out_dim(), 4); // M = 1
    }

    #[test]
    fn gradcheck_conv1d() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut c = Conv1d::new(8, 3, 4, &mut rng);
        let x = [0.5, -0.25, 1.0, 0.0, 0.75, -1.0, 0.3, 0.9];
        gradcheck::check_input_grad(&mut c, &x, 1e-2);
        gradcheck::check_param_grad(&mut c, &x, 1e-2);
    }

    #[test]
    fn pensieve_shape() {
        // 128 filters, kernel 4 over an 8-long history: 128 * 5 outputs.
        let mut rng = StdRng::seed_from_u64(5);
        let c = Conv1d::new(8, 128, 4, &mut rng);
        assert_eq!(c.out_dim(), 640);
    }
}
