//! Optimizers: Adam and SGD with momentum.

use crate::param::Param;

/// Adam (Kingma & Ba, 2015). Moment buffers live inside each [`Param`];
/// the optimizer only tracks the shared step counter and hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical floor inside the square root.
    pub eps: f32,
    t: u64,
}

impl Adam {
    /// Creates Adam with the usual defaults (β1 = 0.9, β2 = 0.999).
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
        }
    }

    /// Applies one update from the accumulated gradients, then clears them.
    pub fn step(&mut self, params: &mut [&mut Param]) {
        let step = self.begin_step();
        for p in params.iter_mut() {
            step.apply(p);
        }
    }

    /// Starts one optimizer step: advances the shared step counter and
    /// returns the bias-correction terms to [`AdamStep::apply`] to each
    /// parameter block. Splitting the step this way lets callers walk
    /// parameters through a visitor instead of materializing a
    /// `Vec<&mut Param>`; the arithmetic is identical to [`Adam::step`].
    pub fn begin_step(&mut self) -> AdamStep {
        self.t += 1;
        AdamStep {
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            bc1: 1.0 - self.beta1.powi(self.t as i32),
            bc2: 1.0 - self.beta2.powi(self.t as i32),
        }
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }
}

/// One in-flight Adam step (see [`Adam::begin_step`]): the hyperparameters
/// plus the bias corrections for the current step count.
#[derive(Debug, Clone, Copy)]
pub struct AdamStep {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    bc1: f32,
    bc2: f32,
}

impl AdamStep {
    /// Updates one parameter block from its accumulated gradients, then
    /// clears them. The four buffers are walked in lockstep, so the
    /// elementwise update vectorizes.
    pub fn apply(&self, p: &mut Param) {
        let Param { w, g, m, v } = p;
        for (((w, g), m), v) in w.iter_mut().zip(g.iter_mut()).zip(m).zip(v) {
            *m = self.beta1 * *m + (1.0 - self.beta1) * *g;
            *v = self.beta2 * *v + (1.0 - self.beta2) * *g * *g;
            let m_hat = *m / self.bc1;
            let v_hat = *v / self.bc2;
            *w -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            *g = 0.0;
        }
    }
}

/// Plain SGD with optional momentum (stored in each param's `m` buffer).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (0 disables momentum).
    pub momentum: f32,
}

impl Sgd {
    /// Creates SGD.
    pub fn new(lr: f32, momentum: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0,1)");
        Self { lr, momentum }
    }

    /// Applies one update from the accumulated gradients, then clears them.
    pub fn step(&self, params: &mut [&mut Param]) {
        for p in params.iter_mut() {
            for i in 0..p.w.len() {
                p.m[i] = self.momentum * p.m[i] + p.g[i];
                p.w[i] -= self.lr * p.m[i];
            }
            p.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimize f(w) = (w - 3)^2 from w = 0.
    fn quadratic_descent<F: FnMut(&mut Param)>(mut stepper: F) -> f32 {
        let mut p = Param::zeros(1);
        for _ in 0..2000 {
            p.g[0] = 2.0 * (p.w[0] - 3.0);
            stepper(&mut p);
        }
        p.w[0]
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut adam = Adam::new(0.05);
        let w = quadratic_descent(|p| adam.step(&mut [p]));
        assert!((w - 3.0).abs() < 0.01, "w = {w}");
        assert_eq!(adam.steps(), 2000);
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let sgd = Sgd::new(0.05, 0.9);
        let w = quadratic_descent(|p| sgd.step(&mut [p]));
        assert!((w - 3.0).abs() < 0.01, "w = {w}");
    }

    #[test]
    fn step_clears_gradients() {
        let mut p = Param::zeros(2);
        p.g = vec![1.0, -1.0];
        let mut adam = Adam::new(0.01);
        adam.step(&mut [&mut p]);
        assert!(p.g.iter().all(|&g| g == 0.0));
    }

    #[test]
    fn adam_step_size_is_bounded_by_lr() {
        // With a constant gradient, the very first Adam update is ≈ lr.
        let mut p = Param::zeros(1);
        p.g = vec![123.0];
        let mut adam = Adam::new(0.01);
        adam.step(&mut [&mut p]);
        assert!(p.w[0].abs() <= 0.011, "step {} too large", p.w[0]);
    }
}
