//! Minimal feed-forward neural-network substrate.
//!
//! Shared by the MLP classifier (Table IV's `MLP`) and the Proctor
//! autoencoder baseline (Sec. IV-D): dense layers, ReLU activations,
//! and the Adam / Adadelta optimisers, all deterministic under a seed.

use alba_data::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Per-layer activation function.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// max(0, x)
    Relu,
    /// x for x > 0, else 0.01 x — keeps gradient flowing through
    /// inactive units, so narrow bottleneck layers cannot die wholesale
    /// on unlucky seeds.
    LeakyRelu,
    /// identity
    Linear,
    /// logistic sigmoid
    Sigmoid,
}

impl Activation {
    fn apply(self, v: f64) -> f64 {
        match self {
            Activation::Relu => v.max(0.0),
            Activation::LeakyRelu => {
                if v > 0.0 {
                    v
                } else {
                    0.01 * v
                }
            }
            Activation::Linear => v,
            Activation::Sigmoid => 1.0 / (1.0 + (-v).exp()),
        }
    }

    /// Derivative expressed in terms of the *activated* output `a`.
    fn derivative_from_output(self, a: f64) -> f64 {
        match self {
            Activation::Relu => {
                if a > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::LeakyRelu => {
                if a > 0.0 {
                    1.0
                } else {
                    0.01
                }
            }
            Activation::Linear => 1.0,
            Activation::Sigmoid => a * (1.0 - a),
        }
    }
}

/// One dense layer (`inputs x outputs` weights plus bias).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Dense {
    /// Weight matrix, `n_in x n_out`.
    pub w: Matrix,
    /// Bias vector, length `n_out`.
    pub b: Vec<f64>,
    /// Activation applied to the affine output.
    pub act: Activation,
}

impl Dense {
    /// He-style initialisation, deterministic under the RNG.
    pub fn init(n_in: usize, n_out: usize, act: Activation, rng: &mut StdRng) -> Self {
        let scale = (2.0 / n_in.max(1) as f64).sqrt();
        let mut w = Matrix::zeros(n_in, n_out);
        for v in w.as_mut_slice() {
            // Uniform(-scale, scale): adequate for these shallow nets and
            // cheaper than Gaussian sampling.
            *v = (rng.gen::<f64>() * 2.0 - 1.0) * scale;
        }
        Self { w, b: vec![0.0; n_out], act }
    }

    /// Forward pass: returns the activated output `(n x n_out)`.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut z = x.matmul(&self.w);
        let n_out = self.b.len();
        for (i, v) in z.as_mut_slice().iter_mut().enumerate() {
            *v = self.act.apply(*v + self.b[i % n_out]);
        }
        z
    }
}

/// Gradients of one layer.
#[derive(Clone, Debug)]
pub struct DenseGrad {
    /// dL/dW.
    pub w: Matrix,
    /// dL/db.
    pub b: Vec<f64>,
}

/// A feed-forward network: a stack of dense layers.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FeedForward {
    /// The layers, input to output.
    pub layers: Vec<Dense>,
}

impl FeedForward {
    /// Builds a network with the given layer widths and activations
    /// (`widths.len() - 1` layers).
    ///
    /// # Panics
    /// Panics when fewer than two widths are given or the activation count
    /// does not match the layer count.
    pub fn new(widths: &[usize], acts: &[Activation], seed: u64) -> Self {
        assert!(widths.len() >= 2, "need at least input and output widths");
        assert_eq!(acts.len(), widths.len() - 1, "one activation per layer");
        let mut rng = StdRng::seed_from_u64(seed);
        let layers = widths
            .windows(2)
            .zip(acts)
            .map(|(w, &act)| Dense::init(w[0], w[1], act, &mut rng))
            .collect();
        Self { layers }
    }

    /// Input width.
    pub fn n_inputs(&self) -> usize {
        self.layers.first().map_or(0, |l| l.w.rows())
    }

    /// Output width.
    pub fn n_outputs(&self) -> usize {
        self.layers.last().map_or(0, |l| l.b.len())
    }

    /// Full forward pass; returns the activations of every layer
    /// (`result[0]` is the input, `result.last()` the network output).
    pub fn forward_all(&self, x: &Matrix) -> Vec<Matrix> {
        let mut acts = Vec::with_capacity(self.layers.len() + 1);
        acts.push(x.clone());
        for layer in &self.layers {
            let next = layer.forward(acts.last().expect("non-empty"));
            acts.push(next);
        }
        acts
    }

    /// Convenience forward pass returning only the output.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut cur = x.clone();
        for layer in &self.layers {
            cur = layer.forward(&cur);
        }
        cur
    }

    /// Backpropagation. `acts` comes from [`FeedForward::forward_all`];
    /// `delta` is dL/d(output activation) *already multiplied by the output
    /// activation derivative if needed* (for softmax cross-entropy pass
    /// `p - y` with a `Linear` output layer).
    ///
    /// Returns per-layer gradients (same order as `layers`).
    pub fn backward(&self, acts: &[Matrix], mut delta: Matrix) -> Vec<DenseGrad> {
        let n = acts[0].rows().max(1) as f64;
        let mut grads: Vec<DenseGrad> = Vec::with_capacity(self.layers.len());
        for (li, layer) in self.layers.iter().enumerate().rev() {
            let input = &acts[li];
            // delta currently holds dL/dz for this layer.
            let gw = input.transpose().matmul(&delta);
            let mut gw = gw;
            gw.map_inplace(|v| v / n);
            let n_out = layer.b.len();
            let mut gb = vec![0.0; n_out];
            for row in delta.rows_iter() {
                for (j, &d) in row.iter().enumerate() {
                    gb[j] += d;
                }
            }
            for g in &mut gb {
                *g /= n;
            }
            grads.push(DenseGrad { w: gw, b: gb });
            if li > 0 {
                // Propagate: dL/da_{l-1} = delta * W^T, then times act'.
                let mut prev_delta = delta.matmul(&layer.w.transpose());
                let prev_layer = &self.layers[li - 1];
                let prev_act = &acts[li];
                debug_assert_eq!(prev_act.rows(), prev_delta.rows());
                // acts[li] is the *output* of layer li-1.
                for (v, &a) in prev_delta.as_mut_slice().iter_mut().zip(prev_act.as_slice()) {
                    *v *= prev_layer.act.derivative_from_output(a);
                }
                delta = prev_delta;
            }
        }
        grads.reverse();
        grads
    }
}

/// Optimiser state for one network.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum Optimizer {
    /// Adam (Kingma & Ba) — used by the MLP, as in scikit-learn's default.
    Adam {
        /// Learning rate.
        lr: f64,
        /// First-moment decay.
        beta1: f64,
        /// Second-moment decay.
        beta2: f64,
        /// Numerical floor.
        eps: f64,
        /// Step counter.
        t: u64,
        /// First moments (w then b per layer).
        m: Vec<Vec<f64>>,
        /// Second moments.
        v: Vec<Vec<f64>>,
    },
    /// Adadelta (Zeiler) — the optimiser Proctor trains its autoencoder
    /// with (Sec. IV-E.3).
    Adadelta {
        /// Decay rate rho.
        rho: f64,
        /// Numerical floor.
        eps: f64,
        /// Running average of squared gradients.
        eg2: Vec<Vec<f64>>,
        /// Running average of squared updates.
        ex2: Vec<Vec<f64>>,
    },
}

impl Optimizer {
    /// Adam with standard defaults.
    pub fn adam(lr: f64) -> Self {
        Optimizer::Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Adadelta with Keras-style defaults (rho = 0.95).
    pub fn adadelta() -> Self {
        Optimizer::Adadelta { rho: 0.95, eps: 1e-6, eg2: Vec::new(), ex2: Vec::new() }
    }

    fn ensure_state(slot: &mut Vec<Vec<f64>>, net: &FeedForward) {
        if slot.len() != net.layers.len() * 2 {
            slot.clear();
            for layer in &net.layers {
                slot.push(vec![0.0; layer.w.as_slice().len()]);
                slot.push(vec![0.0; layer.b.len()]);
            }
        }
    }

    /// Applies one optimisation step. `l2` adds `l2 * w` to weight
    /// gradients (bias excluded), matching scikit-learn's `alpha`.
    pub fn step(&mut self, net: &mut FeedForward, grads: &[DenseGrad], l2: f64) {
        assert_eq!(grads.len(), net.layers.len(), "gradient count mismatch");
        match self {
            Optimizer::Adam { lr, beta1, beta2, eps, t, m, v } => {
                Self::ensure_state(m, net);
                Self::ensure_state(v, net);
                *t += 1;
                let bc1 = 1.0 - beta1.powi(*t as i32);
                let bc2 = 1.0 - beta2.powi(*t as i32);
                for (li, (layer, grad)) in net.layers.iter_mut().zip(grads).enumerate() {
                    let apply =
                        |param: &mut [f64], g: &[f64], m: &mut [f64], v: &mut [f64], reg: f64| {
                            for i in 0..param.len() {
                                let gi = g[i] + reg * param[i];
                                m[i] = *beta1 * m[i] + (1.0 - *beta1) * gi;
                                v[i] = *beta2 * v[i] + (1.0 - *beta2) * gi * gi;
                                let mhat = m[i] / bc1;
                                let vhat = v[i] / bc2;
                                param[i] -= *lr * mhat / (vhat.sqrt() + *eps);
                            }
                        };
                    let (mw, rest) = m[li * 2..].split_at_mut(1);
                    let mb = &mut rest[0];
                    let (vw, rest) = v[li * 2..].split_at_mut(1);
                    let vb = &mut rest[0];
                    apply(layer.w.as_mut_slice(), grad.w.as_slice(), &mut mw[0], &mut vw[0], l2);
                    apply(&mut layer.b, &grad.b, mb, vb, 0.0);
                }
            }
            Optimizer::Adadelta { rho, eps, eg2, ex2 } => {
                Self::ensure_state(eg2, net);
                Self::ensure_state(ex2, net);
                for (li, (layer, grad)) in net.layers.iter_mut().zip(grads).enumerate() {
                    let apply = |param: &mut [f64],
                                 g: &[f64],
                                 eg2: &mut [f64],
                                 ex2: &mut [f64],
                                 reg: f64| {
                        for i in 0..param.len() {
                            let gi = g[i] + reg * param[i];
                            eg2[i] = *rho * eg2[i] + (1.0 - *rho) * gi * gi;
                            let update = -((ex2[i] + *eps).sqrt() / (eg2[i] + *eps).sqrt()) * gi;
                            ex2[i] = *rho * ex2[i] + (1.0 - *rho) * update * update;
                            param[i] += update;
                        }
                    };
                    let (ew, rest) = eg2[li * 2..].split_at_mut(1);
                    let eb = &mut rest[0];
                    let (xw, rest) = ex2[li * 2..].split_at_mut(1);
                    let xb = &mut rest[0];
                    apply(layer.w.as_mut_slice(), grad.w.as_slice(), &mut ew[0], &mut xw[0], l2);
                    apply(&mut layer.b, &grad.b, eb, xb, 0.0);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shapes() {
        let net = FeedForward::new(&[4, 8, 3], &[Activation::Relu, Activation::Linear], 1);
        let x = Matrix::zeros(5, 4);
        let out = net.forward(&x);
        assert_eq!(out.shape(), (5, 3));
        assert_eq!(net.n_inputs(), 4);
        assert_eq!(net.n_outputs(), 3);
    }

    #[test]
    fn relu_clamps_negative() {
        assert_eq!(Activation::Relu.apply(-3.0), 0.0);
        assert_eq!(Activation::Relu.apply(2.0), 2.0);
        assert_eq!(Activation::Relu.derivative_from_output(0.0), 0.0);
        assert_eq!(Activation::Relu.derivative_from_output(1.5), 1.0);
    }

    #[test]
    fn init_is_deterministic() {
        let a = FeedForward::new(&[3, 5, 2], &[Activation::Relu, Activation::Linear], 42);
        let b = FeedForward::new(&[3, 5, 2], &[Activation::Relu, Activation::Linear], 42);
        assert_eq!(a.layers[0].w.as_slice(), b.layers[0].w.as_slice());
        let c = FeedForward::new(&[3, 5, 2], &[Activation::Relu, Activation::Linear], 43);
        assert_ne!(a.layers[0].w.as_slice(), c.layers[0].w.as_slice());
    }

    /// Numerical gradient check on a tiny network with linear output and
    /// squared-error loss.
    #[test]
    fn backward_matches_numerical_gradient() {
        let mut net = FeedForward::new(&[2, 3, 1], &[Activation::Relu, Activation::Linear], 7);
        let x = Matrix::from_rows(&[vec![0.5, -0.3], vec![1.0, 2.0], vec![-1.5, 0.2]]);
        let target = [1.0, -1.0, 0.5];
        let loss = |net: &FeedForward| -> f64 {
            let out = net.forward(&x);
            (0..3).map(|i| (out.get(i, 0) - target[i]).powi(2)).sum::<f64>() / 3.0
        };
        // Analytic gradients: dL/dout = 2 (out - t) / n.
        let acts = net.forward_all(&x);
        let out = acts.last().unwrap();
        let mut delta = Matrix::zeros(3, 1);
        for (i, &t) in target.iter().enumerate() {
            delta.set(i, 0, 2.0 * (out.get(i, 0) - t));
        }
        let grads = net.backward(&acts, delta);
        // Numerical check of a few weights in each layer.
        let eps = 1e-6;
        for (li, grad) in grads.iter().enumerate() {
            for wi in [0usize, 1] {
                let orig = net.layers[li].w.as_slice()[wi];
                net.layers[li].w.as_mut_slice()[wi] = orig + eps;
                let lp = loss(&net);
                net.layers[li].w.as_mut_slice()[wi] = orig - eps;
                let lm = loss(&net);
                net.layers[li].w.as_mut_slice()[wi] = orig;
                let numeric = (lp - lm) / (2.0 * eps);
                let analytic = grad.w.as_slice()[wi];
                assert!(
                    (numeric - analytic).abs() < 1e-5,
                    "layer {li} w{wi}: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn adam_reduces_regression_loss() {
        let mut net = FeedForward::new(&[1, 8, 1], &[Activation::Relu, Activation::Linear], 3);
        let x = Matrix::from_rows(&(0..20).map(|i| vec![i as f64 / 10.0]).collect::<Vec<_>>());
        let t: Vec<f64> = (0..20).map(|i| 2.0 * (i as f64 / 10.0) + 1.0).collect();
        let mut opt = Optimizer::adam(0.05);
        let loss_of = |net: &FeedForward| {
            let out = net.forward(&x);
            (0..20).map(|i| (out.get(i, 0) - t[i]).powi(2)).sum::<f64>() / 20.0
        };
        let before = loss_of(&net);
        for _ in 0..300 {
            let acts = net.forward_all(&x);
            let out = acts.last().unwrap();
            let mut delta = Matrix::zeros(20, 1);
            for (i, &ti) in t.iter().enumerate() {
                delta.set(i, 0, 2.0 * (out.get(i, 0) - ti));
            }
            let grads = net.backward(&acts, delta);
            opt.step(&mut net, &grads, 0.0);
        }
        let after = loss_of(&net);
        assert!(after < before * 0.05, "loss {before} -> {after}");
    }

    #[test]
    fn adadelta_reduces_loss_without_lr() {
        let mut net = FeedForward::new(&[2, 6, 2], &[Activation::Relu, Activation::Linear], 9);
        let x = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]);
        let mut opt = Optimizer::adadelta();
        let loss_of = |net: &FeedForward| {
            let out = net.forward(&x);
            out.as_slice().iter().zip(x.as_slice()).map(|(o, t)| (o - t) * (o - t)).sum::<f64>()
        };
        let before = loss_of(&net);
        for _ in 0..500 {
            let acts = net.forward_all(&x);
            let out = acts.last().unwrap();
            let mut delta = out.clone();
            for (d, t) in delta.as_mut_slice().iter_mut().zip(x.as_slice()) {
                *d = 2.0 * (*d - t);
            }
            let grads = net.backward(&acts, delta);
            opt.step(&mut net, &grads, 0.0);
        }
        assert!(loss_of(&net) < before * 0.5, "{before} -> {}", loss_of(&net));
    }
}
