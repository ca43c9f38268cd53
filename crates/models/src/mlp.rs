//! A small single-hidden-layer perceptron trained by mini-batch SGD.
//!
//! This is the workspace's stand-in for "deep models" (§2.4): it is
//! differentiable end-to-end and exposes `input_gradient`, which the
//! gradient/saliency attribution path (gradient × input) exercises. The
//! tutorial scopes itself to structured data, and so do we.

use crate::traits::{Classifier, Model, Regressor};
use xai_rand::rngs::StdRng;
use xai_rand::seq::SliceRandom;
use xai_rand::SeedableRng;
use xai_data::sigmoid;
use xai_linalg::distr::normal;
use xai_linalg::Matrix;

/// Output head of the network.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MlpTask {
    /// Sigmoid output trained with binary cross-entropy.
    Classification,
    /// Identity output trained with squared error.
    Regression,
}

/// Configuration for [`Mlp::fit`].
#[derive(Clone, Copy, Debug)]
pub struct MlpConfig {
    /// Hidden layer width.
    pub hidden: usize,
    /// Number of passes over the training data.
    pub epochs: usize,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Output head.
    pub task: MlpTask,
    /// RNG seed for init and shuffling.
    pub seed: u64,
}

impl Default for MlpConfig {
    fn default() -> Self {
        Self {
            hidden: 16,
            epochs: 60,
            learning_rate: 0.05,
            batch_size: 32,
            task: MlpTask::Classification,
            seed: 0,
        }
    }
}

/// A fitted one-hidden-layer MLP with tanh activation.
#[derive(Clone, Debug)]
pub struct Mlp {
    /// Hidden weights, `hidden x d`.
    w1: Matrix,
    /// Hidden biases.
    b1: Vec<f64>,
    /// Output weights.
    w2: Vec<f64>,
    /// Output bias.
    b2: f64,
    task: MlpTask,
}

impl Mlp {
    /// Fallible twin of [`Mlp::fit`]: rejects non-finite training data up
    /// front and reports SGD divergence (non-finite weights after
    /// training, e.g. from an exploding learning rate) as
    /// [`xai_core::XaiError::ConvergenceFailure`] instead of handing back
    /// a NaN network.
    pub fn try_fit(x: &Matrix, y: &[f64], config: MlpConfig) -> xai_core::XaiResult<Self> {
        xai_core::validate::finite_matrix("mlp fit: design matrix", x)?;
        xai_core::validate::finite_slice("mlp fit: targets", y)?;
        let model = Self::fit(x, y, config);
        let finite = model.b2.is_finite()
            && model.b1.iter().all(|v| v.is_finite())
            && model.w2.iter().all(|v| v.is_finite())
            && (0..model.w1.rows()).all(|k| model.w1.row(k).iter().all(|v| v.is_finite()));
        if !finite {
            return Err(xai_core::XaiError::ConvergenceFailure {
                context: "mlp SGD diverged to non-finite weights".into(),
                iterations: config.epochs,
            });
        }
        Ok(model)
    }

    /// Trains the network.
    pub fn fit(x: &Matrix, y: &[f64], config: MlpConfig) -> Self {
        assert_eq!(x.rows(), y.len(), "row/target mismatch");
        assert!(config.hidden > 0 && config.epochs > 0 && config.batch_size > 0);
        let n = x.rows();
        let d = x.cols();
        let h = config.hidden;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let scale1 = (1.0 / d as f64).sqrt();
        let scale2 = (1.0 / h as f64).sqrt();
        let mut w1 = Matrix::from_fn(h, d, |_, _| normal(&mut rng, 0.0, scale1));
        let mut b1 = vec![0.0; h];
        let mut w2: Vec<f64> = (0..h).map(|_| normal(&mut rng, 0.0, scale2)).collect();
        let mut b2 = 0.0;

        let mut order: Vec<usize> = (0..n).collect();
        let mut hidden = vec![0.0; h];
        for _ in 0..config.epochs {
            order.shuffle(&mut rng);
            for batch in order.chunks(config.batch_size) {
                let mut gw1 = Matrix::zeros(h, d);
                let mut gb1 = vec![0.0; h];
                let mut gw2 = vec![0.0; h];
                let mut gb2 = 0.0;
                for &i in batch {
                    let xi = x.row(i);
                    // Forward.
                    for (k, hv) in hidden.iter_mut().enumerate() {
                        *hv = (xai_linalg::dot(w1.row(k), xi) + b1[k]).tanh();
                    }
                    let raw = xai_linalg::dot(&w2, &hidden) + b2;
                    // dL/draw for both heads reduces to (pred − y).
                    let delta = match config.task {
                        MlpTask::Classification => sigmoid(raw) - y[i],
                        MlpTask::Regression => raw - y[i],
                    };
                    gb2 += delta;
                    for k in 0..h {
                        gw2[k] += delta * hidden[k];
                        let dh = delta * w2[k] * (1.0 - hidden[k] * hidden[k]);
                        gb1[k] += dh;
                        let grow = gw1.row_mut(k);
                        for (g, &xv) in grow.iter_mut().zip(xi) {
                            *g += dh * xv;
                        }
                    }
                }
                let step = config.learning_rate / batch.len() as f64;
                b2 -= step * gb2;
                for k in 0..h {
                    w2[k] -= step * gw2[k];
                    b1[k] -= step * gb1[k];
                    let wrow = w1.row_mut(k);
                    for (w, g) in wrow.iter_mut().zip(gw1.row(k)) {
                        *w -= step * g;
                    }
                }
            }
        }
        Self { w1, b1, w2, b2, task: config.task }
    }

    /// Raw (pre-head) output.
    pub fn raw(&self, x: &[f64]) -> f64 {
        let mut out = self.b2;
        for k in 0..self.w2.len() {
            out += self.w2[k] * (xai_linalg::dot(self.w1.row(k), x) + self.b1[k]).tanh();
        }
        out
    }

    /// Raw (pre-head) outputs for every row. The hidden pre-activations
    /// come from one blocked `X·W₁ᵀ` GEMM ([`xai_linalg::gemm_nt`], whose
    /// entries are bit-identical to the per-row dot products), and the
    /// output accumulation runs over hidden units in the same order as
    /// [`Mlp::raw`] — so each entry is bit-identical to the scalar path.
    pub fn raw_batch(&self, x: &Matrix) -> Vec<f64> {
        let hidden = xai_linalg::gemm_nt(x, &self.w1);
        (0..x.rows())
            .map(|i| {
                let hrow = hidden.row(i);
                let mut out = self.b2;
                for k in 0..self.w2.len() {
                    out += self.w2[k] * (hrow[k] + self.b1[k]).tanh();
                }
                out
            })
            .collect()
    }

    /// The output head the network was trained with.
    pub fn task(&self) -> MlpTask {
        self.task
    }

    /// Gradient of the *model output* (probability or value) with respect to
    /// the input — the basis of saliency-style attributions.
    pub fn input_gradient(&self, x: &[f64]) -> Vec<f64> {
        let d = x.len();
        let mut grad_raw = vec![0.0; d];
        for k in 0..self.w2.len() {
            let a = (xai_linalg::dot(self.w1.row(k), x) + self.b1[k]).tanh();
            let scale = self.w2[k] * (1.0 - a * a);
            for (g, &w) in grad_raw.iter_mut().zip(self.w1.row(k)) {
                *g += scale * w;
            }
        }
        match self.task {
            MlpTask::Regression => grad_raw,
            MlpTask::Classification => {
                let p = sigmoid(self.raw(x));
                let scale = p * (1.0 - p);
                grad_raw.into_iter().map(|g| g * scale).collect()
            }
        }
    }
}

impl Model for Mlp {
    fn n_features(&self) -> usize {
        self.w1.cols()
    }
}

impl Regressor for Mlp {
    fn predict_one(&self, x: &[f64]) -> f64 {
        match self.task {
            MlpTask::Regression => self.raw(x),
            MlpTask::Classification => sigmoid(self.raw(x)),
        }
    }

    fn predict_batch(&self, x: &Matrix) -> Vec<f64> {
        let raws = self.raw_batch(x);
        match self.task {
            MlpTask::Regression => raws,
            MlpTask::Classification => raws.into_iter().map(sigmoid).collect(),
        }
    }
}

impl Classifier for Mlp {
    fn proba_one(&self, x: &[f64]) -> f64 {
        match self.task {
            MlpTask::Regression => self.raw(x).clamp(0.0, 1.0),
            MlpTask::Classification => sigmoid(self.raw(x)),
        }
    }

    fn proba_batch(&self, x: &Matrix) -> Vec<f64> {
        let raws = self.raw_batch(x);
        match self.task {
            MlpTask::Regression => raws.into_iter().map(|r| r.clamp(0.0, 1.0)).collect(),
            MlpTask::Classification => raws.into_iter().map(sigmoid).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xai_data::metrics::accuracy;
    use xai_data::synth::{circles, linear_gaussian};

    #[test]
    fn learns_nonlinear_rings() {
        let train = circles(600, 3, 0.1);
        let test = circles(300, 4, 0.1);
        let mlp = Mlp::fit(
            train.x(),
            train.y(),
            MlpConfig { hidden: 24, epochs: 150, learning_rate: 0.1, ..MlpConfig::default() },
        );
        let acc = accuracy(test.y(), &Classifier::predict(&mlp, test.x()));
        assert!(acc > 0.9, "ring accuracy {acc}");
    }

    #[test]
    fn input_gradient_matches_finite_differences() {
        let data = linear_gaussian(300, &[1.0, -2.0, 0.5], 0.0, 9);
        let mlp = Mlp::fit(data.x(), data.y(), MlpConfig { epochs: 30, ..MlpConfig::default() });
        let x = data.row(0).to_vec();
        let grad = mlp.input_gradient(&x);
        let eps = 1e-6;
        for j in 0..x.len() {
            let mut xp = x.clone();
            xp[j] += eps;
            let mut xm = x.clone();
            xm[j] -= eps;
            let fd = (mlp.proba_one(&xp) - mlp.proba_one(&xm)) / (2.0 * eps);
            assert!((grad[j] - fd).abs() < 1e-5, "grad[{j}] {} vs fd {fd}", grad[j]);
        }
    }

    #[test]
    fn gradient_tracks_relevance() {
        // Only feature 0 matters; its gradient magnitude should dominate.
        let data = linear_gaussian(3000, &[3.0, 0.0], 0.0, 10);
        let mlp = Mlp::fit(data.x(), data.y(), MlpConfig { epochs: 80, ..MlpConfig::default() });
        let mut g0 = 0.0;
        let mut g1 = 0.0;
        for i in 0..100 {
            let g = mlp.input_gradient(data.row(i));
            g0 += g[0].abs();
            g1 += g[1].abs();
        }
        assert!(g0 > 3.0 * g1, "relevant {g0} vs irrelevant {g1}");
    }

    #[test]
    fn deterministic_under_seed() {
        let data = circles(200, 12, 0.2);
        let cfg = MlpConfig { epochs: 10, seed: 5, ..MlpConfig::default() };
        let m1 = Mlp::fit(data.x(), data.y(), cfg);
        let m2 = Mlp::fit(data.x(), data.y(), cfg);
        assert_eq!(m1.proba(data.x()), m2.proba(data.x()));
    }

    #[test]
    fn try_fit_rejects_poisoned_data_and_divergence() {
        let data = linear_gaussian(100, &[1.0, -1.0], 0.0, 3);
        let cfg = MlpConfig { epochs: 5, ..MlpConfig::default() };
        assert!(Mlp::try_fit(data.x(), data.y(), cfg).is_ok());
        let mut bad = data.x().clone();
        bad[(0, 0)] = f64::INFINITY;
        assert!(matches!(
            Mlp::try_fit(&bad, data.y(), cfg),
            Err(xai_core::XaiError::NonFiniteInput { .. })
        ));
        // An absurd learning rate on a regression head explodes tanh-free
        // output weights to non-finite values.
        let x = Matrix::from_fn(50, 1, |i, _| i as f64);
        let y: Vec<f64> = (0..50).map(|i| 1e6 * i as f64).collect();
        let diverging = MlpConfig {
            task: MlpTask::Regression,
            learning_rate: 1e12,
            epochs: 50,
            hidden: 4,
            ..MlpConfig::default()
        };
        assert!(matches!(
            Mlp::try_fit(&x, &y, diverging),
            Err(xai_core::XaiError::ConvergenceFailure { .. })
        ));
    }

    #[test]
    fn regression_head() {
        // y = 2 x0 (deterministic); MLP should fit closely.
        let x = Matrix::from_fn(200, 1, |i, _| (i as f64 / 100.0) - 1.0);
        let y: Vec<f64> = x.iter_rows().map(|r| 2.0 * r[0]).collect();
        let mlp = Mlp::fit(
            &x,
            &y,
            MlpConfig {
                task: MlpTask::Regression,
                epochs: 300,
                learning_rate: 0.05,
                hidden: 8,
                ..MlpConfig::default()
            },
        );
        let pred = Regressor::predict_one(&mlp, &[0.5]);
        assert!((pred - 1.0).abs() < 0.2, "pred {pred}");
    }
}
