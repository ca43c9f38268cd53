//! [`ModelOracle`] implementations for every concrete model: the bridge
//! between this crate and the unified explainer layer (DESIGN.md §9).
//!
//! `xai-core` cannot depend on this crate (we depend on it), so the
//! oracle trait lives there and the impls live here. Conventions match
//! the legacy adapters exactly, so the trait path is bit-identical to the
//! free-function path:
//!
//! - classifiers expose their positive-class probability
//!   (`Classifier::proba_one` / `proba_batch`, the `proba_fn` /
//!   `batch_proba_fn` convention); models implementing both surfaces
//!   (trees, forests, GBDTs, k-NN, MLPs) side with the classifier view,
//!   which is what every existing example and test explains;
//! - `LinearRegression` exposes `Regressor::predict_one` / `predict_batch`
//!   (the `regress_fn` convention);
//! - `predict_batch` overrides route through each model's vectorized
//!   kernels, which is the model surface `RunConfig { batched: true, .. }`
//!   selects;
//! - `gradient` is provided exactly where the workspace already had a
//!   gradient surface (`xai_surrogate::Differentiable`,
//!   `xai_counterfactual::GradientModel`): logistic regression and MLPs,
//!   plus the trivially constant linear-regression gradient;
//! - `as_any` returns `Some` for every model so structure-walking methods
//!   (TreeSHAP, provenance interventions) can downcast;
//! - `predict_masked` overrides route through each model's zero-copy
//!   masked kernels (DESIGN.md §12) — linear/logistic evaluate whole
//!   rounds through the hoisted `masked_*_many` mat-vec/affine kernels,
//!   and the tree ensembles route whole background row sets through the
//!   shared `tree::masked_round` kernel — each bit-identical to
//!   predicting the materialized coalition view. MLPs patch one row
//!   buffer per view and score it with the scalar `proba_one`, whose
//!   fused per-row walk beats their GEMM batch path on coalition rounds.
//!   k-NN and naive Bayes keep the copy-and-patch default (their batch
//!   path *is* the scalar row loop, so the default is already canonical).

use std::any::Any;

use xai_core::ModelOracle;
use xai_linalg::Matrix;

use crate::traits::{Classifier, Model, Regressor};
use crate::tree::masked_round;
use crate::{
    DecisionTree, GaussianNb, Gbdt, Knn, LinearRegression, LogisticRegression, Mlp, RandomForest,
};

macro_rules! classifier_oracle {
    ($ty:ty) => {
        impl ModelOracle for $ty {
            fn n_features(&self) -> usize {
                Model::n_features(self)
            }
            fn predict(&self, x: &[f64]) -> f64 {
                Classifier::proba_one(self, x)
            }
            fn predict_batch(&self, rows: &Matrix) -> Vec<f64> {
                Classifier::proba_batch(self, rows)
            }
            fn as_any(&self) -> Option<&dyn Any> {
                Some(self)
            }
        }
    };
}

classifier_oracle!(Knn);
classifier_oracle!(GaussianNb);

impl ModelOracle for DecisionTree {
    fn n_features(&self) -> usize {
        Model::n_features(self)
    }
    fn predict(&self, x: &[f64]) -> f64 {
        Classifier::proba_one(self, x)
    }
    fn predict_batch(&self, rows: &Matrix) -> Vec<f64> {
        Classifier::proba_batch(self, rows)
    }
    fn predict_masked(&self, instance: &[f64], background: &Matrix, masks: &[u64], out: &mut Vec<f64>) {
        masked_round(std::slice::from_ref(self), instance, background, masks, out, |o, v| *o = v);
    }
    fn as_any(&self) -> Option<&dyn Any> {
        Some(self)
    }
}

impl ModelOracle for RandomForest {
    fn n_features(&self) -> usize {
        Model::n_features(self)
    }
    fn predict(&self, x: &[f64]) -> f64 {
        Classifier::proba_one(self, x)
    }
    fn predict_batch(&self, rows: &Matrix) -> Vec<f64> {
        Classifier::proba_batch(self, rows)
    }
    /// Per-row tree sums from `0.0` in tree order, then `/ n_trees` — the
    /// same association as `RandomForest::predict_values`.
    fn predict_masked(&self, instance: &[f64], background: &Matrix, masks: &[u64], out: &mut Vec<f64>) {
        masked_round(self.trees(), instance, background, masks, out, |o, v| *o += v);
        let n = self.trees().len() as f64;
        for o in out.iter_mut() {
            *o /= n;
        }
    }
    fn as_any(&self) -> Option<&dyn Any> {
        Some(self)
    }
}

impl ModelOracle for Gbdt {
    fn n_features(&self) -> usize {
        Model::n_features(self)
    }
    fn predict(&self, x: &[f64]) -> f64 {
        Classifier::proba_one(self, x)
    }
    fn predict_batch(&self, rows: &Matrix) -> Vec<f64> {
        Classifier::proba_batch(self, rows)
    }
    /// Per-row tree sums from `0.0` in boosting order, then
    /// `base + lr·sum` and the classifier head — the same composition as
    /// `Classifier::proba_batch`, bit-identical either way.
    fn predict_masked(&self, instance: &[f64], background: &Matrix, masks: &[u64], out: &mut Vec<f64>) {
        use crate::gbdt::GbdtLoss;
        masked_round(self.trees(), instance, background, masks, out, |o, v| *o += v);
        let (base, lr) = (self.base_score(), self.learning_rate());
        for o in out.iter_mut() {
            let margin = base + lr * *o;
            *o = match self.loss() {
                GbdtLoss::Squared => margin.clamp(0.0, 1.0),
                GbdtLoss::Logistic => xai_data::sigmoid(margin),
            };
        }
    }
    fn as_any(&self) -> Option<&dyn Any> {
        Some(self)
    }
}

impl ModelOracle for LinearRegression {
    fn n_features(&self) -> usize {
        Model::n_features(self)
    }
    fn predict(&self, x: &[f64]) -> f64 {
        Regressor::predict_one(self, x)
    }
    fn predict_batch(&self, rows: &Matrix) -> Vec<f64> {
        Regressor::predict_batch(self, rows)
    }
    /// One whole-round call into the hoisted masked mat-vec kernel —
    /// bit-identical to the per-mask `predict_masked_into` loop.
    fn predict_masked(&self, instance: &[f64], background: &Matrix, masks: &[u64], out: &mut Vec<f64>) {
        out.clear();
        out.resize(masks.len() * background.rows(), 0.0);
        self.predict_masked_many_into(instance, background, masks, out);
    }
    fn gradient(&self, _x: &[f64]) -> Option<Vec<f64>> {
        Some(self.coef().to_vec())
    }
    fn as_any(&self) -> Option<&dyn Any> {
        Some(self)
    }
}

impl ModelOracle for LogisticRegression {
    fn n_features(&self) -> usize {
        Model::n_features(self)
    }
    fn predict(&self, x: &[f64]) -> f64 {
        Classifier::proba_one(self, x)
    }
    fn predict_batch(&self, rows: &Matrix) -> Vec<f64> {
        Classifier::proba_batch(self, rows)
    }
    /// Masked margins for the whole round through the hoisted bias-first
    /// kernel, then the sigmoid — the same composition as
    /// `Classifier::proba_batch`, bit-identical to the per-mask loop.
    fn predict_masked(&self, instance: &[f64], background: &Matrix, masks: &[u64], out: &mut Vec<f64>) {
        out.clear();
        out.resize(masks.len() * background.rows(), 0.0);
        self.margin_masked_many_into(instance, background, masks, out);
        for o in out.iter_mut() {
            *o = xai_data::sigmoid(*o);
        }
    }
    /// `∂p/∂x = p(1−p)·w` — the same formula the Wachter and saliency
    /// adapters use, so gradient methods are bit-identical either way.
    fn gradient(&self, x: &[f64]) -> Option<Vec<f64>> {
        let p = Classifier::proba_one(self, x);
        let s = p * (1.0 - p);
        Some(self.coef().iter().map(|w| w * s).collect())
    }
    fn as_any(&self) -> Option<&dyn Any> {
        Some(self)
    }
}

impl ModelOracle for Mlp {
    fn n_features(&self) -> usize {
        Model::n_features(self)
    }
    fn predict(&self, x: &[f64]) -> f64 {
        Classifier::proba_one(self, x)
    }
    fn predict_batch(&self, rows: &Matrix) -> Vec<f64> {
        Classifier::proba_batch(self, rows)
    }
    /// Each coalition view is patched into one row buffer and scored by
    /// `proba_one`, the scalar path itself: its fused per-row walk (dot
    /// product, then `tanh`, per hidden unit) measured faster on
    /// coalition rounds than the GEMM batch path behind the default.
    fn predict_masked(&self, instance: &[f64], background: &Matrix, masks: &[u64], out: &mut Vec<f64>) {
        let d = instance.len();
        out.clear();
        out.reserve(masks.len() * background.rows());
        let mut view = vec![0.0; d];
        let mut members = Vec::with_capacity(d);
        for &mask in masks {
            members.clear();
            members.extend((0..d).filter(|&k| mask >> k & 1 == 1));
            for row in background.iter_rows() {
                view.copy_from_slice(row);
                for &k in &members {
                    view[k] = instance[k];
                }
                out.push(Classifier::proba_one(self, &view));
            }
        }
    }
    fn gradient(&self, x: &[f64]) -> Option<Vec<f64>> {
        Some(self.input_gradient(x))
    }
    fn as_any(&self) -> Option<&dyn Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GbdtConfig, LogisticConfig, TreeConfig};
    use xai_data::synth::german_credit;

    #[test]
    fn oracle_matches_the_legacy_adapters() {
        let data = german_credit(80, 11);
        let x = data.row(0);

        let logit = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
        let oracle: &dyn ModelOracle = &logit;
        assert_eq!(oracle.n_features(), data.x().cols());
        assert_eq!(oracle.predict(x), logit.proba_one(x));
        assert_eq!(oracle.predict_batch(data.x()), logit.proba_batch(data.x()));

        let tree = DecisionTree::fit(data.x(), data.y(), TreeConfig::default());
        let oracle: &dyn ModelOracle = &tree;
        assert_eq!(oracle.predict(x), tree.predict_value(x));
        assert_eq!(oracle.predict_batch(data.x()), tree.predict_values(data.x()));
    }

    #[test]
    fn gradients_match_the_existing_surfaces() {
        let data = german_credit(80, 12);
        let x = data.row(3);

        let logit = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
        let g = ModelOracle::gradient(&logit, x).unwrap();
        let p = logit.proba_one(x);
        for (gj, wj) in g.iter().zip(logit.coef()) {
            assert!((gj - wj * p * (1.0 - p)).abs() < 1e-12);
        }

        let gbdt = Gbdt::fit(data.x(), data.y(), GbdtConfig::default());
        assert!(ModelOracle::gradient(&gbdt, x).is_none(), "trees have no gradient");
    }

    #[test]
    fn as_any_downcasts_to_the_concrete_model() {
        let data = german_credit(60, 13);
        let gbdt = Gbdt::fit(data.x(), data.y(), GbdtConfig::default());
        let oracle: &dyn ModelOracle = &gbdt;
        let any = oracle.as_any().unwrap();
        assert!(any.downcast_ref::<Gbdt>().is_some());
        assert!(any.downcast_ref::<Mlp>().is_none());
    }
}
