//! Anchors: high-precision model-agnostic rules
//! (Ribeiro, Singh & Guestrin, §2.2 \[54\]).
//!
//! An *anchor* is a short conjunction of predicates over the instance's
//! feature values such that, whenever the anchor holds, the model (almost
//! always) predicts the same class as on the instance. Candidate
//! predicates come from the instance's own discretized description; the
//! search greedily adds the predicate with the best precision, where the
//! noisy precision estimates are compared with the KL-LUCB best-arm
//! bandit routine the paper uses ("a multi-armed bandit-based algorithm to
//! search for these rules").

use crate::itemset::{Item, ItemPredicate, ItemVocabulary};
use xai_rand::rngs::StdRng;
use xai_rand::{Rng, SeedableRng};
use xai_core::RuleExplanation;
use xai_data::Dataset;
use xai_linalg::Matrix;

/// Configuration for [`AnchorsExplainer::explain`].
#[derive(Clone, Copy, Debug)]
pub struct AnchorsConfig {
    /// Required precision (the paper's τ, default 0.95).
    pub precision_target: f64,
    /// Tolerance δ of the KL-LUCB confidence bounds.
    pub delta: f64,
    /// Hard cap on anchor length (rules beyond ~5 clauses are
    /// incomprehensible, per the tutorial).
    pub max_items: usize,
    /// Samples drawn per bandit pull.
    pub batch_size: usize,
    /// Total sampling budget per extension round.
    pub max_samples_per_round: usize,
}

impl Default for AnchorsConfig {
    fn default() -> Self {
        Self {
            precision_target: 0.95,
            delta: 0.05,
            max_items: 4,
            batch_size: 50,
            max_samples_per_round: 3000,
        }
    }
}

/// Fitted Anchors explainer: holds the item vocabulary and the training
/// columns, which are both the perturbation distribution and the rows
/// coverage is measured on.
#[derive(Clone, Debug)]
pub struct AnchorsExplainer {
    vocab: ItemVocabulary,
    /// Per-feature pools of training values (the sampling distribution).
    columns: Vec<Vec<f64>>,
    /// Number of training rows (each column's length).
    n_rows: usize,
}

/// Bernoulli KL divergence.
fn kl_bernoulli(p: f64, q: f64) -> f64 {
    let p = p.clamp(1e-12, 1.0 - 1e-12);
    let q = q.clamp(1e-12, 1.0 - 1e-12);
    p * (p / q).ln() + (1.0 - p) * ((1.0 - p) / (1.0 - q)).ln()
}

/// Upper KL confidence bound: largest q ≥ p̂ with KL(p̂‖q) ≤ level.
fn kl_ucb(p_hat: f64, level: f64) -> f64 {
    let mut lo = p_hat;
    let mut hi = 1.0;
    for _ in 0..40 {
        let mid = 0.5 * (lo + hi);
        if kl_bernoulli(p_hat, mid) > level {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    lo
}

/// Lower KL confidence bound: smallest q ≤ p̂ with KL(p̂‖q) ≤ level.
fn kl_lcb(p_hat: f64, level: f64) -> f64 {
    let mut lo = 0.0;
    let mut hi = p_hat;
    for _ in 0..40 {
        let mid = 0.5 * (lo + hi);
        if kl_bernoulli(p_hat, mid) > level {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

/// Per-arm bandit statistics. The KL bounds are pure functions of
/// `(pulls, successes, delta)`, so they are computed once per pull and
/// cached rather than re-bisected at every comparison.
#[derive(Clone, Debug)]
struct Arm {
    pulls: f64,
    successes: f64,
    lcb: f64,
    ucb: f64,
}

impl Default for Arm {
    fn default() -> Self {
        // An unpulled arm has an infinite exploration level: [0, 1].
        Self { pulls: 0.0, successes: 0.0, lcb: 0.0, ucb: 1.0 }
    }
}

impl Arm {
    fn mean(&self) -> f64 {
        if self.pulls == 0.0 {
            0.0
        } else {
            self.successes / self.pulls
        }
    }

    /// Records one pull and refreshes the cached bounds.
    fn pull(&mut self, hits: f64, n: f64, delta: f64) {
        self.successes += hits;
        self.pulls += n;
        if self.pulls == 0.0 {
            return;
        }
        // Standard KL-LUCB exploration rate: log(1/δ)·(1 + o(1)) / pulls.
        let level = ((1.0 / delta).ln()
            + 3.0 * (self.pulls.max(std::f64::consts::E)).ln().ln().max(0.0))
            / self.pulls;
        (self.lcb, self.ucb) = if level.is_infinite() {
            (0.0, 1.0)
        } else {
            (kl_lcb(self.mean(), level), kl_ucb(self.mean(), level))
        };
    }
}

impl AnchorsExplainer {
    /// Builds the explainer from training data.
    pub fn fit(data: &Dataset) -> Self {
        let vocab = ItemVocabulary::build(data);
        let columns = (0..data.n_features()).map(|j| data.x().col(j)).collect();
        Self { vocab, columns, n_rows: data.n_rows() }
    }

    /// The predicates behind an anchor's items, in anchor order.
    fn predicates(&self, anchor: &[Item]) -> Vec<&ItemPredicate> {
        anchor.iter().map(|&it| self.vocab.predicate(it)).collect()
    }

    /// Samples one perturbation into `buf`: anchored features are drawn
    /// from training values *satisfying their predicate*; free features
    /// from the full column distribution.
    fn sample_row(&self, anchored: &[&ItemPredicate], rng: &mut StdRng, buf: &mut [f64]) {
        for (j, col) in self.columns.iter().enumerate() {
            buf[j] = col[rng.gen_range(0..col.len())];
        }
        for pred in anchored {
            // Rejection-sample a training value satisfying the predicate.
            let col = &self.columns[pred.feature()];
            for _ in 0..200 {
                let v = col[rng.gen_range(0..col.len())];
                if pred.matches_value(v) {
                    buf[pred.feature()] = v;
                    break;
                }
            }
        }
    }

    /// Estimated precision of an anchor from `n` fresh samples: the rows
    /// are drawn in stream order into one matrix, then evaluated in one
    /// model call.
    fn precision(
        &self,
        model: &dyn Fn(&Matrix) -> Vec<f64>,
        target_class: bool,
        anchor: &[Item],
        n: usize,
        rng: &mut StdRng,
    ) -> (f64, f64) {
        let anchored = self.predicates(anchor);
        let mut rows = Matrix::zeros(n, self.columns.len());
        for i in 0..n {
            self.sample_row(&anchored, rng, rows.row_mut(i));
        }
        let outputs = model(&rows);
        assert_eq!(outputs.len(), n, "model returned {} outputs for {n} rows", outputs.len());
        let hits = outputs.into_iter().filter(|&p| (p >= 0.5) == target_class).count();
        (hits as f64, n as f64)
    }

    /// Fraction of training rows satisfying the anchor, read off the
    /// anchored features' columns.
    fn coverage(&self, anchor: &[Item]) -> f64 {
        if self.n_rows == 0 {
            return 0.0;
        }
        let anchored = self.predicates(anchor);
        let hit = (0..self.n_rows)
            .filter(|&i| anchored.iter().all(|p| p.matches_value(self.columns[p.feature()][i])))
            .count();
        hit as f64 / self.n_rows as f64
    }

    /// Finds an anchor for the model's prediction on `instance`, through
    /// the model's batched surface (`xai_models::batch_proba_fn`, or
    /// `batch_from_scalar` over a scalar closure). Every bandit pull
    /// draws its rows from the one `seed_from_u64(seed)` stream and
    /// evaluates them in one model call; the target class comes from a
    /// one-row batch.
    pub fn explain(
        &self,
        model: &dyn Fn(&Matrix) -> Vec<f64>,
        instance: &[f64],
        config: AnchorsConfig,
        seed: u64,
    ) -> RuleExplanation {
        let mut rng = StdRng::seed_from_u64(seed);
        let target_class = model(&Matrix::from_vec(1, instance.len(), instance.to_vec()))[0] >= 0.5;
        // Candidate items: the instance's own transaction.
        let candidates = self.vocab.transaction(instance);

        let mut anchor: Vec<Item> = Vec::new();
        while anchor.len() < config.max_items {
            // Arms: each unused candidate appended to the current anchor.
            let unused: Vec<Item> = candidates
                .iter()
                .copied()
                .filter(|it| {
                    let f = self.vocab.predicate(*it).feature();
                    !anchor.iter().any(|&a| self.vocab.predicate(a).feature() == f)
                })
                .collect();
            if unused.is_empty() {
                break;
            }
            let mut arms: Vec<Arm> = vec![Arm::default(); unused.len()];
            let mut budget = config.max_samples_per_round;
            // KL-LUCB loop: pull the empirically-best arm and its strongest
            // challenger until they separate.
            while budget > 0 {
                // Initial pulls for unexplored arms.
                let (best_idx, challenger_idx) = {
                    let mut best = 0;
                    for (i, a) in arms.iter().enumerate() {
                        if a.mean() > arms[best].mean() {
                            best = i;
                        }
                    }
                    let mut challenger = usize::MAX;
                    for (i, a) in arms.iter().enumerate() {
                        if i != best
                            && (challenger == usize::MAX || a.ucb > arms[challenger].ucb)
                        {
                            challenger = i;
                        }
                    }
                    (best, challenger)
                };
                let to_pull: Vec<usize> = if challenger_idx == usize::MAX {
                    vec![best_idx]
                } else {
                    vec![best_idx, challenger_idx]
                };
                for idx in to_pull {
                    let mut trial = anchor.clone();
                    trial.push(unused[idx]);
                    let n = config.batch_size.min(budget);
                    if n == 0 {
                        break;
                    }
                    let (h, p) = self.precision(model, target_class, &trial, n, &mut rng);
                    arms[idx].pull(h, p, config.delta);
                    budget = budget.saturating_sub(n);
                }
                // Separation test.
                if challenger_idx != usize::MAX
                    && arms[best_idx].lcb > arms[challenger_idx].ucb
                {
                    break;
                }
                if challenger_idx == usize::MAX && arms[best_idx].pulls >= config.batch_size as f64 * 4.0 {
                    break;
                }
            }
            // Commit the best arm.
            let best = arms
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.mean().partial_cmp(&b.1.mean()).expect("NaN precision"))
                .map(|(i, _)| i)
                .expect("non-empty arms");
            anchor.push(unused[best]);
            if arms[best].lcb >= config.precision_target {
                break;
            }
        }

        // Final high-fidelity precision estimate.
        let (h, p) = self.precision(model, target_class, &anchor, 2000, &mut rng);
        let precision = if p > 0.0 { h / p } else { 0.0 };
        let conditions = anchor
            .iter()
            .flat_map(|&it| self.vocab.conditions(it))
            .collect();
        RuleExplanation {
            conditions,
            prediction: f64::from(target_class),
            precision,
            coverage: self.coverage(&anchor),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xai_data::synth::german_credit;
    use xai_models::{batch_from_scalar, batch_proba_fn, proba_fn, Gbdt, GbdtConfig};

    #[test]
    fn kl_bounds_bracket_the_mean() {
        for p in [0.1, 0.5, 0.9] {
            for level in [0.01, 0.1, 1.0] {
                let u = kl_ucb(p, level);
                let l = kl_lcb(p, level);
                assert!(l <= p + 1e-9 && p <= u + 1e-9, "bounds must bracket: {l} {p} {u}");
                assert!(kl_bernoulli(p, u) <= level + 1e-6);
                assert!(kl_bernoulli(p, l) <= level + 1e-6);
            }
        }
        // Tighter level ⇒ tighter bounds.
        assert!(kl_ucb(0.5, 0.01) < kl_ucb(0.5, 1.0));
        assert!(kl_lcb(0.5, 0.01) > kl_lcb(0.5, 1.0));
    }

    #[test]
    fn anchor_on_threshold_model_finds_the_threshold_feature() {
        let data = german_credit(600, 43);
        // Model: approve iff no defaults (feature 6 == 0).
        let model = batch_from_scalar(|x: &[f64]| f64::from(x[6] < 0.5));
        let anchors = AnchorsExplainer::fit(&data);
        // Pick an instance with zero defaults.
        let idx = (0..data.n_rows()).find(|&i| data.row(i)[6] == 0.0).unwrap();
        let rule = anchors.explain(&model, data.row(idx), AnchorsConfig::default(), 7);
        assert_eq!(rule.prediction, 1.0);
        assert!(rule.precision > 0.9, "precision {}", rule.precision);
        assert!(
            rule.conditions.iter().any(|c| c.feature == 6),
            "the anchor must pin the defaults feature: {rule}"
        );
        assert!(rule.len() <= 8, "anchors must stay short");
    }

    #[test]
    fn anchor_precision_exceeds_unanchored_rate() {
        let data = german_credit(700, 47);
        let gbdt = Gbdt::fit(data.x(), data.y(), GbdtConfig { n_rounds: 30, ..GbdtConfig::default() });
        let f = batch_proba_fn(&gbdt);
        let anchors = AnchorsExplainer::fit(&data);
        let instance = data.row(0);
        let rule = anchors.explain(&f, instance, AnchorsConfig::default(), 9);
        // Baseline: precision of the empty anchor (= class base rate under
        // full perturbation).
        let mut rng = StdRng::seed_from_u64(11);
        let target = proba_fn(&gbdt)(instance) >= 0.5;
        let (h, p) = anchors.precision(&f, target, &[], 2000, &mut rng);
        let base_rate = h / p;
        assert!(
            rule.precision >= base_rate - 0.02,
            "anchored precision {} must beat base rate {base_rate}",
            rule.precision
        );
        assert!(rule.coverage > 0.0, "anchor must cover some real data");
    }

    #[test]
    fn deterministic_under_seed() {
        let data = german_credit(300, 51);
        let model = batch_from_scalar(|x: &[f64]| f64::from(x[1] > 2500.0));
        let anchors = AnchorsExplainer::fit(&data);
        let a = anchors.explain(&model, data.row(0), AnchorsConfig::default(), 5);
        let b = anchors.explain(&model, data.row(0), AnchorsConfig::default(), 5);
        assert_eq!(a, b);
    }
}
