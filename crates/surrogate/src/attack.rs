//! The scaffolding attack on perturbation-based explainers
//! (Slack et al., "Fooling LIME and SHAP", §2.1.1 \[66\]).
//!
//! The tutorial's warning — *"These components can be exploited to perform
//! adversarial attacks that render the explanations futile"* — exploits a
//! simple observation: LIME's perturbations are off the data manifold. An
//! adversary wraps a discriminatory model in a scaffold that behaves
//! discriminatorily **on real inputs** but switches to an innocuous model
//! **on anything that looks like a perturbation**, as judged by an
//! out-of-distribution detector trained on (real, perturbed) pairs. The
//! explainer only ever sees the innocuous behaviour.

use xai_rand::rngs::StdRng;
use xai_rand::SeedableRng;
use xai_data::{Dataset, FeatureKind};
use xai_linalg::distr::{categorical, normal};
use xai_linalg::stats::median;
use xai_linalg::Matrix;
use xai_models::{Classifier, ForestConfig, RandomForest};

/// An adversarially scaffolded classifier.
#[derive(Clone, Debug)]
pub struct ScaffoldedModel {
    detector: RandomForest,
    protected_idx: usize,
    innocuous_idx: usize,
    innocuous_cut: f64,
    /// Detector probability above which an input counts as "real data".
    pub in_dist_threshold: f64,
}

/// Configuration for [`ScaffoldedModel::train`].
#[derive(Clone, Copy, Debug)]
pub struct AttackConfig {
    /// Perturbed copies generated per real row for the detector.
    pub perturbations_per_row: usize,
    /// Trees in the OOD detector.
    pub detector_trees: usize,
    /// Detector decision threshold.
    pub in_dist_threshold: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AttackConfig {
    fn default() -> Self {
        Self { perturbations_per_row: 2, detector_trees: 40, in_dist_threshold: 0.5, seed: 0 }
    }
}

impl ScaffoldedModel {
    /// Trains the scaffold: an OOD detector that separates the real data
    /// from LIME-style perturbations of it.
    ///
    /// `protected_idx` is the feature the hidden model discriminates on;
    /// `innocuous_idx` is the feature the decoy model uses.
    pub fn train(data: &Dataset, protected_idx: usize, innocuous_idx: usize, config: AttackConfig) -> Self {
        assert!(protected_idx < data.n_features() && innocuous_idx < data.n_features());
        let n = data.n_rows();
        let k = config.perturbations_per_row.max(1);
        let mut rng = StdRng::seed_from_u64(config.seed);

        // Column statistics for LIME-style perturbation.
        let d = data.n_features();
        let mut stds = Vec::with_capacity(d);
        let mut freqs: Vec<Option<Vec<f64>>> = Vec::with_capacity(d);
        for j in 0..d {
            let col = data.x().col(j);
            match &data.schema().feature(j).kind {
                FeatureKind::Numeric { .. } => {
                    stds.push(xai_linalg::stats::std_dev(&col).max(1e-9));
                    freqs.push(None);
                }
                FeatureKind::Categorical { categories } => {
                    let mut f = vec![0.0; categories.len()];
                    for &v in &col {
                        f[v.round() as usize] += 1.0;
                    }
                    stds.push(0.0);
                    freqs.push(Some(f));
                }
            }
        }

        // Detector training set: real rows (label 1) + perturbed (label 0).
        let total = n + n * k;
        let mut x = Matrix::zeros(total, d);
        let mut y = Vec::with_capacity(total);
        for i in 0..n {
            x.row_mut(i).copy_from_slice(data.row(i));
            y.push(1.0);
        }
        let mut row_buf = vec![0.0; d];
        for i in 0..n {
            for c in 0..k {
                let base = data.row(i);
                for j in 0..d {
                    row_buf[j] = match &freqs[j] {
                        None => base[j] + normal(&mut rng, 0.0, stds[j]),
                        Some(f) => categorical(&mut rng, f) as f64,
                    };
                }
                let out = n + i * k + c;
                x.row_mut(out).copy_from_slice(&row_buf);
                y.push(0.0);
            }
        }
        let detector = RandomForest::fit(
            &x,
            &y,
            ForestConfig { n_trees: config.detector_trees, seed: config.seed, ..Default::default() },
        );

        let innocuous_cut = median(&data.x().col(innocuous_idx));
        // Calibrate the decision threshold on the real rows: accept the
        // bottom decile of real-row scores so ~90% of genuine inputs hit
        // the biased branch regardless of detector class imbalance.
        let real_scores: Vec<f64> = (0..n).map(|i| detector.proba_one(data.row(i))).collect();
        let calibrated = xai_linalg::stats::quantile(&real_scores, 0.1).clamp(0.05, 0.95);
        Self {
            detector,
            protected_idx,
            innocuous_idx,
            innocuous_cut,
            in_dist_threshold: calibrated.min(config.in_dist_threshold),
        }
    }

    /// The hidden discriminatory model: decides purely on the protected
    /// attribute.
    pub fn biased_prediction(&self, x: &[f64]) -> f64 {
        if x[self.protected_idx] >= 0.5 {
            0.1
        } else {
            0.9
        }
    }

    /// The decoy model shown to explainers: decides on an innocuous
    /// feature.
    pub fn innocuous_prediction(&self, x: &[f64]) -> f64 {
        if x[self.innocuous_idx] > self.innocuous_cut {
            0.9
        } else {
            0.1
        }
    }

    /// Detector's belief that `x` is real data.
    pub fn in_distribution_score(&self, x: &[f64]) -> f64 {
        self.detector.proba_one(x)
    }

    /// The scaffolded prediction: biased on-manifold, innocuous off it.
    pub fn predict(&self, x: &[f64]) -> f64 {
        if self.in_distribution_score(x) >= self.in_dist_threshold {
            self.biased_prediction(x)
        } else {
            self.innocuous_prediction(x)
        }
    }
}

/// Outcome of auditing a model with LIME: how often the protected feature
/// tops the explanation.
#[derive(Clone, Debug)]
pub struct AuditResult {
    /// Fraction of audited instances whose top-1 LIME feature is the
    /// protected one.
    pub protected_top1_rate: f64,
    /// Fraction where it appears in the top-3.
    pub protected_top3_rate: f64,
    /// Instances audited.
    pub instances: usize,
}

/// Audits a model with LIME over the first `instances` rows.
pub fn lime_audit(
    model: &dyn Fn(&[f64]) -> f64,
    data: &Dataset,
    protected_idx: usize,
    instances: usize,
    seed: u64,
) -> AuditResult {
    let lime = crate::lime::LimeExplainer::fit(data);
    let surface = xai_models::batch_from_scalar(model);
    let m = instances.min(data.n_rows());
    let mut top1 = 0usize;
    let mut top3 = 0usize;
    for i in 0..m {
        let exp = lime.explain(
            &surface,
            data.row(i),
            crate::lime::LimeConfig { n_samples: 400, ..Default::default() },
            seed.wrapping_add(i as u64),
        );
        let ranking = exp.attribution.ranking();
        if ranking[0] == protected_idx {
            top1 += 1;
        }
        if ranking.iter().take(3).any(|&r| r == protected_idx) {
            top3 += 1;
        }
    }
    AuditResult {
        protected_top1_rate: top1 as f64 / m as f64,
        protected_top3_rate: top3 as f64 / m as f64,
        instances: m,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xai_data::metrics::demographic_parity_gap;
    use xai_data::synth::recidivism;

    fn setup() -> (Dataset, ScaffoldedModel) {
        let data = recidivism(500, 31, 0.0);
        let scaffold = ScaffoldedModel::train(&data, 4, 1, AttackConfig::default());
        (data, scaffold)
    }

    #[test]
    fn scaffold_is_fully_biased_on_real_data() {
        let (data, scaffold) = setup();
        let preds: Vec<f64> = (0..data.n_rows()).map(|i| f64::from(scaffold.predict(data.row(i)) >= 0.5)).collect();
        let agree = preds
            .iter()
            .enumerate()
            .filter(|(i, &p)| p == f64::from(scaffold.biased_prediction(data.row(*i)) >= 0.5))
            .count();
        assert!(
            agree as f64 / data.n_rows() as f64 > 0.9,
            "scaffold must behave like the biased model on real rows ({agree}/{})",
            data.n_rows()
        );
        let gap = demographic_parity_gap(&preds, &data.x().col(4));
        assert!(gap > 0.8, "real-data parity gap {gap}");
    }

    #[test]
    fn detector_separates_real_from_perturbed() {
        let (data, scaffold) = setup();
        let mut rng = StdRng::seed_from_u64(99);
        let mut real_scores = 0.0;
        let mut fake_scores = 0.0;
        let m = 100;
        for i in 0..m {
            real_scores += scaffold.in_distribution_score(data.row(i));
            // A LIME-style perturbation: jitter all numeric features hard.
            let mut p = data.row(i).to_vec();
            for v in p.iter_mut().take(3) {
                *v += normal(&mut rng, 0.0, 30.0);
            }
            fake_scores += scaffold.in_distribution_score(&p);
        }
        assert!(
            real_scores / m as f64 > fake_scores / m as f64 + 0.3,
            "detector must separate: real {} vs fake {}",
            real_scores / m as f64,
            fake_scores / m as f64
        );
    }

    #[test]
    fn attack_hides_the_protected_feature_from_lime() {
        let (data, scaffold) = setup();
        // Honest biased model: LIME sees the protected feature every time.
        let honest = |x: &[f64]| scaffold.biased_prediction(x);
        let honest_audit = lime_audit(&honest, &data, 4, 15, 7);
        assert!(
            honest_audit.protected_top1_rate > 0.9,
            "honest audit must flag the bias, rate {}",
            honest_audit.protected_top1_rate
        );
        // Attacked model: the protected feature (mostly) disappears.
        let attacked = |x: &[f64]| scaffold.predict(x);
        let attacked_audit = lime_audit(&attacked, &data, 4, 15, 7);
        assert!(
            attacked_audit.protected_top1_rate < honest_audit.protected_top1_rate - 0.4,
            "attack must hide the bias: honest {} vs attacked {}",
            honest_audit.protected_top1_rate,
            attacked_audit.protected_top1_rate
        );
    }
}
