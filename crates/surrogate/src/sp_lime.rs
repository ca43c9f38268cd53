//! SP-LIME: submodular pick of representative explanations
//! (Ribeiro et al., §2.1.1 \[53\], Section 4 of the LIME paper).
//!
//! A human can inspect only a budget `B` of explanations; SP-LIME picks
//! the `B` instances whose LIME explanations together *cover* the model's
//! globally important features. Coverage is
//! `c(V) = Σⱼ Iⱼ · 1[∃ i∈V : |Wᵢⱼ| > 0]` with `Iⱼ = √(Σᵢ |Wᵢⱼ|)`; the
//! function is monotone submodular, so greedy selection is within
//! `(1 − 1/e)` of optimal.

use crate::lime::{LimeConfig, LimeExplainer};
use xai_core::XaiResult;
use xai_data::Dataset;
use xai_linalg::Matrix;

/// The SP-LIME result.
#[derive(Clone, Debug)]
pub struct SubmodularPick {
    /// Chosen instance indices (into the explained row set), in pick order.
    pub selected: Vec<usize>,
    /// Coverage value achieved by the selection.
    pub coverage: f64,
    /// Upper bound: coverage of the full candidate set.
    pub max_coverage: f64,
    /// The explanation matrix `W` (rows = instances, cols = features).
    pub explanations: Matrix,
    /// Global per-feature importance `I`.
    pub feature_importance: Vec<f64>,
}

fn coverage_of(selected: &[usize], w: &Matrix, importance: &[f64], threshold: f64) -> f64 {
    (0..w.cols())
        .map(|j| {
            let covered = selected.iter().any(|&i| w[(i, j)].abs() > threshold);
            if covered {
                importance[j]
            } else {
                0.0
            }
        })
        .sum()
}

/// Rows of `data` that enter the candidate pool for a given cap.
pub(crate) fn candidate_count(data: &Dataset, n_candidates: usize) -> usize {
    data.n_rows().min(n_candidates.max(1))
}

/// One row of the explanation matrix `W`: candidate `i` is explained at
/// seed `seed.wrapping_add(i)` — a per-candidate stream, so candidates
/// can be computed in any order (sequentially, fork-join, or in shards)
/// and still assemble into the same matrix.
pub(crate) fn candidate_row(
    explainer: &LimeExplainer,
    model: &dyn Fn(&[f64]) -> f64,
    data: &Dataset,
    i: usize,
    config: LimeConfig,
    seed: u64,
) -> XaiResult<Vec<f64>> {
    let surface = xai_models::batch_from_scalar(model);
    let exp = explainer.try_explain(&surface, data.row(i), config, seed.wrapping_add(i as u64))?;
    Ok(exp.attribution.values)
}

/// The deterministic tail of SP-LIME once `W` is assembled: importance,
/// coverage threshold, greedy submodular pick.
pub(crate) fn pick_from_w(w: Matrix, budget: usize) -> SubmodularPick {
    let (n, d) = (w.rows(), w.cols());
    assert!(budget >= 1);
    // Global importance I_j = sqrt(Σ_i |W_ij|).
    let importance: Vec<f64> = (0..d)
        .map(|j| (0..n).map(|i| w[(i, j)].abs()).sum::<f64>().sqrt())
        .collect();
    // Coverage threshold: a feature counts as "explained by i" when its
    // weight is non-negligible relative to the instance's strongest.
    let threshold = {
        let max_abs = w.max_abs();
        max_abs * 0.1
    };

    // Greedy submodular maximization.
    let mut selected: Vec<usize> = Vec::with_capacity(budget);
    for _ in 0..budget.min(n) {
        let current = coverage_of(&selected, &w, &importance, threshold);
        let mut best: Option<(usize, f64)> = None;
        for cand in 0..n {
            if selected.contains(&cand) {
                continue;
            }
            let mut trial = selected.clone();
            trial.push(cand);
            let gain = coverage_of(&trial, &w, &importance, threshold) - current;
            if best.is_none_or(|(_, g)| gain > g) {
                best = Some((cand, gain));
            }
        }
        match best {
            Some((cand, gain)) if gain > 0.0 => selected.push(cand),
            // No remaining instance adds coverage: stop early.
            _ => break,
        }
    }
    let coverage = coverage_of(&selected, &w, &importance, threshold);
    let all: Vec<usize> = (0..n).collect();
    let max_coverage = coverage_of(&all, &w, &importance, threshold);
    SubmodularPick {
        selected,
        coverage,
        max_coverage,
        explanations: w,
        feature_importance: importance,
    }
}

/// Runs SP-LIME over the first `n_candidates` rows of `data`.
pub fn sp_lime(
    explainer: &LimeExplainer,
    model: &dyn Fn(&[f64]) -> f64,
    data: &Dataset,
    n_candidates: usize,
    budget: usize,
    config: LimeConfig,
    seed: u64,
) -> SubmodularPick {
    let n = candidate_count(data, n_candidates);
    let mut w = Matrix::zeros(n, data.n_features());
    for i in 0..n {
        let row = candidate_row(explainer, model, data, i, config, seed)
            .expect("LIME failed; try_explain recovers this");
        w.row_mut(i).copy_from_slice(&row);
    }
    pick_from_w(w, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xai_data::synth::german_credit;
    use xai_models::{proba_fn, LogisticConfig, LogisticRegression};

    fn setup() -> (Dataset, LogisticRegression, LimeExplainer) {
        let data = german_credit(400, 3);
        let model = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
        let lime = LimeExplainer::fit(&data);
        (data, model, lime)
    }

    #[test]
    fn greedy_selection_is_monotone_in_budget() {
        let (data, model, lime) = setup();
        let f = proba_fn(&model);
        let cfg = LimeConfig { n_samples: 300, ..LimeConfig::default() };
        let pick2 = sp_lime(&lime, &f, &data, 30, 2, cfg, 7);
        let pick5 = sp_lime(&lime, &f, &data, 30, 5, cfg, 7);
        assert!(pick5.coverage >= pick2.coverage - 1e-12);
        assert!(pick2.selected.len() <= 2 && pick5.selected.len() <= 5);
        // Greedy prefix property: the first picks coincide.
        assert_eq!(pick2.selected[0], pick5.selected[0]);
        // Coverage never exceeds the all-instances bound.
        assert!(pick5.coverage <= pick5.max_coverage + 1e-12);
    }

    #[test]
    fn few_instances_cover_most_features_on_a_linear_model() {
        // A linear model's explanations are similar everywhere, so a tiny
        // budget should already reach near-full coverage.
        let (data, model, lime) = setup();
        let f = proba_fn(&model);
        let cfg = LimeConfig { n_samples: 300, ..LimeConfig::default() };
        let pick = sp_lime(&lime, &f, &data, 25, 3, cfg, 5);
        assert!(
            pick.coverage > 0.8 * pick.max_coverage,
            "coverage {} of max {}",
            pick.coverage,
            pick.max_coverage
        );
    }

    #[test]
    fn no_duplicate_selections() {
        let (data, model, lime) = setup();
        let f = proba_fn(&model);
        let cfg = LimeConfig { n_samples: 200, ..LimeConfig::default() };
        let pick = sp_lime(&lime, &f, &data, 20, 8, cfg, 9);
        let mut sorted = pick.selected.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), pick.selected.len());
    }

    #[test]
    fn importance_vector_matches_matrix() {
        let (data, model, lime) = setup();
        let f = proba_fn(&model);
        let cfg = LimeConfig { n_samples: 200, ..LimeConfig::default() };
        let pick = sp_lime(&lime, &f, &data, 15, 3, cfg, 11);
        for j in 0..data.n_features() {
            let expected: f64 = (0..15).map(|i| pick.explanations[(i, j)].abs()).sum::<f64>().sqrt();
            assert!((pick.feature_importance[j] - expected).abs() < 1e-12);
        }
    }
}
