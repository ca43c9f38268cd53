//! Stability indices for LIME (Visani et al., §2.1.1 \[73\]).
//!
//! The tutorial's critique — *"\[LIME\] involves sampling of points near the
//! local neighborhood which can be unreliable"* — is made measurable here
//! with the two indices of Visani et al.:
//!
//! - **VSI** (Variables Stability Index): across repeated LIME runs on the
//!   same instance, how consistently do the same variables appear among
//!   the top-k? (mean pairwise Jaccard similarity of top-k sets);
//! - **CSI** (Coefficients Stability Index): how consistent are the signs
//!   and magnitudes of each retained coefficient? (mean pairwise sign
//!   agreement weighted by relative magnitude agreement).

// Pairwise stability sums index two coefficient vectors at once.
#![allow(clippy::needless_range_loop)]
use crate::lime::{LimeConfig, LimeExplainer};

/// Stability measurement across repeated LIME runs.
#[derive(Clone, Debug)]
pub struct LimeStability {
    /// Variables Stability Index in `\[0, 1\]`.
    pub vsi: f64,
    /// Coefficients Stability Index in `\[0, 1\]`.
    pub csi: f64,
    /// Number of repetitions measured.
    pub runs: usize,
    /// The `k` used for the top-k sets.
    pub k: usize,
}

fn top_k_set(values: &[f64], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| values[b].abs().partial_cmp(&values[a].abs()).expect("NaN"));
    idx.truncate(k);
    idx.sort_unstable();
    idx
}

fn jaccard(a: &[usize], b: &[usize]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let sa: std::collections::HashSet<_> = a.iter().collect();
    let sb: std::collections::HashSet<_> = b.iter().collect();
    let inter = sa.intersection(&sb).count() as f64;
    let union = sa.union(&sb).count() as f64;
    inter / union
}

/// Runs LIME `runs` times with different seeds and measures stability.
pub fn lime_stability(
    explainer: &LimeExplainer,
    model: &dyn Fn(&[f64]) -> f64,
    instance: &[f64],
    config: LimeConfig,
    runs: usize,
    k: usize,
    base_seed: u64,
) -> LimeStability {
    assert!(runs >= 2, "stability needs at least two runs");
    let k = k.max(1).min(explainer.n_features());
    let surface = xai_models::batch_from_scalar(model);
    let coefs: Vec<Vec<f64>> = (0..runs)
        .map(|r| {
            explainer
                .explain(&surface, instance, config, base_seed.wrapping_add(r as u64 * 7919))
                .attribution
                .values
        })
        .collect();

    let mut vsi_sum = 0.0;
    let mut csi_sum = 0.0;
    let mut pairs = 0.0;
    for i in 0..runs {
        for j in i + 1..runs {
            pairs += 1.0;
            vsi_sum += jaccard(&top_k_set(&coefs[i], k), &top_k_set(&coefs[j], k));
            // CSI: per feature, sign agreement scaled by magnitude ratio.
            let d = coefs[i].len();
            let mut agree = 0.0;
            for f in 0..d {
                let (a, b) = (coefs[i][f], coefs[j][f]);
                if a == 0.0 && b == 0.0 {
                    agree += 1.0;
                } else if a.signum() == b.signum() {
                    let (lo, hi) = (a.abs().min(b.abs()), a.abs().max(b.abs()));
                    agree += if hi > 0.0 { lo / hi } else { 1.0 };
                }
            }
            csi_sum += agree / d as f64;
        }
    }
    LimeStability { vsi: vsi_sum / pairs, csi: csi_sum / pairs, runs, k }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xai_data::synth::german_credit;
    use xai_models::{proba_fn, LogisticConfig, LogisticRegression};

    #[test]
    fn jaccard_basics() {
        assert_eq!(jaccard(&[1, 2, 3], &[1, 2, 3]), 1.0);
        assert_eq!(jaccard(&[1, 2], &[3, 4]), 0.0);
        assert!((jaccard(&[1, 2, 3], &[2, 3, 4]) - 0.5).abs() < 1e-12);
        assert_eq!(jaccard(&[], &[]), 1.0);
    }

    #[test]
    fn more_samples_more_stability() {
        // The E5 claim: LIME's instability is a sampling artefact, so
        // increasing n_samples must raise both indices.
        let data = german_credit(600, 17);
        let model = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
        let lime = LimeExplainer::fit(&data);
        let f = proba_fn(&model);
        let instance = data.row(0);
        let small = lime_stability(
            &lime,
            &f,
            instance,
            LimeConfig { n_samples: 40, ..LimeConfig::default() },
            6,
            3,
            100,
        );
        let large = lime_stability(
            &lime,
            &f,
            instance,
            LimeConfig { n_samples: 2000, ..LimeConfig::default() },
            6,
            3,
            100,
        );
        assert!(
            large.vsi >= small.vsi - 0.05,
            "VSI should improve with samples: {} -> {}",
            small.vsi,
            large.vsi
        );
        assert!(
            large.csi > small.csi,
            "CSI should improve with samples: {} -> {}",
            small.csi,
            large.csi
        );
        assert!(large.vsi > 0.6, "large-sample VSI {}", large.vsi);
    }

    #[test]
    fn indices_bounded() {
        let data = german_credit(300, 19);
        let model = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
        let lime = LimeExplainer::fit(&data);
        let f = proba_fn(&model);
        let s = lime_stability(&lime, &f, data.row(3), LimeConfig { n_samples: 60, ..Default::default() }, 4, 3, 5);
        assert!((0.0..=1.0).contains(&s.vsi));
        assert!((0.0..=1.0).contains(&s.csi));
        assert_eq!(s.runs, 4);
    }
}
