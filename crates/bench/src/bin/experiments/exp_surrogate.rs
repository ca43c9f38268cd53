//! E5–E7: LIME reliability, adversarial attacks, and local fidelity
//! (§2.1.1).

use xai_bench::{f, Table};
use xai_data::metrics::demographic_parity_gap;
use xai_data::synth::{circles, german_credit, recidivism};
use xai_models::{
    batch_from_scalar, proba_fn, ForestConfig, LogisticConfig, LogisticRegression, RandomForest,
};
use xai_surrogate::{
    lime_audit, lime_stability, AttackConfig, LimeConfig, LimeExplainer, ScaffoldedModel,
};

/// E5 — "sampling … can be unreliable" (§2.1.1): Visani-style VSI/CSI
/// stability indices rise with the sampling budget; small budgets produce
/// explanations that disagree with themselves.
pub fn e5(quick: bool) {
    let data = german_credit(600, 17);
    let model = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
    let lime = LimeExplainer::fit(&data);
    let fm = proba_fn(&model);
    let budgets: &[usize] = if quick { &[25, 100, 400] } else { &[25, 100, 400, 1600, 6400] };
    let runs = if quick { 5 } else { 8 };
    let mut table = Table::new(
        "E5  LIME stability vs sampling budget (VSI/CSI, k=3, one instance)",
        &["n_samples", "VSI", "CSI"],
    );
    for &b in budgets {
        let s = lime_stability(
            &lime,
            &fm,
            data.row(0),
            LimeConfig { n_samples: b, ..LimeConfig::default() },
            runs,
            3,
            100,
        );
        table.row(vec![b.to_string(), f(s.vsi), f(s.csi)]);
    }
    table.print();
}

/// E6 — "exploited to perform adversarial attacks" (§2.1.1, Fooling
/// LIME/SHAP): the scaffolded model is fully discriminatory on real rows
/// yet its LIME explanations rarely surface the protected feature.
pub fn e6(quick: bool) {
    let data = recidivism(if quick { 300 } else { 600 }, 31, 0.0);
    let scaffold = ScaffoldedModel::train(&data, 4, 1, AttackConfig::default());
    let instances = if quick { 10 } else { 25 };

    // Behaviour on real data.
    let preds: Vec<f64> = (0..data.n_rows())
        .map(|i| f64::from(scaffold.predict(data.row(i)) >= 0.5))
        .collect();
    let gap = demographic_parity_gap(&preds, &data.x().col(4));

    let honest = |x: &[f64]| scaffold.biased_prediction(x);
    let attacked = |x: &[f64]| scaffold.predict(x);
    let honest_audit = lime_audit(&honest, &data, 4, instances, 5);
    let attacked_audit = lime_audit(&attacked, &data, 4, instances, 5);

    let mut table = Table::new(
        "E6  scaffolding attack: hiding a biased model from LIME",
        &["model", "parity gap (real data)", "protected top-1", "protected top-3"],
    );
    table.row(vec![
        "honest biased".into(),
        f(gap),
        f(honest_audit.protected_top1_rate),
        f(honest_audit.protected_top3_rate),
    ]);
    table.row(vec![
        "scaffolded".into(),
        f(gap),
        f(attacked_audit.protected_top1_rate),
        f(attacked_audit.protected_top3_rate),
    ]);
    table.print();
    println!("  same real-world behaviour, very different audit outcome (Slack et al.).");
}

/// E7 — the LIME locality assumption (§2.1.1): local fidelity (weighted
/// R²) as a function of kernel width on a non-linear model; global
/// linear fidelity shown as the limit.
pub fn e7(quick: bool) {
    let data = circles(if quick { 400 } else { 800 }, 9, 0.15);
    let forest = RandomForest::fit(
        data.x(),
        data.y(),
        ForestConfig { n_trees: 30, seed: 1, ..Default::default() },
    );
    let lime = LimeExplainer::fit(&data);
    let fm = proba_fn(&forest);
    let mut table = Table::new(
        "E7  LIME local fidelity vs kernel width (rings data, forest model)",
        &["kernel width", "weighted R²"],
    );
    for width in [0.2, 0.5, 1.0, 3.0, 10.0] {
        let exp = lime.explain(
            &batch_from_scalar(&fm),
            data.row(0),
            LimeConfig { kernel_width: Some(width), n_samples: 2000, ..LimeConfig::default() },
            3,
        );
        table.row(vec![format!("{width:.1}"), f(exp.local_fidelity)]);
    }
    // Global linear surrogate as the "width → ∞" reference.
    let global = xai_surrogate::linear_surrogate(&fm, &data);
    table.row(vec!["∞ (global linear)".into(), f(global.train_fidelity)]);
    table.print();
}
