//! End-to-end integration: the full credit-scoring workflow across every
//! method crate, exercised exactly as the examples do.

use xai::prelude::*;
use xai::surrogate::{LimeConfig as LC, LimeExplainer};

fn credit() -> (Dataset, Gbdt, Dataset) {
    let data = xai::data::synth::german_credit(900, 42);
    let (train, test) = data.train_test_split(0.25, 1);
    let model = Gbdt::fit(train.x(), train.y(), GbdtConfig { n_rounds: 40, ..GbdtConfig::default() });
    (train, model, test)
}

#[test]
fn model_is_worth_explaining() {
    let (_, model, test) = credit();
    let auc = xai::data::metrics::auc_roc(test.y(), &model.proba(test.x()));
    assert!(auc > 0.65, "AUC {auc}");
}

#[test]
fn treeshap_and_lime_tell_a_consistent_story() {
    let (train, model, test) = credit();
    let names = train.schema().names();
    let f = xai::models::batch_proba_fn(&model);
    let lime = LimeExplainer::fit(&train);
    let mut agreements = 0usize;
    let rows = 8;
    for i in 0..rows {
        let x = test.row(i);
        let shap = tree_shap_attribution(&model, x, &names);
        let lime_exp = lime.explain(&f, x, LC { n_samples: 1500, ..LC::default() }, i as u64);
        // The top-3 sets of two very different methods should overlap.
        let top = |fa: &FeatureAttribution| -> std::collections::HashSet<usize> {
            fa.ranking().into_iter().take(3).collect()
        };
        let overlap = top(&shap).intersection(&top(&lime_exp.attribution)).count();
        if overlap >= 1 {
            agreements += 1;
        }
    }
    assert!(
        agreements >= rows - 2,
        "methods should agree on at least one top-3 feature almost always: {agreements}/{rows}"
    );
}

#[test]
fn faithfulness_protocol_ranks_shap_above_random_attribution() {
    let (train, model, test) = credit();
    let names = train.schema().names();
    let baseline: Vec<f64> = (0..train.n_features())
        .map(|j| xai::linalg::stats::mean(&train.x().col(j)))
        .collect();
    let f = |x: &[f64]| model.proba_one(x);
    let base_pred = f(&baseline);
    let mut shap_auc = 0.0;
    let mut junk_auc = 0.0;
    let mut rows = 0;
    // Deletion curves are only directional for predictions clearly above
    // the baseline output (they decay toward it).
    for i in (0..test.n_rows()).filter(|&i| f(test.row(i)) > base_pred + 0.1).take(10) {
        rows += 1;
        let x = test.row(i).to_vec();
        let shap = tree_shap_attribution(&model, &x, &names);
        let junk = FeatureAttribution::new(
            names.iter().map(|s| s.to_string()).collect(),
            // Adversarially wrong attribution: reversed ranking.
            shap.values.iter().map(|v| 1.0 / (1.0 + v.abs())).collect(),
            shap.baseline,
            shap.prediction,
        );
        shap_auc += xai::core::eval::deletion_curve(&f, &x, &baseline, &shap).auc;
        junk_auc += xai::core::eval::deletion_curve(&f, &x, &baseline, &junk).auc;
    }
    // Deleting truly-important features first collapses predictions sooner.
    assert!(rows >= 3, "need enough above-baseline rows, got {rows}");
    assert!(
        shap_auc < junk_auc,
        "faithful attributions should have lower deletion AUC: {shap_auc} vs {junk_auc}"
    );
}

#[test]
fn counterfactual_and_anchor_are_mutually_consistent() {
    let (train, model, _) = credit();
    let f = proba_fn(&model);
    let idx = (0..train.n_rows()).find(|&i| f(train.row(i)) < 0.4).unwrap();
    let x = train.row(idx);

    // The anchor pins the *current* (negative) prediction…
    let anchors = AnchorsExplainer::fit(&train);
    let surface = xai::models::batch_from_scalar(&f);
    let rule = anchors.explain(&surface, x, AnchorsConfig::default(), 3);
    assert_eq!(rule.prediction, 0.0);
    assert!(rule.matches(x));

    // …while a valid counterfactual must escape the anchor's region or at
    // least flip the model.
    let dice = DiceExplainer::fit(&train);
    let cfs = dice.generate(&f, x, DiceConfig { k: 1, ..DiceConfig::default() }, 5);
    if let Some(cf) = cfs.first() {
        assert!(cf.is_valid());
    }
}

#[test]
fn json_reports_serialize_every_explanation_kind() {
    let (train, model, test) = credit();
    let names = train.schema().names();
    let shap = tree_shap_attribution(&model, test.row(0), &names);
    let s = shap.to_report().to_json();
    assert!(s.starts_with('{') && s.ends_with('}'));
    assert!(s.contains("feature_attribution"));

    let f = proba_fn(&model);
    let anchors = AnchorsExplainer::fit(&train);
    let surface = xai::models::batch_from_scalar(&f);
    let rule = anchors.explain(&surface, test.row(0), AnchorsConfig::default(), 1);
    assert!(rule.to_report().to_json().contains("\"kind\":\"rule\""));

    let values = knn_shapley(&train, &test, 5);
    assert!(values.to_report().to_json().contains("data_attribution"));
}

#[test]
fn registry_covers_every_implemented_family() {
    let r = workspace_registry();
    for name in [
        "LIME",
        "Kernel SHAP",
        "TreeSHAP",
        "Causal Shapley values",
        "DiCE",
        "GeCo",
        "LEWIS",
        "Anchors",
        "Interpretable decision sets",
        "Sufficient reasons",
        "Data Shapley (TMC)",
        "KNN-Shapley",
        "Influence functions",
        "Tuple Shapley",
        "PrIU incremental updates",
        "Complaint-driven debugging",
    ] {
        assert!(r.get(name).is_some(), "missing card: {name}");
    }
}
