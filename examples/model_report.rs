//! A global "model report": four complementary global explanations of one
//! model, cross-checked and exported as JSON.
//!
//! The tutorial's §2 opens with methods that summarize *overall* model
//! behaviour; this example assembles them into the kind of model card an
//! auditor would actually file:
//!
//! 1. global TreeSHAP importance (aggregated local attributions),
//! 2. permutation feature importance (score-drop semantics),
//! 3. partial-dependence ranges + ICE heterogeneity (interaction signal),
//! 4. an interpretable decision-set distillation of the model.
//!
//! ```sh
//! cargo run --release --example model_report
//! ```

use xai::core::{Json, ToReport};
use xai::prelude::*;
use xai::surrogate::{feature_grid, partial_dependence, permutation_importance};

fn main() {
    let data = xai::data::synth::adult_income(1500, 7);
    let (train, test) = data.train_test_split(0.3, 1);
    let model = Gbdt::fit(train.x(), train.y(), GbdtConfig { n_rounds: 80, ..GbdtConfig::default() });
    let f = proba_fn(&model);
    let fb = xai::models::batch_proba_fn(&model);
    let names = data.schema().names();
    let acc = xai::data::metrics::accuracy(test.y(), &Classifier::predict(&model, test.x()));
    let auc = xai::data::metrics::auc_roc(test.y(), &model.proba(test.x()));
    println!("model: GBDT on synthetic adult-income | test acc {acc:.3}, AUC {auc:.3}\n");

    // 1. Global SHAP.
    let shap = xai::shapley::gbdt_global_importance(&model, &test, 250);
    println!("global TreeSHAP importance:");
    for (name, v) in shap.top_k(5) {
        println!("  {name:>18}: {v:.4}");
    }

    // 2. Permutation importance.
    let acc_score = |p: &[f64], y: &[f64]| xai::data::metrics::accuracy(y, p);
    let pi = permutation_importance(&f, &test, &acc_score, 3, 11);
    println!("\npermutation importance (accuracy drop):");
    for &j in pi.ranking().iter().take(5) {
        println!("  {:>18}: {:.4}", names[j], pi.importances[j]);
    }

    // Cross-check: the two global rankings should overlap heavily.
    let top = |r: Vec<usize>| -> std::collections::HashSet<usize> { r.into_iter().take(4).collect() };
    let overlap = top(shap.ranking()).intersection(&top(pi.ranking())).count();
    println!("\ntop-4 agreement between the two importance views: {overlap}/4");

    // 3. PDP / ICE per top feature.
    println!("\npartial dependence (range = effect size; ICE σ = interaction signal):");
    for &j in shap.ranking().iter().take(4) {
        let grid = feature_grid(&test, j, 9);
        let pd = partial_dependence(&fb, &test, j, &grid, 200, true);
        println!(
            "  {:>18}: PDP range {:.3}, ICE heterogeneity {:.3}",
            names[j],
            pd.range(),
            pd.ice_heterogeneity().unwrap()
        );
    }

    // 4. Decision-set distillation.
    let preds = Classifier::predict(&model, train.x());
    let set = DecisionSet::fit(&train, &preds, IdsConfig::default());
    println!(
        "\ninterpretable decision set distilled from the model ({} rules, fidelity {:.3}):",
        set.n_rules(),
        set.train_accuracy
    );
    for rule in set.rules() {
        println!("  {rule}");
    }

    // Export the whole card as JSON.
    let card = Json::obj(vec![
        ("model", Json::str("gbdt-adult-income")),
        ("test_accuracy", Json::Num(acc)),
        ("test_auc", Json::Num(auc)),
        ("global_shap_mean_abs", Json::nums(&shap.mean_abs)),
        ("permutation_importance", Json::nums(&pi.importances)),
        (
            "decision_set",
            Json::Arr(set.rules().iter().map(|r| r.to_report()).collect()),
        ),
    ]);
    println!("\nJSON model card:\n{}", card.to_json());
}
