//! E8, E20, E21: rule-based explanations and the mining substrate (§2.2).

use xai_bench::{f, fmt_duration, time, Table};
use xai_data::synth::german_credit;
use xai_models::{batch_from_scalar, proba_fn, DecisionTree, Gbdt, GbdtConfig, TreeConfig};
use xai_rules::{
    apriori, fp_growth, is_sufficient, sufficiency_score, sufficient_reason, AnchorsConfig,
    AnchorsExplainer, ItemVocabulary,
};

/// E8 — "Anchors … short and widely applicable rules" (§2.2): precision
/// and coverage of anchors across instances, with rule length capped at
/// the tutorial's comprehensibility bound.
pub fn e8(quick: bool) {
    let data = german_credit(if quick { 400 } else { 800 }, 43);
    let model = Gbdt::fit(data.x(), data.y(), GbdtConfig { n_rounds: 30, ..GbdtConfig::default() });
    let fm = batch_from_scalar(proba_fn(&model));
    let anchors = AnchorsExplainer::fit(&data);
    let n_instances = if quick { 6 } else { 15 };
    let mut table = Table::new(
        "E8  Anchors: precision / coverage / length per instance",
        &["instance", "precision", "coverage", "clauses"],
    );
    let mut mean_precision = 0.0;
    for i in 0..n_instances {
        let rule = anchors.explain(&fm, data.row(i), AnchorsConfig::default(), i as u64);
        mean_precision += rule.precision / n_instances as f64;
        table.row(vec![
            i.to_string(),
            f(rule.precision),
            f(rule.coverage),
            rule.len().to_string(),
        ]);
    }
    table.print();
    println!("  mean precision {mean_precision:.3} (target τ = 0.95; Ribeiro et al. report ≳0.95)");
}

/// E20 — "sufficient/necessary explanations … sufficiency score of 1"
/// (§2.2.2): prime implicants on decision trees force the prediction
/// (score exactly 1), are minimal, and are much smaller than the full
/// feature set.
pub fn e20(quick: bool) {
    let data = german_credit(if quick { 300 } else { 600 }, 81);
    let tree = DecisionTree::fit(
        data.x(),
        data.y(),
        TreeConfig { max_depth: 6, min_samples_leaf: 8, ..TreeConfig::default() },
    );
    let names: Vec<&str> = data.schema().names();
    let fm = proba_fn(&tree);
    let n_instances = if quick { 8 } else { 20 };
    let mut table = Table::new(
        "E20  sufficient reasons (prime implicants) on a depth-6 tree",
        &["instance", "|reason|", "path features", "sufficiency", "minimal"],
    );
    for i in 0..n_instances {
        let x = data.row(i);
        let reason = sufficient_reason(&tree, x, &names);
        let path_features: std::collections::HashSet<usize> = tree
            .decision_path(x)
            .iter()
            .filter(|&&id| !tree.nodes()[id].is_leaf())
            .map(|&id| tree.nodes()[id].feature)
            .collect();
        let score = sufficiency_score(&fm, x, &reason.features, data.x(), 400, 3);
        // Minimality: removing any feature breaks forcing.
        let mut fixed = vec![false; data.n_features()];
        for &j in &reason.features {
            fixed[j] = true;
        }
        let minimal = reason.features.iter().all(|&j| {
            fixed[j] = false;
            let broken = !is_sufficient(&tree, x, &fixed);
            fixed[j] = true;
            broken
        });
        table.row(vec![
            i.to_string(),
            reason.features.len().to_string(),
            path_features.len().to_string(),
            f(score),
            minimal.to_string(),
        ]);
    }
    table.print();
}

/// E21 — the mining substrate (§2.2.1): FP-Growth returns byte-identical
/// itemsets to Apriori while avoiding candidate generation; runtime gap
/// grows as support drops.
pub fn e21(quick: bool) {
    let data = german_credit(if quick { 400 } else { 1000 }, 61);
    let vocab = ItemVocabulary::build(&data);
    let txns = vocab.transactions(&data);
    let supports: &[f64] = if quick { &[0.3, 0.2] } else { &[0.3, 0.2, 0.1, 0.05] };
    let mut table = Table::new(
        "E21  Apriori vs FP-Growth (identical output, different cost)",
        &["min support", "itemsets", "apriori", "fp-growth", "identical"],
    );
    for &s in supports {
        let min_support = ((s * txns.len() as f64).ceil() as usize).max(1);
        let (a, t_a) = time(|| apriori(&txns, min_support));
        let (g, t_g) = time(|| fp_growth(&txns, min_support));
        table.row(vec![
            format!("{s:.2}"),
            a.len().to_string(),
            fmt_duration(t_a),
            fmt_duration(t_g),
            (a == g).to_string(),
        ]);
    }
    table.print();
}
