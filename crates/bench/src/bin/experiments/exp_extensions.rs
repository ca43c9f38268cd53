//! E23–E27: extension experiments for the second wave of methods
//! (gradient attributions, interactions, unlearning, Banzhaf, CXPlain).

use xai_bench::{f, f2, fmt_duration, time, Table};
use xai_data::synth::{circles, friedman1, german_credit, linear_gaussian};
use xai_datavalue::{
    data_banzhaf, exact_data_banzhaf, exact_data_shapley, tmc_shapley, BanzhafConfig, FnUtility,
    TmcConfig,
};
use xai_models::{
    batch_from_scalar, proba_fn, Gbdt, GbdtConfig, GbdtLoss, LogisticConfig, Mlp, MlpConfig,
    Regressor,
};
use xai_provenance::LogisticUnlearner;
use xai_shapley::{exact_shapley, model_interactions, PredictionGame};
use xai_surrogate::{integrated_gradients, CxPlain, CxPlainConfig, LimeConfig, LimeExplainer};

/// E23 — integrated gradients: the completeness axiom and agreement with
/// exact Shapley values on a differentiable model (§2.4 gradient methods
/// meet the §2.1.2 axioms).
pub fn e23(quick: bool) {
    let data = circles(if quick { 300 } else { 600 }, 3, 0.1);
    let mlp = Mlp::fit(
        data.x(),
        data.y(),
        MlpConfig { hidden: 24, epochs: 120, learning_rate: 0.1, ..MlpConfig::default() },
    );
    let baseline = vec![0.0, 0.0];
    let mut table = Table::new(
        "E23  integrated gradients: completeness gap vs path steps",
        &["steps", "mean |Σ IG − (f(x) − f(base))| over 10 rows"],
    );
    for steps in [2usize, 8, 32, 128, 512] {
        let mut gap = 0.0;
        for i in 0..10 {
            let ig = integrated_gradients(&mlp, data.row(i), &baseline, steps);
            gap += ig.efficiency_gap() / 10.0;
        }
        table.row(vec![steps.to_string(), format!("{gap:.2e}")]);
    }
    table.print();

    // Agreement with exact Shapley on the same model (baseline background).
    let fm = proba_fn(&mlp);
    let background = xai_linalg::Matrix::from_rows(std::slice::from_ref(&baseline));
    let mut agree = 0.0;
    for i in 0..10 {
        let x = data.row(i);
        let game = PredictionGame::new(&fm, x, &background);
        let shap = exact_shapley(&game);
        let ig = integrated_gradients(&mlp, x, &baseline, 256);
        agree += xai_linalg::stats::pearson(&shap, &ig.values) / 10.0;
    }
    println!("  mean pearson(IG, exact Shapley w/ same baseline) = {agree:.3}");
}

/// E24 — Shapley interaction index: separating main effects from
/// interactions that plain φ values average away (§2.1.2 \[40, 46\]).
pub fn e24(quick: bool) {
    let data = german_credit(if quick { 300 } else { 600 }, 9);
    let gbdt = Gbdt::fit(data.x(), data.y(), GbdtConfig { n_rounds: 30, ..GbdtConfig::default() });
    let fm = proba_fn(&gbdt);
    let background = data.x().select_rows(&(0..12).collect::<Vec<_>>());
    let instance = data.row(25);
    let (im, t) = time(|| model_interactions(&fm, instance, &background));
    let names = data.schema().names();

    // Strongest interactions.
    let mut pairs: Vec<(usize, usize, f64)> = Vec::new();
    for i in 0..names.len() {
        for j in i + 1..names.len() {
            pairs.push((i, j, im.pairwise(i, j)));
        }
    }
    pairs.sort_by(|a, b| b.2.abs().partial_cmp(&a.2.abs()).unwrap());
    let mut table = Table::new(
        "E24  strongest pairwise Shapley interactions (GBDT credit model)",
        &["pair", "Φ_ij", "main_i", "main_j"],
    );
    for &(i, j, v) in pairs.iter().take(5) {
        table.row(vec![
            format!("{} × {}", names[i], names[j]),
            format!("{v:+.4}"),
            f(im.main_effect(i)),
            f(im.main_effect(j)),
        ]);
    }
    table.print();
    let total_gap = (im.total()
        - (fm(instance) - {
            let game = PredictionGame::new(&fm, instance, &background);
            use xai_shapley::CooperativeGame;
            game.empty_value()
        }))
    .abs();
    println!("  matrix total == v(N) − v(∅) (gap {total_gap:.1e}); computed in {}", fmt_duration(t));
}

/// E25 — machine unlearning for logistic models: Newton-step deletion vs
/// full retraining (§3, HedgeCut latency motivation).
pub fn e25(quick: bool) {
    let n = if quick { 1000 } else { 3000 };
    let train = linear_gaussian(n, &[2.0, -1.0, 0.5], 0.0, 121);
    let config = LogisticConfig { l2: 1e-2, ..LogisticConfig::default() };
    let mut table = Table::new(
        "E25  logistic unlearning: one Newton step vs full retrain",
        &["batch deleted", "fast path", "full retrain", "rel. param err", "certificate ‖g‖∞"],
    );
    for &k in &[1usize, 10, 100] {
        let mut un = LogisticUnlearner::fit(&train, config);
        let rows: Vec<usize> = (0..k).collect();
        let (_, t_fast) = time(|| un.forget(&rows));
        let (truth, t_full) = time(|| un.retrain_ground_truth());
        let err = xai_linalg::norm2(&xai_linalg::vsub(un.model().weights(), truth.weights()))
            / xai_linalg::norm2(truth.weights());
        table.row(vec![
            k.to_string(),
            fmt_duration(t_fast),
            fmt_duration(t_full),
            format!("{err:.1e}"),
            format!("{:.1e}", un.gradient_norm()),
        ]);
    }
    table.print();
    println!("  the fast path includes its own gradient-norm certificate; it");
    println!("  falls back to retraining automatically when the certificate fails.");
}

/// E26 — Banzhaf vs Shapley valuation under noisy utilities (§2.3.1
/// stability discussion): rank robustness when the utility is stochastic.
pub fn e26(quick: bool) {
    use xai_rand::Rng;
    use xai_rand::SeedableRng;
    use std::cell::RefCell;
    let n = 8;
    let clean = |s: &[usize]| -> f64 {
        s.iter().map(|&i| (i + 1) as f64 / 8.0).sum::<f64>()
            + f64::from(s.contains(&0) && s.contains(&7)) * 0.3
    };
    let u_clean = FnUtility::new(n, clean);
    let shap_clean = exact_data_shapley(&u_clean);
    let banz_clean = exact_data_banzhaf(&u_clean);
    let trials = if quick { 8 } else { 20 };
    let mut table = Table::new(
        "E26  valuation rank-robustness under utility noise (spearman to clean)",
        &["noise σ", "shapley (TMC)", "banzhaf (MC)"],
    );
    for noise in [0.1f64, 0.3, 0.6] {
        let mut rho_s = 0.0;
        let mut rho_b = 0.0;
        for t in 0..trials {
            let rng = RefCell::new(xai_rand::rngs::StdRng::seed_from_u64(2000 + t as u64));
            let noisy = FnUtility::new(n, |s: &[usize]| {
                clean(s) + (rng.borrow_mut().gen::<f64>() - 0.5) * 2.0 * noise
            });
            let s = tmc_shapley(&noisy, TmcConfig { permutations: 60, truncation_tolerance: 0.0, seed: t as u64 });
            let b = data_banzhaf(&noisy, BanzhafConfig { samples_per_point: 60, seed: t as u64 });
            rho_s += xai_linalg::stats::spearman(&shap_clean.values, &s.attribution.values) / trials as f64;
            rho_b += xai_linalg::stats::spearman(&banz_clean.values, &b.values) / trials as f64;
        }
        table.row(vec![format!("{noise:.1}"), f(rho_s), f(rho_b)]);
    }
    table.print();
    println!("  shape: both degrade with noise; Banzhaf's uniform coalition weights degrade no faster.");
}

/// E27 — CXPlain amortization: explanation latency of a trained explainer
/// vs per-instance LIME at comparable relevance quality (§2.1.3 \[61\]).
pub fn e27(quick: bool) {
    let data = friedman1(if quick { 400 } else { 800 }, 7, 0.2);
    let (train, test) = data.train_test_split(0.3, 1);
    let gbdt = Gbdt::fit(
        train.x(),
        train.y(),
        GbdtConfig { n_rounds: 60, loss: GbdtLoss::Squared, ..GbdtConfig::default() },
    );
    let fm = |x: &[f64]| Regressor::predict_one(&gbdt, x);
    let (cx, t_train) = time(|| CxPlain::train(&fm, &train, CxPlainConfig::default()));
    let lime = LimeExplainer::fit(&train);

    // Relevance quality: fraction of top-3 mass on the 5 true features.
    let rows = if quick { 20 } else { 50 };
    let mut cx_quality = 0.0;
    let mut lime_quality = 0.0;
    let mut t_cx = std::time::Duration::ZERO;
    let mut t_lime = std::time::Duration::ZERO;
    for i in 0..rows {
        let x = test.row(i);
        let (e_cx, d1) = time(|| cx.explain(x));
        t_cx += d1;
        let surface = batch_from_scalar(&fm);
        let (e_lime, d2) = time(|| lime.explain(&surface, x, LimeConfig::default(), i as u64));
        t_lime += d2;
        let hits = |ranking: Vec<usize>| -> f64 {
            ranking.iter().take(3).filter(|&&j| j < 5).count() as f64 / 3.0
        };
        cx_quality += hits(e_cx.ranking()) / rows as f64;
        lime_quality += hits(e_lime.attribution.ranking()) / rows as f64;
    }
    let mut table = Table::new(
        "E27  amortized (CXPlain) vs per-instance (LIME) explanation",
        &["method", "one-off cost", "per-instance latency", "top-3 relevance"],
    );
    table.row(vec![
        "CXPlain (amortized)".into(),
        fmt_duration(t_train),
        fmt_duration(t_cx / rows as u32),
        f(cx_quality),
    ]);
    table.row(vec![
        "LIME (per instance)".into(),
        "-".into(),
        fmt_duration(t_lime / rows as u32),
        f(lime_quality),
    ]);
    table.print();
    println!("  shape: CXPlain pays training once, then explains orders of magnitude faster.");
}

/// E28 — the counterfactual ladder: Wachter gradient optimization vs DiCE
/// local search vs GeCo genetic search on the same rejected applicants
/// (§2.1.4 end to end).
pub fn e28(quick: bool) {
    use xai_counterfactual::{
        geco, wachter_counterfactual, DiceConfig, DiceExplainer, GecoConfig, Plaf, WachterConfig,
    };
    let data = german_credit(if quick { 400 } else { 800 }, 5);
    let model = xai_models::LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
    let fm = proba_fn(&model);
    let rejected: Vec<usize> = (0..data.n_rows())
        .filter(|&i| fm(data.row(i)) < 0.35)
        .take(if quick { 5 } else { 10 })
        .collect();
    let dice = DiceExplainer::fit(&data);
    let plaf = Plaf::from_schema(&data);

    let mut table = Table::new(
        "E28  counterfactual methods on the same rejected applicants",
        &["method", "found", "mean distance", "mean sparsity", "mean latency", "feasibility-aware"],
    );
    let mut run = |name: &str,
                   feasible: bool,
                   f: &dyn Fn(usize, u64) -> Option<xai_core::Counterfactual>| {
        let mut found = 0;
        let mut dist = 0.0;
        let mut sparse = 0.0;
        let mut latency = std::time::Duration::ZERO;
        for (s, &i) in rejected.iter().enumerate() {
            let (cf, t) = time(|| f(i, s as u64));
            latency += t;
            if let Some(cf) = cf {
                found += 1;
                dist += cf.distance;
                sparse += cf.sparsity() as f64;
            }
        }
        let n = found.max(1) as f64;
        table.row(vec![
            name.into(),
            format!("{found}/{}", rejected.len()),
            f2(dist / n),
            f2(sparse / n),
            fmt_duration(latency / rejected.len() as u32),
            feasible.to_string(),
        ]);
    };
    run("wachter (gradient)", false, &|i, _| {
        wachter_counterfactual(&model, &data, data.row(i), WachterConfig::default())
    });
    run("dice (local search)", true, &|i, s| {
        dice.generate(&fm, data.row(i), DiceConfig { k: 1, ..DiceConfig::default() }, s)
            .into_iter()
            .next()
    });
    run("geco (genetic)", true, &|i, s| {
        geco(&fm, &data, data.row(i), &plaf, GecoConfig::default(), s)
    });
    table.print();
    println!("  shape: the gradient method is closest in raw distance but changes many");
    println!("  features and ignores feasibility; the constrained searches stay sparse.");
}

/// E29 — SP-LIME: explanation coverage vs inspection budget (§2.1.1):
/// a handful of well-picked explanations covers most globally important
/// features.
pub fn e29(quick: bool) {
    use xai_surrogate::{sp_lime, LimeExplainer};
    let data = german_credit(if quick { 300 } else { 500 }, 3);
    let gbdt = Gbdt::fit(data.x(), data.y(), GbdtConfig { n_rounds: 30, ..GbdtConfig::default() });
    let fm = proba_fn(&gbdt);
    let lime = LimeExplainer::fit(&data);
    let cfg = LimeConfig { n_samples: 400, ..LimeConfig::default() };
    let mut table = Table::new(
        "E29  SP-LIME: feature coverage vs inspection budget",
        &["budget B", "coverage", "of max"],
    );
    for budget in [1usize, 2, 4, 8] {
        let pick = sp_lime(&lime, &fm, &data, 30, budget, cfg, 7);
        table.row(vec![
            budget.to_string(),
            f2(pick.coverage),
            format!("{:.0}%", 100.0 * pick.coverage / pick.max_coverage),
        ]);
    }
    table.print();
    println!("  shape: diminishing returns — the greedy (1−1/e) guarantee in action.");
}

/// E30 — Owen values fix one-hot credit fragmentation (§2.1.2): a linear
/// model over one-hot columns fragments a categorical feature's credit;
/// the Owen group view restores it.
pub fn e30(quick: bool) {
    use xai_data::OneHotEncoder;
    use xai_shapley::{exact_shapley, one_hot_groups, owen_values, PredictionGame};
    let data = german_credit(if quick { 300 } else { 600 }, 9);
    let enc = OneHotEncoder::fit(data.schema());
    let xe = enc.encode_matrix(data.x());
    let model = xai_models::LogisticRegression::fit(&xe, data.y(), LogisticConfig::default());
    let fm = proba_fn(&model);
    let background = xe.select_rows(&(0..24).collect::<Vec<_>>());
    let instance = xe.row(40).to_vec();
    let game = PredictionGame::new(&fm, &instance, &background);
    let shap = exact_shapley(&game);
    let groups = one_hot_groups(&enc, data.n_features());
    let owen = owen_values(&game, &groups, if quick { 500 } else { 2000 }, 7);

    let names = data.schema().names();
    let mut table = Table::new(
        "E30  Owen values: per-group credit over one-hot encodings",
        &["raw feature", "encoded cols", "Σ shapley (fragments)", "owen group value"],
    );
    for (j, name) in names.iter().enumerate() {
        let cols: Vec<usize> = enc.columns_of(j).collect();
        let frag: f64 = cols.iter().map(|&c| shap[c]).sum();
        table.row(vec![
            name.to_string(),
            cols.len().to_string(),
            f(frag),
            f(owen.group_values[j]),
        ]);
    }
    table.print();
    println!("  shape: group totals agree with summed fragments (both games are the");
    println!("  same); the Owen view reports them natively per raw feature and keeps");
    println!("  within-group orderings contiguous.");
}

/// E31 — Shapley responsibility for database repairs (§3 \[17\]): the dirty
/// tuples of an FD-violating relation carry the blame, and deleting by
/// responsibility yields a minimal repair.
pub fn e31(_quick: bool) {
    use xai_provenance::{
        greedy_repair, repair_responsibility, total_violations, FunctionalDependency, Relation,
        Value,
    };
    // zip → city with two dirty tuples of different severity.
    let (r, _) = Relation::base(
        "addresses",
        &["zip", "city"],
        vec![
            vec![Value::Int(10001), Value::Str("nyc".into())],
            vec![Value::Int(10001), Value::Str("nyc".into())],
            vec![Value::Int(10001), Value::Str("nyc".into())],
            vec![Value::Int(10001), Value::Str("boston".into())],
            vec![Value::Int(2139), Value::Str("cambridge".into())],
            vec![Value::Int(2139), Value::Str("quincy".into())],
        ],
        0,
    );
    let fds = [FunctionalDependency::new(&["zip"], &["city"])];
    let all: Vec<usize> = (0..r.len()).collect();
    let phi = repair_responsibility(&r, &fds, 2000, 7);
    let mut table = Table::new(
        "E31  Shapley responsibility for FD violations (zip → city)",
        &["tuple", "zip", "city", "responsibility"],
    );
    for (i, t) in r.tuples.iter().enumerate() {
        table.row(vec![
            i.to_string(),
            t.values[0].to_string(),
            t.values[1].to_string(),
            f(phi[i]),
        ]);
    }
    table.print();
    let deleted = greedy_repair(&r, &fds, 5);
    println!(
        "  total violations {}; Σ responsibility {:.3}; greedy repair deletes tuples {:?}",
        total_violations(&r, &fds, &all),
        phi.iter().sum::<f64>(),
        deleted
    );
    println!("  shape: the lone 'boston' outlier out-blames each majority tuple; the");
    println!("  symmetric 2139 conflict splits evenly; repair is minimal.");
}

/// E32 — ROAR: retraining-based attribution evaluation (§3 "user study
/// and evaluation"): SHAP-informed removal collapses retrained accuracy
/// faster than random removal.
pub fn e32(quick: bool) {
    use xai_surrogate::{random_ranking, roar_curve};
    let n = if quick { 500 } else { 900 };
    let train = linear_gaussian(n, &[2.5, -2.0, 0.0, 0.0, 0.0, 0.0], 0.0, 141);
    let test = linear_gaussian(500, &[2.5, -2.0, 0.0, 0.0, 0.0, 0.0], 0.0, 142);
    let model = xai_models::LogisticRegression::fit(train.x(), train.y(), LogisticConfig::default());
    let fm = proba_fn(&model);
    let background = train.x().select_rows(&(0..16).collect::<Vec<_>>());
    let mut mean_abs = vec![0.0; train.n_features()];
    for i in 0..20 {
        let game = PredictionGame::new(&fm, train.row(i), &background);
        let phi = exact_shapley(&game);
        for (m, p) in mean_abs.iter_mut().zip(&phi) {
            *m += p.abs();
        }
    }
    let mut shap_rank: Vec<usize> = (0..train.n_features()).collect();
    shap_rank.sort_by(|&a, &b| mean_abs[b].partial_cmp(&mean_abs[a]).unwrap());
    let cfg = LogisticConfig::default();
    let shap = roar_curve(&train, &test, &shap_rank, 6, cfg);
    let random = roar_curve(&train, &test, &random_ranking(6, 3), 6, cfg);
    let mut table = Table::new(
        "E32  ROAR: retrained accuracy after removing top-k features",
        &["k removed", "SHAP ranking", "random ranking"],
    );
    for (i, p) in shap.points.iter().enumerate() {
        table.row(vec![
            p.0.to_string(),
            f(p.1),
            f(random.points.get(i).map_or(f64::NAN, |q| q.1)),
        ]);
    }
    table.print();
    println!(
        "  AUC: SHAP {:.3} vs random {:.3} (lower = attribution found the signal)",
        shap.auc(),
        random.auc()
    );
}

/// E33 — the conditioning debate (§2.1.2 critiques → §2.1.3 remedies):
/// marginal vs conditional Shapley on correlated data where the model
/// reads only one of two correlated features.
pub fn e33(quick: bool) {
    use xai_data::synth::correlated_gaussian;
    use xai_shapley::conditional_shapley;
    let n = if quick { 800 } else { 1500 };
    let data = correlated_gaussian(n, &[2.0, 0.0, 0.0], 0.85, 0.0, 7);
    let model = |x: &[f64]| x[0]; // reads x0 only; x1 is an 0.85-correlated proxy
    let idx = (0..data.n_rows())
        .find(|&i| data.row(i)[0] > 1.5 && data.row(i)[1] > 1.0)
        .expect("a high-signal instance");
    let instance = data.row(idx);
    let background = data.x().select_rows(&(0..n.min(400)).collect::<Vec<_>>());
    let marginal = exact_shapley(&PredictionGame::new(&model, instance, &background));
    let conditional = conditional_shapley(&model, instance, &background, 25);
    let mut table = Table::new(
        "E33  marginal vs conditional Shapley (model reads x0; corr(x0,x1)=0.85)",
        &["feature", "marginal φ", "conditional φ"],
    );
    for j in 0..3 {
        table.row(vec![format!("x{j}"), f(marginal[j]), f(conditional[j])]);
    }
    table.print();
    println!("  shape: the interventional/marginal game is 'true to the model' (proxy");
    println!("  gets 0); the observational/conditional game is 'true to the data'");
    println!("  (the proxy shares credit) — the §2.1.2↔§2.1.3 fault line, cf. [40].");
}

/// E34 — estimator ablation: antithetic pairing vs plain permutation
/// sampling (a DESIGN.md design-choice ablation): variance across seeds
/// at equal evaluation budget.
pub fn e34(quick: bool) {
    use xai_shapley::{antithetic_permutation_shapley, exact_shapley, permutation_shapley};
    let data = german_credit(if quick { 200 } else { 400 }, 9);
    let model = xai_models::LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
    let fm = proba_fn(&model);
    let background = data.x().select_rows(&(0..16).collect::<Vec<_>>());
    let instance = data.row(7);
    let game = PredictionGame::new(&fm, instance, &background);
    let exact = exact_shapley(&game);
    let trials = if quick { 10 } else { 20 };
    let mut table = Table::new(
        "E34  ablation: plain vs antithetic permutation sampling (equal budget)",
        &["budget (perms)", "plain RMSE", "antithetic RMSE"],
    );
    for budget in [20usize, 80, 320] {
        let rmse = |phis: Vec<Vec<f64>>| -> f64 {
            let mut total = 0.0;
            for phi in &phis {
                total += phi
                    .iter()
                    .zip(&exact)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    / exact.len() as f64;
            }
            (total / phis.len() as f64).sqrt()
        };
        let plain: Vec<Vec<f64>> = (0..trials)
            .map(|t| permutation_shapley(&game, budget, 100 + t as u64).phi)
            .collect();
        let anti: Vec<Vec<f64>> = (0..trials)
            .map(|t| antithetic_permutation_shapley(&game, budget / 2, 100 + t as u64).phi)
            .collect();
        table.row(vec![budget.to_string(), format!("{:.5}", rmse(plain)), format!("{:.5}", rmse(anti))]);
    }
    table.print();
    println!("  shape: antithetic pairing reduces error at equal budget on");
    println!("  near-additive models (first-order noise cancels).");
}
