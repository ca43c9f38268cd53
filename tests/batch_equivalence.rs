//! Batched-path equivalence harness.
//!
//! The batched inference path (`predict_batch` → `BatchPredictionGame`,
//! or a batched surface handed to LIME / PDP / Anchors) is a
//! *performance* feature: it must change wall-clock time and nothing
//! else. Each estimator has one
//! sequential core and one chunk-grid core, and this suite runs both over
//! the scalar and the batched game (or surface) for every model family ×
//! Monte-Carlo explainer pair — the estimate is **bit-identical** at the
//! same seed and at every worker count, with and without the coalition
//! memo cache.

use xai_data::synth::german_credit;
use xai_data::Dataset;
use xai_datavalue::{
    data_banzhaf, tmc_shapley, try_data_banzhaf_parallel, try_tmc_shapley_parallel,
    BanzhafConfig, CachedUtility, FnUtility, TmcConfig,
};
use xai_linalg::Matrix;
use xai_models::{
    batch_from_scalar, batch_proba_fn, batch_regress_fn, proba_fn, regress_fn, DecisionTree,
    ForestConfig, GaussianNb, Gbdt, GbdtConfig, GbdtLoss, Knn, LinearConfig, LinearRegression,
    LogisticConfig, LogisticRegression, Mlp, MlpConfig, MlpTask, RandomForest, TreeConfig,
};
use xai_shapley::{
    kernel_shap, permutation_shapley, try_kernel_shap_grid, try_permutation_shapley_grid,
    BatchPredictionGame, KernelShapConfig, MemoGame, PredictionGame,
};
use xai_core::{
    CoalitionMemo, ExplainRequest, Explainer, Explanation, GameKey, ModelOracle, RunConfig,
};
use xai_rand::child_seed;
use xai_rules::{AnchorsConfig, AnchorsExplainer, AnchorsMethod};
use xai_surrogate::{feature_grid, partial_dependence, LimeConfig, LimeExplainer};

fn credit() -> Dataset {
    german_credit(90, 5)
}

fn background(data: &Dataset) -> Matrix {
    Matrix::from_fn(6, data.n_features(), |i, j| data.x()[(i, (i + j) % data.n_features())])
}

/// Runs every Shapley Monte-Carlo estimator against one model through the
/// scalar and the batched game and demands bitwise equality: sequential
/// and chunk-grid cores, exact and sampling kernel modes, with and without
/// the coalition memo cache, across worker counts.
fn assert_explainers_bit_identical<F, B>(name: &str, f: &F, bf: &B, instance: &[f64], bg: &Matrix)
where
    F: Fn(&[f64]) -> f64 + Sync,
    B: Fn(&Matrix) -> Vec<f64> + Sync,
{
    let scalar_game = PredictionGame::new(f, instance, bg);
    let batch_game = BatchPredictionGame::new(bf, instance, bg);
    // A run-local memo with room for every coalition of the 9 players.
    let memo = CoalitionMemo::new(1 << 9);
    let cached = MemoGame::new(&batch_game, &memo, GameKey::derive(0, bg, instance));

    // Kernel SHAP, exact mode (n = 9 → 510 coalitions) and sampling mode.
    for cfg in [
        KernelShapConfig { seed: 3, ..KernelShapConfig::default() },
        KernelShapConfig { max_coalitions: 48, seed: 3, ..KernelShapConfig::default() },
    ] {
        let a = kernel_shap(&scalar_game, cfg);
        let b = kernel_shap(&batch_game, cfg);
        assert_eq!(a.phi, b.phi, "{name}: batched kernel SHAP diverged");
        assert_eq!(a.base_value, b.base_value, "{name}: base value diverged");
        let c = kernel_shap(&cached, cfg);
        assert_eq!(a.phi, c.phi, "{name}: cached kernel SHAP diverged");
        let reference = try_kernel_shap_grid(&scalar_game, cfg, 1).unwrap();
        for workers in [1, 2, 4] {
            let p = try_kernel_shap_grid(&batch_game, cfg, workers).unwrap();
            assert_eq!(
                reference.phi, p.phi,
                "{name}: parallel batched kernel SHAP diverged at {workers} workers"
            );
        }
    }

    // Permutation Shapley, sequential and chunk grid.
    let a = permutation_shapley(&scalar_game, 20, 7);
    let b = permutation_shapley(&batch_game, 20, 7);
    assert_eq!(a.phi, b.phi, "{name}: batched permutation Shapley diverged");
    assert_eq!(a.std_err, b.std_err, "{name}: std_err diverged");
    let c = permutation_shapley(&cached, 20, 7);
    assert_eq!(a.phi, c.phi, "{name}: cached permutation Shapley diverged");
    let reference = try_permutation_shapley_grid(&scalar_game, 24, 7, 1).unwrap();
    for workers in [1, 2, 4] {
        let p = try_permutation_shapley_grid(&batch_game, 24, 7, workers).unwrap();
        assert_eq!(
            reference.phi, p.phi,
            "{name}: parallel batched permutation Shapley diverged at {workers} workers"
        );
        assert_eq!(reference.std_err, p.std_err, "{name}: parallel std_err diverged");
    }

    // Every permutation walk revisits ∅ and N, so the memo must have hit.
    assert!(memo.stats().hits > 0, "{name}: memo cache never hit");
}

/// LIME, PDP and Anchors through the batched model surface, bit-identical
/// to the scalar loop over rows (`batch_from_scalar`), for LIME's
/// sequential and chunk-grid cores alike.
fn assert_surrogates_bit_identical<F, B>(name: &str, f: &F, bf: &B, data: &Dataset)
where
    F: Fn(&[f64]) -> f64 + Sync,
    B: Fn(&Matrix) -> Vec<f64> + Sync,
{
    let sf = batch_from_scalar(f);
    let lime = LimeExplainer::fit(data);
    let cfg = LimeConfig { n_samples: 120, ..LimeConfig::default() };
    let a = lime.explain(&sf, data.row(4), cfg, 13);
    let b = lime.explain(bf, data.row(4), cfg, 13);
    assert_eq!(a.attribution.values, b.attribution.values, "{name}: batched LIME diverged");
    assert_eq!(a.attribution.prediction, b.attribution.prediction, "{name}: LIME prediction");
    assert_eq!(a.local_fidelity, b.local_fidelity, "{name}: LIME fidelity diverged");
    let reference = lime.try_explain_grid(&sf, data.row(4), cfg, 13, 1).unwrap();
    for workers in [1, 2, 4] {
        let g = lime.try_explain_grid(bf, data.row(4), cfg, 13, workers).unwrap();
        assert_eq!(
            reference.attribution.values, g.attribution.values,
            "{name}: grid LIME diverged at {workers} workers"
        );
    }

    let grid = feature_grid(data, 1, 5);
    let pa = partial_dependence(&sf, data, 1, &grid, 40, true);
    let pb = partial_dependence(bf, data, 1, &grid, 40, true);
    assert_eq!(pa.pdp, pb.pdp, "{name}: batched PDP diverged");
    assert_eq!(pa.ice, pb.ice, "{name}: batched ICE diverged");

    let anchors = AnchorsExplainer::fit(data);
    let ra = anchors.explain(&sf, data.row(4), AnchorsConfig::default(), 13);
    let rb = anchors.explain(bf, data.row(4), AnchorsConfig::default(), 13);
    assert_eq!(ra, rb, "{name}: batched Anchors diverged");
}

#[test]
fn linear_and_logistic_batched_explainers_are_bit_identical() {
    let data = credit();
    let bg = background(&data);
    let instance = data.row(11);

    let linear = LinearRegression::fit(data.x(), data.y(), LinearConfig::default()).unwrap();
    let f = regress_fn(&linear);
    let bf = batch_regress_fn(&linear);
    assert_explainers_bit_identical("linear", &f, &bf, instance, &bg);
    assert_surrogates_bit_identical("linear", &f, &bf, &data);

    let logistic = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
    let f = proba_fn(&logistic);
    let bf = batch_proba_fn(&logistic);
    assert_explainers_bit_identical("logistic", &f, &bf, instance, &bg);
    assert_surrogates_bit_identical("logistic", &f, &bf, &data);
}

#[test]
fn tree_ensemble_batched_explainers_are_bit_identical() {
    let data = credit();
    let bg = background(&data);
    let instance = data.row(11);

    let tree = DecisionTree::fit(data.x(), data.y(), TreeConfig { max_depth: 5, ..Default::default() });
    let f = proba_fn(&tree);
    let bf = batch_proba_fn(&tree);
    assert_explainers_bit_identical("tree", &f, &bf, instance, &bg);

    let forest =
        RandomForest::fit(data.x(), data.y(), ForestConfig { n_trees: 8, seed: 2, ..Default::default() });
    let f = proba_fn(&forest);
    let bf = batch_proba_fn(&forest);
    assert_explainers_bit_identical("forest", &f, &bf, instance, &bg);
    assert_surrogates_bit_identical("forest", &f, &bf, &data);

    let gbdt = Gbdt::fit(
        data.x(),
        data.y(),
        GbdtConfig { n_rounds: 10, loss: GbdtLoss::Logistic, ..Default::default() },
    );
    let f = proba_fn(&gbdt);
    let bf = batch_proba_fn(&gbdt);
    assert_explainers_bit_identical("gbdt", &f, &bf, instance, &bg);
    assert_surrogates_bit_identical("gbdt", &f, &bf, &data);
}

#[test]
fn knn_naive_bayes_and_mlp_batched_explainers_are_bit_identical() {
    let data = credit();
    let bg = background(&data);
    let instance = data.row(11);

    let knn = Knn::fit(data.x(), data.y(), 3);
    let f = proba_fn(&knn);
    let bf = batch_proba_fn(&knn);
    assert_explainers_bit_identical("knn", &f, &bf, instance, &bg);

    let nb = GaussianNb::fit(data.x(), data.y());
    let f = proba_fn(&nb);
    let bf = batch_proba_fn(&nb);
    assert_explainers_bit_identical("naive_bayes", &f, &bf, instance, &bg);

    let mlp = Mlp::fit(
        data.x(),
        data.y(),
        MlpConfig { hidden: 6, epochs: 3, task: MlpTask::Classification, seed: 4, ..Default::default() },
    );
    let f = proba_fn(&mlp);
    let bf = batch_proba_fn(&mlp);
    assert_explainers_bit_identical("mlp", &f, &bf, instance, &bg);
    assert_surrogates_bit_identical("mlp", &f, &bf, &data);
}

#[test]
fn scalar_fallback_adapter_is_equivalent_to_the_scalar_path() {
    // A model with no vectorized override still rides the batched
    // explainer entry points through `batch_from_scalar`.
    let data = credit();
    let bg = background(&data);
    let instance = data.row(3);
    let f = |x: &[f64]| (x[0] * 0.01 - x[3] * 0.0002).tanh() + x[6] * 0.1;
    let bf = batch_from_scalar(f);
    assert_explainers_bit_identical("closure", &f, &bf, instance, &bg);
}

#[test]
fn cached_utility_preserves_tmc_and_banzhaf_bits() {
    // The memoized utility must be invisible to the estimators. The inner
    // utility accumulates in integer arithmetic, so its score is exactly
    // permutation-invariant and the cache's canonical (sorted) evaluation
    // order cannot perturb bits.
    let n = 14;
    let utility = FnUtility::new(n, |s: &[usize]| {
        s.iter().map(|&i| (i * i + 3 * i + 1) as u64).sum::<u64>() as f64 / 64.0
    });
    let cached = CachedUtility::new(&utility);

    let tmc_cfg = TmcConfig { permutations: 30, truncation_tolerance: 0.0, seed: 5 };
    let plain = tmc_shapley(&utility, tmc_cfg);
    let memo = tmc_shapley(&cached, tmc_cfg);
    assert_eq!(plain.attribution.values, memo.attribution.values, "TMC diverged under memo");
    let (hits, misses) = cached.stats();
    assert!(hits > 0, "TMC revisits the empty/grand coalitions every walk");
    assert!(misses < plain.utility_calls, "memo must absorb repeat evaluations");

    let bz_cfg = BanzhafConfig { samples_per_point: 12, seed: 8 };
    let plain_bz = data_banzhaf(&utility, bz_cfg);
    let memo_bz = data_banzhaf(&cached, bz_cfg);
    assert_eq!(plain_bz.values, memo_bz.values, "Banzhaf diverged under memo");

    // Parallel estimators accept the cached wrapper too (Mutex ⇒ Sync) and
    // stay worker-invariant.
    let p1 = try_tmc_shapley_parallel(&cached, tmc_cfg, 1).unwrap();
    let p4 = try_tmc_shapley_parallel(&cached, tmc_cfg, 4).unwrap();
    assert_eq!(p1.values, p4.values, "parallel TMC not worker-invariant under memo");
    let b1 = try_data_banzhaf_parallel(&cached, bz_cfg, 1).unwrap();
    let b4 = try_data_banzhaf_parallel(&cached, bz_cfg, 4).unwrap();
    assert_eq!(b1.values, b4.values, "parallel Banzhaf not worker-invariant under memo");
}

// ---------------------------------------------------------------------------
// Anchors through the oracle, and its pinned rule bytes
// ---------------------------------------------------------------------------

/// `(model, instance row, seed)` cases pinned by
/// `tests/fixtures/anchors_rules.json`.
const ANCHOR_CASES: &[(&str, usize, u64)] = &[
    ("logistic", 0, 3),
    ("logistic", 17, 8),
    ("gbdt", 2, 5),
    ("gbdt", 23, 1),
    ("forest", 9, 4),
    ("forest", 31, 6),
];

fn anchor_model(name: &str, data: &Dataset) -> Box<dyn ModelOracle> {
    match name {
        "logistic" => Box::new(LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default())),
        "gbdt" => Box::new(Gbdt::fit(data.x(), data.y(), GbdtConfig::default())),
        "forest" => Box::new(RandomForest::fit(
            data.x(),
            data.y(),
            ForestConfig { n_trees: 10, seed: 2, ..Default::default() },
        )),
        other => unreachable!("no anchors fixture model '{other}'"),
    }
}

fn anchors_rule(model: &dyn ModelOracle, data: &Dataset, row: usize, plan: RunConfig) -> Explanation {
    let req = ExplainRequest::new(data).instance(data.row(row)).plan(plan);
    AnchorsMethod::default().explain(model, &req).unwrap()
}

#[test]
fn anchors_method_matches_the_scalar_search_at_every_worker_count() {
    let data = credit();
    let method = AnchorsMethod::default();
    for name in ["logistic", "gbdt", "forest"] {
        let model = anchor_model(name, &data);
        let scalar = batch_from_scalar(|x: &[f64]| model.predict(x));
        let anchors = AnchorsExplainer::fit(&data);
        let search = |seed| anchors.explain(&scalar, data.row(7), method.config, seed);
        let single = search(21);
        // The pool runs candidate `p` at `child_seed(seed, p)` and keeps
        // the most precise rule.
        let pool: Vec<_> = (0..method.pool as u64).map(|p| search(child_seed(21, p))).collect();
        let best = pool.iter().map(|r| r.precision).fold(f64::NEG_INFINITY, f64::max);
        for batched in [false, true] {
            let plan = RunConfig::seeded(21).with_batched(batched);
            let got = anchors_rule(model.as_ref(), &data, 7, plan.clone());
            assert_eq!(got.as_rules().unwrap(), std::slice::from_ref(&single), "{name}: workers 1");
            let got = anchors_rule(model.as_ref(), &data, 7, plan.with_workers(2));
            let rule = &got.as_rules().unwrap()[0];
            assert!(pool.contains(rule), "{name}: workers 2 returned a rule outside the pool");
            assert_eq!(rule.precision, best, "{name}: workers 2 missed the pool's best rule");
        }
    }
}

/// The pinned cases' rule JSON, one line per case and worker count.
fn anchors_fixture_text() -> String {
    let data = credit();
    let mut lines = Vec::new();
    for &(name, row, seed) in ANCHOR_CASES {
        let model = anchor_model(name, &data);
        for workers in [1, 2] {
            let plan = RunConfig::seeded(seed).with_workers(workers);
            lines.push(format!(
                r#"{{"model":"{name}","row":{row},"seed":{seed},"workers":{workers},"explanation":{}}}"#,
                anchors_rule(model.as_ref(), &data, row, plan).to_json_string()
            ));
        }
    }
    format!("[\n{}\n]\n", lines.join(",\n"))
}

/// The fixture holds the rules Anchors produced when every sample was its
/// own scalar model call; batching the bandit's pulls must not move a
/// byte. Rewrite it with `XAI_REGEN_GOLDEN=1` only for an intentional
/// change of the search.
#[test]
fn anchors_rules_match_the_pinned_fixture() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/anchors_rules.json");
    let text = anchors_fixture_text();
    if std::env::var_os("XAI_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &text).unwrap();
    }
    let pinned = std::fs::read_to_string(&path).unwrap();
    assert_eq!(text, pinned, "Anchors rule bytes drifted from the pinned fixture");
}
