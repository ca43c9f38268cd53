//! Zero-copy masked-evaluation equivalence harness (DESIGN.md §12).
//!
//! The masked coalition path (`ModelOracle::predict_masked` →
//! `MaskedPredictionGame`, optionally wrapped in the cross-request
//! `MemoGame`) is a *performance* feature: it must change wall-clock time
//! and nothing else. This suite pins that contract:
//!
//! - for every model family and every mask pattern (empty, full, each
//!   singleton, seeded random coalitions), the masked game's values are
//!   **bit-identical** to the materializing `BatchPredictionGame` and to
//!   the scalar `PredictionGame`;
//! - the shared `CoalitionMemo` is invisible: memo-on equals memo-off
//!   bitwise through the unified explainers, cold and warm, and the
//!   counters prove the warm run was actually served from the memo;
//! - under serve concurrency, repeated traffic against a memo-enabled
//!   service stays byte-identical to a memo-disabled service and to the
//!   direct `Explainer::explain` twin.

mod common;

use std::sync::Arc;

use xai::core::memo::{CoalitionMemo, GameKey, MemoHandle};
use xai::core::{ExplainRequest, Explainer, ModelOracle, RunConfig};
use xai::prelude::*;
use xai_linalg::Matrix;
use xai_models::{
    persisted_bytes, proba_fn, regress_fn, DecisionTree, ForestConfig, GaussianNb, Gbdt,
    GbdtConfig, GbdtLoss, Knn, LinearConfig, LinearRegression, LogisticConfig, LogisticRegression,
    Mlp, MlpConfig, MlpTask, RandomForest, SplitCriterion, TreeConfig, TreeNode,
};
use xai_rand::rngs::StdRng;
use xai_rand::{Rng, SeedableRng};
use xai_shapley::{
    BatchPredictionGame, CooperativeGame, MaskedPredictionGame, MemoGame, PredictionGame,
};

fn credit() -> Dataset {
    xai::data::synth::german_credit(90, 5)
}

fn background(data: &Dataset) -> Matrix {
    Matrix::from_fn(6, data.n_features(), |i, j| data.x()[(i, (i + j) % data.n_features())])
}

/// Empty, grand, every singleton, and eight seeded random coalitions.
fn mask_patterns(d: usize) -> Vec<Vec<bool>> {
    let mut coalitions = vec![vec![false; d], vec![true; d]];
    for i in 0..d {
        let mut c = vec![false; d];
        c[i] = true;
        coalitions.push(c);
    }
    let mut rng = StdRng::seed_from_u64(0xC0A1);
    for _ in 0..8 {
        coalitions.push((0..d).map(|_| rng.gen::<bool>()).collect());
    }
    coalitions
}

/// The core property: for one model, masked evaluation equals the
/// materialized batch game and the scalar game bit-for-bit on every mask
/// pattern, with and without the cross-request memo (cold and warm).
fn assert_masked_bit_identical<F>(name: &str, oracle: &dyn ModelOracle, f: &F, data: &Dataset)
where
    F: Fn(&[f64]) -> f64,
{
    let bg = background(data);
    let instance = data.row(11);
    let coalitions = mask_patterns(instance.len());

    let scalar_game = PredictionGame::new(f, instance, &bg);
    let bf = |m: &Matrix| oracle.predict_batch(m);
    let batch_game = BatchPredictionGame::new(&bf, instance, &bg);
    let masked_game = MaskedPredictionGame::new(oracle, instance, &bg);

    let scalar: Vec<f64> = coalitions.iter().map(|c| scalar_game.value(c)).collect();
    let batched = batch_game.values(&coalitions);
    let masked = masked_game.values(&coalitions);
    assert_eq!(masked, batched, "{name}: masked diverged from materialized batch");
    assert_eq!(masked, scalar, "{name}: masked diverged from scalar");

    // Memo wrap: cold pass computes, warm pass is served entirely from
    // the memo — both bit-identical to the unwrapped game.
    let memo = CoalitionMemo::new(1 << 14);
    let key = GameKey::derive(7, &bg, instance);
    let memoized = MemoGame::new(&masked_game, &memo, key);
    let cold = memoized.values(&coalitions);
    assert_eq!(cold, masked, "{name}: cold memo pass diverged");
    let before = memo.stats();
    let warm = memoized.values(&coalitions);
    assert_eq!(warm, masked, "{name}: warm memo pass diverged");
    let after = memo.stats();
    assert_eq!(
        after.hits - before.hits,
        coalitions.len() as u64,
        "{name}: warm pass must be all memo hits"
    );
}

#[test]
fn linear_and_logistic_masked_paths_are_bit_identical() {
    let data = credit();
    let linear = LinearRegression::fit(data.x(), data.y(), LinearConfig::default()).unwrap();
    assert_masked_bit_identical("linear", &linear, &regress_fn(&linear), &data);

    let logistic = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
    assert_masked_bit_identical("logistic", &logistic, &proba_fn(&logistic), &data);
}

#[test]
fn tree_ensemble_masked_paths_are_bit_identical() {
    let data = credit();
    let tree =
        DecisionTree::fit(data.x(), data.y(), TreeConfig { max_depth: 5, ..Default::default() });
    assert_masked_bit_identical("tree", &tree, &proba_fn(&tree), &data);

    let forest = RandomForest::fit(
        data.x(),
        data.y(),
        ForestConfig { n_trees: 8, seed: 2, ..Default::default() },
    );
    assert_masked_bit_identical("forest", &forest, &proba_fn(&forest), &data);

    // Depth 8 (the forest default) allows up to 255 internal nodes per tree.
    let deep = RandomForest::fit(
        data.x(),
        data.y(),
        ForestConfig {
            n_trees: 6,
            seed: 3,
            tree: TreeConfig { max_depth: 8, ..Default::default() },
            ..Default::default()
        },
    );
    assert!(deep.trees().iter().any(|t| t.depth() >= 6), "forest should grow deep trees");
    assert_masked_bit_identical("deep forest", &deep, &proba_fn(&deep), &data);

    for loss in [GbdtLoss::Logistic, GbdtLoss::Squared] {
        let gbdt =
            Gbdt::fit(data.x(), data.y(), GbdtConfig { n_rounds: 10, loss, ..Default::default() });
        assert_masked_bit_identical("gbdt", &gbdt, &proba_fn(&gbdt), &data);
    }

    // Degenerate shapes: a lone leaf, and a single split.
    let leaf =
        DecisionTree::fit(data.x(), data.y(), TreeConfig { max_depth: 0, ..Default::default() });
    assert_eq!(leaf.n_leaves(), 1);
    assert_masked_bit_identical("single leaf", &leaf, &proba_fn(&leaf), &data);
    let stump =
        DecisionTree::fit(data.x(), data.y(), TreeConfig { max_depth: 1, ..Default::default() });
    assert_eq!(stump.depth(), 1);
    assert_masked_bit_identical("stump", &stump, &proba_fn(&stump), &data);

    // Feature 0 splits twice along the root's left path, so a coalition
    // holding feature 0 must take the instance's branch at both nodes.
    let mut col: Vec<f64> = background(&data).iter_rows().map(|r| r[0]).collect();
    col.sort_by(f64::total_cmp);
    let split = |feature, threshold, left, right| TreeNode {
        feature,
        threshold,
        left: Some(left),
        right: Some(right),
        value: 0.0,
        cover: 1.0,
    };
    let leaf_node = |value| TreeNode {
        feature: 0,
        threshold: 0.0,
        left: None,
        right: None,
        value,
        cover: 1.0,
    };
    let twice = DecisionTree::from_parts(
        vec![
            split(0, col[4], 1, 4),
            split(0, col[2], 2, 3),
            leaf_node(0.1),
            leaf_node(0.3),
            split(3, data.x()[(0, 3)], 5, 6),
            leaf_node(0.6),
            leaf_node(0.9),
        ],
        data.n_features(),
        SplitCriterion::Gini,
    );
    assert_masked_bit_identical("repeated split", &twice, &proba_fn(&twice), &data);

    // One whole round of 1 200 masks (an odd stride through all 512
    // coalitions of the 9 features, so each appears at least twice) over
    // a 150-row background (three row words, the last one partial),
    // compared mask by mask with the per-row walk.
    let wide_bg = Matrix::from_fn(150, data.n_features(), |i, j| data.x()[(i % data.n_rows(), j)]);
    let instance = data.row(11);
    let masks: Vec<u64> = (0..1200u64).map(|i| i * 173 % 512).collect();
    let walk = |t: &DecisionTree, mask: u64, bi: usize| {
        t.predict_value_masked(instance, wide_bg.row(bi), mask)
    };
    let check_round = |name: &str, oracle: &dyn ModelOracle, want: &dyn Fn(u64, usize) -> f64| {
        let mut out = Vec::new();
        oracle.predict_masked(instance, &wide_bg, &masks, &mut out);
        let b = wide_bg.rows();
        assert_eq!(out.len(), masks.len() * b, "{name}: round size");
        for (i, got) in out.iter().enumerate() {
            let (m, bi) = (masks[i / b], i % b);
            assert_eq!(got.to_bits(), want(m, bi).to_bits(), "{name}: mask {m:#b}, row {bi}");
        }
    };
    let ensemble_sum = |trees: &[DecisionTree], m: u64, bi: usize| {
        trees.iter().fold(0.0, |acc, t| acc + walk(t, m, bi))
    };
    for (name, t) in [("tree", &tree), ("single leaf", &leaf), ("stump", &stump), ("twice", &twice)] {
        check_round(name, t, &|m, bi| walk(t, m, bi));
    }
    let n = deep.trees().len() as f64;
    check_round("deep forest", &deep, &|m, bi| ensemble_sum(deep.trees(), m, bi) / n);
    let gbdt = Gbdt::fit(data.x(), data.y(), GbdtConfig { n_rounds: 10, ..Default::default() });
    check_round("gbdt", &gbdt, &|m, bi| {
        let margin = gbdt.base_score() + gbdt.learning_rate() * ensemble_sum(gbdt.trees(), m, bi);
        xai::data::sigmoid(margin)
    });
}

#[test]
fn knn_naive_bayes_mlp_and_closure_masked_paths_are_bit_identical() {
    let data = credit();
    // k-NN and naive Bayes ride the default gather-into-scratch path.
    let knn = Knn::fit(data.x(), data.y(), 3);
    assert_masked_bit_identical("knn", &knn, &proba_fn(&knn), &data);

    let nb = GaussianNb::fit(data.x(), data.y());
    assert_masked_bit_identical("naive_bayes", &nb, &proba_fn(&nb), &data);

    for task in [MlpTask::Classification, MlpTask::Regression] {
        let mlp = Mlp::fit(
            data.x(),
            data.y(),
            MlpConfig { hidden: 6, epochs: 3, task, seed: 4, ..Default::default() },
        );
        assert_masked_bit_identical("mlp", &mlp, &proba_fn(&mlp), &data);
    }

    // A pure-closure oracle has no masked kernel at all: the blanket
    // default must still be bit-identical.
    let f = |x: &[f64]| (x[0] * 0.01 - x[3] * 0.0002).tanh() + x[6] * 0.1;
    let oracle = xai::core::FnOracle::new(data.n_features(), f);
    assert_masked_bit_identical("closure", &oracle, &f, &data);
}

/// Memo-on vs memo-off through the unified explainers: attaching a
/// `MemoHandle` to the request must not change a single bit of the
/// attribution, cold or warm, sequential or parallel, batched or not —
/// `batched` stays on the wire but every unbudgeted plan runs the masked
/// game, so both settings consult the memo and emit the same bytes.
#[test]
fn unified_dispatch_is_memo_invariant() {
    let data = credit();
    let model = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
    let row = data.row(0).to_vec();
    let memo = CoalitionMemo::new(1 << 14);
    let handle = MemoHandle { memo: &memo, model_fingerprint: 42 };
    let bytes = |e: &xai::core::Explanation| -> Vec<u64> {
        let a = e.as_attribution().unwrap();
        a.values.iter().chain([&a.baseline, &a.prediction]).map(|v| v.to_bits()).collect()
    };

    let mut reference: Vec<Vec<u64>> = Vec::new();
    for batched in [true, false] {
        let before = memo.stats();
        let mut run = 0;
        for workers in [1usize, 2, 4] {
            let plan = RunConfig::seeded(9).with_workers(workers).with_batched(batched);
            for method in [
                &KernelShapMethod::default() as &dyn Explainer,
                &PermutationShapleyMethod { permutations: 16 },
            ] {
                let req = ExplainRequest::new(&data).instance(&row).plan(plan);
                let plain = bytes(&method.explain(&model, &req).unwrap());
                let cold = bytes(&method.explain(&model, &req.memo(handle)).unwrap());
                let req = ExplainRequest::new(&data).instance(&row).plan(plan);
                let warm = bytes(&method.explain(&model, &req.memo(handle)).unwrap());
                assert_eq!(plain, cold, "batched={batched}: cold memo run changed bytes");
                assert_eq!(plain, warm, "batched={batched}: warm memo run changed bytes");
                match reference.get(run) {
                    Some(r) => assert_eq!(&plain, r, "batched=false changed bytes"),
                    None => reference.push(plain),
                }
                run += 1;
            }
        }
        let after = memo.stats();
        assert!(after.hits > before.hits, "batched={batched}: warm runs must hit the shared memo");
        assert!(after.entries > 0, "unified runs must populate the shared memo");
    }
}

/// Serve concurrency soak: hammer a memo-enabled service with repeated
/// batched coalition traffic across a worker pool and demand every
/// payload stays byte-identical to (a) the direct explain twin, and
/// (b) a memo-disabled service — while the stats prove the memo worked.
#[test]
fn serve_soak_is_memo_invariant_and_hits_the_memo() {
    let credit = xai::data::synth::german_credit(60, 77);
    let model =
        Arc::new(LogisticRegression::fit(credit.x(), credit.y(), LogisticConfig::default()));
    let instance = credit.row(7).to_vec();

    let build = |memo_capacity: usize| {
        let service = ExplanationService::new(
            common::cheap_registry(),
            ServiceConfig { workers: 4, queue_capacity: 256, cache_capacity: 0, memo_capacity },
        );
        service.register_model("credit", model.clone(), credit.clone(), &persisted_bytes(&*model));
        service
    };
    let memoized = build(1 << 14);
    let plain = build(0);

    let mut requests = Vec::new();
    for seed in 0..4u64 {
        for method in ["Kernel SHAP", "Permutation sampling Shapley"] {
            requests.push(
                ServeRequest::new(method, "credit")
                    .with_instance(&instance)
                    .with_plan(RunConfig::seeded(seed).with_batched(true)),
            );
        }
    }

    // Three rounds of identical traffic: with the result cache disabled,
    // every submission re-executes, so rounds 2 and 3 replay the same
    // coalitions straight into the shared memo.
    for round in 0..3 {
        for request in &requests {
            let a = memoized.submit(request).unwrap().payload;
            let b = plain.submit(request).unwrap().payload;
            assert_eq!(a, b, "round {round}: memo-enabled service diverged");
        }
    }

    let stats = memoized.stats();
    assert_eq!(stats.memo_hits + stats.memo_misses > 0, true, "memo was consulted");
    assert!(stats.memo_hits > 0, "repeat traffic must hit the memo: {stats:?}");
    assert!(memoized.memo_len() > 0, "memo must hold coalition values");
    let plain_stats = plain.stats();
    assert_eq!(plain_stats.memo_hits, 0, "capacity-0 memo must never hit");
    assert_eq!(plain_stats.memo_evictions, 0);
}
