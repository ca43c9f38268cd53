//! Property-based tests for the model substrate, run as deterministic
//! seeded loops over `xai_rand`.

use xai_linalg::Matrix;
use xai_models::{
    Classifier, DecisionTree, ForestConfig, GaussianNb, Gbdt, GbdtConfig, GbdtLoss, Knn,
    LinearConfig, LinearRegression, LogisticConfig, LogisticRegression, Mlp, MlpConfig, MlpTask,
    RandomForest, Regressor, SplitCriterion, TreeConfig, TreeNode,
};
use xai_rand::property::{cases, vec_in};
use xai_rand::rngs::StdRng;
use xai_rand::Rng;

/// A small dataset of rows in [-5, 5] with 0/1 labels containing both
/// classes (resampled until both appear).
fn binary_dataset(rng: &mut StdRng) -> (Matrix, Vec<f64>) {
    loop {
        let d = rng.gen_range(2..=4);
        let n = rng.gen_range(8..=40);
        let data = vec_in(rng, n * d, -5.0, 5.0);
        let labels: Vec<f64> = (0..n).map(|_| f64::from(rng.gen::<bool>())).collect();
        let pos = labels.iter().filter(|&&v| v > 0.5).count();
        if pos == 0 || pos == n {
            continue;
        }
        return (Matrix::from_vec(n, d, data), labels);
    }
}

#[test]
fn tree_probabilities_stay_in_unit_interval() {
    cases(64, 401, |rng| {
        let (x, y) = binary_dataset(rng);
        let tree = DecisionTree::fit(&x, &y, TreeConfig { max_depth: 4, ..TreeConfig::default() });
        for i in 0..x.rows() {
            let p = tree.proba_one(x.row(i));
            assert!((0.0..=1.0).contains(&p));
        }
    });
}

#[test]
fn tree_regression_predictions_within_target_range() {
    cases(64, 402, |rng| {
        let (x, y) = binary_dataset(rng);
        // Reinterpret labels as regression targets scaled to [0, 10].
        let targets: Vec<f64> = y.iter().map(|v| v * 10.0).collect();
        let tree = DecisionTree::fit(
            &x,
            &targets,
            TreeConfig { criterion: SplitCriterion::Variance, max_depth: 5, ..TreeConfig::default() },
        );
        let lo = targets.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = targets.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for i in 0..x.rows() {
            let p = Regressor::predict_one(&tree, x.row(i));
            assert!(p >= lo - 1e-9 && p <= hi + 1e-9);
        }
    });
}

#[test]
fn logistic_probabilities_finite_and_bounded() {
    cases(64, 403, |rng| {
        let (x, y) = binary_dataset(rng);
        let m = LogisticRegression::fit(&x, &y, LogisticConfig { max_iter: 20, ..LogisticConfig::default() });
        for i in 0..x.rows() {
            let p = m.proba_one(x.row(i));
            assert!(p.is_finite() && (0.0..=1.0).contains(&p));
        }
        assert!(m.weights().iter().all(|w| w.is_finite()));
    });
}

#[test]
fn knn_prediction_is_a_training_label_average() {
    cases(64, 404, |rng| {
        let (x, y) = binary_dataset(rng);
        let knn = Knn::fit(&x, &y, 3);
        for i in 0..x.rows().min(5) {
            let p = knn.proba_one(x.row(i));
            assert!((0.0..=1.0).contains(&p));
            // With k=3 the prediction is a multiple of 1/3.
            let scaled = p * 3.0;
            assert!((scaled - scaled.round()).abs() < 1e-9);
        }
    });
}

#[test]
fn naive_bayes_probabilities_valid() {
    cases(64, 405, |rng| {
        let (x, y) = binary_dataset(rng);
        let nb = GaussianNb::fit(&x, &y);
        for i in 0..x.rows().min(8) {
            let p = nb.proba_one(x.row(i));
            assert!(p.is_finite() && (0.0..=1.0).contains(&p));
        }
    });
}

#[test]
fn linear_regression_is_affine() {
    cases(64, 406, |rng| {
        // Fit on exact affine data: prediction must interpolate new points.
        let d = rng.gen_range(2..4);
        let coefs = vec_in(rng, d, -3.0, 3.0);
        let bias: f64 = rng.gen_range(-2.0..2.0);
        let n = 4 * d + 4;
        let x = Matrix::from_fn(n, d, |i, j| ((i * (j + 2) + j) % 7) as f64 - 3.0);
        let y: Vec<f64> = x.iter_rows().map(|r| bias + xai_linalg::dot(&coefs, r)).collect();
        let m = LinearRegression::fit(&x, &y, LinearConfig { ridge: 1e-10, intercept: true }).unwrap();
        let probe: Vec<f64> = (0..d).map(|j| 0.5 * j as f64 - 1.0).collect();
        let expected = bias + xai_linalg::dot(&coefs, &probe);
        assert!((Regressor::predict_one(&m, &probe) - expected).abs() < 1e-4);
    });
}

// ---------------------------------------------------------------------------
// Batch/scalar equivalence: `predict_batch` / `proba_batch` must agree with
// the row-by-row scalar path to *exact* (bitwise) equality for all eight
// model families, including the empty-matrix and single-row edge cases.
// This is the contract the batched explainer paths build on.
// ---------------------------------------------------------------------------

/// Probe matrices exercising the edge cases: empty, single row, and a
/// block big enough to hit the blocked kernels' remainder handling.
fn probe_batches(rng: &mut StdRng, d: usize) -> Vec<Matrix> {
    let multi_rows = rng.gen_range(5..=13);
    vec![
        Matrix::zeros(0, d),
        Matrix::from_vec(1, d, vec_in(rng, d, -6.0, 6.0)),
        Matrix::from_vec(multi_rows, d, vec_in(rng, multi_rows * d, -6.0, 6.0)),
    ]
}

fn assert_regressor_batch_exact<R: Regressor>(model: &R, probes: &[Matrix], name: &str) {
    for m in probes {
        let batched = model.predict_batch(m);
        let scalar: Vec<f64> = m.iter_rows().map(|r| model.predict_one(r)).collect();
        assert_eq!(batched, scalar, "{name}: predict_batch != predict_one loop ({} rows)", m.rows());
        assert_eq!(model.predict(m), batched, "{name}: predict must route through the batch surface");
    }
}

fn assert_classifier_batch_exact<C: Classifier>(model: &C, probes: &[Matrix], name: &str) {
    for m in probes {
        let batched = model.proba_batch(m);
        let scalar: Vec<f64> = m.iter_rows().map(|r| model.proba_one(r)).collect();
        assert_eq!(batched, scalar, "{name}: proba_batch != proba_one loop ({} rows)", m.rows());
        let hard: Vec<f64> = batched.iter().map(|&p| f64::from(p >= 0.5)).collect();
        assert_eq!(Classifier::predict(model, m), hard, "{name}: hard predictions diverge");
    }
}

#[test]
fn linear_and_logistic_batch_paths_are_bit_identical() {
    cases(48, 407, |rng| {
        let (x, y) = binary_dataset(rng);
        let d = x.cols();
        let probes = probe_batches(rng, d);
        let linear = LinearRegression::fit(&x, &y, LinearConfig::default()).unwrap();
        assert_regressor_batch_exact(&linear, &probes, "linear");
        let logistic =
            LogisticRegression::fit(&x, &y, LogisticConfig { max_iter: 15, ..LogisticConfig::default() });
        assert_classifier_batch_exact(&logistic, &probes, "logistic");
    });
}

#[test]
fn tree_ensemble_batch_paths_are_bit_identical() {
    cases(32, 408, |rng| {
        let (x, y) = binary_dataset(rng);
        let d = x.cols();
        let probes = probe_batches(rng, d);
        let tree = DecisionTree::fit(&x, &y, TreeConfig { max_depth: 5, ..TreeConfig::default() });
        assert_regressor_batch_exact(&tree, &probes, "tree");
        assert_classifier_batch_exact(&tree, &probes, "tree");
        let forest = RandomForest::fit(
            &x,
            &y,
            ForestConfig { n_trees: 7, seed: 3, ..ForestConfig::default() },
        );
        assert_regressor_batch_exact(&forest, &probes, "forest");
        assert_classifier_batch_exact(&forest, &probes, "forest");
        for loss in [GbdtLoss::Squared, GbdtLoss::Logistic] {
            let gbdt = Gbdt::fit(&x, &y, GbdtConfig { n_rounds: 12, loss, ..GbdtConfig::default() });
            assert_regressor_batch_exact(&gbdt, &probes, "gbdt");
            assert_classifier_batch_exact(&gbdt, &probes, "gbdt");
        }

        // A batch past two 64-row words, and ensembles fit on it deep
        // enough to reach depth 8, where early leaves idle for many steps.
        let rows = rng.gen_range(130..=200);
        let wide = Matrix::from_vec(rows, d, vec_in(rng, rows * d, -6.0, 6.0));
        let labels: Vec<f64> = (0..rows).map(|_| f64::from(rng.gen::<bool>())).collect();
        let mut probes = probes;
        probes.push(wide.clone());
        assert_regressor_batch_exact(&tree, &probes, "tree");
        assert_regressor_batch_exact(&forest, &probes, "forest");
        let deep = RandomForest::fit(
            &wide,
            &labels,
            ForestConfig { n_trees: 5, seed: 4, ..ForestConfig::default() },
        );
        assert!(deep.trees().iter().any(|t| t.depth() == 8), "forest never reached depth 8");
        assert_regressor_batch_exact(&deep, &probes, "deep forest");
        assert_classifier_batch_exact(&deep, &probes, "deep forest");

        // A single leaf (constant targets) and a depth-1 stump.
        let leaf = DecisionTree::fit(&wide, &vec![1.0; rows], TreeConfig::default());
        assert_eq!(leaf.depth(), 0);
        assert_regressor_batch_exact(&leaf, &probes, "single leaf");
        let stump = DecisionTree::fit(&wide, &labels, TreeConfig { max_depth: 1, ..TreeConfig::default() });
        assert_eq!(stump.depth(), 1);
        assert_regressor_batch_exact(&stump, &probes, "stump");
        assert_classifier_batch_exact(&stump, &probes, "stump");
    });

    // A hand-built tree, x0 <= 0 → (x0 <= -2 → 0.1 | 0.4) else 0.9: one
    // feature, two thresholds, leaves at depths 1 and 2, and leaf
    // `feature` fields out of range.
    let node = |feature, threshold, left, right, value| TreeNode {
        feature,
        threshold,
        left,
        right,
        value,
        cover: 1.0,
    };
    let tree = DecisionTree::from_parts(
        vec![
            node(0, 0.0, Some(1), Some(4), 0.5),
            node(0, -2.0, Some(2), Some(3), 0.3),
            node(7, 0.0, None, None, 0.1),
            node(7, 0.0, None, None, 0.4),
            node(7, 0.0, None, None, 0.9),
        ],
        2,
        SplitCriterion::Gini,
    );
    // Exact thresholds go left; NaN goes right at every split.
    let column = [-3.0, -2.0, -1.0, 0.0, 1.0, f64::NAN, -0.0, 2.0];
    let probe = Matrix::from_fn(column.len(), 2, |i, j| if j == 0 { column[i] } else { 5.0 });
    assert_eq!(tree.predict_values(&probe), vec![0.1, 0.1, 0.4, 0.4, 0.9, 0.9, 0.4, 0.9]);
    assert_regressor_batch_exact(&tree, &[probe], "hand-built tree");
}

#[test]
fn knn_naive_bayes_and_mlp_batch_paths_are_bit_identical() {
    cases(32, 409, |rng| {
        let (x, y) = binary_dataset(rng);
        let d = x.cols();
        let probes = probe_batches(rng, d);
        let knn = Knn::fit(&x, &y, 3);
        assert_regressor_batch_exact(&knn, &probes, "knn");
        assert_classifier_batch_exact(&knn, &probes, "knn");
        let nb = GaussianNb::fit(&x, &y);
        assert_classifier_batch_exact(&nb, &probes, "naive_bayes");
        for task in [MlpTask::Regression, MlpTask::Classification] {
            let mlp = Mlp::fit(
                &x,
                &y,
                MlpConfig { hidden: 6, epochs: 4, task, seed: 11, ..MlpConfig::default() },
            );
            assert_regressor_batch_exact(&mlp, &probes, "mlp");
            assert_classifier_batch_exact(&mlp, &probes, "mlp");
        }
    });
}
