//! Bit-identity harness for the unified explainer layer (DESIGN.md §9).
//!
//! Every `Explainer` implementation is driven through
//! `Explainer::explain` with a `RunConfig` sweeping workers ∈ {1, 2, 4}
//! and batched ∈ {off, on}, and the output is compared **bit-for-bit**
//! (`==` on `f64`s, no tolerance) against the free function that serves
//! that combination at the same seed: the sequential core at one worker
//! and the chunk-grid core above it, run over the game or model surface
//! that `batched` selects. `batched` must never change the bits.

use xai::prelude::*;
use xai::shapley::{
    exact_shapley, forest_shap, gbdt_shap, tree_expected_value, tree_shap, BatchPredictionGame,
    PredictionGame,
};
use xai_linalg::Matrix;
use xai_models::batch_from_scalar;

const WORKER_GRID: [usize; 3] = [1, 2, 4];

fn fixture() -> (Dataset, LogisticRegression) {
    let data = xai::data::synth::german_credit(120, 77);
    let model = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
    (data, model)
}

/// Small background matrix so the coalition sweeps stay fast.
fn background(data: &Dataset, rows: usize) -> Matrix {
    let rows: Vec<Vec<f64>> =
        (0..rows.min(data.n_rows())).map(|i| data.row(i).to_vec()).collect();
    Matrix::from_rows(&rows)
}

fn attribution(e: Explanation) -> FeatureAttribution {
    match e {
        Explanation::Attribution(a) => a,
        other => panic!("expected an attribution, got {other:?}"),
    }
}

#[test]
fn kernel_shap_matrix_is_bit_identical_to_every_legacy_twin() {
    let (data, model) = fixture();
    let bg = background(&data, 30);
    let row = data.row(3).to_vec();
    let f = proba_fn(&model);
    let fb = |m: &Matrix| {
        use xai_models::Classifier;
        model.proba_batch(m)
    };
    let cfg = KernelShapConfig { seed: 11, ..KernelShapConfig::default() };
    let method = KernelShapMethod { config: cfg };

    let scalar_game = PredictionGame::new(&f, &row, &bg);
    let batch_game = BatchPredictionGame::new(&fb, &row, &bg);
    for workers in WORKER_GRID {
        for batched in [false, true] {
            let game: &(dyn CooperativeGame + Sync) =
                if batched { &batch_game } else { &scalar_game };
            let legacy = if workers > 1 {
                xai::shapley::try_kernel_shap_grid(game, cfg, workers)
            } else {
                xai::shapley::try_kernel_shap(game, cfg)
            }
            .unwrap();
            let req = ExplainRequest::new(&data)
                .instance(&row)
                .background(&bg)
                .plan(RunConfig::seeded(11).with_workers(workers).with_batched(batched));
            let got = attribution(method.explain(&model, &req).unwrap());
            assert_eq!(
                got.values, legacy.phi,
                "kernel SHAP diverged at workers={workers} batched={batched}"
            );
            assert_eq!(got.baseline, legacy.base_value);
        }
    }
}

#[test]
fn permutation_shapley_matrix_and_budget_are_bit_identical() {
    let (data, model) = fixture();
    let bg = background(&data, 20);
    let row = data.row(5).to_vec();
    let f = proba_fn(&model);
    let fb = |m: &Matrix| {
        use xai_models::Classifier;
        model.proba_batch(m)
    };
    let perms = 24;
    let method = PermutationShapleyMethod { permutations: perms };

    let scalar_game = PredictionGame::new(&f, &row, &bg);
    let batch_game = BatchPredictionGame::new(&fb, &row, &bg);
    for workers in WORKER_GRID {
        for batched in [false, true] {
            let game: &(dyn CooperativeGame + Sync) =
                if batched { &batch_game } else { &scalar_game };
            let legacy = if workers > 1 {
                xai::shapley::try_permutation_shapley_grid(game, perms, 23, workers)
            } else {
                xai::shapley::try_permutation_shapley(game, perms, 23)
            }
            .unwrap();
            let req = ExplainRequest::new(&data)
                .instance(&row)
                .background(&bg)
                .plan(RunConfig::seeded(23).with_workers(workers).with_batched(batched));
            let got = attribution(method.explain(&model, &req).unwrap());
            assert_eq!(
                got.values, legacy.phi,
                "permutation Shapley diverged at workers={workers} batched={batched}"
            );
        }
    }

    // The budgeted path maps onto the budgeted prefix run (sequential
    // scalar only).
    let budget = SampleBudget::with_max_evals(60);
    let legacy =
        xai::shapley::try_permutation_shapley_budgeted(&scalar_game, perms, 23, budget).unwrap();
    let req = ExplainRequest::new(&data)
        .instance(&row)
        .background(&bg)
        .plan(RunConfig::seeded(23).with_budget(budget));
    let got = attribution(method.explain(&model, &req).unwrap());
    assert_eq!(got.values, legacy.phi);
}

#[test]
fn exact_shapley_is_plan_invariant_and_matches_enumeration() {
    let (data, model) = fixture();
    let bg = background(&data, 12);
    let row = data.row(2).to_vec();
    let f = proba_fn(&model);
    let game = PredictionGame::new(&f, &row, &bg);
    let legacy = exact_shapley(&game);

    for workers in WORKER_GRID {
        for batched in [false, true] {
            let req = ExplainRequest::new(&data)
                .instance(&row)
                .background(&bg)
                .plan(RunConfig::seeded(1).with_workers(workers).with_batched(batched));
            let got = attribution(ExactShapleyMethod.explain(&model, &req).unwrap());
            assert_eq!(got.values, legacy, "exact Shapley must ignore the execution plan");
        }
    }
}

#[test]
fn tree_shap_matches_the_structural_walk_for_all_three_model_shapes() {
    let (data, _) = fixture();
    let row = data.row(7).to_vec();
    let req = ExplainRequest::new(&data).instance(&row).plan(RunConfig::seeded(3));

    let tree = DecisionTree::fit(data.x(), data.y(), TreeConfig::default());
    let got = attribution(TreeShapMethod.explain(&tree, &req).unwrap());
    assert_eq!(got.values, tree_shap(&tree, &row));
    assert_eq!(got.baseline, tree_expected_value(&tree));

    let forest = RandomForest::fit(data.x(), data.y(), Default::default());
    let got = attribution(TreeShapMethod.explain(&forest, &req).unwrap());
    let legacy = forest_shap(&forest, &row);
    assert_eq!(got.values, legacy.phi);

    let gbdt = Gbdt::fit(data.x(), data.y(), GbdtConfig::default());
    let got = attribution(TreeShapMethod.explain(&gbdt, &req).unwrap());
    let legacy = gbdt_shap(&gbdt, &row);
    assert_eq!(got.values, legacy.phi);
    assert_eq!(got.baseline, legacy.expected_value);
}

#[test]
fn lime_and_sp_lime_match_their_legacy_entry_points() {
    let (data, model) = fixture();
    let row = data.row(9).to_vec();
    let cfg = LimeConfig { n_samples: 120, ..LimeConfig::default() };
    let explainer = LimeExplainer::fit(&data);
    let f = proba_fn(&model);
    let fb = |m: &Matrix| {
        use xai_models::Classifier;
        model.proba_batch(m)
    };

    let scalar = batch_from_scalar(&f);
    let mut scalar_runs = Vec::new();
    for batched in [false, true] {
        let surface: &(dyn Fn(&Matrix) -> Vec<f64> + Sync) = if batched { &fb } else { &scalar };
        // One worker reproduces the one-stream sequential core; more take
        // the chunk grid (a different draw schedule), which must be
        // worker-count invariant. `batched` picks only the model surface,
        // so it never changes the bits.
        let mut grid_runs = Vec::new();
        for (i, workers) in WORKER_GRID.into_iter().enumerate() {
            let legacy = if workers > 1 {
                explainer.try_explain_grid(surface, &row, cfg, 31, workers)
            } else {
                explainer.try_explain(surface, &row, cfg, 31)
            }
            .unwrap();
            let req = ExplainRequest::new(&data)
                .instance(&row)
                .plan(RunConfig::seeded(31).with_workers(workers).with_batched(batched));
            let got =
                attribution(LimeMethod { config: cfg }.explain(&model, &req).unwrap());
            assert_eq!(
                got.values, legacy.attribution.values,
                "workers={workers} batched={batched}"
            );
            if batched {
                assert_eq!(got.values, scalar_runs[i], "batched changed bits at workers={workers}");
            } else {
                scalar_runs.push(got.values.clone());
            }
            if workers > 1 {
                grid_runs.push(got.values);
            }
        }
        for w in grid_runs.windows(2) {
            assert_eq!(w[0], w[1], "grid LIME must be worker-count invariant");
        }
    }

    let pick = xai::surrogate::sp_lime(&explainer, &f, &data, 20, 4, cfg, 31);
    let method = SpLimeMethod { n_candidates: 20, picks: 4, config: cfg };
    let req = ExplainRequest::new(&data).plan(RunConfig::seeded(31));
    let got = attribution(method.explain(&model, &req).unwrap());
    assert_eq!(got.values, pick.feature_importance);
}

#[test]
fn pdp_curves_match_the_legacy_functions_in_both_modes() {
    let (data, model) = fixture();
    let f = proba_fn(&model);
    let fb = |m: &Matrix| {
        use xai_models::Classifier;
        model.proba_batch(m)
    };
    let method = PdpMethod { points: 8, max_rows: 60, keep_ice: true };
    let grid = xai::surrogate::feature_grid(&data, 1, 8);

    let scalar = batch_from_scalar(&f);
    for batched in [false, true] {
        let surface: &dyn Fn(&Matrix) -> Vec<f64> = if batched { &fb } else { &scalar };
        let legacy =
            xai::surrogate::try_partial_dependence(surface, &data, 1, &grid, 60, true).unwrap();
        let req = ExplainRequest::new(&data)
            .feature(1)
            .plan(RunConfig::seeded(0).with_batched(batched));
        let got = method.explain(&model, &req).unwrap();
        let curve = match got {
            Explanation::Curve(c) => c,
            other => panic!("expected a curve, got {other:?}"),
        };
        assert_eq!(curve.grid, legacy.grid, "batched={batched}");
        assert_eq!(curve.values, legacy.pdp, "batched={batched}");
        assert_eq!(curve.ice, legacy.ice, "batched={batched}");
    }
}

#[test]
fn integrated_gradients_matches_the_saliency_path_integral() {
    let (data, model) = fixture();
    let row = data.row(4).to_vec();

    struct Adapter<'a>(&'a LogisticRegression);
    impl xai::surrogate::Differentiable for Adapter<'_> {
        fn output(&self, x: &[f64]) -> f64 {
            ModelOracle::predict(self.0, x)
        }
        fn input_gradient(&self, x: &[f64]) -> Vec<f64> {
            ModelOracle::gradient(self.0, x).unwrap()
        }
    }

    let baseline: Vec<f64> = (0..data.x().cols())
        .map(|j| {
            let col = data.x().col(j);
            col.iter().sum::<f64>() / col.len() as f64
        })
        .collect();
    let legacy =
        xai::surrogate::integrated_gradients(&Adapter(&model), &row, &baseline, 32);
    for workers in WORKER_GRID {
        let req = ExplainRequest::new(&data)
            .instance(&row)
            .plan(RunConfig::seeded(0).with_workers(workers));
        let got = attribution(
            IntegratedGradientsMethod { steps: 32 }.explain(&model, &req).unwrap(),
        );
        assert_eq!(got.values, legacy.values, "IG must ignore the worker count");
    }
}

#[test]
fn counterfactual_searches_match_their_legacy_twins_across_workers() {
    let (data, model) = fixture();
    use xai_models::Classifier;
    let row = (0..data.n_rows())
        .map(|i| data.row(i))
        .find(|r| model.proba_one(r) < 0.5)
        .expect("a rejected applicant exists")
        .to_vec();
    let f = proba_fn(&model);

    // Wachter: deterministic descent, plan-invariant.
    let w = xai::counterfactual::try_wachter_counterfactual(
        &model,
        &data,
        &row,
        Default::default(),
    )
    .unwrap();
    for workers in WORKER_GRID {
        let req = ExplainRequest::new(&data)
            .instance(&row)
            .plan(RunConfig::seeded(2).with_workers(workers));
        let got = WachterMethod::default().explain(&model, &req).unwrap();
        assert_eq!(got.as_counterfactuals().unwrap()[0].counterfactual, w.counterfactual);
    }

    // GeCo and DiCE: workers > 1 maps onto the parallel multi-start grids.
    let plaf = Plaf::from_schema(&data);
    let dice = DiceExplainer::fit(&data);
    for workers in WORKER_GRID {
        let geco_legacy = if workers > 1 {
            xai::counterfactual::try_geco_parallel(
                &f,
                &data,
                &row,
                &plaf,
                GecoConfig::default(),
                6,
                4,
                workers,
            )
            .unwrap()
        } else {
            xai::counterfactual::try_geco(&f, &data, &row, &plaf, GecoConfig::default(), 6)
                .unwrap()
        };
        let req = ExplainRequest::new(&data)
            .instance(&row)
            .plan(RunConfig::seeded(6).with_workers(workers));
        let got = GecoMethod::default().explain(&model, &req).unwrap();
        assert_eq!(
            got.as_counterfactuals().unwrap()[0].counterfactual,
            geco_legacy.counterfactual,
            "GeCo diverged at workers={workers}"
        );

        // workers > 1 now dispatches to the shardable pooled search.
        let dice_legacy = if workers > 1 {
            dice.try_generate_pool(&f, &row, DiceConfig::default(), 6, workers).unwrap()
        } else {
            dice.try_generate(&f, &row, DiceConfig::default(), 6).unwrap()
        };
        let got = DiceMethod::default().explain(&model, &req).unwrap();
        let got_cfs = got.as_counterfactuals().unwrap();
        assert_eq!(got_cfs.len(), dice_legacy.len(), "DiCE diverged at workers={workers}");
        for (a, b) in got_cfs.iter().zip(&dice_legacy) {
            assert_eq!(a.counterfactual, b.counterfactual);
        }
    }
}

#[test]
fn rule_methods_match_their_legacy_entry_points() {
    let (data, model) = fixture();
    let row = data.row(0).to_vec();
    let f = proba_fn(&model);

    let anchors = AnchorsExplainer::fit(&data);
    let legacy = anchors.explain(&batch_from_scalar(&f), &row, AnchorsConfig::default(), 13);
    let req = ExplainRequest::new(&data).instance(&row).plan(RunConfig::seeded(13));
    let got = AnchorsMethod::default().explain(&model, &req).unwrap();
    assert_eq!(got.as_rules().unwrap(), std::slice::from_ref(&legacy));

    use xai_models::Classifier;
    let labels: Vec<f64> = (0..data.n_rows())
        .map(|i| f64::from(model.proba_one(data.row(i)) >= 0.5))
        .collect();
    let ds = DecisionSet::fit(&data, &labels, IdsConfig::default());
    let got = DecisionSetMethod::default().explain(&model, &req).unwrap();
    assert_eq!(got.as_rules().unwrap().len(), ds.rules().len());
}

#[test]
fn valuation_methods_match_their_legacy_twins_across_workers() {
    let data = xai::data::synth::german_credit(40, 77);
    let model = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
    let test = xai::data::synth::german_credit(20, 78);
    let utility = xai::datavalue::KnnUtility::new(&data, &test, 3);

    for workers in WORKER_GRID {
        let req = ExplainRequest::new(&data)
            .utility(&utility)
            .plan(RunConfig::seeded(19).with_workers(workers));

        let legacy = if workers > 1 {
            xai::datavalue::try_leave_one_out_parallel(&utility, workers).unwrap()
        } else {
            xai::datavalue::leave_one_out(&utility)
        };
        let got = LooMethod.explain(&model, &req).unwrap();
        assert_eq!(got.as_valuation().unwrap().values, legacy.values);

        let tmc_cfg = TmcConfig { permutations: 6, seed: 19, ..TmcConfig::default() };
        let legacy = if workers > 1 {
            xai::datavalue::try_tmc_shapley_parallel(&utility, tmc_cfg, workers).unwrap()
        } else {
            tmc_shapley(&utility, tmc_cfg).attribution
        };
        let got = TmcMethod { config: tmc_cfg }.explain(&model, &req).unwrap();
        assert_eq!(
            got.as_valuation().unwrap().values,
            legacy.values,
            "TMC diverged at workers={workers}"
        );

        let bz_cfg = xai::datavalue::BanzhafConfig { samples_per_point: 8, seed: 19 };
        let legacy = if workers > 1 {
            xai::datavalue::try_data_banzhaf_parallel(&utility, bz_cfg, workers).unwrap()
        } else {
            xai::datavalue::data_banzhaf(&utility, bz_cfg)
        };
        let got = BanzhafMethod { config: bz_cfg }.explain(&model, &req).unwrap();
        assert_eq!(
            got.as_valuation().unwrap().values,
            legacy.values,
            "Banzhaf diverged at workers={workers}"
        );
    }
}

#[test]
fn complaint_debugging_matches_the_legacy_influence_ranking() {
    let (data, model) = fixture();
    let query = xai::provenance::PredicateCountQuery::new(&data, |_| true);
    let legacy = xai::provenance::complaint_influence(
        &model,
        &data,
        &query,
        xai::provenance::Complaint::TooHigh,
    );
    for workers in WORKER_GRID {
        let req = ExplainRequest::new(&data).plan(RunConfig::seeded(0).with_workers(workers));
        let got = ComplaintMethod::default().explain(&model, &req).unwrap();
        assert_eq!(got.as_valuation().unwrap().values, legacy.values);
    }
}
