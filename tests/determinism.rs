//! End-to-end determinism guarantees.
//!
//! Every sampling-based explainer in the workspace must be a pure function
//! of its seed: run twice with the same seed, it produces bit-identical
//! output. The parallel estimators carry a stronger guarantee — their
//! output is also independent of the worker count, because work is split
//! into a fixed chunk grid with `child_seed`-derived streams and reduced
//! in chunk order (see `xai_rand::parallel`).

use xai_counterfactual::{geco, try_geco_parallel, DiceConfig, DiceExplainer, GecoConfig, Plaf};
use xai_data::synth::german_credit;
use xai_datavalue::{
    data_banzhaf, tmc_shapley, try_data_banzhaf_parallel, try_tmc_shapley_parallel,
    BanzhafConfig, FnUtility, TmcConfig,
};
use xai_models::{proba_fn, LogisticConfig, LogisticRegression};
use xai_shapley::{
    kernel_shap, permutation_shapley, try_kernel_shap_grid, try_permutation_shapley_grid,
    KernelShapConfig, PredictionGame, TableGame,
};

fn model_game() -> (xai_data::Dataset, LogisticRegression) {
    let data = german_credit(150, 5);
    let model = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
    (data, model)
}

#[test]
fn permutation_shapley_is_seed_stable() {
    let (data, model) = model_game();
    let f = proba_fn(&model);
    let background = xai_linalg::Matrix::from_fn(8, data.n_features(), |i, j| data.x()[(i, j)]);
    let instance: Vec<f64> = data.row(11).to_vec();
    let game = PredictionGame::new(&f, &instance, &background);
    let a = permutation_shapley(&game, 60, 5);
    let b = permutation_shapley(&game, 60, 5);
    assert_eq!(a.phi, b.phi);
    assert_eq!(a.std_err, b.std_err);
}

#[test]
fn parallel_shapley_estimators_are_worker_count_invariant() {
    let (data, model) = model_game();
    let f = proba_fn(&model);
    let background = xai_linalg::Matrix::from_fn(8, data.n_features(), |i, j| data.x()[(i, j)]);
    let instance: Vec<f64> = data.row(11).to_vec();
    let game = PredictionGame::new(&f, &instance, &background);

    let p1 = try_permutation_shapley_grid(&game, 80, 5, 1).unwrap();
    let p4 = try_permutation_shapley_grid(&game, 80, 5, 4).unwrap();
    assert_eq!(p1.phi, p4.phi, "permutation sampling must not depend on workers");
    assert_eq!(p1.std_err, p4.std_err);

    let big = TableGame::new(
        12,
        (0..1usize << 12).map(|m| (m.count_ones() as f64).sqrt()).collect(),
    );
    let cfg = KernelShapConfig { max_coalitions: 256, ..Default::default() };
    let k1 = try_kernel_shap_grid(&big, cfg, 1).unwrap();
    let k4 = try_kernel_shap_grid(&big, cfg, 4).unwrap();
    assert!(!k1.exact, "budget forces sampling mode");
    assert_eq!(k1.phi, k4.phi, "kernel SHAP sampling must not depend on workers");
}

#[test]
fn sequential_kernel_shap_is_seed_stable() {
    let game = TableGame::new(
        12,
        (0..1usize << 12).map(|m| f64::from(m.count_ones() >= 6)).collect(),
    );
    let cfg = KernelShapConfig { max_coalitions: 200, ..Default::default() };
    let a = kernel_shap(&game, cfg);
    let b = kernel_shap(&game, cfg);
    assert_eq!(a.phi, b.phi);
}

fn utility() -> FnUtility<impl Fn(&[usize]) -> f64> {
    FnUtility::new(9, |s: &[usize]| {
        s.iter().map(|&i| (i + 1) as f64 * 0.07).sum::<f64>()
            + f64::from(s.contains(&2) && s.contains(&7)) * 0.3
    })
}

#[test]
fn data_shapley_and_banzhaf_are_seed_stable() {
    let u = utility();
    let cfg = TmcConfig { permutations: 40, truncation_tolerance: 0.0, seed: 13 };
    assert_eq!(tmc_shapley(&u, cfg).attribution.values, tmc_shapley(&u, cfg).attribution.values);
    let bcfg = BanzhafConfig { samples_per_point: 50, seed: 13 };
    assert_eq!(data_banzhaf(&u, bcfg).values, data_banzhaf(&u, bcfg).values);
}

#[test]
fn parallel_valuation_is_worker_count_invariant() {
    let u = utility();
    let cfg = TmcConfig { permutations: 48, truncation_tolerance: 0.0, seed: 17 };
    let t1 = try_tmc_shapley_parallel(&u, cfg, 1).unwrap();
    let t4 = try_tmc_shapley_parallel(&u, cfg, 4).unwrap();
    assert_eq!(t1.values, t4.values, "TMC Shapley must not depend on workers");

    let bcfg = BanzhafConfig { samples_per_point: 40, seed: 17 };
    let b1 = try_data_banzhaf_parallel(&u, bcfg, 1).unwrap();
    let b4 = try_data_banzhaf_parallel(&u, bcfg, 4).unwrap();
    assert_eq!(b1.values, b4.values, "Banzhaf must not depend on workers");
}

#[test]
fn geco_is_seed_stable_and_parallel_geco_worker_invariant() {
    let data = german_credit(200, 23);
    let model = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
    let f = proba_fn(&model);
    let plaf = Plaf::from_schema(&data);
    let config = GecoConfig { population: 24, generations: 6, ..GecoConfig::default() };
    let instance = data.row(7);

    let a = geco(&f, &data, instance, &plaf, config, 31);
    let b = geco(&f, &data, instance, &plaf, config, 31);
    assert_eq!(
        a.as_ref().map(|c| c.counterfactual.clone()),
        b.as_ref().map(|c| c.counterfactual.clone()),
        "same seed, same counterfactual"
    );

    let p1 = try_geco_parallel(&f, &data, instance, &plaf, config, 31, 3, 1);
    let p4 = try_geco_parallel(&f, &data, instance, &plaf, config, 31, 3, 4);
    assert_eq!(
        p1.ok().map(|c| c.counterfactual),
        p4.ok().map(|c| c.counterfactual),
        "multi-start GeCo must not depend on workers"
    );
}

#[test]
fn dice_parallel_restarts_are_worker_count_invariant() {
    let data = german_credit(200, 29);
    let model = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
    let f = proba_fn(&model);
    let dice = DiceExplainer::fit(&data);
    let config = DiceConfig { k: 2, iterations: 60, restarts: 3, ..DiceConfig::default() };

    // The pooled search is DiCE's parallel grid (what `workers > 1` runs).
    let w1 = dice.try_generate_pool(&f, data.row(5), config, 41, 1).unwrap();
    let w4 = dice.try_generate_pool(&f, data.row(5), config, 41, 4).unwrap();
    let rows = |cfs: &[xai_core::Counterfactual]| -> Vec<Vec<f64>> {
        cfs.iter().map(|c| c.counterfactual.clone()).collect()
    };
    assert_eq!(rows(&w1), rows(&w4), "DiCE restarts must not depend on workers");

    let again = dice.try_generate_pool(&f, data.row(5), config, 41, 4).unwrap();
    assert_eq!(rows(&w4), rows(&again), "same seed, same counterfactual set");
}
