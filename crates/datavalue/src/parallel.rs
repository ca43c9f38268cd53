//! Parallel Monte-Carlo data valuation on the `xai_rand` executor.
//!
//! Permutation walks (TMC-Shapley) and per-point coalition draws (Banzhaf)
//! are embarrassingly parallel. Both entry points here inherit the
//! executor's determinism invariant: every chunk of work draws from a
//! [`xai_rand::child_seed`]-derived stream and partials are reduced in
//! chunk order, so the output is a pure function of the seed —
//! bit-identical across runs *and across worker counts*.

use crate::banzhaf::BanzhafConfig;
use crate::data_shapley::TmcConfig;
use crate::utility::{check_finite_values, Utility};
use xai_core::{catch_model, DataAttribution, XaiError, XaiResult};
use xai_rand::parallel::{sum_partials, try_par_map_chunks, try_par_map_seeded};
use xai_rand::rngs::StdRng;
use xai_rand::seq::SliceRandom;
use xai_rand::Rng;

/// Permutations per executor task. Fixed (never derived from the worker
/// count) so the chunk grid — and hence the result — is worker-invariant.
pub(crate) const PERMS_PER_CHUNK: usize = 16;

/// Evaluates and validates the TMC truncation endpoints `U(D)` and
/// `U(∅)`. Shared by the in-process parallel grid and the shard layer so
/// both reject a faulty utility with the same typed error.
pub(crate) fn tmc_endpoints(utility: &dyn Utility) -> XaiResult<(f64, f64)> {
    let n = utility.n_train();
    let all: Vec<usize> = (0..n).collect();
    let (full_score, empty_score) = catch_model("TMC endpoint evaluation", || {
        (utility.eval(&all), utility.eval(&[]))
    })?;
    if !full_score.is_finite() || !empty_score.is_finite() {
        return Err(XaiError::ModelFault {
            context: format!("TMC endpoints: U(D) = {full_score}, U(∅) = {empty_score}"),
        });
    }
    Ok((full_score, empty_score))
}

/// One executor chunk of TMC permutation walks: `count` truncated
/// permutations drawn from `rng`, accumulated into per-point marginal
/// sums. The single source of the chunk body — the parallel grid and the
/// shard layer both call this, which is what makes sharded partials merge
/// bit-identically.
pub(crate) fn tmc_chunk_sums(
    utility: &dyn Utility,
    config: TmcConfig,
    count: usize,
    full_score: f64,
    empty_score: f64,
    rng: &mut StdRng,
) -> Vec<f64> {
    let n = utility.n_train();
    let mut sums = vec![0.0; n];
    let mut perm: Vec<usize> = (0..n).collect();
    let mut prefix: Vec<usize> = Vec::with_capacity(n);
    for _ in 0..count {
        perm.shuffle(rng);
        prefix.clear();
        let mut prev = empty_score;
        for &point in &perm {
            if (full_score - prev).abs() < config.truncation_tolerance {
                break;
            }
            prefix.push(point);
            let cur = utility.eval(&prefix);
            sums[point] += cur - prev;
            prev = cur;
        }
    }
    sums
}

/// Reduces ordered per-chunk marginal sums to the final TMC attribution:
/// left-fold in chunk order, divide by the permutation count, reject
/// non-finite values. Shared epilogue of the parallel grid and the shard
/// merge.
pub(crate) fn tmc_finish(
    partials: Vec<Vec<f64>>,
    permutations: usize,
    workers: usize,
) -> XaiResult<DataAttribution> {
    let m = permutations as f64;
    let mut values = sum_partials(partials);
    for v in &mut values {
        *v /= m;
    }
    // Any non-finite utility score poisons its point's sum (NaN/±Inf are
    // absorbing under +), so checking the reduced values suffices.
    check_finite_values(&values, "parallel TMC data Shapley")?;
    Ok(DataAttribution { values, measure: format!("TMC data Shapley ({workers} workers)") })
}

/// One executor task of data Banzhaf: all coalition draws for training
/// point `i` from stream `rng`, averaged. Shared by the parallel grid and
/// the shard layer (one shard chunk per point).
pub(crate) fn banzhaf_point(
    utility: &dyn Utility,
    config: BanzhafConfig,
    i: usize,
    rng: &mut StdRng,
) -> f64 {
    let n = utility.n_train();
    let mut acc = 0.0;
    let mut base: Vec<usize> = Vec::with_capacity(n);
    for _ in 0..config.samples_per_point {
        base.clear();
        for j in 0..n {
            if j != i && rng.gen::<bool>() {
                base.push(j);
            }
        }
        let without = utility.eval(&base);
        base.push(i);
        let with = utility.eval(&base);
        acc += with - without;
    }
    acc / config.samples_per_point as f64
}

/// Validates per-point Banzhaf values and stamps the measure string.
/// Shared epilogue of the parallel grid and the shard merge.
pub(crate) fn banzhaf_finish(values: Vec<f64>, workers: usize) -> XaiResult<DataAttribution> {
    check_finite_values(&values, "parallel data Banzhaf")?;
    Ok(DataAttribution { values, measure: format!("data Banzhaf ({workers} workers)") })
}

/// Runs TMC-Shapley with the permutation walks spread across `workers`
/// threads. The estimate is bit-identical for a fixed `config.seed`
/// regardless of `workers` (see module docs); it converges to the same
/// estimand as the sequential `tmc_shapley`.
///
/// A panic inside a worker chunk yields [`XaiError::WorkerPanic`] naming
/// the lowest-indexed panicking chunk (worker-count invariant); non-finite
/// utility scores yield [`XaiError::ModelFault`].
pub fn try_tmc_shapley_parallel<U: Utility + Sync>(
    utility: &U,
    config: TmcConfig,
    workers: usize,
) -> XaiResult<DataAttribution> {
    assert!(workers >= 1);
    assert!(config.permutations >= 1, "need at least one permutation");
    let (full_score, empty_score) = tmc_endpoints(utility)?;

    let partials = try_par_map_chunks(
        config.permutations,
        PERMS_PER_CHUNK,
        config.seed,
        workers,
        |_chunk, range, rng| {
            tmc_chunk_sums(utility, config, range.len(), full_score, empty_score, rng)
        },
    )
    .map_err(XaiError::from)?;

    tmc_finish(partials, config.permutations, workers)
}

/// Monte-Carlo data Banzhaf with one executor task per training point.
///
/// Point `i` draws its coalitions from stream `child_seed(seed, i)`, so the
/// result is deterministic and worker-invariant (though it differs from the
/// single-stream sequential `data_banzhaf` draw-for-draw — both are
/// unbiased estimates of the same semivalue).
///
/// A panic inside a worker task yields [`XaiError::WorkerPanic`] naming
/// the lowest-indexed panicking task (worker-count invariant); non-finite
/// utility scores yield [`XaiError::ModelFault`].
pub fn try_data_banzhaf_parallel<U: Utility + Sync>(
    utility: &U,
    config: BanzhafConfig,
    workers: usize,
) -> XaiResult<DataAttribution> {
    assert!(workers >= 1);
    assert!(config.samples_per_point >= 1);
    let n = utility.n_train();
    let values =
        try_par_map_seeded(n, config.seed, workers, |i, rng| banzhaf_point(utility, config, i, rng))
            .map_err(XaiError::from)?;
    banzhaf_finish(values, workers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::banzhaf::exact_data_banzhaf;
    use crate::data_shapley::tmc_shapley;
    use crate::loo::exact_data_shapley;
    use crate::utility::FnUtility;

    fn game() -> FnUtility<impl Fn(&[usize]) -> f64> {
        FnUtility::new(8, |s: &[usize]| {
            s.iter().map(|&i| (i + 1) as f64 * 0.1).sum::<f64>()
                + f64::from(s.contains(&1) && s.contains(&6)) * 0.4
        })
    }

    #[test]
    fn parallel_matches_exact() {
        let u = game();
        let exact = exact_data_shapley(&u);
        let par = try_tmc_shapley_parallel(
            &u,
            TmcConfig { permutations: 4000, truncation_tolerance: 0.0, seed: 3 },
            4,
        )
        .unwrap();
        for (a, b) in par.values.iter().zip(&exact.values) {
            assert!((a - b).abs() < 0.03, "{a} vs {b}");
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let u = game();
        let cfg = TmcConfig { permutations: 64, truncation_tolerance: 0.0, seed: 9 };
        let a = try_tmc_shapley_parallel(&u, cfg, 3).unwrap();
        let b = try_tmc_shapley_parallel(&u, cfg, 3).unwrap();
        assert_eq!(a.values, b.values);
    }

    #[test]
    fn worker_count_does_not_change_the_result_at_all() {
        // Stronger than "same estimand": the chunk grid is fixed, so any
        // worker count reproduces the exact same floating-point output.
        let u = game();
        let cfg = TmcConfig { permutations: 96, truncation_tolerance: 0.0, seed: 11 };
        let one = try_tmc_shapley_parallel(&u, cfg, 1).unwrap();
        for workers in [2, 4, 8] {
            let w = try_tmc_shapley_parallel(&u, cfg, workers).unwrap();
            assert_eq!(one.values, w.values, "workers={workers} diverged");
        }
    }

    #[test]
    fn single_worker_agrees_with_sequential_estimator_statistically() {
        // Different RNG streams, same estimand: totals (efficiency) agree
        // exactly, values agree within Monte-Carlo error.
        let u = game();
        let cfg = TmcConfig { permutations: 3000, truncation_tolerance: 0.0, seed: 5 };
        let seq = tmc_shapley(&u, cfg);
        let par = try_tmc_shapley_parallel(&u, cfg, 1).unwrap();
        let sum_seq: f64 = seq.attribution.values.iter().sum();
        let sum_par: f64 = par.values.iter().sum();
        assert!((sum_seq - sum_par).abs() < 1e-9, "efficiency is exact in both");
        for (a, b) in par.values.iter().zip(&seq.attribution.values) {
            assert!((a - b).abs() < 0.05, "{a} vs {b}");
        }
    }

    #[test]
    fn parallel_banzhaf_converges_and_is_worker_invariant() {
        let u = game();
        let cfg = BanzhafConfig { samples_per_point: 2000, seed: 7 };
        let exact = exact_data_banzhaf(&u);
        let p1 = try_data_banzhaf_parallel(&u, cfg, 1).unwrap();
        let p4 = try_data_banzhaf_parallel(&u, cfg, 4).unwrap();
        assert_eq!(p1.values, p4.values, "worker count changed the draw");
        for (a, b) in p1.values.iter().zip(&exact.values) {
            assert!((a - b).abs() < 0.05, "{a} vs {b}");
        }
    }
}
