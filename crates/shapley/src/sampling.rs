//! Monte-Carlo Shapley estimation by permutation sampling.
//!
//! The classic unbiased estimator (Castro et al.; the engine behind
//! Quantitative Input Influence's Shapley variant, §2.1.2 \[14\]): draw a
//! random feature ordering, walk it, and record each player's marginal
//! contribution when it joins. Cost per permutation is `n + 1` game
//! evaluations; the estimate converges at the Monte-Carlo `1/√m` rate —
//! experiment E2's subject.
//!
//! The estimator has one sequential core ([`try_permutation_shapley`]) and
//! one chunk-grid core ([`try_permutation_shapley_grid`]), plus the
//! budgeted prefix run. Both cores draw a round of permutations up front
//! and evaluate all of its walk coalitions through one
//! [`CooperativeGame::values`] call, so the game alone decides whether a
//! round is a scalar row loop or one batched model call; the bits are the
//! same either way.

use crate::game::{random_permutation, CooperativeGame};
use xai_core::{catch_model, SampleBudget, XaiError, XaiResult};
use xai_rand::parallel::{sum_partials, try_par_map_chunks};
use xai_rand::rngs::StdRng;
use xai_rand::SeedableRng;

/// Result of a permutation-sampling run.
#[derive(Clone, Debug)]
pub struct SampledShapley {
    /// The Shapley estimates.
    pub phi: Vec<f64>,
    /// Per-player standard error estimates (σ̂/√m).
    pub std_err: Vec<f64>,
    /// Number of permutations drawn.
    pub permutations: usize,
}

/// Estimates Shapley values from `permutations` random orderings.
///
/// # Panics
/// Panics when the game evaluates to non-finite values or panics itself;
/// use [`try_permutation_shapley`] for typed errors.
pub fn permutation_shapley(
    game: &dyn CooperativeGame,
    permutations: usize,
    seed: u64,
) -> SampledShapley {
    try_permutation_shapley(game, permutations, seed)
        .expect("permutation Shapley failed; try_permutation_shapley recovers this")
}

/// Fallible twin of [`permutation_shapley`]: a game that panics or
/// produces non-finite values yields [`XaiError::ModelFault`] instead of
/// unwinding or leaking NaN into the estimate.
///
/// Permutations are processed in rounds of [`PERMS_PER_CHUNK`], each
/// round's walk coalitions evaluated in a single
/// [`CooperativeGame::values`] call. The walks consume no randomness, so
/// drawing a round's permutations up front leaves the RNG stream identical
/// to the interleaved walk of [`try_permutation_shapley_budgeted`] — at
/// the same seed the two are bit-identical.
pub fn try_permutation_shapley(
    game: &dyn CooperativeGame,
    permutations: usize,
    seed: u64,
) -> XaiResult<SampledShapley> {
    assert!(permutations > 0, "need at least one permutation");
    let n = game.n_players();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sum = vec![0.0; n];
    let mut sum_sq = vec![0.0; n];
    let mut done = 0;
    while done < permutations {
        let round = PERMS_PER_CHUNK.min(permutations - done);
        let perms: Vec<Vec<usize>> =
            (0..round).map(|_| random_permutation(&mut rng, n)).collect();
        catch_model("permutation Shapley walk evaluation", || {
            walk_round(game, &perms, n, &mut sum, &mut sum_sq);
        })?;
        done += round;
    }
    check_sampled_sums(&sum)?;
    Ok(finish_sampled(sum, sum_sq, permutations))
}

/// One fallible permutation walk: evaluates the `n + 1` walk coalitions
/// under panic isolation and returns the per-player marginals (each
/// player joins exactly once, so accumulation order within a walk cannot
/// change the sums).
fn try_walk(
    game: &dyn CooperativeGame,
    perm: &[usize],
    coalition: &mut [bool],
) -> XaiResult<Vec<f64>> {
    let n = coalition.len();
    let marginals = catch_model("permutation Shapley walk evaluation", || {
        coalition.iter_mut().for_each(|c| *c = false);
        let mut prev = game.value(coalition);
        let mut marg = vec![0.0; n];
        for &player in perm {
            coalition[player] = true;
            let cur = game.value(coalition);
            marg[player] = cur - prev;
            prev = cur;
        }
        marg
    })?;
    if let Some(p) = marginals.iter().position(|m| !m.is_finite()) {
        return Err(XaiError::ModelFault {
            context: format!("permutation Shapley walk produced marginal {} for player {p}", marginals[p]),
        });
    }
    Ok(marginals)
}

/// Budget-aware fallible permutation sampling: stops drawing walks once
/// `budget` is exhausted (each walk costs `n + 1` evaluations) and
/// returns the **best-effort partial estimate** from the walks that did
/// complete — `result.permutations` reports how many that was. Fails with
/// [`XaiError::BudgetExceeded`] only when the budget expires before the
/// first walk. With an eval cap the truncation point is deterministic;
/// with a wall-clock deadline it is machine-dependent.
pub fn try_permutation_shapley_budgeted(
    game: &dyn CooperativeGame,
    permutations: usize,
    seed: u64,
    budget: SampleBudget,
) -> XaiResult<SampledShapley> {
    assert!(permutations > 0, "need at least one permutation");
    let n = game.n_players();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sum = vec![0.0; n];
    let mut sum_sq = vec![0.0; n];
    let mut coalition = vec![false; n];
    let mut meter = budget.start();
    let mut done = 0;
    for _ in 0..permutations {
        if meter.exhausted() {
            break;
        }
        let perm = random_permutation(&mut rng, n);
        let marginals = try_walk(game, &perm, &mut coalition)?;
        for (player, &m) in marginals.iter().enumerate() {
            sum[player] += m;
            sum_sq[player] += m * m;
        }
        meter.record(n + 1);
        done += 1;
    }
    if done == 0 {
        return Err(XaiError::BudgetExceeded {
            context: "permutation Shapley: budget expired before the first walk".into(),
            completed: 0,
        });
    }
    Ok(finish_sampled(sum, sum_sq, done))
}

/// Permutations per chunk of [`try_permutation_shapley_grid`], and the
/// round size of the sequential core. Fixed (never derived from the worker
/// count) so the chunk grid — and hence the floating-point output — is
/// worker-invariant.
pub(crate) const PERMS_PER_CHUNK: usize = 16;

/// One chunk of the grid: draws `count` permutations from the chunk's RNG
/// stream, walks them in one [`CooperativeGame::values`] round, and
/// returns the chunk-local `(sum, sum_sq)` marginal accumulators. The
/// single chunk body of [`try_permutation_shapley_grid`] and of the shard
/// executor (DESIGN.md §11), so both produce bit-identical partials for
/// the same chunk.
pub(crate) fn chunk_sums(
    game: &dyn CooperativeGame,
    count: usize,
    rng: &mut StdRng,
) -> (Vec<f64>, Vec<f64>) {
    let n = game.n_players();
    let mut sum = vec![0.0; n];
    let mut sum_sq = vec![0.0; n];
    let perms: Vec<Vec<usize>> = (0..count).map(|_| random_permutation(rng, n)).collect();
    walk_round(game, &perms, n, &mut sum, &mut sum_sq);
    (sum, sum_sq)
}

/// Folds ordered per-chunk `(sum, sum_sq)` partials and finishes the
/// estimate — the shared merge epilogue of the grid and shard paths.
pub(crate) fn merge_chunk_sums(
    partials: Vec<(Vec<f64>, Vec<f64>)>,
    permutations: usize,
) -> XaiResult<SampledShapley> {
    let (sums, sums_sq): (Vec<_>, Vec<_>) = partials.into_iter().unzip();
    let sum = sum_partials(sums);
    let sum_sq = sum_partials(sums_sq);
    check_sampled_sums(&sum)?;
    Ok(finish_sampled(sum, sum_sq, permutations))
}

/// Materializes the `n + 1` walk coalitions of each permutation in a
/// round — `[∅, {p₀}, {p₀,p₁}, …, N]` — as one coalition list for a
/// single [`CooperativeGame::values`] call, then replays the walks against
/// the returned values. Accumulation runs perm-by-perm in walk order
/// exactly like the interleaved walk, so the partial sums are
/// bit-identical to it.
fn walk_round(
    game: &dyn CooperativeGame,
    perms: &[Vec<usize>],
    n: usize,
    sum: &mut [f64],
    sum_sq: &mut [f64],
) {
    let mut coalitions: Vec<Vec<bool>> = Vec::with_capacity(perms.len() * (n + 1));
    for perm in perms {
        let mut coalition = vec![false; n];
        coalitions.push(coalition.clone());
        for &player in perm {
            coalition[player] = true;
            coalitions.push(coalition.clone());
        }
    }
    let vals = game.values(&coalitions);
    for (p, perm) in perms.iter().enumerate() {
        let base = p * (n + 1);
        let mut prev = vals[base];
        for (t, &player) in perm.iter().enumerate() {
            let cur = vals[base + t + 1];
            let marginal = cur - prev;
            sum[player] += marginal;
            sum_sq[player] += marginal * marginal;
            prev = cur;
        }
    }
}

/// Rejects partial sums poisoned by non-finite game values. Any ±Inf or
/// NaN game value necessarily leaves at least one non-finite per-player
/// sum (Inf−Inf is NaN and NaN is absorbing), so checking the reduced
/// sums is enough to guarantee no NaN reaches the estimate.
fn check_sampled_sums(sum: &[f64]) -> XaiResult<()> {
    if let Some(p) = sum.iter().position(|s| !s.is_finite()) {
        return Err(XaiError::ModelFault {
            context: format!("permutation Shapley: player {p} accumulated marginal sum {}", sum[p]),
        });
    }
    Ok(())
}

/// Shared mean / standard-error epilogue of the permutation estimators.
fn finish_sampled(sum: Vec<f64>, sum_sq: Vec<f64>, permutations: usize) -> SampledShapley {
    let m = permutations as f64;
    let phi: Vec<f64> = sum.iter().map(|s| s / m).collect();
    let std_err = sum_sq
        .iter()
        .zip(&phi)
        .map(|(&sq, &mean)| {
            if permutations < 2 {
                f64::INFINITY
            } else {
                let var = (sq / m - mean * mean).max(0.0) * m / (m - 1.0);
                (var / m).sqrt()
            }
        })
        .collect();
    SampledShapley { phi, std_err, permutations }
}

/// Permutation sampling over the fixed chunk grid on the `xai_rand`
/// fork-join executor.
///
/// The permutation budget is split into fixed-size chunks; chunk `c` runs
/// [`chunk_sums`] on the PCG64 stream `child_seed(seed, c)` and partial
/// sums are reduced in chunk order. The estimate is therefore a pure
/// function of `(permutations, seed)` — bit-identical across runs, worker
/// counts and shard partitions. It is a *different* (equally unbiased)
/// draw from the sequential [`try_permutation_shapley`], which uses one
/// stream.
///
/// A panic inside a chunk yields [`XaiError::WorkerPanic`] naming the
/// lowest-indexed panicking chunk (worker-count invariant); non-finite
/// game values yield [`XaiError::ModelFault`].
pub fn try_permutation_shapley_grid(
    game: &(dyn CooperativeGame + Sync),
    permutations: usize,
    seed: u64,
    workers: usize,
) -> XaiResult<SampledShapley> {
    assert!(permutations > 0, "need at least one permutation");
    assert!(workers >= 1, "need at least one worker");
    let partials = try_par_map_chunks(
        permutations,
        PERMS_PER_CHUNK,
        seed,
        workers,
        |_chunk, range, rng| chunk_sums(game, range.len(), rng),
    )
    .map_err(XaiError::from)?;
    merge_chunk_sums(partials, permutations)
}

/// Antithetic variant: pairs each permutation with its reverse, which
/// cancels first-order noise for near-additive games.
///
/// # Panics
/// Panics when the game panics or produces non-finite values; use
/// [`try_antithetic_permutation_shapley`] for typed errors.
pub fn antithetic_permutation_shapley(
    game: &dyn CooperativeGame,
    pairs: usize,
    seed: u64,
) -> SampledShapley {
    assert!(pairs > 0);
    let n = game.n_players();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sum = vec![0.0; n];
    let mut sum_sq = vec![0.0; n];
    let mut coalition = vec![false; n];
    let walk = |perm: &[usize], sum: &mut [f64], sum_sq: &mut [f64], coalition: &mut [bool]| {
        coalition.iter_mut().for_each(|c| *c = false);
        let mut prev = game.value(coalition);
        for &player in perm {
            coalition[player] = true;
            let cur = game.value(coalition);
            let marginal = cur - prev;
            sum[player] += marginal;
            sum_sq[player] += marginal * marginal;
            prev = cur;
        }
    };
    for _ in 0..pairs {
        let perm = random_permutation(&mut rng, n);
        walk(&perm, &mut sum, &mut sum_sq, &mut coalition);
        let rev: Vec<usize> = perm.iter().rev().copied().collect();
        walk(&rev, &mut sum, &mut sum_sq, &mut coalition);
    }
    let m = (2 * pairs) as f64;
    let phi: Vec<f64> = sum.iter().map(|s| s / m).collect();
    let std_err = sum_sq
        .iter()
        .zip(&phi)
        .map(|(&sq, &mean)| (((sq / m - mean * mean).max(0.0)) / m).sqrt())
        .collect();
    SampledShapley { phi, std_err, permutations: 2 * pairs }
}

/// Fallible twin of [`antithetic_permutation_shapley`]; failure semantics
/// as in [`try_permutation_shapley`].
pub fn try_antithetic_permutation_shapley(
    game: &dyn CooperativeGame,
    pairs: usize,
    seed: u64,
) -> XaiResult<SampledShapley> {
    let est = catch_model("antithetic permutation Shapley evaluation", || {
        antithetic_permutation_shapley(game, pairs, seed)
    })?;
    if let Some(p) = est.phi.iter().position(|v| !v.is_finite()) {
        return Err(XaiError::ModelFault {
            context: format!("antithetic permutation Shapley: player {p} estimate is {}", est.phi[p]),
        });
    }
    Ok(est)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_shapley;
    use crate::game::TableGame;
    use xai_linalg::norm2;
    use xai_linalg::vsub;

    #[test]
    fn parallel_estimator_is_worker_invariant_and_converges() {
        let game = TableGame::glove();
        let exact = exact_shapley(&game);
        let one = try_permutation_shapley_grid(&game, 2000, 7, 1).unwrap();
        for workers in [2, 4] {
            let w = try_permutation_shapley_grid(&game, 2000, 7, workers).unwrap();
            assert_eq!(one.phi, w.phi, "workers={workers} diverged");
            assert_eq!(one.std_err, w.std_err);
        }
        for (e, x) in one.phi.iter().zip(&exact) {
            assert!((e - x).abs() < 0.03, "{e} vs {x}");
        }
    }

    #[test]
    fn parallel_estimator_preserves_efficiency() {
        let game = TableGame::new(3, vec![1.0, 2.0, 0.0, 4.0, 3.0, 5.0, 2.0, 9.0]);
        let est = try_permutation_shapley_grid(&game, 33, 5, 4).unwrap();
        let total: f64 = est.phi.iter().sum();
        assert!((total - (game.grand_value() - game.empty_value())).abs() < 1e-9);
    }

    #[test]
    fn converges_to_exact_on_glove() {
        let game = TableGame::glove();
        let exact = exact_shapley(&game);
        let est = permutation_shapley(&game, 4000, 7);
        for (e, x) in est.phi.iter().zip(&exact) {
            assert!((e - x).abs() < 0.03, "{e} vs {x}");
        }
    }

    #[test]
    fn error_shrinks_with_more_permutations() {
        let game = TableGame::new(4, (0..16).map(|m: usize| (m.count_ones() as f64).powi(2)).collect());
        let exact = exact_shapley(&game);
        let small = permutation_shapley(&game, 20, 3);
        let large = permutation_shapley(&game, 2000, 3);
        let err_small = norm2(&vsub(&small.phi, &exact));
        let err_large = norm2(&vsub(&large.phi, &exact));
        assert!(
            err_large <= err_small + 1e-9,
            "error must not grow: {err_small} -> {err_large}"
        );
    }

    #[test]
    fn estimates_preserve_efficiency_exactly() {
        // Every permutation walk telescopes to v(N) − v(∅), so the estimate
        // satisfies efficiency for any sample size.
        let game = TableGame::new(3, vec![1.0, 2.0, 0.0, 4.0, 3.0, 5.0, 2.0, 9.0]);
        let est = permutation_shapley(&game, 13, 5);
        let total: f64 = est.phi.iter().sum();
        assert!((total - (game.grand_value() - game.empty_value())).abs() < 1e-9);
    }

    #[test]
    fn deterministic_under_seed() {
        let game = TableGame::glove();
        let a = permutation_shapley(&game, 50, 11);
        let b = permutation_shapley(&game, 50, 11);
        assert_eq!(a.phi, b.phi);
        let c = permutation_shapley(&game, 50, 13);
        assert_ne!(a.phi, c.phi);
    }

    #[test]
    fn antithetic_matches_exact_too() {
        let game = TableGame::glove();
        let exact = exact_shapley(&game);
        let est = antithetic_permutation_shapley(&game, 2000, 9);
        for (e, x) in est.phi.iter().zip(&exact) {
            assert!((e - x).abs() < 0.03);
        }
        assert_eq!(est.permutations, 4000);
    }

    #[test]
    fn batched_matches_scalar_bitwise() {
        use crate::batch::BatchPredictionGame;
        use crate::game::PredictionGame;
        use crate::masked::MemoGame;
        use xai_core::{CoalitionMemo, GameKey};
        use xai_linalg::Matrix;

        // Round-boundary sizes: the round-batched core equals the
        // interleaved walk of the (unlimited) budgeted path.
        let game = TableGame::glove();
        for perms in [1, 15, 16, 17, 40] {
            let a = permutation_shapley(&game, perms, 21);
            let b = try_permutation_shapley_budgeted(&game, perms, 21, SampleBudget::unlimited())
                .unwrap();
            assert_eq!(a.phi, b.phi, "perms={perms}");
            assert_eq!(a.std_err, b.std_err, "perms={perms}");
        }

        // Prediction game: scalar loop vs. materialized probe matrix.
        let model = |x: &[f64]| (x[0] * 0.4 - x[1]).exp() / (1.0 + x[2].abs());
        let batched_model = |m: &Matrix| -> Vec<f64> { m.iter_rows().map(model).collect() };
        let background =
            Matrix::from_rows(&[vec![0.2, -0.1, 1.0], vec![1.3, 0.6, -0.4]]);
        let instance = [0.5, 1.1, -2.0];
        let scalar_game = PredictionGame::new(&model, &instance, &background);
        let batch_game = BatchPredictionGame::new(&batched_model, &instance, &background);
        let a = permutation_shapley(&scalar_game, 25, 3);
        let b = permutation_shapley(&batch_game, 25, 3);
        assert_eq!(a.phi, b.phi);
        assert_eq!(a.std_err, b.std_err);

        // The memo cache must not perturb bits either, and walks repeat
        // the empty/grand coalitions every permutation, so it must hit.
        let memo = CoalitionMemo::new(64);
        let cached = MemoGame::new(&batch_game, &memo, GameKey::derive(0, &background, &instance));
        let c = permutation_shapley(&cached, 25, 3);
        assert_eq!(a.phi, c.phi);
        let stats = memo.stats();
        let (hits, misses) = (stats.hits, stats.misses);
        assert!(hits > 0 && misses < 25 * 4, "hits={hits} misses={misses}");
    }

    #[test]
    fn batched_parallel_matches_scalar_parallel_bitwise() {
        use crate::batch::BatchPredictionGame;
        use crate::game::PredictionGame;
        use xai_linalg::Matrix;

        let model = |x: &[f64]| (x[0] * x[0] - 0.5 * x[1]).sin() + x[2] * x[3];
        let batched_model = |m: &Matrix| -> Vec<f64> { m.iter_rows().map(model).collect() };
        let background = Matrix::from_rows(&[
            vec![0.2, -0.1, 1.0, 0.0],
            vec![1.3, 0.6, -0.4, 2.0],
        ]);
        let instance = [0.5, 1.1, -2.0, 0.7];
        let scalar_game = PredictionGame::new(&model, &instance, &background);
        let batch_game = BatchPredictionGame::new(&batched_model, &instance, &background);
        let reference = try_permutation_shapley_grid(&scalar_game, 70, 13, 1).unwrap();
        for workers in [1, 2, 4] {
            let b = try_permutation_shapley_grid(&batch_game, 70, 13, workers).unwrap();
            assert_eq!(reference.phi, b.phi, "workers={workers}");
            assert_eq!(reference.std_err, b.std_err, "workers={workers}");
        }
    }

    #[test]
    fn std_err_reported_and_finite() {
        let game = TableGame::glove();
        let est = permutation_shapley(&game, 100, 2);
        assert_eq!(est.std_err.len(), 3);
        assert!(est.std_err.iter().all(|s| s.is_finite()));
    }
}
