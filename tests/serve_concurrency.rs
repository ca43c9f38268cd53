//! Concurrency soak for the explanation-serving engine (DESIGN.md §10).
//!
//! Many client threads hammer one service with a mixed request set, the
//! pool size sweeps 1/2/4, and three things must hold with **no**
//! tolerance: every response is byte-identical to the precomputed direct
//! result (scheduling is invisible in the bytes), the counters balance
//! exactly (`hits + misses == submitted == completed`, nothing rejected,
//! nothing failed), and the run terminates (no deadlock between the
//! bounded queue, the cache and the pool).

mod common;

use common::{direct_payload, fixture_with, request_for, Fixture};
use xai::prelude::*;

/// The mixed traffic: cheap methods across models, seeds and plans so
/// the cache sees both repeats and distinct canonical forms.
fn traffic(fx: &Fixture) -> Vec<ServeRequest> {
    vec![
        request_for(fx, "Kernel SHAP", RunConfig::seeded(1)),
        request_for(fx, "Kernel SHAP", RunConfig::seeded(2)),
        request_for(fx, "Kernel SHAP", RunConfig::seeded(1).with_workers(2)),
        request_for(fx, "LIME", RunConfig::seeded(3)),
        request_for(fx, "Permutation sampling Shapley", RunConfig::seeded(4)),
        request_for(fx, "Integrated gradients", RunConfig::seeded(5)),
        request_for(fx, "Partial dependence / ICE", RunConfig::seeded(6)),
        request_for(fx, "TreeSHAP", RunConfig::seeded(7)),
        request_for(fx, "Wachter counterfactuals", RunConfig::seeded(8)),
    ]
}

#[test]
fn concurrent_clients_get_deterministic_bytes_and_balanced_counters() {
    const CLIENTS: usize = 8;
    const ROUNDS: usize = 4;

    for pool_workers in [2, 4] {
        let fx = fixture_with(ServiceConfig {
            workers: pool_workers,
            queue_capacity: 1024,
            cache_capacity: 256,
            memo_capacity: 4096,
        });
        let requests = traffic(&fx);
        let expected: Vec<String> =
            requests.iter().map(|r| direct_payload(&fx, r)).collect();

        std::thread::scope(|scope| {
            for client in 0..CLIENTS {
                let fx = &fx;
                let requests = &requests;
                let expected = &expected;
                scope.spawn(move || {
                    for round in 0..ROUNDS {
                        // Each client walks the set at its own offset so
                        // duplicates collide in-flight from round one.
                        for i in 0..requests.len() {
                            let k = (i + client + round) % requests.len();
                            let response = fx.service.submit(&requests[k]).unwrap();
                            assert_eq!(
                                response.payload, expected[k],
                                "{} diverged under pool={pool_workers} client={client}",
                                requests[k].method
                            );
                        }
                    }
                });
            }
        });

        let submitted = (CLIENTS * ROUNDS * requests.len()) as u64;
        let stats = fx.service.stats();
        assert_eq!(stats.submitted, submitted, "pool={pool_workers}");
        assert_eq!(stats.rejected, 0, "pool={pool_workers}: queue was large enough");
        assert_eq!(stats.failed, 0, "pool={pool_workers}");
        assert_eq!(stats.completed, submitted, "pool={pool_workers}: every job answered");
        assert_eq!(
            stats.cache_hits + stats.cache_misses,
            submitted,
            "pool={pool_workers}: the cache is consulted exactly once per job"
        );
        // Every distinct request misses at least once; concurrent
        // duplicates may race past the insert, so misses is a range.
        assert!(
            stats.cache_misses >= requests.len() as u64,
            "pool={pool_workers}: {} misses for {} distinct requests",
            stats.cache_misses,
            requests.len()
        );
        assert_eq!(stats.cache_evictions, 0, "pool={pool_workers}: capacity was never hit");
        assert_eq!(fx.service.cache_len(), requests.len(), "pool={pool_workers}");
    }
}

#[test]
fn served_bytes_are_invariant_to_the_pool_size() {
    // The same request set served by pools of 1, 2 and 4 workers must
    // produce identical bytes: the pool schedules, it never perturbs.
    let mut baselines: Option<Vec<String>> = None;
    for pool_workers in [1, 2, 4] {
        let fx = fixture_with(ServiceConfig {
            workers: pool_workers,
            queue_capacity: 64,
            cache_capacity: 64,
            memo_capacity: 4096,
        });
        let payloads: Vec<String> = traffic(&fx)
            .iter()
            .map(|r| fx.service.submit(r).unwrap().payload)
            .collect();
        match &baselines {
            None => baselines = Some(payloads),
            Some(first) => {
                assert_eq!(first, &payloads, "pool size {pool_workers} changed served bytes")
            }
        }
    }
}

#[test]
fn memo_eviction_soak_keeps_bytes_and_counters_exact() {
    // Hammer a service whose coalition memo is far too small for the
    // traffic, forcing constant concurrent evictions, and hold the memo
    // to its contract: it is *transparent* (every payload byte-identical
    // to the direct run) and its counters balance exactly.
    //
    // The traffic is Kernel SHAP (every unbudgeted Shapley plan consults
    // the memo, batched or not) at many distinct seeds: distinct seeds
    // defeat the result cache (every submission reaches the explainer) while
    // still sharing memo keys, because coalition values are
    // seed-independent. Each request's lookup count is deterministic, so
    // summed over the whole set:
    //   hits + misses (soak)  ==  hits + misses (unpressured baseline).
    const CLIENTS: usize = 8;
    const DISTINCT_SEEDS: u64 = 48;

    let requests = |fx: &Fixture| -> Vec<ServeRequest> {
        (0..DISTINCT_SEEDS)
            .map(|seed| {
                request_for(fx, "Kernel SHAP", RunConfig::seeded(seed).with_batched(true))
            })
            .collect()
    };

    // Baseline: a memo big enough to never evict, served sequentially —
    // its hits + misses is the request set's total lookup count.
    let baseline_fx = fixture_with(ServiceConfig {
        workers: 1,
        queue_capacity: 64,
        cache_capacity: 256,
        memo_capacity: 1 << 20,
    });
    let baseline_requests = requests(&baseline_fx);
    let expected: Vec<String> =
        baseline_requests.iter().map(|r| direct_payload(&baseline_fx, r)).collect();
    for (request, payload) in baseline_requests.iter().zip(&expected) {
        assert_eq!(&baseline_fx.service.submit(request).unwrap().payload, payload);
    }
    let baseline = baseline_fx.service.stats();
    let total_lookups = baseline.memo_hits + baseline.memo_misses;
    assert!(total_lookups > 0, "Kernel SHAP must consult the memo");
    assert_eq!(baseline.memo_evictions, 0, "the baseline memo must never evict");

    // Soak: a memo much smaller than the working set, hammered from
    // eight threads, every distinct request served exactly once.
    const MEMO_CAPACITY: usize = 256;
    let fx = fixture_with(ServiceConfig {
        workers: 4,
        queue_capacity: 256,
        cache_capacity: 256,
        memo_capacity: MEMO_CAPACITY,
    });
    let soak_requests = requests(&fx);
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let fx = &fx;
            let soak_requests = &soak_requests;
            let expected = &expected;
            scope.spawn(move || {
                for (i, request) in soak_requests.iter().enumerate() {
                    if i % CLIENTS != client {
                        continue;
                    }
                    let response = fx.service.submit(request).unwrap();
                    assert_eq!(
                        response.payload, expected[i],
                        "seed {i}: eviction pressure changed served bytes"
                    );
                }
            });
        }
    });

    let stats = fx.service.stats();
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.completed, DISTINCT_SEEDS);
    // The memo's lookup stream is a deterministic function of the request
    // set: under any interleaving the hit/miss *split* may move, but the
    // total must balance against the disabled-memo baseline exactly.
    assert_eq!(
        stats.memo_hits + stats.memo_misses,
        total_lookups,
        "memo lookups leaked or vanished under eviction pressure"
    );
    assert!(
        stats.memo_evictions > 0,
        "a {MEMO_CAPACITY}-entry memo under {total_lookups} lookups must evict"
    );
    assert!(
        fx.service.memo_len() <= MEMO_CAPACITY,
        "memo grew past capacity: {} > {MEMO_CAPACITY}",
        fx.service.memo_len()
    );
}

#[test]
fn a_dropped_service_answers_in_flight_work_before_joining() {
    // Submissions racing a drop either complete normally or see the
    // typed shutdown error — never a hang, never a poisoned panic.
    let fx = fixture_with(ServiceConfig { workers: 2, queue_capacity: 64, cache_capacity: 64, memo_capacity: 4096 });
    let requests = traffic(&fx);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|client: usize| {
                let fx = &fx;
                let requests = &requests;
                scope.spawn(move || {
                    let request = &requests[client % requests.len()];
                    fx.service.submit(request)
                })
            })
            .collect();
        for handle in handles {
            let outcome = handle.join().expect("client threads never panic");
            assert!(outcome.is_ok(), "in-flight work must be answered: {outcome:?}");
        }
    });
    let stats = fx.service.stats();
    assert_eq!(stats.completed, 4);
    drop(fx); // joins the pool; returning from the test proves no deadlock
}
