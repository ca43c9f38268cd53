//! The remote layers' replay: for a sample of `remote-sharded` requests,
//! the benchmark calls the shard, transport and backend entry points
//! itself, with a span around each call, and checks every merged result
//! against the request's reference bytes.

use xai::models::Persist;
use xai::prelude::*;
use xai::shard::{build_descriptors, execute_descriptor, merge_shard_results};

use crate::check::explain_request;
use crate::trace::RequestSpans;

/// The runners the replay calls: a cluster runner without a shard cache
/// (so every round trip reaches a daemon) and a process pool.
pub struct RemoteLayers<'a> {
    pub runner: &'a ClusterRunner,
    pub pool: &'a ProcessPoolBackend,
}

/// Replays one request through every remote layer. Returns the number
/// of merged results whose bytes differ from `reference`.
pub fn replay_request(
    layers: &RemoteLayers<'_>,
    registry: &Registry,
    model: &LogisticRegression,
    data: &Dataset,
    request: &ServeRequest,
    reference: &str,
    rs: &mut RequestSpans<'_>,
) -> Result<u64, String> {
    let explainer = registry
        .get_explainer(&request.method)
        .ok_or("unknown method")?;
    let shardable = explainer.as_shardable().ok_or("method is not shardable")?;
    let req = explain_request(data, request);
    let n_shards = request.plan.backend.shards().unwrap_or(1);
    let err = |e: XaiError| e.to_string();
    let mut mismatches = 0;

    let root = rs.open("shard.replay", None);
    let (descs, _) = rs.time("shard.build", Some(root), || {
        build_descriptors(shardable, &req, model.save(), n_shards)
    });
    let descs = descs.map_err(err)?;
    for desc in &descs {
        let (text, h) = rs.time("shard.encode", Some(root), || desc.to_json_string());
        rs.span(h).attrs.push(("bytes", text.len() as f64));
    }
    let mut results = Vec::new();
    let mut slowest_exec_ns = 0;
    for desc in &descs {
        let (result, h) = rs.time("shard.exec", Some(root), || {
            execute_descriptor(desc, shardable, model)
        });
        slowest_exec_ns = slowest_exec_ns.max(rs.span(h).duration_ns());
        let text = result.map_err(err)?.to_json_string();
        let (decoded, h) = rs.time("shard.decode", Some(root), || {
            ShardResult::from_json_str(&text)
        });
        rs.span(h).attrs.push(("bytes", text.len() as f64));
        results.push(decoded.map_err(err)?);
    }
    let (merged, _) = rs.time("shard.merge", Some(root), || {
        merge_shard_results(shardable, model, &req, results)
    });
    mismatches += u64::from(merged.map_err(err)?.to_json_string() != reference);
    rs.close(root);

    let (remote, h) = rs.time("transport.round_trip", None, || {
        layers.runner.run_descriptors(&descs)
    });
    let round_trip_ns = rs.span(h).duration_ns();
    rs.span(h).attrs.push((
        "overhead_us",
        round_trip_ns.saturating_sub(slowest_exec_ns) as f64 / 1e3,
    ));
    let merged = merge_shard_results(shardable, model, &req, remote.map_err(err)?).map_err(err)?;
    mismatches += u64::from(merged.to_json_string() != reference);

    // The same two-shard job on a process pool and in-process: the
    // difference is what spawning, pipes and JSON cost.
    let job = BackendJob::new(shardable, model, &req, 2).with_model_json(model.save());
    let (pool, pool_h) = rs.time("backend.pool", None, || layers.pool.execute(&job));
    let (local, local_h) = rs.time("backend.local", None, || LocalBackend.execute(&job));
    let overhead_ns = rs.span(pool_h).duration_ns() as f64 - rs.span(local_h).duration_ns() as f64;
    rs.span(pool_h)
        .attrs
        .push(("overhead_us", overhead_ns / 1e3));
    for outcome in [pool, local] {
        mismatches += u64::from(outcome.map_err(err)?.explanation.to_json_string() != reference);
    }
    Ok(mismatches)
}
