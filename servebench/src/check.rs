//! Correctness: reference bytes from a direct `Explainer::explain`,
//! computed outside the timed window, and the check of every reply.
//! In the traced run the same reference calls double as the explainer
//! and oracle layers' replay, with spans around them.

use std::collections::HashMap;

use xai::core::{parse_json, CoalitionMemo, Json, MemoHandle};
use xai::models::model_fingerprint;
use xai::prelude::*;

use crate::drive::{Replies, Reply};
use crate::trace::{RequestSpans, Span, TimedOracle};
use crate::workload::{Fixture, ModelKind, Sequence};

/// A reference: canonical explanation bytes, or the typed error text a
/// deterministic failure produces.
pub type Reference = Result<String, String>;

/// The model a request names.
fn model_kind(request: &ServeRequest) -> ModelKind {
    if request.model == ModelKind::Gbdt.name() {
        ModelKind::Gbdt
    } else {
        ModelKind::Logistic
    }
}

/// The direct in-process request behind a served one. Sharded output
/// must equal the unsharded run at the same plan, so the backend field
/// is irrelevant here.
pub fn explain_request<'a>(data: &'a Dataset, request: &'a ServeRequest) -> ExplainRequest<'a> {
    let mut req = ExplainRequest::new(data).plan(request.plan);
    if let Some(x) = &request.instance {
        req = req.instance(x);
    }
    if let Some(j) = request.feature {
        req = req.feature(j);
    }
    req
}

/// The keys whose replies a run kept: the seeded sample, plus every key
/// that got an error (errors must match a deterministic reference
/// error). Each is checked against a reference.
pub fn reference_keys(replies: &Replies) -> Vec<u64> {
    let mut keys: Vec<u64> = replies.by_key.keys().copied().collect();
    keys.sort_unstable();
    keys
}

/// References for `keys`, on two threads.
pub fn references(
    fixture: &Fixture,
    registry: &Registry,
    seq: &Sequence,
    keys: &[u64],
) -> HashMap<u64, Reference> {
    let half = keys.len().div_ceil(2);
    std::thread::scope(|scope| {
        let handles: Vec<_> = keys
            .chunks(half.max(1))
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|&key| {
                            let request = seq.key_request(key);
                            let model = fixture.model(model_kind(&request));
                            (
                                key,
                                reference(registry, model, &fixture.data, &request, None),
                            )
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread panicked"))
            .collect()
    })
}

/// The timing oracles and coalition memo of the traced replay.
pub struct ReplayModels {
    pub logistic: TimedOracle<LogisticRegression>,
    pub gbdt: TimedOracle<Gbdt>,
    pub memo: CoalitionMemo,
    fingerprints: [u64; 2],
}

impl ReplayModels {
    pub fn new(fixture: &Fixture, memo_capacity: usize) -> Self {
        ReplayModels {
            logistic: TimedOracle::new(fixture.logistic.clone()),
            gbdt: TimedOracle::new(fixture.gbdt.clone()),
            memo: CoalitionMemo::new(memo_capacity),
            fingerprints: [
                model_fingerprint(&fixture.logistic),
                model_fingerprint(&fixture.gbdt),
            ],
        }
    }
}

/// Method class of a runnable method, for the per-class explain spans.
fn explain_span(method: &str) -> &'static str {
    match method {
        "LIME" => "explain.surrogate",
        "Anchors" => "explain.rules",
        _ => "explain.shapley",
    }
}

/// One reference, computed directly. With `traced`, the call runs on a
/// timing oracle under an explain span with an `oracle` child and an
/// encode span; local requests use the replay's coalition memo, as the
/// service's workers do.
pub fn reference(
    registry: &Registry,
    model: &dyn ModelOracle,
    data: &Dataset,
    request: &ServeRequest,
    traced: Option<(&ReplayModels, &mut RequestSpans<'_>)>,
) -> Reference {
    let explainer = registry
        .get_explainer(&request.method)
        .ok_or_else(|| format!("unknown method '{}'", request.method))?;
    let mut req = explain_request(data, request);
    let Some((replay, rs)) = traced else {
        let explanation = explainer.explain(model, &req).map_err(|e| e.to_string())?;
        return Ok(explanation.to_json_string());
    };
    let kind = model_kind(request);
    let timed: &dyn ModelOracle = match kind {
        ModelKind::Logistic => &replay.logistic,
        ModelKind::Gbdt => &replay.gbdt,
    };
    if request.plan.backend.is_local() {
        req = req.memo(MemoHandle {
            memo: &replay.memo,
            model_fingerprint: replay.fingerprints[kind as usize],
        });
    }
    let (result, span) = rs.time(explain_span(&request.method), None, || {
        explainer.explain(timed, &req)
    });
    let tally = match kind {
        ModelKind::Logistic => replay.logistic.take(),
        ModelKind::Gbdt => replay.gbdt.take(),
    };
    let (start, end) = if tally.first_ns == u64::MAX {
        let s = rs.span(span).start_ns;
        (s, s)
    } else {
        (tally.first_ns, tally.last_ns)
    };
    let oracle = rs.push("oracle", Some(span), start, end);
    rs.span(oracle).attrs.extend([
        ("busy_us", tally.busy_ns as f64 / 1e3),
        ("scalar_calls", tally.scalar_calls as f64),
        ("batch_rows", tally.batch_rows as f64),
        ("masked_rows", tally.masked_rows as f64),
    ]);
    let explanation = result.map_err(|e| e.to_string())?;
    let (bytes, encode) = rs.time("explanation.encode", Some(span), || {
        explanation.to_json_string()
    });
    rs.span(encode).attrs.push(("bytes", bytes.len() as f64));
    Ok(bytes)
}

/// The verdict on a run's replies.
#[derive(Default)]
pub struct Verdict {
    /// Replies that were wrong: byte mismatches, unexpected errors,
    /// `QueueFull`, worker panics, or degraded executions.
    pub failed: u64,
    /// The first few problems, for the log.
    pub problems: Vec<String>,
}

impl Verdict {
    fn fail(&mut self, count: u64, problem: String) {
        self.failed += count;
        if self.problems.len() < 8 {
            self.problems.push(problem);
        }
    }
}

/// The `explanation` member of a response envelope, re-serialized, and
/// the envelope's `degraded` flag, after checking that it names the
/// request's method and model.
pub fn envelope_explanation(
    envelope: &str,
    request: &ServeRequest,
) -> Result<(String, bool), String> {
    let json = parse_json(envelope).map_err(|e| format!("envelope is not JSON: {e:?}"))?;
    let field = |k: &str| json.get(k).ok_or_else(|| format!("envelope lacks '{k}'"));
    if field("method")?.as_str() != Some(request.method.as_str())
        || field("model")?.as_str() != Some(request.model.as_str())
    {
        return Err("envelope names another method or model".into());
    }
    let degraded = matches!(field("degraded")?, Json::Bool(true));
    if !matches!(field("cached")?, Json::Bool(_)) {
        return Err("envelope 'cached' is not a boolean".into());
    }
    Ok((field("explanation")?.to_json(), degraded))
}

/// Checks every kept reply byte for byte against its key's reference;
/// an error must equal the reference's deterministic error.
pub fn verify(seq: &Sequence, replies: &Replies, refs: &HashMap<u64, Reference>) -> Verdict {
    let mut verdict = Verdict::default();
    for (&key, entry) in &replies.by_key {
        let request = seq.key_request(key);
        let reference = refs.get(&key);
        for (reply, n) in &entry.variants {
            match (reply, reference) {
                (Ok(envelope), reference) => match envelope_explanation(envelope, &request) {
                    Err(problem) => verdict.fail(*n, format!("key {key}: {problem}")),
                    Ok((_, true)) => verdict.fail(*n, format!("key {key}: degraded execution")),
                    Ok((bytes, false)) => match reference {
                        Some(Ok(expected)) if *expected == bytes => {}
                        Some(Ok(_)) => {
                            verdict.fail(*n, format!("key {key}: bytes differ from the reference"))
                        }
                        Some(Err(e)) => verdict.fail(
                            *n,
                            format!("key {key}: answered, reference failed with {e}"),
                        ),
                        None => verdict.fail(*n, format!("key {key}: no reference was computed")),
                    },
                },
                (Err(e), Some(Err(expected))) if e == expected => {}
                (Err(e), _) => verdict.fail(*n, format!("key {key}: unexpected error {e}")),
            }
        }
    }
    verdict
}

/// Replies whose explanation differs between two runs of one sequence
/// (the untraced and the traced run must serve identical payloads).
pub fn payload_mismatches(a: &Replies, b: &Replies, seq: &Sequence) -> u64 {
    let payloads = |entry: &crate::drive::KeyReplies, request: &ServeRequest| -> Vec<String> {
        let mut out: Vec<String> = entry
            .variants
            .iter()
            .filter_map(|(r, _): &(Reply, u64)| r.as_ref().ok())
            .filter_map(|env| {
                envelope_explanation(env, request)
                    .ok()
                    .map(|(bytes, _)| bytes)
            })
            .collect();
        out.sort();
        out.dedup();
        out
    };
    let mut mismatched = 0;
    for (key, ours) in &a.by_key {
        if let Some(theirs) = b.by_key.get(key) {
            let request = seq.key_request(*key);
            let (x, y) = (payloads(ours, &request), payloads(theirs, &request));
            if x.len() > 1 || y.len() > 1 || x != y {
                mismatched += theirs.variants.iter().map(|(_, n)| n).sum::<u64>();
            }
        }
    }
    mismatched
}

/// References for `keys`, one at a time on the replay's timing oracles,
/// with spans. A key's spans carry the first sequence index that sent it.
pub fn traced_references(
    fixture: &Fixture,
    registry: &Registry,
    seq: &Sequence,
    replies: &Replies,
    keys: &[u64],
    replay: &ReplayModels,
    spans: &mut Vec<Span>,
) -> HashMap<u64, Reference> {
    keys.iter()
        .map(|&key| {
            let request = seq.key_request(key);
            let first = replies.by_key.get(&key).map_or(key, |r| r.first);
            let mut rs = RequestSpans::new(spans, first);
            let model = fixture.model(model_kind(&request));
            (
                key,
                reference(
                    registry,
                    model,
                    &fixture.data,
                    &request,
                    Some((replay, &mut rs)),
                ),
            )
        })
        .collect()
}
