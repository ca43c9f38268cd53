//! The closed-loop load generator: two clients, each sending its next
//! request only after the previous reply.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use xai::prelude::*;

use crate::trace::{RequestSpans, Span};
use crate::workload::Sequence;

/// Closed-loop clients, one per core of the 2-core reference machine.
pub const CLIENTS: usize = 2;
/// Latency quantiles are taken per window of at least this many
/// requests, so at least ten samples lie beyond each window's 99th
/// percentile.
const MIN_WINDOW: u64 = 1000;

/// What one request got back: the response envelope, or the error text.
pub type Reply = Result<String, String>;

/// The distinct replies seen for one request key, each with its count.
pub struct KeyReplies {
    /// The first sequence index that sent this key.
    pub first: u64,
    pub variants: Vec<(Reply, u64)>,
}

/// Replies grouped by request key. Equal requests must get equal bytes,
/// so each distinct reply is kept once and checked once.
#[derive(Default)]
pub struct Replies {
    pub by_key: HashMap<u64, KeyReplies>,
}

impl KeyReplies {
    fn add(&mut self, reply: Reply, n: u64) {
        match self.variants.iter_mut().find(|(r, _)| *r == reply) {
            Some((_, count)) => *count += n,
            None => self.variants.push((reply, n)),
        }
    }
}

impl Replies {
    fn entry(&mut self, key: u64, first: u64) -> &mut KeyReplies {
        let entry = self.by_key.entry(key).or_insert_with(|| KeyReplies {
            first,
            variants: Vec::new(),
        });
        entry.first = entry.first.min(first);
        entry
    }

    fn record(&mut self, key: u64, index: u64, reply: Reply) {
        self.entry(key, index).add(reply, 1);
    }

    fn merge(&mut self, other: Replies) {
        for (key, theirs) in other.by_key {
            let entry = self.entry(key, theirs.first);
            for (reply, n) in theirs.variants {
                entry.add(reply, n);
            }
        }
    }
}

/// How long a run goes on.
#[derive(Clone, Copy)]
pub enum Length {
    /// Until `seconds` have passed, then to the end of the current
    /// latency window (at least one window).
    Timed { seconds: f64 },
    /// Exactly the first `n` requests of the sequence.
    Requests(u64),
}

/// The outcome of one run.
pub struct Run {
    /// Requests sent: the sequence indices `0..sent`.
    pub sent: u64,
    /// Requests answered with an explanation.
    pub answered: u64,
    pub wall_s: f64,
    /// Submit-to-reply latency quantiles of each whole window.
    pub windows: Vec<Quantiles>,
    /// Requests per second of each whole pass: the pass's length over
    /// the time from the previous pass's last reply to its own.
    pub pass_rps: Vec<f64>,
    /// Replies of the keys checked against a reference, and every error.
    pub replies: Replies,
    pub spans: Vec<Span>,
}

struct Dispenser {
    next: u64,
    limit: u64,
}

/// The p50 and p99 latency (nanoseconds) of one window of requests.
#[derive(Clone, Copy)]
pub struct Quantiles {
    pub p50: u64,
    pub p99: u64,
}

/// What the clients share about finished requests: the latencies of the
/// windows still in flight (dropped once a window's quantiles are
/// taken, so memory stays bounded at any throughput), the quantiles of
/// whole windows, and the time of each pass's last reply.
#[derive(Default)]
struct Progress {
    open: HashMap<u64, Vec<u64>>,
    windows: Vec<Quantiles>,
    pass_end: Vec<Option<Instant>>,
}

/// Nearest-rank quantile of sorted samples.
fn quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// What one client saw.
struct ClientLog {
    replies: Replies,
    spans: Vec<Span>,
    answered: u64,
}

/// Drives `service` with [`CLIENTS`] closed-loop clients over `seq`.
/// With `traced`, each request is sent through the serve layer's public
/// entry points one by one (parse, key, submit, envelope) with a span
/// around each; otherwise through `submit_json` alone.
///
/// Latencies are kept only for the windows in flight, and reply text
/// only for sampled keys, so the harness adds little to the process's
/// peak memory at any throughput.
pub fn run(service: &ExplanationService, seq: &Sequence, length: Length, traced: bool) -> Run {
    let pass = seq.workload.pass_len();
    let window = MIN_WINDOW.div_ceil(pass) * pass;
    let (limit, deadline) = match length {
        Length::Timed { seconds } => (u64::MAX, Some(Duration::from_secs_f64(seconds))),
        Length::Requests(n) => (n, None),
    };
    let dispenser = Mutex::new(Dispenser { next: 0, limit });
    let progress = Mutex::new(Progress::default());
    let start = Instant::now();
    // Hands out the next index, or None once the run is over. When the
    // time is up, the limit moves to the end of the current window,
    // which is also the end of a pass.
    let next_index = || {
        let mut d = dispenser
            .lock()
            .expect("dispenser lock poisoned by a panicking client");
        if d.limit == u64::MAX && deadline.is_some_and(|t| start.elapsed() >= t) {
            d.limit = d.next.max(1).div_ceil(window) * window;
        }
        (d.next < d.limit).then(|| {
            d.next += 1;
            d.next - 1
        })
    };
    // Files request `i`'s latency and reply time. Whichever client
    // completes a window takes its quantiles, outside the lock.
    let finish = |i: u64, latency: u64| {
        let full = {
            let mut p = progress
                .lock()
                .expect("progress lock poisoned by a panicking client");
            let pass_index = (i / pass) as usize;
            if p.pass_end.len() <= pass_index {
                p.pass_end.resize(pass_index + 1, None);
            }
            p.pass_end[pass_index] = Some(Instant::now());
            let samples = p.open.entry(i / window).or_default();
            samples.push(latency);
            if samples.len() as u64 == window {
                p.open.remove(&(i / window))
            } else {
                None
            }
        };
        if let Some(mut samples) = full {
            samples.sort_unstable();
            let q = Quantiles {
                p50: quantile(&samples, 0.50),
                p99: quantile(&samples, 0.99),
            };
            progress
                .lock()
                .expect("progress lock poisoned by a panicking client")
                .windows
                .push(q);
        }
    };
    let client = || {
        let mut log = ClientLog {
            replies: Replies::default(),
            spans: Vec::new(),
            answered: 0,
        };
        while let Some(i) = next_index() {
            let (key, text) = seq.request(i);
            let (reply, latency) = if traced {
                send_traced(service, &text, &mut RequestSpans::new(&mut log.spans, i))
            } else {
                let t0 = Instant::now();
                let reply = service.submit_json(&text).map_err(|e| e.to_string());
                (reply, t0.elapsed().as_nanos() as u64)
            };
            finish(i, latency);
            log.answered += u64::from(reply.is_ok());
            if reply.is_err() || seq.sampled(key) {
                log.replies.record(key, i, reply);
            }
        }
        log
    };
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS).map(|_| scope.spawn(client)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let sent = dispenser
        .into_inner()
        .expect("dispenser lock poisoned")
        .next;
    let progress = progress.into_inner().expect("progress lock poisoned");
    let mut run = Run {
        sent,
        answered: 0,
        wall_s: 0.0,
        windows: progress.windows,
        pass_rps: Vec::new(),
        replies: Replies::default(),
        spans: Vec::new(),
    };
    for log in logs {
        run.replies.merge(log.replies);
        run.spans.extend(log.spans);
        run.answered += log.answered;
    }
    // A pass ends at its last reply, or at the previous pass's end if a
    // straggler of that one replied later.
    let mut previous = start;
    for end in &progress.pass_end {
        let end = end.unwrap_or(start).max(previous);
        if end > previous {
            run.pass_rps
                .push(pass as f64 / (end - previous).as_secs_f64());
        }
        previous = end;
    }
    run.wall_s = previous.duration_since(start).as_secs_f64();
    run
}

/// `submit_json`, taken apart into its public steps with a span around
/// each. Returns the reply and the request span's duration.
fn send_traced(
    service: &ExplanationService,
    text: &str,
    rs: &mut RequestSpans<'_>,
) -> (Reply, u64) {
    let root = rs.open("serve.request", None);
    let (parsed, _) = rs.time("serve.parse", Some(root), || {
        ServeRequest::from_json_str(text)
    });
    let reply = parsed.and_then(|request| {
        rs.time("serve.key", Some(root), || {
            black_box(request.canonical_hash())
        });
        let (response, submit) = rs.time("serve.submit", Some(root), || service.submit(&request));
        let response = response?;
        rs.span(submit).name = if response.cached {
            "serve.hit"
        } else {
            "serve.miss"
        };
        let (envelope, h) = rs.time("serve.envelope", Some(root), || response.to_json_string());
        rs.span(h).attrs.push(("bytes", envelope.len() as f64));
        Ok(envelope)
    });
    rs.close(root);
    let latency = rs.span(root).duration_ns();
    (reply.map_err(|e| e.to_string()), latency)
}
