//! Fault-tolerant shard transport (DESIGN.md §13).
//!
//! The shard layer ([`crate::shard`]) made every sampled estimator a set
//! of self-contained, wire-ready [`ShardDescriptor`]s whose partials
//! merge **bit-identically** to the unsharded run. This module moves
//! those descriptors to workers: a zero-dependency length-prefixed frame
//! protocol carries descriptors over a persistent session — a TCP
//! stream to an `xai-shard-worker --listen` daemon, or the stdin and
//! stdout of a worker process the runner spawned and keeps (the process
//! pool) — and one [`ShardResult`] — or a typed shard error envelope —
//! back per descriptor. Both kinds of session run the same worker loop
//! ([`serve_connection`]) and the same round trip.
//!
//! Sessions are **reused**, so a runner pays one TCP handshake or one
//! process spawn per concurrent stream, not per descriptor. A pooled
//! session found dead on reuse (the request cannot be written, or the
//! worker closes or resets it before replying) is replaced by a fresh
//! one once; a worker that answers late or wrongly is never asked
//! again within the same attempt. A
//! shard-level [`crate::backend::ShardCache`] keyed on (model
//! fingerprint, descriptor hash) answers repeated, retried, or hedged
//! shards without touching a worker at all — sound because shard
//! execution is deterministic.
//!
//! The whole design is failure-first, because on a real cluster workers
//! are slow, dead, or lying:
//!
//! - **Frames** ([`write_frame`]/[`read_frame`]) are
//!   `magic ‖ length ‖ payload`; anything else — wrong magic, an absurd
//!   length, truncation — is detected immediately and typed precisely
//!   (garbage is [`XaiError::Parse`], truncation is [`XaiError::Io`]
//!   with [`IoKind::ShortRead`]). A reply naming another method, model
//!   fingerprint, shard or shard count is a lying worker
//!   ([`XaiError::Parse`]) and is never cached.
//! - **Retry** is governed by a typed [`RetryPolicy`]: bounded attempts,
//!   exponential backoff, and *deterministic seeded jitter* (SplitMix64
//!   over `child_seed(jitter_seed, shard, attempt)`) so two coordinators
//!   never thundering-herd in lockstep yet every schedule is replayable.
//! - **Hedging**: a shard whose response is slower than
//!   [`ClusterConfig::hedge_after`] is re-dispatched to a second
//!   endpoint; the first valid result wins. This is safe *because* shard
//!   execution is deterministic — any worker can re-run any shard and the
//!   bytes are canonical, so duplicated work can never disagree.
//! - **Circuit breaking**: per-endpoint consecutive-failure counters trip
//!   an endpoint open; after [`ClusterConfig::breaker_cooldown`] one
//!   half-open probe is admitted, and its outcome either re-closes or
//!   re-opens the breaker. Shards route around open endpoints, so a dead
//!   machine stops eating retry budget.
//! - **Fail fast**: once a shard fails its whole job — an execution
//!   failure, or any failure under [`FallbackPolicy::Fail`] — the job's
//!   shards still waiting for a session are not started, and the
//!   lowest-indexed failure among the shards that ran is reported.
//! - **Graceful degradation**: when the entire cluster is unreachable and
//!   [`FallbackPolicy::InProcess`] allows it, the run falls back to the
//!   local [`crate::backend::dispatch_local`] runner and the outcome carries a
//!   `degraded` marker. The *bytes* of the explanation are identical
//!   either way — degradation changes where work ran, never what it
//!   computed.
//!
//! Failure classes stay distinguishable end to end: connection refused is
//! `Io`/[`IoKind::Refused`], a mid-stream disconnect is `Io`/
//! [`IoKind::Reset`] or [`IoKind::ShortRead`], a garbage frame is
//! [`XaiError::Parse`], a worker that exceeds the response deadline is
//! [`XaiError::BudgetExceeded`], and a typed error envelope from the
//! worker ([`XaiError::WorkerPanic`], [`XaiError::ModelFault`], …)
//! passes through unchanged, as does a spawned worker's abnormal exit
//! ([`XaiError::ModelFault`]). Those are *execution* failures —
//! deterministic properties of the shard — so they are never retried and
//! never trigger fallback; transport failures are environmental, so they
//! are retried, re-routed, hedged, and ultimately degradable.

use std::fmt;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use xai_rand::{child_seed, SplitMix64};

use crate::backend::{descriptor_cache_key, BackendJob, ShardCache};
use crate::error::{IoKind, XaiError, XaiResult};
use crate::explainer::{ExplainRequest, Explanation, ModelOracle};
use crate::report::Json;
use crate::shard::{
    error_from_json, error_to_json, is_error_envelope, wire_error, ShardDescriptor, ShardResult,
    ShardableExplainer,
};

// ---------------------------------------------------------------------------
// The wire frame
// ---------------------------------------------------------------------------

/// Frame magic: four fixed bytes so a stray HTTP client (or a worker
/// writing garbage) is rejected on the first read, not after buffering
/// an attacker-chosen length.
pub const FRAME_MAGIC: [u8; 4] = *b"XAI1";

/// Hard ceiling on a frame payload. Descriptors carry whole datasets, so
/// the limit is generous — but a garbage length field must never make
/// the peer allocate unbounded memory.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Writes one `magic ‖ u32-be length ‖ payload` frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8], what: &str) -> XaiResult<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(wire_error(format!(
            "{what}: frame payload of {} bytes exceeds the {MAX_FRAME_BYTES}-byte cap",
            payload.len()
        )));
    }
    let mut header = [0u8; 8];
    header[..4].copy_from_slice(&FRAME_MAGIC);
    header[4..].copy_from_slice(&(payload.len() as u32).to_be_bytes());
    w.write_all(&header)
        .map_err(|e| XaiError::from_io(&e, format_args!("{what}: writing frame header")))?;
    w.write_all(payload)
        .map_err(|e| XaiError::from_io(&e, format_args!("{what}: writing frame payload")))?;
    w.flush().map_err(|e| XaiError::from_io(&e, format_args!("{what}: flushing frame")))
}

/// Reads one frame, enforcing magic and the length cap. Truncation at
/// any point is `Io`/[`IoKind::ShortRead`]; an OS read deadline is
/// `Io`/[`IoKind::Timeout`]; a wrong magic or absurd length is a typed
/// [`XaiError::Parse`] (the peer is speaking, but not our protocol).
pub fn read_frame(r: &mut impl Read, what: &str) -> XaiResult<Vec<u8>> {
    let mut header = [0u8; 8];
    r.read_exact(&mut header)
        .map_err(|e| XaiError::from_io(&e, format_args!("{what}: reading frame header")))?;
    read_frame_body(r, header, what)
}

/// Reads one frame, or `None` when the peer closed the connection
/// cleanly *before any header byte* — the signal that a persistent
/// session is done. EOF mid-header is still a short read, exactly as in
/// [`read_frame`].
pub fn read_frame_or_eof(r: &mut impl Read, what: &str) -> XaiResult<Option<Vec<u8>>> {
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => {
                return Err(XaiError::from_io(&e, format_args!("{what}: reading frame header")))
            }
        }
    }
    let mut header = [0u8; 8];
    header[0] = first[0];
    r.read_exact(&mut header[1..])
        .map_err(|e| XaiError::from_io(&e, format_args!("{what}: reading frame header")))?;
    read_frame_body(r, header, what).map(Some)
}

/// Validates a frame header and reads the payload behind it.
fn read_frame_body(r: &mut impl Read, header: [u8; 8], what: &str) -> XaiResult<Vec<u8>> {
    if header[..4] != FRAME_MAGIC {
        return Err(wire_error(format!(
            "{what}: bad frame magic {:02x}{:02x}{:02x}{:02x} (garbage frame)",
            header[0], header[1], header[2], header[3]
        )));
    }
    let len = u32::from_be_bytes([header[4], header[5], header[6], header[7]]) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(wire_error(format!(
            "{what}: frame length {len} exceeds the {MAX_FRAME_BYTES}-byte cap (garbage frame)"
        )));
    }
    // Grow the buffer as bytes arrive: a header alone never allocates.
    let mut payload = Vec::new();
    r.take(len as u64).read_to_end(&mut payload).map_err(|e| {
        XaiError::from_io(&e, format_args!("{what}: reading {len}-byte frame payload"))
    })?;
    if payload.len() < len {
        return Err(XaiError::io(
            IoKind::ShortRead,
            format!("{what}: reading {len}-byte frame payload: EOF after {} bytes", payload.len()),
        ));
    }
    Ok(payload)
}

// ---------------------------------------------------------------------------
// Retry policy: bounded attempts, exponential backoff, seeded jitter
// ---------------------------------------------------------------------------

/// How a shard's transport attempts are paced. Attempts are bounded,
/// backoff grows exponentially up to a cap, and jitter is drawn from a
/// seeded SplitMix64 stream keyed on `(jitter_seed, shard, attempt)` —
/// deterministic, so a fault schedule replays identically, yet distinct
/// across shards so synchronized retries spread out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total dispatch attempts per shard (>= 1). Hedged duplicates do not
    /// count against this bound.
    pub max_attempts: usize,
    /// Backoff before the second attempt; doubles each further attempt.
    pub base_backoff: Duration,
    /// Ceiling on any single backoff sleep, jitter included.
    pub max_backoff: Duration,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The sleep before retry number `attempt` (0-based count of failures
    /// so far) of `shard`: `min(base · 2^attempt, max) + jitter`, capped
    /// at `max_backoff`. Pure — same inputs, same duration.
    pub fn backoff(&self, shard: usize, attempt: usize) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(2u32.saturating_pow(attempt.min(16) as u32))
            .min(self.max_backoff);
        let mut stream =
            SplitMix64::new(child_seed(child_seed(self.jitter_seed, shard as u64), attempt as u64));
        let frac = (stream.next() >> 11) as f64 / (1u64 << 53) as f64;
        (exp + self.base_backoff.mul_f64(frac)).min(self.max_backoff)
    }
}

// ---------------------------------------------------------------------------
// Endpoint health: consecutive-failure circuit breaker with half-open probes
// ---------------------------------------------------------------------------

/// Where an endpoint's circuit breaker stands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow.
    Closed,
    /// Tripped: requests are routed elsewhere until the cooldown elapses.
    Open,
    /// One probe request is in flight; its outcome re-closes or re-opens.
    HalfOpen,
}

/// Point-in-time view of one endpoint's health, for tests and operators.
#[derive(Clone, Debug)]
pub struct EndpointHealth {
    /// The endpoint's socket address, or a pool's worker executable.
    pub addr: String,
    /// Breaker state at snapshot time.
    pub state: BreakerState,
    /// Consecutive transport failures since the last success.
    pub consecutive_failures: usize,
    /// Total successful round trips.
    pub successes: u64,
    /// Total failed round trips.
    pub failures: u64,
    /// Times the breaker tripped open.
    pub trips: u64,
}

struct EndpointSlot {
    state: BreakerState,
    opened_at: Option<Instant>,
    consecutive_failures: usize,
    successes: u64,
    failures: u64,
    trips: u64,
}

/// Shared per-endpoint health book-keeping for one [`ClusterRunner`].
pub struct HealthTracker {
    addrs: Vec<String>,
    threshold: usize,
    cooldown: Duration,
    slots: Mutex<Vec<EndpointSlot>>,
}

impl HealthTracker {
    /// A tracker over `addrs` tripping after `threshold` consecutive
    /// failures, probing again after `cooldown`.
    pub fn new(addrs: Vec<String>, threshold: usize, cooldown: Duration) -> Self {
        assert!(threshold >= 1, "breaker threshold must be at least 1");
        let slots = addrs
            .iter()
            .map(|_| EndpointSlot {
                state: BreakerState::Closed,
                opened_at: None,
                consecutive_failures: 0,
                successes: 0,
                failures: 0,
                trips: 0,
            })
            .collect();
        HealthTracker { addrs, threshold, cooldown, slots: Mutex::new(slots) }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<EndpointSlot>> {
        self.slots.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Whether endpoint `i` may receive a request right now. A closed
    /// breaker admits; an open one admits a single half-open probe once
    /// the cooldown has elapsed; a half-open one is already probing, so
    /// further traffic keeps routing around it.
    pub fn admit(&self, i: usize) -> bool {
        let mut slots = self.lock();
        let slot = &mut slots[i];
        match slot.state {
            BreakerState::Closed => true,
            BreakerState::HalfOpen => false,
            BreakerState::Open => {
                let due = slot
                    .opened_at
                    .map(|t| t.elapsed() >= self.cooldown)
                    .unwrap_or(true);
                if due {
                    slot.state = BreakerState::HalfOpen;
                }
                due
            }
        }
    }

    /// Records a successful round trip: the breaker re-closes.
    pub fn record_success(&self, i: usize) {
        let mut slots = self.lock();
        let slot = &mut slots[i];
        slot.successes += 1;
        slot.consecutive_failures = 0;
        slot.state = BreakerState::Closed;
        slot.opened_at = None;
    }

    /// Records a transport failure: a failed half-open probe re-opens
    /// immediately; a closed breaker trips once `threshold` consecutive
    /// failures accumulate.
    pub fn record_failure(&self, i: usize) {
        let mut slots = self.lock();
        let slot = &mut slots[i];
        slot.failures += 1;
        slot.consecutive_failures += 1;
        let trip = match slot.state {
            BreakerState::HalfOpen => true,
            BreakerState::Closed => slot.consecutive_failures >= self.threshold,
            BreakerState::Open => false,
        };
        if trip {
            slot.state = BreakerState::Open;
            slot.opened_at = Some(Instant::now());
            slot.trips += 1;
        }
    }

    /// Snapshot of every endpoint's health.
    pub fn snapshot(&self) -> Vec<EndpointHealth> {
        let slots = self.lock();
        self.addrs
            .iter()
            .zip(slots.iter())
            .map(|(addr, s)| EndpointHealth {
                addr: addr.clone(),
                state: s.state,
                consecutive_failures: s.consecutive_failures,
                successes: s.successes,
                failures: s.failures,
                trips: s.trips,
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Cluster configuration
// ---------------------------------------------------------------------------

/// What to do when the cluster is entirely unavailable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FallbackPolicy {
    /// Re-run the whole plan on the local in-process runner and mark the
    /// outcome `degraded`. The bytes are identical — determinism makes
    /// the fallback invisible in the result, visible in the marker.
    InProcess,
    /// Surface the transport error to the caller.
    Fail,
}

/// Configuration for a [`ClusterRunner`].
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Worker daemon endpoints, `"host:port"`.
    pub endpoints: Vec<String>,
    /// TCP connect deadline per attempt.
    pub connect_timeout: Duration,
    /// Socket read/write deadline. A worker that takes longer than this
    /// to answer is treated as past its deadline
    /// ([`XaiError::BudgetExceeded`]) and re-dispatched.
    pub io_timeout: Duration,
    /// Retry pacing (attempts, backoff, seeded jitter).
    pub retry: RetryPolicy,
    /// Straggler threshold: when a response takes longer than this, the
    /// shard is hedged onto a second endpoint and the first valid result
    /// wins. `None` disables hedging.
    pub hedge_after: Option<Duration>,
    /// Consecutive transport failures before an endpoint's breaker trips.
    pub breaker_threshold: usize,
    /// How long a tripped breaker waits before admitting a half-open
    /// probe.
    pub breaker_cooldown: Duration,
    /// Behaviour when every endpoint is unavailable.
    pub fallback: FallbackPolicy,
    /// Capacity of the shard-level result cache
    /// ([`crate::backend::ShardCache`]): repeated, retried, or hedged
    /// shards with an identical (fingerprint, descriptor) key are
    /// answered from cache instead of the network. Zero disables it.
    pub shard_cache_capacity: usize,
}

impl ClusterConfig {
    /// A config over `endpoints` with production-shaped defaults: 2 s
    /// connects, 60 s responses, three attempts with 50 ms–2 s backoff,
    /// no hedging, breaker at 3 consecutive failures with a 1 s cooldown,
    /// in-process fallback, and a 256-entry shard cache.
    pub fn new<I, S>(endpoints: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        ClusterConfig {
            endpoints: endpoints.into_iter().map(Into::into).collect(),
            connect_timeout: Duration::from_secs(2),
            io_timeout: Duration::from_secs(60),
            retry: RetryPolicy::default(),
            hedge_after: None,
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_secs(1),
            fallback: FallbackPolicy::InProcess,
            shard_cache_capacity: 256,
        }
    }
}

// ---------------------------------------------------------------------------
// Cluster statistics
// ---------------------------------------------------------------------------

/// Counters describing what a [`ClusterRunner`] did. Scheduling-dependent
/// (how many retries a flaky endpoint cost), but the *result bytes* never
/// are.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Transport dispatches, hedges included.
    pub attempts: u64,
    /// Attempt loops entered beyond each shard's first.
    pub retries: u64,
    /// Hedge dispatches launched for stragglers.
    pub hedges: u64,
    /// Shards won by the hedge rather than the primary.
    pub hedge_wins: u64,
    /// Transport-class failures observed (refused, reset, short read,
    /// timeout, garbage frame, deadline).
    pub transport_failures: u64,
    /// Breaker trips across all endpoints.
    pub breaker_trips: u64,
    /// Whether the last `explain` fell back to the in-process runner.
    pub degraded: bool,
    /// Fresh sessions opened: TCP connects to a daemon, or worker
    /// processes spawned.
    pub connections_opened: u64,
    /// Round trips that started on a pooled persistent session.
    pub sessions_reused: u64,
    /// Shards answered from the shard-level result cache.
    pub shard_cache_hits: u64,
    /// Shards that missed the shard-level result cache.
    pub shard_cache_misses: u64,
}

#[derive(Default)]
struct Counters {
    attempts: AtomicU64,
    retries: AtomicU64,
    hedges: AtomicU64,
    hedge_wins: AtomicU64,
    transport_failures: AtomicU64,
    degraded: AtomicU64,
    connections_opened: AtomicU64,
    sessions_reused: AtomicU64,
}

// ---------------------------------------------------------------------------
// Endpoints and persistent sessions
// ---------------------------------------------------------------------------

/// Where a runner's sessions come from.
pub(crate) enum Endpoint {
    /// An `xai-shard-worker --listen` daemon: sessions are TCP streams.
    Tcp(SocketAddr),
    /// A worker executable and its extra environment: sessions are child
    /// processes serving frames on their stdin and stdout.
    Spawn { exe: PathBuf, env: Vec<(String, String)> },
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "{addr}"),
            Endpoint::Spawn { exe, .. } => write!(f, "{}", exe.display()),
        }
    }
}

impl Endpoint {
    fn open(&self, connect_timeout: Duration, what: &str) -> XaiResult<Session> {
        match self {
            Endpoint::Tcp(addr) => TcpStream::connect_timeout(addr, connect_timeout)
                .map(Session::Tcp)
                .map_err(|e| XaiError::from_io(&e, format_args!("{what}: connect"))),
            Endpoint::Spawn { exe, env } => ChildSession::spawn(exe, env).map(Session::Child),
        }
    }
}

/// One live framed session with a worker.
enum Session {
    Tcp(TcpStream),
    Child(ChildSession),
}

impl Session {
    /// Whether a pooled session may still be usable: a kept worker that
    /// has exited is not. A TCP stream shows a closed peer only on use.
    fn may_be_live(&mut self) -> bool {
        match self {
            Session::Tcp(_) => true,
            Session::Child(child) => matches!(child.child.try_wait(), Ok(None)),
        }
    }

    /// Sends one request frame and returns the reply frame's bytes. A
    /// reply later than `io_timeout` is [`XaiError::BudgetExceeded`].
    fn exchange(
        &mut self,
        payload: &Arc<[u8]>,
        io_timeout: Duration,
        what: &str,
    ) -> Result<Vec<u8>, ShardFailure> {
        match self {
            Session::Tcp(stream) => {
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(Some(io_timeout));
                let _ = stream.set_write_timeout(Some(io_timeout));
                write_frame(&mut &*stream, payload, what).map_err(ShardFailure::Transport)?;
                match read_frame_or_eof(&mut &*stream, what) {
                    Ok(Some(bytes)) => Ok(bytes),
                    Ok(None) => Err(ShardFailure::Transport(closed_before_reply(what))),
                    // An expired read deadline while waiting for the
                    // response is the worker blowing its deadline, not a
                    // socket mishap.
                    Err(XaiError::Io { kind: IoKind::Timeout, .. }) => {
                        Err(ShardFailure::Transport(deadline_error(what, io_timeout)))
                    }
                    Err(e) => Err(ShardFailure::Transport(e)),
                }
            }
            Session::Child(child) => child.exchange(payload, io_timeout, what),
        }
    }
}

/// Whether a failed exchange found its session dead: the request or the
/// reply was reset, or the worker closed the session without a reply
/// byte. An idle pooled session can die like this (a daemon closes it,
/// a kept worker is killed), so it is the one failure a reused session
/// retries, once, on a fresh session.
fn session_was_dead(failure: &ShardFailure) -> bool {
    matches!(failure, ShardFailure::Transport(XaiError::Io { kind: IoKind::Reset, .. }))
}

fn deadline_error(what: &str, io_timeout: Duration) -> XaiError {
    XaiError::BudgetExceeded {
        context: format!("{what}: no response within the {io_timeout:?} deadline"),
        completed: 0,
    }
}

fn closed_before_reply(what: &str) -> XaiError {
    XaiError::io(IoKind::Reset, format!("{what}: the worker closed the session before replying"))
}

/// A spawned worker serving a framed session on its stdin and stdout.
/// Its pump thread writes each request and reads the reply, so the
/// caller waits on a channel with a deadline and never blocks on a pipe.
/// Dropping the session kills and reaps the child and joins the pump.
struct ChildSession {
    child: Child,
    requests: mpsc::Sender<(Arc<[u8]>, String)>,
    replies: mpsc::Receiver<XaiResult<Option<Vec<u8>>>>,
    pump: Option<std::thread::JoinHandle<()>>,
}

impl ChildSession {
    fn spawn(exe: &Path, env: &[(String, String)]) -> XaiResult<ChildSession> {
        let mut child = Command::new(exe)
            .envs(env.iter().map(|(k, v)| (k, v)))
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| {
                XaiError::from_io(&e, format_args!("spawning shard worker '{}'", exe.display()))
            })?;
        let stdin = child.stdin.take().expect("stdin was piped");
        let stdout = child.stdout.take().expect("stdout was piped");
        let (requests, inbox) = mpsc::channel();
        let (outbox, replies) = mpsc::channel();
        let pump = std::thread::spawn(move || pump(stdin, stdout, inbox, outbox));
        Ok(ChildSession { child, requests, replies, pump: Some(pump) })
    }

    fn exchange(
        &mut self,
        payload: &Arc<[u8]>,
        io_timeout: Duration,
        what: &str,
    ) -> Result<Vec<u8>, ShardFailure> {
        // A pump that already stopped drops its sender: recv reports that.
        let _ = self.requests.send((Arc::clone(payload), what.to_string()));
        let failure = match self.replies.recv_timeout(io_timeout) {
            Ok(Ok(Some(bytes))) => return Ok(bytes),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                return Err(ShardFailure::Transport(deadline_error(what, io_timeout)))
            }
            Ok(Err(e @ XaiError::Parse { .. })) => return Err(ShardFailure::Transport(e)),
            Ok(Ok(None)) => closed_before_reply(what),
            Ok(Err(e)) => e,
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                XaiError::io(IoKind::Other, format!("{what}: session pump exited"))
            }
        };
        // The worker closed or broke its pipes; its exit status says why.
        match self.reap() {
            Some(status) if !status.success() => Err(ShardFailure::Execution(XaiError::ModelFault {
                context: format!("{what}: shard worker exited abnormally ({status})"),
            })),
            _ => Err(ShardFailure::Transport(failure)),
        }
    }

    /// Kills the child if it still runs and waits for it. A child that
    /// already exited keeps its own status.
    fn reap(&mut self) -> Option<ExitStatus> {
        let _ = self.child.kill();
        self.child.wait().ok()
    }
}

impl Drop for ChildSession {
    fn drop(&mut self) {
        // Killing the child unblocks a pump stuck on a pipe; closing the
        // request channel ends a pump waiting for the next request.
        self.reap();
        self.requests = mpsc::channel().0;
        if let Some(pump) = self.pump.take() {
            let _ = pump.join();
        }
    }
}

/// Stops after the first failure or when the request channel closes.
fn pump(
    mut stdin: ChildStdin,
    mut stdout: ChildStdout,
    requests: mpsc::Receiver<(Arc<[u8]>, String)>,
    replies: mpsc::Sender<XaiResult<Option<Vec<u8>>>>,
) {
    for (payload, what) in requests {
        let reply = write_frame(&mut stdin, &payload, &what)
            .and_then(|()| read_frame_or_eof(&mut stdout, &what));
        let failed = !matches!(reply, Ok(Some(_)));
        if replies.send(reply).is_err() || failed {
            return;
        }
    }
}

/// One endpoint, how to reach it, and its live sessions: the idle ones,
/// ready for reuse, and a count of all live ones (idle or in a round
/// trip) that never exceeds `limit`. A round trip holds a [`Slot`] from
/// [`checkout`](SessionPool::checkout).
struct SessionPool {
    endpoint: Endpoint,
    connect_timeout: Duration,
    io_timeout: Duration,
    counters: Arc<Counters>,
    slots: Mutex<(Vec<Session>, usize)>,
    freed: Condvar,
    limit: usize,
    max_idle: usize,
}

/// Idle TCP streams kept per daemon. Beyond this, returned streams are
/// simply closed — enough to cover the executor's concurrency without
/// hoarding sockets.
const MAX_IDLE_SESSIONS: usize = 8;

impl SessionPool {
    fn lock(&self) -> MutexGuard<'_, (Vec<Session>, usize)> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until an idle session or a free slot is available; a slot
    /// without a session is for a fresh one. Idle workers that have
    /// exited are dropped on the way.
    fn checkout(self: &Arc<Self>) -> Slot {
        let mut slots = self.lock();
        let session = loop {
            let (idle, live) = &mut *slots;
            if let Some(mut session) = idle.pop() {
                if session.may_be_live() {
                    break Some(session);
                }
                *live -= 1;
                continue;
            }
            if *live < self.limit {
                *live += 1;
                break None;
            }
            slots = self.freed.wait(slots).unwrap_or_else(PoisonError::into_inner);
        };
        Slot { sessions: Arc::clone(self), session }
    }
}

/// One taken live-session slot of a [`SessionPool`], with its session
/// once one is open. Dropping it keeps a session whose exchange was
/// clean for reuse while there is idle room; otherwise the slot frees.
struct Slot {
    sessions: Arc<SessionPool>,
    session: Option<Session>,
}

impl Drop for Slot {
    fn drop(&mut self) {
        let mut slots = self.sessions.lock();
        let surplus = match self.session.take() {
            Some(session) if slots.0.len() < self.sessions.max_idle => {
                slots.0.push(session);
                None
            }
            session => {
                slots.1 -= 1;
                session
            }
        };
        drop(slots);
        self.sessions.freed.notify_one();
        drop(surplus);
    }
}

// ---------------------------------------------------------------------------
// Failure classification
// ---------------------------------------------------------------------------

/// Why a shard could not be completed over the wire. Transport failures
/// are environmental (retryable, hedgeable, degradable); execution
/// failures came back in a typed envelope from a worker that ran the
/// shard, or are a spawned worker's abnormal exit — deterministic, so
/// retrying or falling back cannot change them.
pub(crate) enum ShardFailure {
    Transport(XaiError),
    Execution(XaiError),
}

impl ShardFailure {
    pub(crate) fn into_error(self) -> XaiError {
        match self {
            ShardFailure::Transport(e) | ShardFailure::Execution(e) => e,
        }
    }
}

// ---------------------------------------------------------------------------
// One round trip
// ---------------------------------------------------------------------------

/// A descriptor's canonical bytes (the frame payload and the shard-cache
/// key) and the identity its reply must carry.
struct ShardRequest {
    payload: Arc<[u8]>,
    method: String,
    fingerprint: String,
    shard: usize,
    n_shards: usize,
}

impl ShardRequest {
    fn new(desc: &ShardDescriptor) -> Self {
        ShardRequest {
            payload: desc.to_json_string().into_bytes().into(),
            method: desc.method.clone(),
            fingerprint: desc.fingerprint.clone(),
            shard: desc.shard,
            n_shards: desc.n_shards,
        }
    }

    fn answered_by(&self, result: &ShardResult) -> bool {
        result.method == self.method
            && result.fingerprint == self.fingerprint
            && result.shard == self.shard
            && result.n_shards == self.n_shards
    }
}

/// The one frame round trip: exchange a request frame for a reply frame
/// on the slot's pooled session, or on a fresh one, then decode the reply
/// and check it against the request. Only a session whose exchange was
/// clean stays in the slot. A pooled session [found
/// dead](session_was_dead) is replaced by a fresh one once; every other
/// failure surfaces as it is.
fn request_once(slot: &mut Slot, request: &ShardRequest) -> Result<ShardResult, ShardFailure> {
    let sessions = &slot.sessions;
    let what = format!("shard {} -> {}", request.shard, sessions.endpoint);
    loop {
        let reused = slot.session.is_some();
        let mut session = match slot.session.take() {
            Some(session) => {
                sessions.counters.sessions_reused.fetch_add(1, Ordering::Relaxed);
                session
            }
            None => {
                let session = sessions
                    .endpoint
                    .open(sessions.connect_timeout, &what)
                    .map_err(ShardFailure::Transport)?;
                sessions.counters.connections_opened.fetch_add(1, Ordering::Relaxed);
                session
            }
        };
        let outcome = match session.exchange(&request.payload, sessions.io_timeout, &what) {
            Ok(bytes) => decode_reply(bytes, request, &what),
            Err(failure) if reused && session_was_dead(&failure) => continue,
            Err(failure) => return Err(failure),
        };
        if !matches!(outcome, Err(ShardFailure::Transport(_))) {
            slot.session = Some(session);
        }
        return outcome;
    }
}

fn decode_reply(
    bytes: Vec<u8>,
    request: &ShardRequest,
    what: &str,
) -> Result<ShardResult, ShardFailure> {
    let transport = ShardFailure::Transport;
    let text = String::from_utf8(bytes)
        .map_err(|_| transport(wire_error(format!("{what}: response is not UTF-8"))))?;
    let json = crate::json_parse::parse_json(&text).map_err(|_| {
        transport(wire_error(format!(
            "{what}: unparseable response frame ({} bytes)",
            text.len()
        )))
    })?;
    if is_error_envelope(&json) {
        let err = match error_from_json(&json).map_err(ShardFailure::Transport)? {
            // The worker may not know its shard index at panic time.
            XaiError::WorkerPanic { message, .. } => {
                XaiError::WorkerPanic { task: request.shard, message }
            }
            other => other,
        };
        return Err(ShardFailure::Execution(err));
    }
    let result = ShardResult::from_json(&json).map_err(ShardFailure::Transport)?;
    if !request.answered_by(&result) {
        return Err(transport(wire_error(format!(
            "{what}: worker answered '{}' shard {}/{} of model {} (lying worker)",
            result.method, result.shard, result.n_shards, result.fingerprint
        ))));
    }
    Ok(result)
}

// ---------------------------------------------------------------------------
// The cluster runner
// ---------------------------------------------------------------------------

/// The outcome of a cluster-transported explanation: the explanation
/// itself (bit-identical to the unsharded run whether it came over the
/// wire or from the fallback), whether the run degraded to in-process
/// execution, and the transport statistics.
#[derive(Clone, Debug)]
pub struct ClusterOutcome {
    /// The merged explanation.
    pub explanation: Explanation,
    /// True when the cluster was unavailable and the run fell back to
    /// the local in-process runner under [`FallbackPolicy::InProcess`].
    pub degraded: bool,
    /// Transport counters at completion.
    pub stats: ClusterStats,
}

/// Failure-first coordinator for shard execution across worker
/// endpoints: TCP daemons, or the spawned workers of a process pool.
/// See the module docs for the supervision design.
pub struct ClusterRunner {
    config: ClusterConfig,
    health: HealthTracker,
    counters: Arc<Counters>,
    sessions: Vec<Arc<SessionPool>>,
    pub(crate) shard_cache: Option<Arc<ShardCache>>,
}

impl ClusterRunner {
    /// Builds a runner, resolving every endpoint. Unparseable endpoint
    /// strings are typed [`XaiError::Parse`] errors; an empty endpoint
    /// list is [`XaiError::Unsupported`].
    pub fn new(config: ClusterConfig) -> XaiResult<ClusterRunner> {
        if config.endpoints.is_empty() {
            return Err(XaiError::Unsupported {
                context: "cluster transport needs at least one endpoint".into(),
            });
        }
        let endpoints = config
            .endpoints
            .iter()
            .map(|ep| {
                ep.parse::<SocketAddr>().map(Endpoint::Tcp).map_err(|e| {
                    wire_error(format!("cluster endpoint '{ep}' is not a socket address: {e}"))
                })
            })
            .collect::<XaiResult<Vec<Endpoint>>>()?;
        Ok(ClusterRunner::over(config, endpoints, usize::MAX, MAX_IDLE_SESSIONS))
    }

    /// A runner over resolved endpoints, each holding at most
    /// `max_live` sessions at once and keeping at most `max_idle` of
    /// them for reuse. The endpoints, not `config.endpoints`, name the
    /// health entries.
    pub(crate) fn over(
        config: ClusterConfig,
        endpoints: Vec<Endpoint>,
        max_live: usize,
        max_idle: usize,
    ) -> ClusterRunner {
        assert!(config.retry.max_attempts >= 1, "need at least one attempt per shard");
        assert!(max_live >= 1, "need at least one session (worker process) per endpoint");
        let health = HealthTracker::new(
            endpoints.iter().map(ToString::to_string).collect(),
            config.breaker_threshold,
            config.breaker_cooldown,
        );
        let counters = Arc::new(Counters::default());
        let sessions = endpoints
            .into_iter()
            .map(|endpoint| {
                Arc::new(SessionPool {
                    endpoint,
                    connect_timeout: config.connect_timeout,
                    io_timeout: config.io_timeout,
                    counters: Arc::clone(&counters),
                    slots: Mutex::new((Vec::new(), 0)),
                    freed: Condvar::new(),
                    limit: max_live,
                    max_idle,
                })
            })
            .collect();
        let shard_cache = (config.shard_cache_capacity > 0)
            .then(|| Arc::new(ShardCache::new(config.shard_cache_capacity)));
        ClusterRunner { config, health, counters, sessions, shard_cache }
    }

    /// The configuration this runner was built from.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Current per-endpoint health (breaker states, counters).
    pub fn health(&self) -> Vec<EndpointHealth> {
        self.health.snapshot()
    }

    /// Current transport counters.
    pub fn stats(&self) -> ClusterStats {
        let cache = self.shard_cache.as_ref().map(|c| c.stats()).unwrap_or_default();
        ClusterStats {
            attempts: self.counters.attempts.load(Ordering::Relaxed),
            retries: self.counters.retries.load(Ordering::Relaxed),
            hedges: self.counters.hedges.load(Ordering::Relaxed),
            hedge_wins: self.counters.hedge_wins.load(Ordering::Relaxed),
            transport_failures: self.counters.transport_failures.load(Ordering::Relaxed),
            breaker_trips: self.health.snapshot().iter().map(|h| h.trips).sum(),
            degraded: self.counters.degraded.load(Ordering::Relaxed) > 0,
            connections_opened: self.counters.connections_opened.load(Ordering::Relaxed),
            sessions_reused: self.counters.sessions_reused.load(Ordering::Relaxed),
            shard_cache_hits: cache.hits,
            shard_cache_misses: cache.misses,
        }
    }

    /// Marks the runner's last run as degraded (set by the backend layer
    /// when a job falls back to in-process execution).
    pub(crate) fn mark_degraded(&self) {
        self.counters.degraded.store(1, Ordering::Relaxed);
    }

    /// First admittable endpoint scanning from `start`, skipping
    /// `exclude`. `None` when every breaker is open and cooling down.
    fn pick_endpoint(&self, start: usize, exclude: Option<usize>) -> Option<usize> {
        let n = self.sessions.len();
        (0..n).map(|k| (start + k) % n).find(|&i| Some(i) != exclude && self.health.admit(i))
    }

    /// Launches one round trip on a detached thread; the result arrives
    /// on `tx` with the endpoint index and the slot, so the supervisor
    /// decides when the slot frees. The slot is taken here, on the
    /// caller's thread, so waiting for it never counts against a round
    /// trip's bound; once it is taken, a failed job launches nothing
    /// (`false`). Detached is deliberate: a hedged loser must not block
    /// the winner, and every exchange carries a deadline, so the thread
    /// always terminates.
    fn launch(
        &self,
        endpoint: usize,
        request: &Arc<ShardRequest>,
        job_failed: &AtomicBool,
        tx: &mpsc::Sender<(usize, Result<ShardResult, ShardFailure>, Slot)>,
    ) -> bool {
        let mut slot = self.sessions[endpoint].checkout();
        if job_failed.load(Ordering::Relaxed) {
            return false;
        }
        let request = Arc::clone(request);
        let tx = tx.clone();
        self.counters.attempts.fetch_add(1, Ordering::Relaxed);
        std::thread::spawn(move || {
            let outcome = request_once(&mut slot, &request);
            // Unheard (the supervisor moved on), the slot drops here.
            let _ = tx.send((endpoint, outcome, slot));
        });
        true
    }

    /// Supervises one shard to completion and reports whether the shard
    /// cache hit (`Some(true)`), missed (`Some(false)`) or is absent;
    /// `None` when the shard was not started because its job had failed.
    /// The descriptor is encoded once: those bytes key the shard cache
    /// and are the frame payload. A fresh success is inserted so a later
    /// retry, hedge, or repeat of the same key is answered locally.
    fn run_shard(
        &self,
        desc: &ShardDescriptor,
        job_failed: &AtomicBool,
    ) -> Option<(Result<ShardResult, ShardFailure>, Option<bool>)> {
        let request = Arc::new(ShardRequest::new(desc));
        let cached = self
            .shard_cache
            .as_ref()
            .map(|cache| (cache, descriptor_cache_key(&desc.fingerprint, &request.payload)));
        if let Some(result) = cached.and_then(|(cache, key)| cache.get(&key)) {
            return Some((Ok(result), Some(true)));
        }
        // Failed dispatches keep their slots until this shard's outcome
        // is known, so a failure that fails the job marks it before any
        // slot frees for another of its shards.
        let mut spent = Vec::new();
        let outcome = self.run_shard_transport(&request, job_failed, &mut spent)?;
        match (&outcome, cached) {
            (Ok(result), Some((cache, key))) => cache.insert(key, result.clone()),
            (Err(ShardFailure::Execution(_)), _) => job_failed.store(true, Ordering::Relaxed),
            (Err(_), _) if self.config.fallback == FallbackPolicy::Fail => {
                job_failed.store(true, Ordering::Relaxed)
            }
            _ => {}
        }
        drop(spent);
        Some((outcome, cached.map(|_| false)))
    }

    /// Supervises one shard over the wire: retry with backoff across
    /// healthy endpoints, hedge stragglers, classify failures. The slots
    /// of the final attempt's failed dispatches go to `spent`; `None`
    /// when the job failed before this shard could launch.
    fn run_shard_transport(
        &self,
        request: &Arc<ShardRequest>,
        job_failed: &AtomicBool,
        spent: &mut Vec<Slot>,
    ) -> Option<Result<ShardResult, ShardFailure>> {
        let shard = request.shard;
        // Upper bound on one round trip; recv waits are always bounded by
        // this, so a wedged session can never wedge the supervisor.
        // Saturating: an unbounded pool deadline is `Duration::MAX`.
        let (connect, io) = (self.config.connect_timeout, self.config.io_timeout);
        let trip_bound =
            connect.saturating_add(io.saturating_mul(2)).saturating_add(Duration::from_millis(500));
        let mut last: Option<ShardFailure> = None;
        for attempt in 0..self.config.retry.max_attempts {
            if attempt > 0 {
                spent.clear();
                self.counters.retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(self.config.retry.backoff(shard, attempt - 1));
            }
            let Some(primary) = self.pick_endpoint(shard + attempt, None) else {
                // Every breaker is open and cooling down. Keep the real
                // failure that tripped them (if any) rather than masking
                // it with this synthetic refusal.
                if last.is_none() {
                    last = Some(ShardFailure::Transport(XaiError::io(
                        IoKind::Refused,
                        format!(
                            "shard {shard}: no admittable endpoint (all circuit breakers open)"
                        ),
                    )));
                }
                continue;
            };
            let (tx, rx) = mpsc::channel();
            if !self.launch(primary, request, job_failed, &tx) {
                return None;
            }
            let started = Instant::now();
            let (mut inflight, mut hedged) = (1usize, false);
            // Straggler hedge: if the primary has not answered within
            // `hedge_after`, duplicate the shard onto a second endpoint.
            let mut hedge_at = self.config.hedge_after.filter(|&at| at < trip_bound);

            // Collect until a result wins or every in-flight dispatch of
            // this attempt has failed.
            while inflight > 0 {
                let wait = hedge_at.unwrap_or(trip_bound).saturating_sub(started.elapsed());
                match rx.recv_timeout(wait) {
                    Ok((ep, Ok(result), _)) => {
                        self.health.record_success(ep);
                        if hedged && ep != primary {
                            self.counters.hedge_wins.fetch_add(1, Ordering::Relaxed);
                        }
                        return Some(Ok(result));
                    }
                    Ok((ep, Err(ShardFailure::Execution(e)), slot)) => {
                        // The endpoint worked; the shard itself failed —
                        // deterministic, don't retry.
                        spent.push(slot);
                        self.health.record_success(ep);
                        return Some(Err(ShardFailure::Execution(e)));
                    }
                    Ok((ep, Err(ShardFailure::Transport(e)), slot)) => {
                        spent.push(slot);
                        self.health.record_failure(ep);
                        self.counters.transport_failures.fetch_add(1, Ordering::Relaxed);
                        last = Some(ShardFailure::Transport(e));
                        inflight -= 1;
                    }
                    Err(_) if hedge_at.take().is_some() => {
                        let secondary = self.pick_endpoint(shard + attempt + 1, Some(primary));
                        if secondary.is_some_and(|ep| self.launch(ep, request, job_failed, &tx)) {
                            self.counters.hedges.fetch_add(1, Ordering::Relaxed);
                            inflight += 1;
                            hedged = true;
                        }
                    }
                    Err(_) => {
                        // The trip bound elapsed with sockets still out —
                        // count it as a blown deadline and move on; the
                        // detached threads die on their own timeouts.
                        self.counters.transport_failures.fetch_add(1, Ordering::Relaxed);
                        last = Some(ShardFailure::Transport(XaiError::BudgetExceeded {
                            context: format!(
                                "shard {shard}: attempt {attempt} exceeded the {trip_bound:?} \
                                 round-trip bound"
                            ),
                            completed: 0,
                        }));
                        break;
                    }
                }
            }
        }
        Some(Err(last.unwrap_or_else(|| {
            ShardFailure::Transport(XaiError::io(
                IoKind::Other,
                format!("shard {shard}: no transport attempt was possible"),
            ))
        })))
    }

    /// Runs every descriptor, keeping the transport/execution failure
    /// classification, and counts this dispatch's own shard-cache
    /// `(hits, misses)` — the dispatch core shared with
    /// [`crate::backend::execute_cluster`]. Once a shard fails the job
    /// (an execution failure, or any failure under
    /// [`FallbackPolicy::Fail`]), shards not yet launched are skipped.
    pub(crate) fn run_classified(
        &self,
        descs: &[ShardDescriptor],
    ) -> (Result<Vec<ShardResult>, ShardFailure>, (u64, u64)) {
        let job_failed = AtomicBool::new(false);
        let outcomes: Vec<_> = std::thread::scope(|scope| {
            let job_failed = &job_failed;
            let handles: Vec<_> =
                descs.iter().map(|d| scope.spawn(move || self.run_shard(d, job_failed))).collect();
            handles
                .into_iter()
                .filter_map(|h| {
                    h.join().unwrap_or_else(|_| {
                        let panicked = XaiError::io(
                            IoKind::Other,
                            "shard supervisor thread panicked".to_string(),
                        );
                        Some((Err(ShardFailure::Transport(panicked)), None))
                    })
                })
                .collect()
        });
        let count = |hit: bool| outcomes.iter().filter(|(_, h)| *h == Some(hit)).count() as u64;
        let lookups = (count(true), count(false));
        // Sequence in shard order so the lowest-indexed failure among the
        // shards that ran wins; skipped shards only follow a failure.
        (outcomes.into_iter().map(|(outcome, _)| outcome).collect(), lookups)
    }

    /// Executes pre-built descriptors across the cluster and returns the
    /// results in shard order. The transport primitive under
    /// [`ClusterRunner::explain`]; no fallback is applied here.
    pub fn run_descriptors(&self, descs: &[ShardDescriptor]) -> XaiResult<Vec<ShardResult>> {
        self.run_classified(descs).0.map_err(ShardFailure::into_error)
    }

    /// The whole story: cut the request into `n_shards` descriptors, ship
    /// them to the cluster with retry/hedging/breaker supervision, merge
    /// the results bit-identically to the unsharded run — and, when the
    /// cluster is entirely unavailable and policy allows, fall back to
    /// the in-process runner with a `degraded` marker. A thin constructor
    /// over the shared backend core
    /// ([`crate::backend::execute_cluster`]).
    ///
    /// `model_json` is the model's persisted form (it travels inside each
    /// descriptor); requests carrying borrowed background/test/utility
    /// state are rejected exactly as in
    /// [`crate::shard::build_descriptors`].
    pub fn explain(
        &self,
        explainer: &dyn ShardableExplainer,
        model: &dyn ModelOracle,
        req: &ExplainRequest<'_>,
        model_json: Json,
        n_shards: usize,
    ) -> XaiResult<ClusterOutcome> {
        let job =
            BackendJob::new(explainer, model, req, n_shards).with_model_json(model_json);
        let outcome = crate::backend::execute_cluster(self, &job)?;
        Ok(ClusterOutcome {
            explanation: outcome.explanation,
            degraded: outcome.degraded,
            stats: self.stats(),
        })
    }
}

/// One-shot convenience over [`ClusterRunner::explain`].
pub fn explain_cluster(
    explainer: &dyn ShardableExplainer,
    model: &dyn ModelOracle,
    req: &ExplainRequest<'_>,
    model_json: Json,
    n_shards: usize,
    config: &ClusterConfig,
) -> XaiResult<ClusterOutcome> {
    ClusterRunner::new(config.clone())?.explain(explainer, model, req, model_json, n_shards)
}

// ---------------------------------------------------------------------------
// The daemon side of one connection
// ---------------------------------------------------------------------------

/// The worker's one session loop, over a TCP connection (the daemon) or
/// over stdin and stdout (a pool worker): read descriptor frames from
/// `input` until the peer closes cleanly, executing each via `execute`
/// and answering on `output` with the reply it returns — or a typed
/// error envelope frame, so the peer always learns *why*. Returns the
/// number of frames served. The caller sets any socket timeouts. The
/// executor is a closure because only the facade crate knows how to
/// rebuild models and methods; panics inside it must already be caught
/// there.
pub fn serve_connection(
    mut input: impl Read,
    mut output: impl Write,
    execute: &dyn Fn(&str) -> XaiResult<String>,
) -> XaiResult<u64> {
    let what = "shard worker session";
    let mut served = 0u64;
    loop {
        let Some(bytes) = read_frame_or_eof(&mut input, what)? else {
            return Ok(served);
        };
        let reply = match String::from_utf8(bytes) {
            Ok(text) => execute(&text).unwrap_or_else(|e| error_to_json(&e).to_json()),
            Err(_) => error_to_json(&wire_error(format!("{what}: request frame is not UTF-8")))
                .to_json(),
        };
        write_frame(&mut output, reply.as_bytes(), what)?;
        served += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello shard", "test").unwrap();
        let mut cursor = Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor, "test").unwrap(), b"hello shard");
    }

    #[test]
    fn empty_frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"", "test").unwrap();
        assert_eq!(read_frame(&mut Cursor::new(buf), "test").unwrap(), b"");
    }

    #[test]
    fn bad_magic_is_a_parse_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload", "test").unwrap();
        buf[0] = b'H'; // an HTTP client, say
        let err = read_frame(&mut Cursor::new(buf), "test").unwrap_err();
        assert!(matches!(err, XaiError::Parse { .. }), "{err}");
    }

    #[test]
    fn absurd_length_is_a_parse_error_not_an_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&FRAME_MAGIC);
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        let err = read_frame(&mut Cursor::new(buf), "test").unwrap_err();
        assert!(matches!(err, XaiError::Parse { .. }), "{err}");
    }

    #[test]
    fn truncation_is_a_short_read_at_any_cut() {
        let mut full = Vec::new();
        write_frame(&mut full, b"0123456789", "test").unwrap();
        for cut in [0, 3, 8, full.len() - 1] {
            let err = read_frame(&mut Cursor::new(full[..cut].to_vec()), "test").unwrap_err();
            assert!(
                matches!(err, XaiError::Io { kind: IoKind::ShortRead, .. }),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn a_huge_length_header_allocates_only_what_arrives() {
        /// Panics if a read is ever handed a buffer over 1 MiB.
        struct Stingy(Cursor<Vec<u8>>);
        impl Read for Stingy {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                assert!(buf.len() <= 1 << 20, "handed a {}-byte buffer", buf.len());
                self.0.read(buf)
            }
        }
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&FRAME_MAGIC);
        bytes.extend_from_slice(&(MAX_FRAME_BYTES as u32).to_be_bytes());
        bytes.extend_from_slice(&[7u8; 100]);
        let err = read_frame(&mut Stingy(Cursor::new(bytes)), "test").unwrap_err();
        assert!(matches!(err, XaiError::Io { kind: IoKind::ShortRead, .. }), "{err}");
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_growing() {
        let policy = RetryPolicy {
            max_attempts: 6,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            jitter_seed: 7,
        };
        for shard in 0..4 {
            let mut previous_exp = Duration::ZERO;
            for attempt in 0..6 {
                let a = policy.backoff(shard, attempt);
                let b = policy.backoff(shard, attempt);
                assert_eq!(a, b, "jitter must be a pure function of (seed, shard, attempt)");
                assert!(a <= policy.max_backoff, "backoff {a:?} above cap");
                // The deterministic exponential part grows until capped.
                let exp = policy
                    .base_backoff
                    .saturating_mul(2u32.saturating_pow(attempt as u32))
                    .min(policy.max_backoff);
                assert!(exp >= previous_exp);
                assert!(a >= exp, "jitter only adds");
                previous_exp = exp;
            }
        }
        // Different shards see different jitter (no herd in lockstep).
        let jitters: Vec<Duration> = (0..8).map(|s| policy.backoff(s, 0)).collect();
        assert!(jitters.windows(2).any(|w| w[0] != w[1]), "{jitters:?}");
    }

    #[test]
    fn breaker_trips_after_threshold_and_halfopen_probes() {
        let health =
            HealthTracker::new(vec!["a:1".into(), "b:2".into()], 2, Duration::ZERO);
        assert!(health.admit(0));
        health.record_failure(0);
        assert!(health.admit(0), "one failure below threshold keeps the breaker closed");
        health.record_failure(0);
        let snap = health.snapshot();
        assert_eq!(snap[0].state, BreakerState::Open);
        assert_eq!(snap[0].trips, 1);
        assert_eq!(snap[1].state, BreakerState::Closed, "endpoints are independent");

        // Cooldown ZERO: the next admit is the half-open probe; a second
        // caller keeps being routed around while the probe is out.
        assert!(health.admit(0));
        assert_eq!(health.snapshot()[0].state, BreakerState::HalfOpen);
        assert!(!health.admit(0));

        // Probe fails -> re-open (and a second trip); probe succeeds -> closed.
        health.record_failure(0);
        assert_eq!(health.snapshot()[0].state, BreakerState::Open);
        assert_eq!(health.snapshot()[0].trips, 2);
        assert!(health.admit(0));
        health.record_success(0);
        let snap = health.snapshot();
        assert_eq!(snap[0].state, BreakerState::Closed);
        assert_eq!(snap[0].consecutive_failures, 0);
    }

    #[test]
    fn empty_endpoint_list_is_unsupported_and_bad_addresses_are_parse_errors() {
        let err = ClusterRunner::new(ClusterConfig::new(Vec::<String>::new()))
            .err()
            .expect("empty endpoint list must be rejected");
        assert!(matches!(err, XaiError::Unsupported { .. }), "{err}");
        let err = ClusterRunner::new(ClusterConfig::new(["not-an-address"]))
            .err()
            .expect("bad address must be rejected");
        assert!(matches!(err, XaiError::Parse { .. }), "{err}");
    }
}
