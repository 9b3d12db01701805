//! Real-socket transport: multiplexed, pipelined envelopes over
//! loopback TCP, driven by a shared reactor pool.
//!
//! [`TcpTransport`] implements [`Transport`] over `std::net`, proving
//! the whole federated stack — DNS discovery, batched sessions, map
//! servers — runs end to end over actual sockets, not just the
//! simulator:
//!
//! - **Shared reactors**: every socket — client and served sides
//!   both — is registered with one of a small fixed pool of event-loop
//!   threads (default `min(cores, 8)`, overridable via
//!   [`TcpTransport::with_reactors`]), each waiting on a level-triggered
//!   epoll set. A reactor owns a slab of connections: it runs
//!   non-blocking reads through the incremental framing-v2 decoder
//!   ([`openflame_codec::framing::FrameDecoder`] — partial frames
//!   across arbitrary split boundaries are the normal case),
//!   demultiplexes responses by correlation id, accepts connections,
//!   writes responses, and writes whatever a submitter's direct write
//!   left over. A socket is
//!   registered once and its interest changed only when it really
//!   changes, so an event costs work for the ready sockets only; the
//!   whole slab is revisited only after the reactor's eventfd waker
//!   fired. Thread count is O(reactor pool + dispatch pool) —
//!   **independent of servers, connections, fan-out width and call
//!   volume**; the pipelining stress test pins this down at 128
//!   servers × 8 sessions.
//! - **Served endpoints** bind a `127.0.0.1:0` listener registered
//!   with a reactor; accepted connections are spread across the pool.
//!   Decoded requests go to a transport-wide dispatch pool of
//!   [`DISPATCH_POOL`] workers which invoke the bound [`WireService`]
//!   concurrently. The worker frames its response and queues it for
//!   the reactor in **completion order**, with the request's
//!   correlation id echoed, waking the reactor when the queue was
//!   empty: a slow request head-of-line blocks only its own
//!   completion, never the pipelined requests behind it. Each connection holds at most
//!   [`SERVE_PIPELINE`] decoded requests in dispatch; past that the
//!   reactor drops the connection's read interest
//!   (readiness-deregistration backpressure) until responses drain —
//!   bounded buffering without a blocked reader thread.
//! - **Admission control**: a served endpoint with an
//!   [`OverloadPolicy`] installed counts requests queued-or-executing
//!   in dispatch across all its connections and answers excess
//!   arrivals with the policy's busy payload instead of dispatching
//!   them — bounded by `max_depth` endpoint-wide and by
//!   [`OverloadPolicy::principal_cap`] per principal, so one hot
//!   principal is shed first and cannot starve the endpoint. Shed
//!   replies bypass the dispatch pool entirely; the shed request is
//!   never executed, which is what makes client retries safe.
//! - **Multiplexed connections**: one pooled connection carries many
//!   in-flight requests at once; out-of-order completion is matched
//!   by correlation id. A scatter over 64 servers reuses the same 64
//!   warm connections round after round on the same handful of
//!   reactor threads.
//! - **Submit/completion**: [`Transport::submit`] encodes the frame
//!   and, on an established connection with nothing queued, writes it
//!   to the non-blocking socket itself; only a remainder the socket
//!   would not take is queued for the owning reactor, which is then
//!   woken. It returns a [`CallHandle`] at once and never blocks on a
//!   dial (connects are non-blocking too; frames queue behind the
//!   handshake, and N cold dials to N servers proceed concurrently).
//!   Waiting on the handle parks on a completion cell the reactor
//!   fills. A warm call thus wakes a reactor at most once, for its
//!   response. Bounded fan-out falls out
//!   of the pool: at most [`POOL_CAP`] connections per destination,
//!   each pipelining up to [`PIPELINE_DEPTH`] requests before another
//!   connection is dialed; beyond that, requests queue on the
//!   least-loaded connection.
//! - **Failure injection** mirrors the simulator: a down endpoint
//!   fails with [`NetError::EndpointDown`] and its server side cuts
//!   the connection instead of answering; message drops surface as
//!   [`NetError::Timeout`].
//!
//! Clocks are wall-clock microseconds since transport creation, so the
//! TTL caches built on [`Transport::now_us`] age in real time. Traffic
//! counters are charged on the waiting side when a completion is
//! claimed and include the frame header; raw sockets poking a listener
//! from outside this transport are served but not counted. A call
//! whose request frame was **written** charges its request bytes even
//! when the call then fails or times out — the bytes were really spent
//! on the wire, and per-endpoint counters must not under-report
//! traffic under failure injection (the single stale-connection retry
//! charges both transmissions). Calls that never reach a socket
//! (drop-injected, endpoint down, queued behind a dead dial) charge
//! nothing; the simulator charges per hop — so cross-backend stats
//! parity (identical message counts for identical workloads) holds for
//! failure-free runs, and under injected loss the counters reflect
//! each backend's own semantics.
//!
//! A response whose correlation id matches no in-flight request (for
//! example, one that arrives after its waiter timed out) is discarded
//! and counted in [`TcpTransport::orphan_responses`]; it never
//! completes a different call. Worker threads are detached but bounded
//! and observable via [`TcpTransport::worker_threads`]: the reactor
//! pool plus the dispatch pool, nothing per connection, endpoint or
//! call. Dropping the last transport handle wakes every reactor; each
//! exits, closing its listeners (releasing their ports) and
//! connections and dropping its service handles, which unwinds the
//! dispatch pool. This backend is built for tests, benches and
//! single-process demos, not as a hardened production server.

use crate::reactor::{
    connect_nonblocking, Epoll, EpollEvent, Waker, EPOLLIN, EPOLLOUT, WAKER_TOKEN,
};
use crate::stats::{EndpointLatency, EndpointStats, NetStats};
use crate::transport::{
    CallHandle, DispatchGauge, OverloadPolicy, PendingCall, Transfer, Transport, WireService,
};
use crate::{EndpointId, NetError, ThreadGuard};
use openflame_codec::framing::{write_frame, FrameDecoder, FRAME_HEADER_LEN};
use openflame_diag::{ranks, OrderedCondvar, OrderedMutex};
use openflame_geo::LatLng;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Pipelined connections kept per destination endpoint.
pub const POOL_CAP: usize = 4;

/// In-flight requests a connection absorbs before the pool dials
/// another one (further requests queue on the least-loaded connection
/// — the bounded-fan-out knob).
pub const PIPELINE_DEPTH: usize = 32;

/// Concurrent dispatch workers for the whole transport: decoded
/// frames from every served connection of every endpoint are executed
/// by this many threads. A fixed transport-wide pool (not per
/// endpoint) is what keeps the thread ceiling O(cores)-ish no matter
/// how many endpoints serve.
pub const DISPATCH_POOL: usize = 8;

/// Decoded requests one server connection may hold in dispatch at once
/// (queued for a worker, executing, or awaiting its response write)
/// before its reactor drops the connection's read interest — the
/// server-side bounded-queue mirror of the client's
/// [`PIPELINE_DEPTH`], expressed as readiness-deregistration instead
/// of a blocked reader thread.
pub const SERVE_PIPELINE: usize = PIPELINE_DEPTH;

/// Hard cap on the reactor pool (the default is
/// `min(available cores, MAX_REACTORS)`).
pub const MAX_REACTORS: usize = 8;

fn default_reactor_count() -> usize {
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(MAX_REACTORS)
}

// ---------------------------------------------------------------------
// Completion plumbing.
// ---------------------------------------------------------------------

/// A completed call's payload-or-error, plus the context the retry
/// policy needs.
struct CellDone {
    result: io::Result<Vec<u8>>,
    /// Whether this request was the only one in flight on its
    /// connection when the outcome landed. A connection-death failure
    /// is only retried when true: with siblings pipelined behind it,
    /// the server may have processed any of them before the cut, and
    /// re-sending would duplicate non-idempotent work.
    sole_in_flight: bool,
}

/// One in-flight request's completion slot, filled exactly once by a
/// reactor (or by the timeout path abandoning it).
///
/// Uses the crate-wide ranked wrappers (`openflame-diag`): the cell is
/// the innermost lock a reactor touches while routing a response.
struct CompletionCell {
    state: OrderedMutex<Option<CellDone>>,
    cond: OrderedCondvar,
    /// Set by the reactor the moment it starts putting the request
    /// frame on the socket. Failed calls whose frame was written still
    /// charge their request bytes — the bytes were really spent on the
    /// wire (see [`TcpTransport::charge_tx`]).
    sent: AtomicBool,
}

impl CompletionCell {
    fn new() -> Self {
        Self {
            state: OrderedMutex::new(ranks::TCP_COMPLETION, None),
            cond: OrderedCondvar::new(),
            sent: AtomicBool::new(false),
        }
    }

    fn was_sent(&self) -> bool {
        self.sent.load(Ordering::SeqCst)
    }

    fn fill(&self, result: io::Result<Vec<u8>>, sole_in_flight: bool) {
        let mut state = self.state.lock();
        if state.is_none() {
            *state = Some(CellDone {
                result,
                sole_in_flight,
            });
            self.cond.notify_all();
        }
    }

    /// Blocks until filled or `deadline`; `None` means the deadline
    /// passed first.
    fn wait_until(&self, deadline: Instant) -> Option<CellDone> {
        let mut state = self.state.lock();
        loop {
            if state.is_some() {
                return state.take();
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (next, _) = self.cond.wait_timeout(state, deadline - now);
            state = next;
        }
    }
}

/// A connection's demultiplexer: correlation id → completion cell.
/// Shared between the submitting side and the connection's reactor.
struct Demux {
    pending: OrderedMutex<HashMap<u64, Arc<CompletionCell>>>,
    /// Responses successfully delivered on this connection, ever. The
    /// retry policy compares snapshots of this: a delivery after a
    /// request was submitted proves the server was alive and
    /// processing past that point, so a subsequent connection death no
    /// longer proves the request untouched.
    delivered: AtomicU64,
    /// Transport-wide count of discarded responses (unknown or
    /// already-completed correlation ids).
    orphans: Arc<AtomicU64>,
}

impl Demux {
    fn new(orphans: Arc<AtomicU64>) -> Self {
        Self {
            pending: OrderedMutex::new(ranks::TCP_DEMUX, HashMap::new()),
            delivered: AtomicU64::new(0),
            orphans,
        }
    }

    fn delivered(&self) -> u64 {
        self.delivered.load(Ordering::SeqCst)
    }

    fn register(&self, corr: u64) -> Arc<CompletionCell> {
        let cell = Arc::new(CompletionCell::new());
        self.pending.lock().insert(corr, cell.clone());
        cell
    }

    /// Routes a response to its waiter. A correlation id that matches
    /// no in-flight request — never issued, already completed
    /// (duplicate), or abandoned by a timed-out waiter — is discarded
    /// and counted, never delivered to a different call.
    fn complete(&self, corr: u64, result: io::Result<Vec<u8>>) {
        let (cell, sole) = {
            let mut pending = self.pending.lock();
            let cell = pending.remove(&corr);
            (cell, pending.is_empty())
        };
        match cell {
            Some(cell) => {
                if result.is_ok() {
                    self.delivered.fetch_add(1, Ordering::SeqCst);
                }
                cell.fill(result, sole);
            }
            None => {
                self.orphans.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Fails every in-flight request (the connection died). Each cell
    /// learns whether it was alone in flight — the retry policy's
    /// safety condition.
    fn fail_all(&self, kind: io::ErrorKind, msg: &str) {
        let cells: Vec<_> = self.pending.lock().drain().map(|(_, cell)| cell).collect();
        let sole = cells.len() == 1;
        for cell in cells {
            cell.fill(Err(io::Error::new(kind, msg.to_string())), sole);
        }
    }

    /// Marks a request's frame as on its way onto the socket (the
    /// reactor calls this immediately before the first write), so
    /// failure paths know whether the request bytes were spent.
    fn mark_sent(&self, corr: u64) {
        if let Some(cell) = self.pending.lock().get(&corr) {
            cell.sent.store(true, Ordering::SeqCst);
        }
    }

    /// Abandons a request (timed-out waiter, racing submitter); a late
    /// response becomes an orphan. Returns whether the slot was still
    /// pending.
    fn forget(&self, corr: u64) -> bool {
        self.pending.lock().remove(&corr).is_some()
    }

    fn in_flight(&self) -> usize {
        self.pending.lock().len()
    }
}

// ---------------------------------------------------------------------
// Client connections.
// ---------------------------------------------------------------------

/// One encoded frame waiting in (or part-way through) a connection's
/// write queue.
struct OutFrame {
    corr: u64,
    buf: Vec<u8>,
    off: usize,
}

#[derive(Default)]
struct OutQueue {
    /// Set by the reactor when the connection dies: enqueue attempts
    /// fail fast instead of queueing frames nobody will ever write.
    closed: bool,
    /// Set by the reactor once the handshake completes; from then on a
    /// submitter that finds the queue empty writes its frame itself.
    established: bool,
    /// Frames waiting for the socket in submission order; the front
    /// one may be part-written.
    frames: VecDeque<OutFrame>,
}

/// One pooled, pipelined client connection. The owning reactor reads
/// the socket; writes go through whoever holds `out` — the submitter
/// itself when nothing is queued, the reactor for what the socket
/// would not take at once.
struct ClientConn {
    addr: SocketAddr,
    demux: Arc<Demux>,
    /// Set when the connection dies or goes stale; broken connections
    /// are pruned from the pool on the next checkout and closed by
    /// their reactor once drained.
    broken: Arc<AtomicBool>,
    /// Set by `set_down`: the reactor cuts the connection immediately,
    /// failing whatever is in flight (a crashed server does not drain
    /// gracefully).
    kill: AtomicBool,
    /// The socket; `None` only when the dial failed synchronously (the
    /// connection is then born closed and never registered).
    stream: Option<TcpStream>,
    out: OrderedMutex<OutQueue>,
    /// The reactor that owns the socket — woken when a frame is left
    /// queued for it.
    reactor: Arc<ReactorShared>,
}

impl ClientConn {
    /// Sends a frame. On an established connection with nothing queued
    /// the frame goes straight onto the socket, under the `out` lock
    /// that serializes every write of this connection; the reactor gets
    /// only what the socket would not take at once (or a write error to
    /// diagnose). Frames queue behind a pending handshake or earlier
    /// frames. `Err` when the connection is already closed (so the
    /// caller can re-route without re-sending anything — the frame
    /// never touched the socket).
    fn enqueue(&self, mut frame: OutFrame) -> Result<(), ()> {
        let mut out = self.out.lock();
        if out.closed {
            return Err(());
        }
        // Only a direct write's remainder needs a wake: before the
        // handshake completes the reactor watches writability anyway,
        // and frames behind others ride the interest the first one
        // raised.
        let direct = out.established && out.frames.is_empty();
        if direct {
            if let Some(stream) = &self.stream {
                // The frame is going onto the socket now: even if the
                // write (or the whole call) fails from here on, its
                // request bytes count as wire traffic.
                self.demux.mark_sent(frame.corr);
                if let Ok(true) = write_some(stream, &frame.buf, &mut frame.off) {
                    return Ok(());
                }
                #[cfg(test)]
                self.reactor
                    .probe
                    .client_remainders
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        out.frames.push_back(frame);
        drop(out);
        if direct {
            self.reactor.waker.wake();
        }
        Ok(())
    }
}

/// Writes as much of `buf[*off..]` as the non-blocking socket takes
/// now, advancing `off`: `Ok(true)` once the whole buffer is out,
/// `Ok(false)` when the socket would block first.
fn write_some(stream: &TcpStream, buf: &[u8], off: &mut usize) -> io::Result<bool> {
    let mut stream = stream;
    while *off < buf.len() {
        match stream.write(&buf[*off..]) {
            Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "wrote zero bytes")),
            Ok(n) => *off += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

// ---------------------------------------------------------------------
// Reactor pool.
// ---------------------------------------------------------------------

/// The cross-thread face of one reactor: a queue of sockets to adopt
/// plus the waker that pops its `epoll_wait`.
struct ReactorShared {
    adopt: OrderedMutex<Vec<Entry>>,
    waker: Waker,
    #[cfg(test)]
    probe: ReactorProbe,
}

impl ReactorShared {
    fn new() -> Self {
        Self {
            adopt: OrderedMutex::new(ranks::TCP_REACTOR_CMDS, Vec::new()),
            waker: Waker::new().expect("create reactor waker"),
            #[cfg(test)]
            probe: ReactorProbe::default(),
        }
    }

    /// Hands a socket to this reactor from another thread.
    fn push(&self, entry: Entry) {
        self.adopt.lock().push(entry);
        self.waker.wake();
    }

    fn take_adopted(&self) -> Vec<Entry> {
        std::mem::take(&mut *self.adopt.lock())
    }
}

/// Test-only counts of one reactor's work.
#[cfg(test)]
#[derive(Default)]
struct ReactorProbe {
    /// Returns from `epoll_wait`, whatever woke it.
    loops: AtomicU64,
    /// Loop rounds in which the waker had fired.
    wakes: AtomicU64,
    /// Frames a submitter's direct write left (part-)unwritten.
    client_remainders: AtomicU64,
    /// While set, every `epoll_ctl` registration change fails as if
    /// the kernel were out of watches.
    refuse_registration: AtomicBool,
}

struct ReactorPool {
    handles: Vec<Arc<ReactorShared>>,
    next: AtomicUsize,
}

impl ReactorPool {
    /// Round-robin assignment of new sockets across the pool.
    fn pick(&self) -> Arc<ReactorShared> {
        let i = self.next.fetch_add(1, Ordering::Relaxed) % self.handles.len();
        self.handles[i].clone()
    }

    fn wake_all(&self) {
        for handle in &self.handles {
            handle.waker.wake();
        }
    }
}

// ---------------------------------------------------------------------
// Transport state.
// ---------------------------------------------------------------------

struct Endpoint {
    name: String,
    /// Listener address once the endpoint serves; `None` for clients.
    addr: Option<SocketAddr>,
    /// Shared with the endpoint's server-side connections: when set,
    /// they cut instead of answering.
    down: Arc<AtomicBool>,
    stats: EndpointStats,
    latency: EndpointLatency,
    /// Pooled pipelined connections *to* this endpoint.
    conns: Vec<Arc<ClientConn>>,
    /// Admission book for the endpoint's serve path (policy, live
    /// dispatch depth, per-principal split); shared with every served
    /// connection and with the dispatch workers.
    gauge: Arc<DispatchGauge>,
}

struct Inner {
    epoch: Instant,
    next_id: AtomicU64,
    next_corr: AtomicU64,
    timeout_us: AtomicU64,
    /// Drop probability as IEEE-754 bits (atomics hold no f64).
    drop_bits: AtomicU64,
    rng: OrderedMutex<StdRng>,
    stats: OrderedMutex<NetStats>,
    endpoints: OrderedMutex<HashMap<EndpointId, Endpoint>>,
    /// Configured reactor pool size (threads spawn lazily on first
    /// dial or `set_service`).
    reactor_count: usize,
    reactors: OrderedMutex<Option<Arc<ReactorPool>>>,
    /// Master sender of the transport-wide dispatch pool.
    dispatch: OrderedMutex<Option<mpsc::Sender<ServeJob>>>,
    /// Live worker threads: reactors plus dispatch workers.
    threads: Arc<AtomicUsize>,
    /// Responses discarded because no in-flight request matched.
    orphans: Arc<AtomicU64>,
    /// Requests shed by admission control, transport-wide.
    shed: Arc<AtomicU64>,
    /// Set when the last transport handle drops; reactors exit on
    /// their next wakeup, releasing listeners, sockets and services.
    shutdown: Arc<AtomicBool>,
}

impl Drop for Inner {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake every reactor so it observes the flag now: each exits,
        // dropping its listeners (releasing their ports), its
        // connections and its service/dispatch handles — which in turn
        // unwinds the dispatch pool once our master sender below goes
        // too. No connect-storm, no per-endpoint walk: teardown cost
        // is O(reactors) regardless of how many endpoints served.
        if let Some(pool) = self.reactors.get_mut().take() {
            pool.wake_all();
        }
    }
}

/// [`Transport`] over real loopback TCP sockets (see module docs).
///
/// Cheap to clone (shared handle), and usually passed around as
/// `Arc<dyn Transport>` via [`TcpTransport::shared`].
#[derive(Clone)]
pub struct TcpTransport {
    inner: Arc<Inner>,
}

impl TcpTransport {
    /// Creates a transport with the default reactor pool
    /// (`min(cores, MAX_REACTORS)`). `seed` drives the drop-injection
    /// RNG.
    pub fn new(seed: u64) -> Self {
        Self::with_reactors(seed, default_reactor_count())
    }

    /// Creates a transport with an explicit reactor-pool size
    /// (clamped to `1..=MAX_REACTORS`).
    pub fn with_reactors(seed: u64, reactors: usize) -> Self {
        Self {
            inner: Arc::new(Inner {
                epoch: Instant::now(),
                next_id: AtomicU64::new(1),
                next_corr: AtomicU64::new(1),
                timeout_us: AtomicU64::new(2_000_000),
                drop_bits: AtomicU64::new(0f64.to_bits()),
                rng: OrderedMutex::new(ranks::TCP_RNG, StdRng::seed_from_u64(seed)),
                stats: OrderedMutex::new(ranks::TCP_STATS, NetStats::default()),
                endpoints: OrderedMutex::new(ranks::TCP_ENDPOINTS, HashMap::new()),
                reactor_count: reactors.clamp(1, MAX_REACTORS),
                reactors: OrderedMutex::new(ranks::TCP_REACTORS, None),
                dispatch: OrderedMutex::new(ranks::TCP_DISPATCH_POOL, None),
                threads: Arc::new(AtomicUsize::new(0)),
                orphans: Arc::new(AtomicU64::new(0)),
                shed: Arc::new(AtomicU64::new(0)),
                shutdown: Arc::new(AtomicBool::new(false)),
            }),
        }
    }

    /// Creates a transport as a shared `Arc<dyn Transport>`.
    pub fn shared(seed: u64) -> Arc<dyn Transport> {
        Arc::new(Self::new(seed))
    }

    /// The socket address an endpoint listens on, if it serves.
    pub fn listen_addr(&self, id: EndpointId) -> Option<SocketAddr> {
        self.inner.endpoints.lock().get(&id).and_then(|e| e.addr)
    }

    /// Live worker threads: the reactor pool plus the shared dispatch
    /// pool. Bounded by [`TcpTransport::reactor_threads`] `+`
    /// [`DISPATCH_POOL`] — **not** by endpoints, connections, fan-out
    /// width or call volume; the pipelining stress test pins this
    /// down.
    pub fn worker_threads(&self) -> usize {
        self.inner.threads.load(Ordering::SeqCst)
    }

    /// Configured reactor-pool size (the event-loop thread budget).
    pub fn reactor_threads(&self) -> usize {
        self.inner.reactor_count
    }

    /// Responses discarded because their correlation id matched no
    /// in-flight request (late responses after a timeout, duplicates).
    pub fn orphan_responses(&self) -> u64 {
        self.inner.orphans.load(Ordering::Relaxed)
    }

    /// Pooled connections currently held toward `to` (test hook).
    #[cfg(test)]
    fn pooled_conns(&self, to: EndpointId) -> usize {
        self.inner
            .endpoints
            .lock()
            .get(&to)
            .map(|e| e.conns.len())
            .unwrap_or(0)
    }

    fn timeout(&self) -> Duration {
        Duration::from_micros(self.inner.timeout_us.load(Ordering::Relaxed).max(1_000))
    }

    /// The lazily spawned reactor pool.
    fn reactor_pool(&self) -> Arc<ReactorPool> {
        let mut slot = self.inner.reactors.lock();
        if let Some(pool) = slot.as_ref() {
            return pool.clone();
        }
        let handles: Vec<Arc<ReactorShared>> = (0..self.inner.reactor_count)
            .map(|_| Arc::new(ReactorShared::new()))
            .collect();
        let pool = Arc::new(ReactorPool {
            handles,
            next: AtomicUsize::new(0),
        });
        for idx in 0..self.inner.reactor_count {
            let epoll = Epoll::new().expect("create reactor epoll set");
            epoll
                .add(pool.handles[idx].waker.fd(), WAKER_TOKEN, EPOLLIN)
                .expect("register reactor waker");
            let guard = ThreadGuard::enter(&self.inner.threads);
            let pool = pool.clone();
            let shutdown = self.inner.shutdown.clone();
            thread::Builder::new()
                .name(format!("ofl-tcp-reactor-{idx}"))
                .spawn(move || {
                    let _guard = guard;
                    run_reactor(idx, epoll, pool, shutdown);
                })
                .expect("spawn reactor");
        }
        *slot = Some(pool.clone());
        pool
    }

    /// The lazily spawned transport-wide dispatch pool's job sender.
    fn dispatch_sender(&self) -> mpsc::Sender<ServeJob> {
        let mut slot = self.inner.dispatch.lock();
        if let Some(tx) = slot.as_ref() {
            return tx.clone();
        }
        let tx = spawn_dispatch_pool(&self.inner.threads);
        *slot = Some(tx.clone());
        tx
    }

    /// Wakes every reactor (no-op before the pool exists) so state
    /// changes made outside the event loop — timeout pruning,
    /// `set_down` kills — are noticed now, not at the next I/O event.
    fn wake_reactors(&self) {
        if let Some(pool) = self.inner.reactors.lock().as_ref() {
            pool.wake_all();
        }
    }

    /// Creates a connection toward `addr`: the socket starts a
    /// non-blocking connect and is handed to a reactor mid-handshake —
    /// `submit` never blocks on a dial, frames queue behind the
    /// in-progress handshake, and N cold dials to N servers proceed
    /// concurrently. A failed handshake fails every queued and
    /// subsequently raced-in request through the demux.
    fn dial(&self, addr: SocketAddr) -> Arc<ClientConn> {
        let pool = self.reactor_pool();
        let target = pool.pick();
        let (stream, failure) = match connect_nonblocking(&addr) {
            Ok(stream) => {
                let _ = stream.set_nodelay(true);
                (Some(stream), None)
            }
            Err(e) => (None, Some(e)),
        };
        let conn = Arc::new(ClientConn {
            addr,
            demux: Arc::new(Demux::new(self.inner.orphans.clone())),
            broken: Arc::new(AtomicBool::new(false)),
            kill: AtomicBool::new(false),
            stream,
            out: OrderedMutex::new(ranks::TCP_CONN_OUT, OutQueue::default()),
            reactor: target.clone(),
        });
        match failure {
            None => target.push(Entry::Client(ClientEntry {
                conn: conn.clone(),
                connecting: true,
                decoder: FrameDecoder::new(),
                dead: false,
            })),
            Some(e) => {
                // Synchronous dial failure (fd exhaustion, bad addr):
                // the connection is born dead; submit's closed-queue
                // check routes around it.
                conn.broken.store(true, Ordering::SeqCst);
                conn.out.lock().closed = true;
                conn.demux.fail_all(e.kind(), &format!("dial {addr}: {e}"));
            }
        }
        conn
    }

    /// Checks out a connection toward `to`: the least-loaded pooled one
    /// when its pipeline has room (or the pool is full), a fresh dial
    /// otherwise. Returns whether the connection pre-existed (only
    /// those are eligible for the stale-retry).
    fn obtain_conn(
        &self,
        to: EndpointId,
        addr: SocketAddr,
        force_fresh: bool,
    ) -> (Arc<ClientConn>, bool) {
        if !force_fresh {
            let mut endpoints = self.inner.endpoints.lock();
            if let Some(ep) = endpoints.get_mut(&to) {
                ep.conns.retain(|c| !c.broken.load(Ordering::SeqCst));
                if let Some(best) = ep.conns.iter().min_by_key(|c| c.demux.in_flight()).cloned() {
                    if best.demux.in_flight() < PIPELINE_DEPTH || ep.conns.len() >= POOL_CAP {
                        return (best, true);
                    }
                }
            }
        }
        let conn = self.dial(addr);
        let mut endpoints = self.inner.endpoints.lock();
        if let Some(ep) = endpoints.get_mut(&to) {
            // Make room before the cap check: broken connections must
            // not squat pool slots and force fresh dials unpooled.
            ep.conns.retain(|c| !c.broken.load(Ordering::SeqCst));
            if ep.conns.len() < POOL_CAP {
                ep.conns.push(conn.clone());
            }
        }
        (conn, false)
    }

    fn submit_inner(
        &self,
        from: EndpointId,
        to: EndpointId,
        payload: Vec<u8>,
        force_fresh: bool,
    ) -> Result<TcpPending, NetError> {
        let (addr, down) = {
            let endpoints = self.inner.endpoints.lock();
            let ep = endpoints.get(&to).ok_or(NetError::NoSuchEndpoint(to))?;
            (ep.addr, ep.down.clone())
        };
        let addr = addr.ok_or(NetError::NoSuchEndpoint(to))?;
        if down.load(Ordering::Relaxed) {
            return Err(NetError::EndpointDown(to));
        }
        if !force_fresh {
            let drop_p = f64::from_bits(self.inner.drop_bits.load(Ordering::Relaxed));
            if drop_p > 0.0 && self.inner.rng.lock().gen_bool(drop_p) {
                self.inner.stats.lock().drops += 1;
                return Err(NetError::Timeout);
            }
        }
        let (conn, reused) = self.obtain_conn(to, addr, force_fresh);
        let corr = self.inner.next_corr.fetch_add(1, Ordering::Relaxed);
        // Encode up front (sockets take raw buffers); the payload stays
        // owned here for the retry paths.
        let mut buf = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
        write_frame(&mut buf, from.0, corr, &payload)
            .map_err(|e| NetError::Connection(format!("encode frame: {e}")))?;
        let cell = conn.demux.register(corr);
        let delivered_at_submit = conn.demux.delivered();
        let bytes_sent = payload.len() as u64;
        if conn.enqueue(OutFrame { corr, buf, off: 0 }).is_err() {
            // Connection already closed: prune and, once, try a fresh
            // dial. The frame never left this process, so re-routing
            // it cannot duplicate work.
            conn.broken.store(true, Ordering::SeqCst);
            conn.demux.forget(corr);
            if !force_fresh {
                return self.submit_inner(from, to, payload, true);
            }
            return Err(NetError::Connection("connection closed before send".into()));
        }
        if conn.broken.load(Ordering::SeqCst) && conn.demux.forget(corr) {
            // The connection died while we were enqueueing and its
            // failure sweep may have run before our registration —
            // nobody would ever fill this cell, stalling the waiter to
            // its deadline. Re-route on a fresh dial when this was a
            // pooled reuse; otherwise fail fast.
            if !force_fresh && reused {
                return self.submit_inner(from, to, payload, true);
            }
            return Err(NetError::Connection("connection died during submit".into()));
        }
        let retry_payload = (reused && !force_fresh).then_some(payload);
        Ok(TcpPending {
            transport: self.clone(),
            from,
            to,
            payload: retry_payload,
            bytes_sent,
            corr,
            cell,
            demux: conn.demux.clone(),
            conn_broken: conn.broken.clone(),
            delivered_at_submit,
            down,
            t0: Instant::now(),
            _conn: conn,
        })
    }

    /// Charges one request/response exchange to the global and both
    /// per-endpoint counters (frame headers included: these are the
    /// bytes actually on the wire).
    fn charge(&self, from: EndpointId, to: EndpointId, payload_out: u64, payload_in: u64) {
        let sent = payload_out + FRAME_HEADER_LEN as u64;
        let received = payload_in + FRAME_HEADER_LEN as u64;
        {
            let mut stats = self.inner.stats.lock();
            stats.messages += 2;
            stats.bytes += sent + received;
        }
        let mut endpoints = self.inner.endpoints.lock();
        if let Some(ep) = endpoints.get_mut(&from) {
            ep.stats.tx_msgs += 1;
            ep.stats.tx_bytes += sent;
            ep.stats.rx_msgs += 1;
            ep.stats.rx_bytes += received;
        }
        if let Some(ep) = endpoints.get_mut(&to) {
            ep.stats.rx_msgs += 1;
            ep.stats.rx_bytes += sent;
            ep.stats.tx_msgs += 1;
            ep.stats.tx_bytes += received;
        }
    }

    /// Charges a request whose frame was written but whose call failed
    /// (timeout, connection death after the write): the request bytes
    /// were really spent on the wire, so per-endpoint counters must not
    /// under-report traffic under failure injection. The missing
    /// response charges nothing.
    fn charge_tx(&self, from: EndpointId, to: EndpointId, payload_out: u64) {
        let sent = payload_out + FRAME_HEADER_LEN as u64;
        {
            let mut stats = self.inner.stats.lock();
            stats.messages += 1;
            stats.bytes += sent;
        }
        let mut endpoints = self.inner.endpoints.lock();
        if let Some(ep) = endpoints.get_mut(&from) {
            ep.stats.tx_msgs += 1;
            ep.stats.tx_bytes += sent;
        }
        if let Some(ep) = endpoints.get_mut(&to) {
            ep.stats.rx_msgs += 1;
            ep.stats.rx_bytes += sent;
        }
    }

    /// Folds one completed-call latency sample into `to`'s summary.
    fn note_latency(&self, to: EndpointId, sample_us: u64) {
        let mut endpoints = self.inner.endpoints.lock();
        if let Some(ep) = endpoints.get_mut(&to) {
            ep.latency.observe(sample_us);
        }
    }

    fn classify(&self, e: io::Error, to: EndpointId, down: &AtomicBool) -> NetError {
        if down.load(Ordering::Relaxed) {
            // The server cut the connection because it is down: to the
            // caller that is a dead endpoint, same as on the simulator.
            return NetError::EndpointDown(to);
        }
        match e.kind() {
            io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => NetError::Timeout,
            _ => NetError::Connection(e.to_string()),
        }
    }
}

/// One in-flight TCP call: the frame is queued (or written); the
/// reactor fills `cell` when the correlated response lands.
struct TcpPending {
    transport: TcpTransport,
    from: EndpointId,
    to: EndpointId,
    /// Retry copy, kept only for calls that went out on a pre-existing
    /// pooled connection (the only ones eligible for the single
    /// stale-connection retry).
    payload: Option<Vec<u8>>,
    /// Request payload length.
    bytes_sent: u64,
    corr: u64,
    cell: Arc<CompletionCell>,
    demux: Arc<Demux>,
    /// The carrying connection's broken flag: set on deadline expiry so
    /// a stalled connection is pruned instead of re-pooled.
    conn_broken: Arc<AtomicBool>,
    /// The connection's delivered-response count at submit time; any
    /// delivery after it vetoes the stale-retry (server provably alive
    /// past this request's submission).
    delivered_at_submit: u64,
    down: Arc<AtomicBool>,
    t0: Instant,
    /// Keeps the connection's demux and queue alive while the call is
    /// in flight: a fresh dial that lost the pool-slot race must not
    /// lose its response mid-air.
    _conn: Arc<ClientConn>,
}

impl PendingCall for TcpPending {
    fn wait(mut self: Box<Self>) -> Result<Transfer, NetError> {
        let deadline = self.t0 + self.transport.timeout();
        match self.cell.wait_until(deadline) {
            Some(CellDone {
                result: Ok(response),
                ..
            }) => {
                self.transport
                    .charge(self.from, self.to, self.bytes_sent, response.len() as u64);
                let latency_us = self.t0.elapsed().as_micros() as u64;
                self.transport.note_latency(self.to, latency_us);
                Ok(Transfer {
                    latency_us,
                    bytes_sent: self.bytes_sent + FRAME_HEADER_LEN as u64,
                    bytes_received: response.len() as u64 + FRAME_HEADER_LEN as u64,
                    payload: response,
                })
            }
            Some(CellDone {
                result: Err(e),
                sole_in_flight,
            }) => {
                // A written request costs wire whether or not the call
                // completes; the retry path charges the failed attempt
                // before re-sending, so both transmissions account.
                if self.cell.was_sent() {
                    self.transport
                        .charge_tx(self.from, self.to, self.bytes_sent);
                }
                let retriable = sole_in_flight
                    && is_stale_connection(&e)
                    // No response landed on this connection since the
                    // submit: nothing proves the server ever got past
                    // this request, so re-sending cannot duplicate
                    // observed work. A delivery in between vetoes it.
                    && self.demux.delivered() == self.delivered_at_submit;
                if retriable {
                    if let Some(payload) = self.payload.take() {
                        // The pooled connection went stale (server
                        // restarted or cut us off) with this request
                        // alone in flight — it cannot have been
                        // processed; retry exactly once on a fresh
                        // dial. With siblings pipelined on the same
                        // connection the server may have processed any
                        // of them, so those failures are surfaced, not
                        // retried. Timeouts are NEVER retried — the
                        // server may still be executing the request,
                        // and re-sending would duplicate non-idempotent
                        // work (patches).
                        let retried = self
                            .transport
                            .submit_inner(self.from, self.to, payload, true)?;
                        return Box::new(retried).wait();
                    }
                }
                Err(self.transport.classify(e, self.to, &self.down))
            }
            None => {
                // Abandon the slot: a late response is discarded as an
                // orphan rather than delivered to a future call. The
                // connection swallowed a request past its deadline, so
                // stop pooling it — the next submit dials fresh instead
                // of feeding a stalled server's tar pit (in-flight
                // siblings keep their cells; only checkout is barred,
                // and the reactor closes the socket once they drain).
                self.demux.forget(self.corr);
                self.conn_broken.store(true, Ordering::SeqCst);
                self.transport.wake_reactors();
                if self.cell.was_sent() {
                    self.transport
                        .charge_tx(self.from, self.to, self.bytes_sent);
                }
                Err(NetError::Timeout)
            }
        }
    }
}

impl Transport for TcpTransport {
    fn kind(&self) -> &'static str {
        "tcp"
    }

    fn register(&self, name: &str, location: Option<LatLng>) -> EndpointId {
        let _ = location; // wall-clock transport: no distance model
        let id = EndpointId(self.inner.next_id.fetch_add(1, Ordering::Relaxed));
        self.inner.endpoints.lock().insert(
            id,
            Endpoint {
                name: name.to_string(),
                addr: None,
                down: Arc::new(AtomicBool::new(false)),
                stats: EndpointStats::default(),
                latency: EndpointLatency::default(),
                conns: Vec::new(),
                gauge: Arc::new(DispatchGauge::new()),
            },
        );
        id
    }

    fn set_service(&self, id: EndpointId, service: Arc<dyn WireService>) {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind loopback listener");
        listener
            .set_nonblocking(true)
            .expect("non-blocking listener");
        let addr = listener.local_addr().expect("listener has an address");
        let (down, gauge) = {
            let mut endpoints = self.inner.endpoints.lock();
            let ep = endpoints
                .get_mut(&id)
                .expect("set_service on an unregistered endpoint");
            ep.addr = Some(addr);
            (ep.down.clone(), ep.gauge.clone())
        };
        let dispatch = self.dispatch_sender();
        let pool = self.reactor_pool();
        pool.pick().push(Entry::Listener(ListenerEntry {
            listener,
            me: id.0,
            down,
            service,
            dispatch,
            gauge,
            shed: self.inner.shed.clone(),
        }));
    }

    fn submit(&self, from: EndpointId, to: EndpointId, payload: Vec<u8>) -> CallHandle {
        match self.submit_inner(from, to, payload, false) {
            Ok(pending) => CallHandle::new(Box::new(pending)),
            Err(e) => CallHandle::ready(Err(e)),
        }
    }

    fn now_us(&self) -> u64 {
        self.inner.epoch.elapsed().as_micros() as u64
    }

    fn advance_us(&self, _dt_us: u64) {
        // Wall-clock transport: think time passes by itself.
    }

    fn stats(&self) -> NetStats {
        self.inner.stats.lock().clone()
    }

    fn endpoint_stats(&self, id: EndpointId) -> Option<EndpointStats> {
        self.inner
            .endpoints
            .lock()
            .get(&id)
            .map(|e| e.stats.clone())
    }

    fn endpoint_latency(&self, id: EndpointId) -> Option<EndpointLatency> {
        self.inner.endpoints.lock().get(&id).map(|e| e.latency)
    }

    fn reset_stats(&self) {
        *self.inner.stats.lock() = NetStats::default();
        self.inner.shed.store(0, Ordering::SeqCst);
        for ep in self.inner.endpoints.lock().values_mut() {
            ep.stats = EndpointStats::default();
            ep.latency = EndpointLatency::default();
            ep.gauge.reset_high_water();
        }
    }

    fn endpoint_name(&self, id: EndpointId) -> Option<String> {
        self.inner.endpoints.lock().get(&id).map(|e| e.name.clone())
    }

    fn set_down(&self, id: EndpointId, down: bool) {
        let conns = {
            let mut endpoints = self.inner.endpoints.lock();
            let Some(ep) = endpoints.get_mut(&id) else {
                return;
            };
            ep.down.store(down, Ordering::Relaxed);
            // Drop pooled connections either way: a revived server gets
            // fresh connections instead of sockets the server side
            // already abandoned.
            std::mem::take(&mut ep.conns)
        };
        // Cut them now: in-flight requests fail like they would on a
        // crashed process, instead of riding a socket whose server
        // will never answer again.
        for conn in &conns {
            conn.kill.store(true, Ordering::SeqCst);
            conn.broken.store(true, Ordering::SeqCst);
        }
        drop(conns);
        self.wake_reactors();
    }

    fn set_drop_probability(&self, p: f64) {
        self.inner
            .drop_bits
            .store(p.clamp(0.0, 1.0).to_bits(), Ordering::Relaxed);
    }

    fn set_timeout_us(&self, timeout_us: u64) {
        self.inner.timeout_us.store(timeout_us, Ordering::Relaxed);
    }

    fn worker_threads(&self) -> usize {
        TcpTransport::worker_threads(self)
    }

    fn set_overload_policy(&self, id: EndpointId, policy: Option<OverloadPolicy>) {
        if let Some(ep) = self.inner.endpoints.lock().get(&id) {
            ep.gauge.set_policy(policy);
        }
    }

    fn dispatch_depth(&self, id: EndpointId) -> usize {
        self.inner
            .endpoints
            .lock()
            .get(&id)
            .map(|e| e.gauge.high_water())
            .unwrap_or(0)
    }

    fn shed_requests(&self) -> u64 {
        self.inner.shed.load(Ordering::SeqCst)
    }
}

/// Whether an I/O failure means the connection itself died (as a
/// pooled-but-abandoned socket does) rather than the request timing
/// out. Only these are safe to retry on a fresh dial.
fn is_stale_connection(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
    )
}

// ---------------------------------------------------------------------
// Server-side concurrent dispatch.
// ---------------------------------------------------------------------

/// One decoded request frame on its way to a dispatch worker.
struct ServeJob {
    from: u64,
    corr: u64,
    payload: Vec<u8>,
    service: Arc<dyn WireService>,
    shared: Arc<SrvShared>,
    /// The endpoint's admission book and this request's principal key
    /// (present when an overload policy classified it). The worker
    /// releases the slot right after execution — on every path,
    /// including service panics and dead connections — so shed +
    /// disconnect can never leak slots and wedge the endpoint.
    gauge: Arc<DispatchGauge>,
    admit_key: Option<u64>,
}

/// A response frame part-way through its write.
struct WriteBuf {
    buf: Vec<u8>,
    off: usize,
}

/// One reply on its way onto a served connection. `None` marks a
/// request whose service panicked (or whose response cannot be
/// framed): when the writer reaches it the connection is cut instead
/// of answered — crash semantics, not a silent stall to the caller's
/// timeout.
type Reply = Option<WriteBuf>;

/// Frames one response for the wire; `None` when it cannot be framed
/// (oversized), which cuts the connection like a panic.
fn frame_reply(me: u64, corr: u64, response: &[u8]) -> Reply {
    let mut buf = Vec::with_capacity(FRAME_HEADER_LEN + response.len());
    write_frame(&mut buf, me, corr, response).ok()?;
    Some(WriteBuf { buf, off: 0 })
}

#[derive(Default)]
struct ServeOut {
    /// Set when the connection is torn down: late results are dropped
    /// instead of queued for a writer that no longer exists.
    dead: bool,
    /// Replies waiting for the socket in completion order; the front
    /// one may be part-written.
    frames: VecDeque<Reply>,
}

/// The dispatch-facing half of one server connection: workers queue
/// their framed responses here in completion order and wake the owning
/// reactor, which writes them out in that order.
struct SrvShared {
    /// The serving endpoint: the sender id of every response frame.
    me: u64,
    out: OrderedMutex<ServeOut>,
    reactor: Arc<ReactorShared>,
}

impl SrvShared {
    /// Queues one reply for the reactor; returns whether the reactor
    /// must be woken to write it (nothing was queued ahead of it — a
    /// reply behind others rides the interest the first one raised).
    fn reply(&self, reply: Reply) -> bool {
        let mut out = self.out.lock();
        if out.dead {
            return false;
        }
        let first = out.frames.is_empty();
        out.frames.push_back(reply);
        first
    }
}

/// Spawns the transport-wide dispatch pool: [`DISPATCH_POOL`] workers
/// pull decoded frames from every served connection of every endpoint
/// and invoke the owning service concurrently (its `Send + Sync`
/// contract makes that legal; see [`WireService`]). Jobs carry their
/// service handle, so idle workers pin no service alive; the pool
/// unwinds once the transport's master sender and every reactor-held
/// clone are gone.
fn spawn_dispatch_pool(threads: &Arc<AtomicUsize>) -> mpsc::Sender<ServeJob> {
    let (job_tx, job_rx) = mpsc::channel::<ServeJob>();
    let job_rx = Arc::new(OrderedMutex::new(ranks::TCP_DISPATCH_QUEUE, job_rx));
    for worker in 0..DISPATCH_POOL {
        let guard = ThreadGuard::enter(threads);
        let job_rx = job_rx.clone();
        thread::Builder::new()
            .name(format!("ofl-tcp-disp-{worker}"))
            .spawn(move || {
                let _guard = guard;
                loop {
                    // Hold the shared receiver only for the blocking
                    // recv: job *pickup* is serialized, execution is
                    // not.
                    let job = {
                        let rx = job_rx.lock();
                        rx.recv()
                    };
                    let Ok(job) = job else { break };
                    // Contain panics: a panicking service must cost its
                    // connection, never a shared dispatch worker.
                    let response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        job.service.handle(EndpointId(job.from), &job.payload)
                    }))
                    .ok();
                    // Release the admission slot before anything can
                    // skip the result (dead connection, panic): the
                    // endpoint-wide depth must drain even when the
                    // requester is gone.
                    job.gauge.release(job.admit_key);
                    let shared = &job.shared;
                    let reply = response.and_then(|r| frame_reply(shared.me, job.corr, &r));
                    if shared.reply(reply) {
                        shared.reactor.waker.wake();
                    }
                }
            })
            .expect("spawn dispatch worker");
    }
    job_tx
}

// ---------------------------------------------------------------------
// The reactor event loop.
// ---------------------------------------------------------------------

/// A client connection as its reactor sees it.
struct ClientEntry {
    conn: Arc<ClientConn>,
    /// Still mid-handshake: watch for writability, then check
    /// `SO_ERROR` before first use.
    connecting: bool,
    decoder: FrameDecoder,
    dead: bool,
}

/// A served endpoint's listener as its reactor sees it.
struct ListenerEntry {
    listener: TcpListener,
    me: u64,
    down: Arc<AtomicBool>,
    service: Arc<dyn WireService>,
    dispatch: mpsc::Sender<ServeJob>,
    gauge: Arc<DispatchGauge>,
    shed: Arc<AtomicU64>,
}

/// A server-side connection as its reactor sees it.
struct ServedEntry {
    stream: TcpStream,
    down: Arc<AtomicBool>,
    service: Arc<dyn WireService>,
    dispatch: mpsc::Sender<ServeJob>,
    shared: Arc<SrvShared>,
    gauge: Arc<DispatchGauge>,
    shed: Arc<AtomicU64>,
    decoder: FrameDecoder,
    /// Requests dispatched but not yet fully answered on the wire —
    /// the [`SERVE_PIPELINE`] gate's counter.
    in_dispatch: usize,
    /// False after EOF or a read error: stop reading, keep draining
    /// responses (a half-closed peer still receives every answer it
    /// pipelined).
    read_open: bool,
    dead: bool,
}

enum Entry {
    Client(ClientEntry),
    Listener(ListenerEntry),
    Served(ServedEntry),
}

impl Entry {
    fn fd(&self) -> RawFd {
        match self {
            Entry::Client(c) => c.stream().as_raw_fd(),
            Entry::Listener(l) => l.listener.as_raw_fd(),
            Entry::Served(s) => s.stream.as_raw_fd(),
        }
    }

    /// Retires what has finished and reports the readiness the entry
    /// now waits for; `None` means remove it from the slab. An entry
    /// that waits for nothing (a gated server connection with nothing
    /// to write) reports `Some(0)` and leaves the epoll set until a
    /// wake brings it back.
    fn settle(&mut self) -> Option<u32> {
        match self {
            Entry::Listener(_) => Some(EPOLLIN),
            Entry::Client(c) => c.settle(),
            Entry::Served(s) => s.settle(),
        }
    }

    /// Fails the entry for an I/O error outside its own socket calls:
    /// a client connection dies (failing its calls), a served one is
    /// cut, and a dropped listener closes, so dials to it are refused.
    fn fail(&mut self, e: &io::Error) {
        match self {
            Entry::Listener(_) => {}
            Entry::Client(c) => c.die(e.kind(), &format!("cannot watch connection: {e}")),
            Entry::Served(s) => s.cut(),
        }
    }
}

/// One slab slot: an entry and the interest its socket is registered
/// with (0 = not in the epoll set).
struct Slot {
    entry: Entry,
    interest: u32,
}

/// One reactor's sockets: a slab indexed by epoll token.
struct Slab {
    epoll: Epoll,
    shared: Arc<ReactorShared>,
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
}

impl Slab {
    fn adopt(&mut self, entry: Entry) {
        let slot = Some(Slot { entry, interest: 0 });
        match self.free.pop() {
            Some(idx) => self.slots[idx] = slot,
            None => self.slots.push(slot),
        }
    }

    /// Settles one entry and brings its epoll registration in line:
    /// `EPOLL_CTL_MOD` only when the interest really changed, `DEL`
    /// when it dropped to nothing or the entry retired.
    fn settle(&mut self, idx: usize) {
        let Some(mut slot) = self.slots.get_mut(idx).and_then(Option::take) else {
            return;
        };
        match slot.entry.settle() {
            Some(want) if want == slot.interest => {}
            Some(want) => match self.register(slot.entry.fd(), idx as u64, slot.interest, want) {
                Ok(()) => slot.interest = want,
                // A socket the kernel will not watch (ENOMEM, the
                // max_user_watches limit) would never be looked at
                // again: fail it now rather than leave its calls to
                // their timeouts.
                Err(e) => {
                    slot.entry.fail(&e);
                    return self.retire(idx, slot);
                }
            },
            None => return self.retire(idx, slot),
        }
        self.slots[idx] = Some(slot);
    }

    /// Drops a finished entry out of the epoll set and the slab.
    fn retire(&mut self, idx: usize, slot: Slot) {
        if slot.interest != 0 {
            let _ = self.epoll.delete(slot.entry.fd());
        }
        self.free.push(idx);
    }

    /// Moves `fd`'s registration from interest `have` to `want`
    /// (0 = not in the set).
    fn register(&self, fd: RawFd, token: u64, have: u32, want: u32) -> io::Result<()> {
        #[cfg(test)]
        if self.shared.probe.refuse_registration.load(Ordering::SeqCst) {
            return Err(io::Error::from_raw_os_error(28)); // ENOSPC
        }
        if have == 0 {
            self.epoll.add(fd, token, want)
        } else if want == 0 {
            self.epoll.delete(fd)
        } else {
            self.epoll.modify(fd, token, want)
        }
    }

    /// The waker fired: adopt handed-over sockets, then settle every
    /// entry — the only moment the reactor looks at all of them, since
    /// state other threads change (kill/broken flags, queued requests
    /// and responses) always comes with a wake.
    fn sweep(&mut self) {
        for entry in self.shared.take_adopted() {
            self.adopt(entry);
        }
        for idx in 0..self.slots.len() {
            self.settle(idx);
        }
    }

    fn handle(&mut self, idx: usize, ready: EpollEvent, pool: &Arc<ReactorPool>) {
        let Some(slot) = self.slots.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        match &mut slot.entry {
            Entry::Client(c) => c.handle(ready),
            Entry::Listener(l) => l.accept_all(pool),
            Entry::Served(s) => s.handle(ready),
        }
        self.settle(idx);
    }
}

/// One reactor thread: wait for readiness, pump non-blocking reads
/// through the incremental decoder, write responses and request
/// remainders, accept connections — for every socket in its slab. An event costs work for
/// the ready sockets only; the whole slab is revisited only after the
/// waker fired. Exits when the transport shuts down, dropping the slab
/// (which closes every fd it owns and releases every service/dispatch
/// handle it held).
fn run_reactor(idx: usize, epoll: Epoll, pool: Arc<ReactorPool>, shutdown: Arc<AtomicBool>) {
    let shared = pool.handles[idx].clone();
    let mut slab = Slab {
        epoll,
        shared: shared.clone(),
        slots: Vec::new(),
        free: Vec::new(),
    };
    let mut events = vec![EpollEvent::EMPTY; 256];
    // The first round adopts whatever was handed over before the
    // thread started.
    let mut woke = true;
    loop {
        if woke {
            if shutdown.load(Ordering::SeqCst) {
                return;
            }
            slab.sweep();
        }
        woke = false;
        let ready = match slab.epoll.wait(&mut events, -1) {
            Ok(n) => n,
            Err(_) => {
                // EBADF/ENOMEM-class failure: back off instead of
                // spinning.
                thread::sleep(Duration::from_millis(1));
                continue;
            }
        };
        #[cfg(test)]
        shared.probe.loops.fetch_add(1, Ordering::Relaxed);
        for event in &events[..ready] {
            match event.token() {
                WAKER_TOKEN => woke = true,
                token => slab.handle(token as usize, *event, &pool),
            }
        }
        if woke {
            #[cfg(test)]
            shared.probe.wakes.fetch_add(1, Ordering::Relaxed);
            shared.waker.drain();
        }
    }
}

impl ClientEntry {
    fn stream(&self) -> &TcpStream {
        self.conn
            .stream
            .as_ref()
            .expect("only dialed connections reach a reactor")
    }

    /// Retires externally killed connections and broken ones that
    /// drained; otherwise the interest: writability while connecting,
    /// then readability plus writability while frames are queued.
    fn settle(&mut self) -> Option<u32> {
        if !self.dead && self.conn.kill.load(Ordering::SeqCst) {
            self.die(io::ErrorKind::UnexpectedEof, "connection force-closed");
        }
        if !self.dead && self.conn.broken.load(Ordering::SeqCst) {
            if self.connecting {
                // Broken before the handshake resolved: writes are
                // gated on a connect that may never finish, so waiting
                // for the queue to drain would leak the entry (and its
                // fd) forever. Nothing ever hit the wire, so failing
                // the queued frames cannot orphan a response.
                self.die(
                    io::ErrorKind::ConnectionAborted,
                    "connection abandoned mid-handshake",
                );
            } else if self.conn.demux.in_flight() == 0 {
                // Externally marked stale (timeout pruning): keep
                // serving in-flight siblings, close once drained.
                let mut out = self.conn.out.lock();
                if out.frames.is_empty() {
                    out.closed = true;
                    drop(out);
                    let _ = self.stream().shutdown(Shutdown::Both);
                    self.dead = true;
                }
            }
        }
        if self.dead {
            return None;
        }
        if self.connecting {
            return Some(EPOLLOUT);
        }
        if self.conn.out.lock().frames.is_empty() {
            Some(EPOLLIN)
        } else {
            Some(EPOLLIN | EPOLLOUT)
        }
    }

    /// Kills the connection: fail every in-flight request, refuse
    /// further enqueues, mark for removal from the slab.
    fn die(&mut self, kind: io::ErrorKind, msg: &str) {
        self.conn.broken.store(true, Ordering::SeqCst);
        {
            let mut out = self.conn.out.lock();
            out.closed = true;
            out.frames.clear();
        }
        // Queued-but-unwritten frames were registered too: the sweep
        // fails them alongside the written ones (their cells carry
        // `sent == false`, so they charge nothing).
        self.conn.demux.fail_all(kind, msg);
        let _ = self.stream().shutdown(Shutdown::Both);
        self.dead = true;
    }

    fn handle(&mut self, ready: EpollEvent) {
        if self.dead {
            return;
        }
        if self.connecting && ready.writable() {
            match self.stream().take_error() {
                Ok(None) => {
                    self.connecting = false;
                    self.conn.out.lock().established = true;
                }
                Ok(Some(e)) | Err(e) => {
                    let addr = self.conn.addr;
                    self.die(e.kind(), &format!("dial {addr}: {e}"));
                    return;
                }
            }
        }
        if !self.connecting && ready.writable() {
            if let Err(e) = self.pump_write() {
                // Every write failure reads as BrokenPipe, so retry
                // eligibility does not depend on which errno the
                // kernel picked.
                self.die(
                    io::ErrorKind::BrokenPipe,
                    &format!("connection writer failed: {e}"),
                );
                return;
            }
        }
        if !self.connecting && ready.readable() {
            if let Err((kind, msg)) = self.pump_read() {
                self.die(kind, &msg);
            }
        }
    }

    /// Drains the connection's write queue into the socket until it
    /// would block or empties.
    fn pump_write(&self) -> io::Result<()> {
        let mut out = self.conn.out.lock();
        while let Some(frame) = out.frames.front_mut() {
            if frame.off == 0 {
                // The frame is going onto the socket now: even if the
                // write (or the whole call) fails from here on, its
                // request bytes count as wire traffic.
                self.conn.demux.mark_sent(frame.corr);
            }
            if !write_some(self.stream(), &frame.buf, &mut frame.off)? {
                break;
            }
            out.frames.pop_front();
        }
        Ok(())
    }

    /// Reads whatever the socket has, feeding the incremental decoder
    /// and completing responses by correlation id.
    fn pump_read(&mut self) -> Result<(), (io::ErrorKind, String)> {
        let mut buf = [0u8; 16 * 1024];
        loop {
            match self.stream().read(&mut buf) {
                Ok(0) => {
                    return Err((
                        io::ErrorKind::UnexpectedEof,
                        "connection closed by peer".into(),
                    ))
                }
                Ok(n) => {
                    self.decoder.extend(&buf[..n]);
                    loop {
                        match self.decoder.next_frame() {
                            Ok(Some(frame)) => self
                                .conn
                                .demux
                                .complete(frame.correlation, Ok(frame.payload)),
                            Ok(None) => break,
                            Err(e) => return Err((e.kind(), e.to_string())),
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err((e.kind(), e.to_string())),
            }
        }
    }
}

impl ListenerEntry {
    /// Accepts every pending connection, spreading them across the
    /// pool.
    fn accept_all(&mut self, pool: &Arc<ReactorPool>) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let target = pool.pick();
                    let shared = Arc::new(SrvShared {
                        me: self.me,
                        out: OrderedMutex::new(ranks::TCP_SERVE_DONE, ServeOut::default()),
                        reactor: target.clone(),
                    });
                    target.push(Entry::Served(ServedEntry {
                        stream,
                        down: self.down.clone(),
                        service: self.service.clone(),
                        dispatch: self.dispatch.clone(),
                        shared,
                        gauge: self.gauge.clone(),
                        shed: self.shed.clone(),
                        decoder: FrameDecoder::new(),
                        in_dispatch: 0,
                        read_open: true,
                        dead: false,
                    }));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient accept failures (ECONNABORTED, fd pressure)
                // must not kill the endpoint for the rest of the
                // process.
                Err(_) => break,
            }
        }
    }
}

impl ServedEntry {
    /// Tears the connection down immediately (malformed frame, down
    /// endpoint, service panic, or simply done): no answer, no drain,
    /// and late worker results are dropped.
    fn cut(&mut self) {
        self.dead = true;
        {
            let mut out = self.shared.out.lock();
            out.dead = true;
            out.frames.clear();
        }
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    fn handle(&mut self, ready: EpollEvent) {
        if !self.dead && self.read_open && ready.readable() && self.pump_read().is_err() {
            self.cut();
            return;
        }
        if !self.dead && ready.writable() && self.pump_write().is_err() {
            self.cut();
        }
    }

    /// Dispatches frames buffered while the read gate was closed and
    /// finishes a drained half-closed connection; otherwise the
    /// interest: readability while the gate is open, writability while
    /// replies are queued.
    fn settle(&mut self) -> Option<u32> {
        if !self.dead && self.pump_decode().is_err() {
            self.cut();
        }
        if self.dead {
            return None;
        }
        let queued = !self.shared.out.lock().frames.is_empty();
        if !self.read_open && self.in_dispatch == 0 && !queued {
            // Peer hung up and every pipelined response has been
            // delivered: done.
            self.cut();
            return None;
        }
        let mut interest = 0;
        if self.read_open && self.in_dispatch < SERVE_PIPELINE {
            // The readiness-deregistration backpressure gate: a
            // saturated connection simply stops watching for
            // readability.
            interest |= EPOLLIN;
        }
        if queued {
            interest |= EPOLLOUT;
        }
        Some(interest)
    }

    /// Reads request bytes until the socket would block or the
    /// [`SERVE_PIPELINE`] gate closes. `Err` means cut the connection.
    fn pump_read(&mut self) -> Result<(), ()> {
        let mut buf = [0u8; 16 * 1024];
        while self.read_open && self.in_dispatch < SERVE_PIPELINE {
            match (&self.stream).read(&mut buf) {
                Ok(0) => self.read_open = false,
                Ok(n) => {
                    self.decoder.extend(&buf[..n]);
                    self.pump_decode()?;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // A reset mid-stream: stop reading; responses still in
                // dispatch drain until their writes fail.
                Err(_) => self.read_open = false,
            }
        }
        Ok(())
    }

    /// Dispatches buffered frames while the gate has room. `Err` means
    /// cut the connection (corrupt stream, down endpoint, transport
    /// unwinding).
    fn pump_decode(&mut self) -> Result<(), ()> {
        while self.in_dispatch < SERVE_PIPELINE {
            match self.decoder.next_frame() {
                Ok(Some(frame)) => {
                    if self.down.load(Ordering::Relaxed) {
                        // A dead server stops mid-conversation; the
                        // caller sees the connection die, exactly like
                        // a crashed process.
                        return Err(());
                    }
                    self.in_dispatch += 1;
                    let admit_key = match self.gauge.admit(&frame.payload) {
                        Ok(key) => key,
                        Err(busy) => {
                            // Shed: answer with the policy's busy
                            // payload right here — the dispatch pool
                            // never sees the request, the reader is
                            // never stalled, and the reply takes the
                            // same completion-order path as any other
                            // (its write frees the slot taken above).
                            // This thread settles the entry next, so
                            // the reply needs no wake.
                            self.shed.fetch_add(1, Ordering::Relaxed);
                            let me = self.shared.me;
                            self.shared.reply(frame_reply(me, frame.correlation, &busy));
                            continue;
                        }
                    };
                    let job = ServeJob {
                        from: frame.sender,
                        corr: frame.correlation,
                        payload: frame.payload,
                        service: self.service.clone(),
                        shared: self.shared.clone(),
                        gauge: self.gauge.clone(),
                        admit_key,
                    };
                    if self.dispatch.send(job).is_err() {
                        // Pool gone: the transport is unwinding.
                        return Err(());
                    }
                }
                Ok(None) => break,
                // A corrupt stream (bad version, oversized length)
                // MUST be cut without answering.
                Err(_) => return Err(()),
            }
        }
        Ok(())
    }

    /// Writes queued replies in completion order until the socket would
    /// block or the queue empties. `Err` means cut the connection
    /// (write failure, panicked service, unframeable response).
    fn pump_write(&mut self) -> Result<(), ()> {
        let mut out = self.shared.out.lock();
        while let Some(front) = out.frames.front_mut() {
            let Some(frame) = front else {
                return Err(());
            };
            match write_some(&self.stream, &frame.buf, &mut frame.off) {
                Ok(true) => {
                    out.frames.pop_front();
                    // Frame delivered: release the gate slot it held
                    // since dispatch.
                    self.in_dispatch -= 1;
                }
                Ok(false) => return Ok(()),
                Err(_) => return Err(()),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{CompletionSet, Transport};
    use openflame_codec::framing::read_frame;
    use std::io::{Read, Write};

    fn echo_transport() -> (TcpTransport, EndpointId, EndpointId) {
        let transport = TcpTransport::new(7);
        let server = transport.register("echo", None);
        transport.set_service(
            server,
            Arc::new(|_from: EndpointId, payload: &[u8]| payload.to_vec()),
        );
        let client = transport.register("client", None);
        (transport, client, server)
    }

    #[test]
    fn echo_round_trip_over_real_sockets() {
        let (transport, client, server) = echo_transport();
        let transfer = transport.call(client, server, vec![1, 2, 3]).unwrap();
        assert_eq!(transfer.payload, vec![1, 2, 3]);
        assert_eq!(transfer.bytes_sent, 3 + FRAME_HEADER_LEN as u64);
        let stats = transport.stats();
        assert_eq!(stats.messages, 2);
        assert_eq!(stats.bytes, 2 * (3 + FRAME_HEADER_LEN as u64));
    }

    #[test]
    fn connections_are_pooled_across_calls() {
        let (transport, client, server) = echo_transport();
        for i in 0..5u8 {
            transport.call(client, server, vec![i]).unwrap();
        }
        assert_eq!(
            transport.pooled_conns(server),
            1,
            "sequential calls must reuse one connection"
        );
        let ep = transport.endpoint_stats(server).unwrap();
        assert_eq!(ep.rx_msgs, 5);
    }

    #[test]
    fn parallel_fanout_answers_positionally() {
        let (transport, client, server) = echo_transport();
        let results =
            transport.call_parallel(client, (0..8u8).map(|i| (server, vec![i])).collect());
        assert_eq!(results.len(), 8);
        for (i, result) in results.into_iter().enumerate() {
            assert_eq!(result.unwrap().payload, vec![i as u8]);
        }
        assert_eq!(transport.stats().messages, 16);
    }

    #[test]
    fn pipelined_submits_share_one_connection() {
        let (transport, client, server) = echo_transport();
        // Warm the pool so every pipelined submit reuses it.
        transport.call(client, server, vec![0]).unwrap();
        let mut set = CompletionSet::new();
        for i in 0..16u8 {
            set.push(transport.submit(client, server, vec![i]));
        }
        for (i, result) in set.wait_all().into_iter().enumerate() {
            assert_eq!(result.unwrap().payload, vec![i as u8]);
        }
        assert_eq!(
            transport.pooled_conns(server),
            1,
            "16 in-flight requests fit one pipelined connection"
        );
        assert_eq!(transport.orphan_responses(), 0);
    }

    #[test]
    fn worker_threads_do_not_grow_with_call_volume() {
        let (transport, client, server) = echo_transport();
        transport.call(client, server, vec![0]).unwrap();
        let after_first = transport.worker_threads();
        assert_eq!(
            after_first,
            transport.reactor_threads() + DISPATCH_POOL,
            "thread census is the reactor pool plus the dispatch pool"
        );
        for round in 0..10 {
            let mut set = CompletionSet::new();
            for i in 0..8u8 {
                set.push(transport.submit(client, server, vec![round, i]));
            }
            for result in set.wait_all() {
                result.unwrap();
            }
        }
        assert_eq!(
            transport.worker_threads(),
            after_first,
            "reused connections must not spawn per-call threads"
        );
    }

    #[test]
    fn worker_threads_are_bounded_by_reactor_pool_not_endpoints() {
        // The tentpole invariant in miniature: many served endpoints,
        // many connections, an explicit 2-reactor pool — thread count
        // is exactly reactors + dispatch workers.
        let transport = TcpTransport::with_reactors(11, 2);
        assert_eq!(transport.reactor_threads(), 2);
        let client = transport.register("client", None);
        let servers: Vec<EndpointId> = (0..12)
            .map(|i| {
                let id = transport.register(&format!("srv-{i}"), None);
                transport.set_service(
                    id,
                    Arc::new(|_from: EndpointId, payload: &[u8]| payload.to_vec()),
                );
                id
            })
            .collect();
        for round in 0..3u8 {
            let mut set = CompletionSet::new();
            for id in &servers {
                set.push(transport.submit(client, *id, vec![round]));
            }
            for result in set.wait_all() {
                result.unwrap();
            }
        }
        assert_eq!(
            transport.worker_threads(),
            2 + DISPATCH_POOL,
            "12 served endpoints x pooled connections must not add threads"
        );
    }

    #[test]
    fn slow_request_does_not_block_pipelined_fast_requests() {
        let transport = TcpTransport::new(7);
        let server = transport.register("mixed", None);
        // payload[0] == 1 marks a deliberately slow request.
        transport.set_service(
            server,
            Arc::new(|_from: EndpointId, payload: &[u8]| {
                if payload.first() == Some(&1) {
                    thread::sleep(Duration::from_millis(400));
                }
                payload.to_vec()
            }),
        );
        let client = transport.register("client", None);
        // Warm the pool so everything shares ONE pipelined connection.
        transport.call(client, server, vec![0]).unwrap();
        assert_eq!(transport.pooled_conns(server), 1);
        let t0 = Instant::now();
        let slow = transport.submit(client, server, vec![1]);
        let mut fast = CompletionSet::new();
        for i in 0..8u8 {
            fast.push(transport.submit(client, server, vec![0, i]));
        }
        for (i, result) in fast.wait_all().into_iter().enumerate() {
            assert_eq!(result.unwrap().payload, vec![0, i as u8]);
        }
        let fast_elapsed = t0.elapsed();
        assert!(
            fast_elapsed < Duration::from_millis(300),
            "fast requests queued behind the slow one: {fast_elapsed:?}"
        );
        assert_eq!(slow.wait().unwrap().payload, vec![1]);
        assert!(t0.elapsed() >= Duration::from_millis(400));
        assert_eq!(
            transport.pooled_conns(server),
            1,
            "the whole out-of-order exchange rode one connection"
        );
        assert_eq!(transport.orphan_responses(), 0);
    }

    #[test]
    fn overcommitted_pipelines_drain_through_bounded_dispatch() {
        // More in-flight requests per connection than SERVE_PIPELINE:
        // the server-side gate must throttle the reader (backpressure),
        // not deadlock, drop, or reorder-by-correlation incorrectly.
        let (transport, client, server) = echo_transport();
        let mut set = CompletionSet::new();
        for i in 0..200u32 {
            set.push(transport.submit(client, server, i.to_le_bytes().to_vec()));
        }
        for (i, result) in set.wait_all().into_iter().enumerate() {
            assert_eq!(result.unwrap().payload, (i as u32).to_le_bytes().to_vec());
        }
        assert!(transport.pooled_conns(server) <= POOL_CAP);
        assert_eq!(transport.orphan_responses(), 0);
        assert_eq!(transport.stats().messages, 400);
    }

    #[test]
    fn service_panic_cuts_connection_not_dispatch_pool() {
        let transport = TcpTransport::new(7);
        let server = transport.register("panicky", None);
        // payload[0] == 1 makes the service panic.
        transport.set_service(
            server,
            Arc::new(|_from: EndpointId, payload: &[u8]| {
                assert_ne!(payload.first(), Some(&1), "injected service bug");
                payload.to_vec()
            }),
        );
        let client = transport.register("client", None);
        transport.call(client, server, vec![0]).unwrap();
        // The panicking request costs its connection (crash semantics,
        // not a silent stall to the timeout)...
        let err = transport.call(client, server, vec![1]).unwrap_err();
        assert!(
            matches!(err, NetError::Connection(_)),
            "expected connection death, got {err:?}"
        );
        // ...but the dispatch pool survives: the endpoint keeps
        // serving later requests.
        assert_eq!(
            transport.call(client, server, vec![2]).unwrap().payload,
            [2],
            "dispatch workers must outlive a panicking request"
        );
    }

    #[test]
    fn half_closing_peer_still_receives_pipelined_responses() {
        // A protocol-conformant client may pipeline requests, close its
        // write side, and keep reading: responses still in dispatch
        // must drain, not die with the reader.
        let (transport, _client, server) = echo_transport();
        let addr = transport.listen_addr(server).unwrap();
        let mut stream = TcpStream::connect(addr).unwrap();
        for corr in [1u64, 2, 3] {
            write_frame(&mut stream, 99, corr, &[corr as u8]).unwrap();
        }
        stream.shutdown(Shutdown::Write).unwrap();
        let mut seen: Vec<u64> = (0..3)
            .map(|_| {
                let frame = read_frame(&mut stream).expect("response survives half-close");
                assert_eq!(frame.payload, vec![frame.correlation as u8]);
                frame.correlation
            })
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 2, 3]);
    }

    /// Wakes every reactor and waits until each has counted a wake, so
    /// wakes already in flight are counted before the caller looks.
    fn settle_reactors(transport: &TcpTransport) {
        for handle in &transport.reactor_pool().handles {
            let seen = handle.probe.wakes.load(Ordering::SeqCst);
            handle.waker.wake();
            wait_until("a reactor wake", || {
                handle.probe.wakes.load(Ordering::SeqCst) > seen
            });
        }
    }

    /// Polls `done` for up to 2 s.
    fn wait_until(what: &str, done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(2);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            thread::sleep(Duration::from_millis(1));
        }
    }

    /// Sums one test probe counter over the transport's reactors.
    fn probe_total(transport: &TcpTransport, counter: fn(&ReactorProbe) -> &AtomicU64) -> u64 {
        let pool = transport.reactor_pool();
        pool.handles
            .iter()
            .map(|h| counter(&h.probe).load(Ordering::SeqCst))
            .sum()
    }

    #[test]
    fn warm_pipelined_small_calls_wake_reactors_only_for_responses() {
        let (transport, client, server) = echo_transport();
        // Warm the pool; the dial's and the accept's hand-over wakes are
        // counted before the measured calls start.
        for i in 0..5u8 {
            transport.call(client, server, vec![i]).unwrap();
        }
        settle_reactors(&transport);
        let before = probe_total(&transport, |p| &p.wakes);
        let calls = 100u64;
        for round in 0..10u8 {
            let mut set = CompletionSet::new();
            for i in 0..10u8 {
                set.push(transport.submit(client, server, vec![round, i]));
            }
            for (i, result) in set.wait_all().into_iter().enumerate() {
                assert_eq!(result.unwrap().payload, vec![round, i as u8]);
            }
        }
        // Submitters wrote every request themselves; only a worker's
        // queued response may wake its reactor, at most once each.
        let wakes = probe_total(&transport, |p| &p.wakes) - before;
        assert!(wakes <= calls, "{wakes} wakes for {calls} calls");
        assert_eq!(probe_total(&transport, |p| &p.client_remainders), 0);
        assert_eq!(transport.pooled_conns(server), 1);
    }

    #[test]
    fn large_frames_leave_remainders_to_the_reactor_without_interleaving() {
        // A direct write leaves a remainder only when the peer stops
        // reading. One reactor serves both ends here, and admission
        // classification runs on it, so a [0xEE] marker request parks
        // the reactor until the test lets it go: nobody reads either
        // socket meanwhile.
        const STALL: u8 = 0xEE;
        let stalled = Arc::new(AtomicBool::new(false));
        let released = Arc::new(AtomicBool::new(false));
        let transport = TcpTransport::with_reactors(7, 1);
        let server = transport.register("echo", None);
        transport.set_service(
            server,
            Arc::new(|_from: EndpointId, payload: &[u8]| payload.to_vec()),
        );
        let (entered, go) = (stalled.clone(), released.clone());
        transport.set_overload_policy(
            server,
            Some(OverloadPolicy {
                max_depth: 1024,
                retry_after_us: 1_000,
                classify: Arc::new(move |payload: &[u8]| {
                    if payload == [STALL] {
                        entered.store(true, Ordering::SeqCst);
                        while !go.load(Ordering::SeqCst) {
                            thread::sleep(Duration::from_millis(1));
                        }
                    }
                    0
                }),
                busy_reply: Arc::new(|_| vec![0xBB]),
            }),
        );
        let client = transport.register("client", None);
        transport.call(client, server, vec![0]).unwrap();
        let big: Vec<u8> = (0..4u32 << 20).map(|i| (i % 251) as u8).collect();
        let mut set = CompletionSet::new();
        for i in 0..8u8 {
            set.push(transport.submit(client, server, vec![1, i]));
        }
        set.push(transport.submit(client, server, vec![STALL]));
        wait_until("the stall", || stalled.load(Ordering::SeqCst));
        set.push(transport.submit(client, server, big.clone()));
        assert!(
            probe_total(&transport, |p| &p.client_remainders) >= 1,
            "a 4 MiB request into an unread socket leaves a remainder"
        );
        for i in 8..16u8 {
            set.push(transport.submit(client, server, vec![1, i]));
        }
        released.store(true, Ordering::SeqCst);
        let results: Vec<Vec<u8>> = set
            .wait_all()
            .into_iter()
            .map(|r| r.expect("no call fails").payload)
            .collect();
        // Byte-exact payloads in submission positions: a frame
        // interleaved into another — the 4 MiB echo goes out in many
        // writes with small responses queued behind it — would have
        // broken the decoder.
        assert!(results[9] == big, "the 4 MiB echo must be byte-exact");
        assert_eq!(results[8], vec![STALL]);
        for (k, i) in (0..8).chain(10..18).zip(0..16u8) {
            assert_eq!(results[k], vec![1, i]);
        }
        assert_eq!(transport.pooled_conns(server), 1);
        assert_eq!(transport.orphan_responses(), 0);
    }

    #[test]
    fn pipelined_requests_past_the_read_gate_drain_without_stalling() {
        let transport = TcpTransport::with_reactors(7, 1);
        let server = transport.register("gate", None);
        transport.set_service(
            server,
            Arc::new(|_from: EndpointId, payload: &[u8]| {
                thread::sleep(Duration::from_millis(2));
                payload.to_vec()
            }),
        );
        let mut raw = TcpStream::connect(transport.listen_addr(server).unwrap()).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let total = 3 * SERVE_PIPELINE as u64;
        let mut burst = Vec::new();
        for corr in 0..total {
            write_frame(&mut burst, 5, corr, &corr.to_le_bytes()).unwrap();
        }
        let t0 = Instant::now();
        raw.write_all(&burst).unwrap();
        let mut seen: Vec<u64> = (0..total)
            .map(|_| {
                let frame = read_frame(&mut raw).expect("the gate reopens; nothing stalls");
                assert_eq!(frame.payload, frame.correlation.to_le_bytes());
                frame.correlation
            })
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..total).collect::<Vec<_>>());
        assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
    }

    #[test]
    fn busy_replies_behind_a_closed_read_gate_are_all_answered() {
        // Depth 1: one request at a time reaches a worker, the rest are
        // shed by the reactor itself, many of them while the gate is
        // closed. The raw peer never times anything out, so only the
        // transport's own wakes can drain the connection.
        let transport = TcpTransport::with_reactors(7, 1);
        let server = transport.register("gate", None);
        transport.set_service(
            server,
            Arc::new(|_from: EndpointId, payload: &[u8]| {
                thread::sleep(Duration::from_millis(1));
                payload.to_vec()
            }),
        );
        transport.set_overload_policy(server, Some(test_policy(1)));
        let mut raw = TcpStream::connect(transport.listen_addr(server).unwrap()).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let total = 8 * SERVE_PIPELINE as u64;
        let mut burst = Vec::new();
        for corr in 0..total {
            write_frame(&mut burst, 5, corr, &[1, corr as u8]).unwrap();
        }
        raw.write_all(&burst).unwrap();
        let mut seen: Vec<u64> = (0..total)
            .map(|_| {
                let frame = read_frame(&mut raw).expect("every frame is answered");
                assert!(is_busy(&frame.payload) || frame.payload == [1, frame.correlation as u8]);
                frame.correlation
            })
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..total).collect::<Vec<_>>());
        assert!(transport.shed_requests() >= 1);
    }

    #[test]
    fn sockets_the_kernel_will_not_watch_fail_their_calls_at_once() {
        let (transport, client, server) = echo_transport();
        transport.call(client, server, vec![0]).unwrap();
        let pool = transport.reactor_pool();
        let refuse = |on: bool| {
            for handle in &pool.handles {
                handle.probe.refuse_registration.store(on, Ordering::SeqCst);
            }
        };
        // A fresh dial's first registration is refused.
        let other = transport.register("other", None);
        transport.set_service(other, Arc::new(|_: EndpointId, p: &[u8]| p.to_vec()));
        // A wake is counted just before the sweep it triggers, so the
        // second round proves the new listener's registration is done.
        settle_reactors(&transport);
        settle_reactors(&transport);
        refuse(true);
        let t0 = Instant::now();
        assert!(transport.call(client, other, vec![1]).is_err());
        assert!(
            t0.elapsed() < transport.timeout() / 2,
            "the call failed at the refusal, not at its timeout: {:?}",
            t0.elapsed()
        );
        refuse(false);
        assert_eq!(
            transport.call(client, other, vec![2]).unwrap().payload,
            vec![2]
        );
        assert_eq!(
            transport.call(client, server, vec![3]).unwrap().payload,
            vec![3]
        );
    }

    #[test]
    fn gated_or_half_closed_connections_leave_the_reactor_idle() {
        let transport = TcpTransport::with_reactors(7, 1);
        let server = transport.register("blocked", None);
        let release = Arc::new(AtomicBool::new(false));
        let gate = release.clone();
        transport.set_service(
            server,
            Arc::new(move |_from: EndpointId, payload: &[u8]| {
                while !gate.load(Ordering::SeqCst) {
                    thread::sleep(Duration::from_millis(1));
                }
                payload.to_vec()
            }),
        );
        let addr = transport.listen_addr(server).unwrap();
        // One connection past its read gate: every dispatch slot held.
        let mut gated = TcpStream::connect(addr).unwrap();
        let total = SERVE_PIPELINE as u64 + 8;
        for corr in 0..total {
            write_frame(&mut gated, 5, corr, &[corr as u8]).unwrap();
        }
        // One half-closed connection with its request still in dispatch.
        let mut half = TcpStream::connect(addr).unwrap();
        write_frame(&mut half, 6, 99, &[99]).unwrap();
        half.shutdown(Shutdown::Write).unwrap();
        let gauge = transport.inner.endpoints.lock()[&server].gauge.clone();
        wait_until("both connections' requests in dispatch", || {
            gauge.current_depth() == SERVE_PIPELINE + 1
        });
        let before = probe_total(&transport, |p| &p.loops);
        thread::sleep(Duration::from_millis(200));
        let spins = probe_total(&transport, |p| &p.loops) - before;
        assert!(spins <= 5, "the reactor looped {spins} times while idle");
        release.store(true, Ordering::SeqCst);
        gated
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        for _ in 0..total {
            let frame = read_frame(&mut gated).expect("gated requests drain");
            assert_eq!(frame.payload, vec![frame.correlation as u8]);
        }
        half.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        assert_eq!(read_frame(&mut half).unwrap().payload, vec![99]);
        let mut rest = [0u8; 1];
        assert_eq!(
            half.read(&mut rest).unwrap(),
            0,
            "a drained half-closed connection is closed"
        );
    }

    #[test]
    fn demux_discards_unknown_and_duplicate_correlations() {
        let orphans = Arc::new(AtomicU64::new(0));
        let demux = Demux::new(orphans.clone());
        let cell = demux.register(1);
        // Unknown correlation id: discarded, counted, no delivery.
        demux.complete(99, Ok(vec![9]));
        assert_eq!(orphans.load(Ordering::Relaxed), 1);
        // First completion delivers...
        demux.complete(1, Ok(vec![1]));
        let done = cell.wait_until(Instant::now()).unwrap();
        assert_eq!(done.result.unwrap(), vec![1]);
        assert!(done.sole_in_flight, "it was alone in the demux");
        // ...a duplicate for the same id is an orphan, not a overwrite.
        demux.complete(1, Ok(vec![2]));
        assert_eq!(orphans.load(Ordering::Relaxed), 2);
        assert_eq!(demux.in_flight(), 0);
    }

    #[test]
    fn stale_frame_version_cuts_server_connection() {
        let (transport, _client, server) = echo_transport();
        let addr = transport.listen_addr(server).unwrap();
        let mut raw = TcpStream::connect(addr).unwrap();
        // A v1-era frame (no version byte): the server must refuse to
        // parse it and cut the connection rather than desynchronize.
        use std::io::{Read, Write};
        let mut v1 = Vec::new();
        v1.extend_from_slice(&3u32.to_le_bytes());
        v1.extend_from_slice(&7u64.to_le_bytes());
        v1.extend_from_slice(b"abc");
        raw.write_all(&v1).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut buf = [0u8; 16];
        // Connection cut: EOF (0 bytes) or reset.
        if let Ok(n) = raw.read(&mut buf) {
            assert_eq!(n, 0, "server must not answer a bad-version frame");
        }
    }

    #[test]
    fn timed_out_connection_is_pruned_not_repooled() {
        let transport = TcpTransport::new(7);
        let server = transport.register("stall", None);
        let stalling = Arc::new(AtomicBool::new(true));
        let gate = stalling.clone();
        transport.set_service(
            server,
            Arc::new(move |_from: EndpointId, payload: &[u8]| {
                if gate.load(Ordering::SeqCst) {
                    thread::sleep(Duration::from_millis(400));
                }
                payload.to_vec()
            }),
        );
        let client = transport.register("client", None);
        transport.set_timeout_us(60_000);
        assert!(matches!(
            transport.call(client, server, vec![1]),
            Err(NetError::Timeout)
        ));
        // The stalled connection's dispatch slot is still busy
        // sleeping; if the pool handed the connection out again the
        // next call would queue behind the stall and time out too. It
        // must dial fresh and answer within the budget instead.
        stalling.store(false, Ordering::SeqCst);
        assert_eq!(
            transport.call(client, server, vec![2]).unwrap().payload,
            [2],
            "post-timeout call must not be fed to the stalled connection"
        );
        // The stalled connection was pruned, so its reactor tore the
        // socket down; the stalled request's eventual response dies
        // with the connection instead of being delivered anywhere. The
        // timed-out call still charged its *request* (the frame was
        // written); only the response that never arrived goes
        // uncounted.
        thread::sleep(Duration::from_millis(450));
        assert_eq!(
            transport.stats().messages,
            3,
            "timed-out request + the good call's two messages"
        );
    }

    #[test]
    fn timed_out_call_charges_its_written_request_bytes() {
        let transport = TcpTransport::new(7);
        let server = transport.register("stall", None);
        transport.set_service(
            server,
            Arc::new(|_from: EndpointId, payload: &[u8]| {
                thread::sleep(Duration::from_millis(300));
                payload.to_vec()
            }),
        );
        let client = transport.register("client", None);
        transport.set_timeout_us(50_000);
        let err = transport
            .call(client, server, vec![1, 2, 3, 4])
            .unwrap_err();
        assert!(matches!(err, NetError::Timeout));
        // The request frame hit the wire before the timeout: its bytes
        // are accounted on both endpoints, the never-received response
        // is not.
        let stats = transport.stats();
        assert_eq!(stats.messages, 1);
        assert_eq!(stats.bytes, 4 + FRAME_HEADER_LEN as u64);
        let c = transport.endpoint_stats(client).unwrap();
        assert_eq!((c.tx_msgs, c.tx_bytes), (1, 4 + FRAME_HEADER_LEN as u64));
        assert_eq!((c.rx_msgs, c.rx_bytes), (0, 0), "no response landed");
        let s = transport.endpoint_stats(server).unwrap();
        assert_eq!((s.rx_msgs, s.rx_bytes), (1, 4 + FRAME_HEADER_LEN as u64));
        assert_eq!(s.tx_msgs, 0);
    }

    #[test]
    fn drop_injected_call_never_reaches_the_wire_and_charges_nothing() {
        let (transport, client, server) = echo_transport();
        transport.set_drop_probability(1.0);
        assert!(matches!(
            transport.call(client, server, vec![1]),
            Err(NetError::Timeout)
        ));
        // Drop injection models loss *before* the socket: unlike a
        // timed-out written frame, nothing was spent.
        assert_eq!(transport.stats().messages, 0);
        assert_eq!(transport.stats().bytes, 0);
        assert_eq!(transport.endpoint_stats(client).unwrap().tx_msgs, 0);
    }

    #[test]
    fn down_endpoint_fails_cleanly_and_revives() {
        let (transport, client, server) = echo_transport();
        transport.call(client, server, vec![1]).unwrap();
        transport.set_down(server, true);
        assert!(matches!(
            transport.call(client, server, vec![1]),
            Err(NetError::EndpointDown(_))
        ));
        transport.set_down(server, false);
        assert_eq!(
            transport.call(client, server, vec![2]).unwrap().payload,
            [2]
        );
    }

    #[test]
    fn drop_probability_one_always_times_out() {
        let (transport, client, server) = echo_transport();
        transport.set_drop_probability(1.0);
        assert!(matches!(
            transport.call(client, server, vec![1]),
            Err(NetError::Timeout)
        ));
        assert_eq!(transport.stats().drops, 1);
        transport.set_drop_probability(0.0);
        assert!(transport.call(client, server, vec![1]).is_ok());
    }

    #[test]
    fn unknown_and_serviceless_endpoints_error() {
        let (transport, client, _server) = echo_transport();
        assert!(matches!(
            transport.call(client, EndpointId(999), vec![]),
            Err(NetError::NoSuchEndpoint(_))
        ));
        let silent = transport.register("no-service", None);
        assert!(matches!(
            transport.call(client, silent, vec![]),
            Err(NetError::NoSuchEndpoint(_))
        ));
    }

    #[test]
    fn dropping_the_transport_releases_listeners() {
        let (transport, client, server) = echo_transport();
        transport.call(client, server, vec![1]).unwrap();
        let addr = transport.listen_addr(server).unwrap();
        drop(transport);
        // The reactors exit and close the listener; new dials must
        // start failing (give the woken threads a moment to unwind).
        let mut released = false;
        for _ in 0..50 {
            if TcpStream::connect_timeout(&addr, Duration::from_millis(50)).is_err() {
                released = true;
                break;
            }
            thread::sleep(Duration::from_millis(10));
        }
        assert!(released, "listener port still accepting after drop");
    }

    #[test]
    fn dropping_a_many_endpoint_transport_completes_quickly() {
        // Teardown is one wake per reactor, not a walk over endpoints:
        // with ~16 served endpoints the whole drop must finish well
        // under a second.
        let transport = TcpTransport::new(3);
        let client = transport.register("client", None);
        let servers: Vec<EndpointId> = (0..16)
            .map(|i| {
                let id = transport.register(&format!("srv-{i}"), None);
                transport.set_service(
                    id,
                    Arc::new(|_from: EndpointId, payload: &[u8]| payload.to_vec()),
                );
                id
            })
            .collect();
        // Exercise a few of them so real connections exist too.
        for id in servers.iter().take(4) {
            transport.call(client, *id, vec![1]).unwrap();
        }
        let t0 = Instant::now();
        drop(transport);
        assert!(
            t0.elapsed() < Duration::from_millis(900),
            "teardown of 16 served endpoints took {:?}",
            t0.elapsed()
        );
    }

    /// Policy for the overload tests: byte 0 of the payload is the
    /// principal key; shed replies are `[0xBB]` + retry hint.
    fn test_policy(max_depth: usize) -> OverloadPolicy {
        OverloadPolicy {
            max_depth,
            retry_after_us: 1_500,
            classify: Arc::new(|payload: &[u8]| u64::from(payload.first().copied().unwrap_or(0))),
            busy_reply: Arc::new(|retry_after_us: u64| vec![0xBB, retry_after_us as u8]),
        }
    }

    fn is_busy(payload: &[u8]) -> bool {
        payload.first() == Some(&0xBB)
    }

    #[test]
    fn saturated_endpoint_sheds_busy_within_bound_instead_of_stalling() {
        // Far more in-flight than the dispatch queue admits, against a
        // slow service: the overflow MUST come back as fast busy
        // replies, not wedge behind the reader gate until timeout.
        let transport = TcpTransport::new(7);
        let server = transport.register("slow", None);
        transport.set_service(
            server,
            Arc::new(|_from: EndpointId, payload: &[u8]| {
                thread::sleep(Duration::from_millis(100));
                payload.to_vec()
            }),
        );
        transport.set_overload_policy(server, Some(test_policy(4)));
        let client = transport.register("client", None);
        let t0 = Instant::now();
        let mut set = CompletionSet::new();
        for i in 0..48u8 {
            // Spread principals so the per-principal cap is not what
            // triggers first; total depth is.
            set.push(transport.submit(client, server, vec![i, 1]));
        }
        let results = set.wait_all();
        let elapsed = t0.elapsed();
        let mut served = 0usize;
        let mut shed = 0usize;
        for result in results {
            let transfer = result.expect("saturation must answer, not error");
            if is_busy(&transfer.payload) {
                shed += 1;
            } else {
                served += 1;
            }
        }
        assert!(served >= 1, "some requests must still be served");
        assert!(shed >= 1, "overflow must be shed as busy replies");
        assert_eq!(transport.shed_requests(), shed as u64);
        // 48 requests at 100 ms each on 8 workers would be ~600 ms if
        // everything queued; shedding keeps the tail bounded by the
        // admitted depth, not the offered load.
        assert!(
            elapsed < Duration::from_millis(450),
            "saturation wedged the pipeline: {elapsed:?}"
        );
        assert!(
            transport.dispatch_depth(server) <= 4,
            "admitted depth exceeded the policy cap"
        );
    }

    #[test]
    fn hot_principal_is_shed_before_quiet_one() {
        let transport = TcpTransport::new(7);
        let server = transport.register("slow", None);
        transport.set_service(
            server,
            Arc::new(|_from: EndpointId, payload: &[u8]| {
                thread::sleep(Duration::from_millis(80));
                payload.to_vec()
            }),
        );
        // max_depth 8 → per-principal cap 4: principal 1 can hold at
        // most half the queue.
        transport.set_overload_policy(server, Some(test_policy(8)));
        let hot = transport.register("hot", None);
        let quiet = transport.register("quiet", None);
        // The hot principal floods well past its cap...
        let mut hot_set = CompletionSet::new();
        for i in 0..24u8 {
            hot_set.push(transport.submit(hot, server, vec![1, i]));
        }
        // ...then a quiet principal shows up while the flood is in
        // flight: the fairness cap left it room, so it must be served.
        thread::sleep(Duration::from_millis(10));
        let quiet_transfer = transport
            .call(quiet, server, vec![2, 0])
            .expect("quiet principal must get through");
        assert!(
            !is_busy(&quiet_transfer.payload),
            "quiet principal was shed while the hot one held the queue"
        );
        let mut hot_shed = 0usize;
        for result in hot_set.wait_all() {
            if is_busy(&result.unwrap().payload) {
                hot_shed += 1;
            }
        }
        assert!(
            hot_shed >= 1,
            "the flooding principal must be shed at its fairness cap"
        );
    }

    #[test]
    fn shed_plus_disconnect_releases_every_admission_slot() {
        // Regression for the leaked-slot wedge: a client floods a tiny
        // admission queue, then vanishes mid-burst without reading
        // replies. Every admitted slot must drain (workers release
        // unconditionally) so a later well-behaved caller is served,
        // not shed forever.
        let transport = TcpTransport::new(7);
        let server = transport.register("slow", None);
        transport.set_service(
            server,
            Arc::new(|_from: EndpointId, payload: &[u8]| {
                thread::sleep(Duration::from_millis(50));
                payload.to_vec()
            }),
        );
        transport.set_overload_policy(server, Some(test_policy(2)));
        let addr = transport.listen_addr(server).unwrap();
        {
            // Raw flood from outside the transport, then a hard cut
            // with replies unread.
            let mut raw = TcpStream::connect(addr).unwrap();
            for corr in 0..16u64 {
                write_frame(&mut raw, 77, corr, &[1, corr as u8]).unwrap();
            }
            // Give the server a moment to admit/shed the burst, then
            // vanish without reading a single reply.
            thread::sleep(Duration::from_millis(30));
            let _ = raw.shutdown(Shutdown::Both);
            drop(raw);
        }
        // Wait out the admitted requests' service time.
        thread::sleep(Duration::from_millis(400));
        let live_depth = transport
            .inner
            .endpoints
            .lock()
            .get(&server)
            .unwrap()
            .gauge
            .current_depth();
        assert_eq!(
            live_depth, 0,
            "admission slots leaked after the flooder disconnected"
        );
        let client = transport.register("client", None);
        let transfer = transport
            .call(client, server, vec![9, 9])
            .expect("endpoint must still answer after the flooder died");
        assert!(
            !is_busy(&transfer.payload),
            "leaked admission slots left the endpoint shedding forever"
        );
    }

    #[test]
    fn dispatch_depth_high_water_and_shed_reset_with_stats() {
        let transport = TcpTransport::new(7);
        let server = transport.register("slow", None);
        transport.set_service(
            server,
            Arc::new(|_from: EndpointId, payload: &[u8]| {
                thread::sleep(Duration::from_millis(40));
                payload.to_vec()
            }),
        );
        transport.set_overload_policy(server, Some(test_policy(2)));
        let client = transport.register("client", None);
        let mut set = CompletionSet::new();
        for i in 0..12u8 {
            set.push(transport.submit(client, server, vec![i, 0]));
        }
        for result in set.wait_all() {
            result.unwrap();
        }
        assert!(transport.dispatch_depth(server) >= 1);
        assert!(transport.shed_requests() >= 1);
        transport.reset_stats();
        assert_eq!(transport.dispatch_depth(server), 0);
        assert_eq!(transport.shed_requests(), 0);
    }

    #[test]
    fn endpoint_without_policy_never_sheds() {
        let (transport, client, server) = echo_transport();
        let mut set = CompletionSet::new();
        for i in 0..64u8 {
            set.push(transport.submit(client, server, vec![i]));
        }
        for result in set.wait_all() {
            result.unwrap();
        }
        assert_eq!(transport.shed_requests(), 0);
        assert!(
            transport.dispatch_depth(server) >= 1,
            "depth high-water is observed even without a policy"
        );
    }

    #[test]
    fn clock_is_monotonic_wall_time() {
        let transport = TcpTransport::new(1);
        let t0 = transport.now_us();
        std::thread::sleep(Duration::from_millis(2));
        assert!(transport.now_us() > t0);
        transport.advance_us(1_000_000); // no-op by contract
        assert!(transport.now_us() < 60_000_000);
    }
}
