//! Spans recorded from outside the program: a [`Transport`] decorator
//! that times every wire call and every served request, plus the
//! benchmark's own op root spans, and the analysis that turns them into
//! per-layer self times.
//!
//! Span kinds and their links:
//!
//! - `op.<class>` — the root, around one provider call or patch, on a
//!   generator thread. Its id is the op id.
//! - `netsim.call` — submit to claim of one wire call. Its parent is the
//!   op that was running on the submitting thread (0 when none).
//! - `mapserver.service` / `dns.auth.service` — one served
//!   [`WireService`] call, on whatever thread the backend dispatches it.
//!   It carries the caller, the serving endpoint and a hash of the
//!   request bytes; the analysis links it to the `netsim.call` with the
//!   same three whose interval contains it, and takes its request kind
//!   from that call.
//!
//! The decorator's own work (hashing the request on both sides and
//! decoding its kind on the submit side) is timed and recorded with
//! each span, and the analysis charges it to neither the client, the
//! wire nor the server. Decoding stays off the served path.
//!
//! Recording is lock-free: every span claims a slot of a fixed array
//! with one atomic increment and publishes it with a release store.

use openflame_codec::from_bytes;
use openflame_geo::LatLng;
use openflame_mapserver::protocol::{Envelope, Request};
use openflame_netsim::{
    CallHandle, EndpointId, EndpointLatency, EndpointStats, NetError, NetStats, OverloadPolicy,
    PendingCall, Transfer, Transport, WireService,
};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Op classes of the root spans, in report order.
pub const CLASSES: [&str; 6] = ["search", "route", "localize", "tile", "geocode", "update"];

/// Request kinds a map server serves, in report order (the kind of an
/// envelope is its request's, or for a batch its first non-hello
/// item's).
pub const SERVICE_KINDS: [&str; 10] = [
    "hello",
    "search",
    "geocode",
    "reverse_geocode",
    "route",
    "route_matrix",
    "nearest_node",
    "localize",
    "tile",
    "apply_patch",
];

const KIND_ROOT: u64 = 1;
const KIND_CALL: u64 = 2;
const KIND_MAPSERVER: u64 = 3;
const KIND_DNS: u64 = 4;

/// Responses at least this large are tile payloads worth keeping for
/// the decode timing (a 256×256 RGB tile is 196 608 bytes).
const TILE_PAYLOAD_MIN: usize = 100_000;
/// Tile responses kept for the decode timing.
const TILE_CAPTURES: usize = 16;

thread_local! {
    /// The op running on this thread (0 = none): the parent of every
    /// wire call the thread submits.
    static CURRENT_OP: Cell<u64> = const { Cell::new(0) };
}

/// Runs `f` with `op` as this thread's current op.
pub(crate) fn with_op<R>(op: u64, f: impl FnOnce() -> R) -> R {
    CURRENT_OP.with(|c| c.set(op));
    let out = f();
    CURRENT_OP.with(|c| c.set(0));
    out
}

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `KIND_*` code.
    kind: u64,
    /// Class index (roots), or the request's service kind index
    /// (calls; [`NOT_AN_ENVELOPE`] when it does not decode).
    sub: u64,
    /// Op id: the root's own id, or a call's parent op.
    op: u64,
    /// Start, nanoseconds since the tracer's epoch.
    start: u64,
    /// End, nanoseconds since the tracer's epoch.
    end: u64,
    /// Caller endpoint (calls, services).
    from: u64,
    /// Callee / serving endpoint (calls, services).
    to: u64,
    /// Hash of the request bytes (calls, services).
    key: u64,
    /// Request bytes (calls).
    req_bytes: u64,
    /// Response bytes (calls).
    resp_bytes: u64,
    /// The decorator's own time, nanoseconds: right before `start` for
    /// a call, right after `end` for a service.
    hook_ns: u64,
}

const FIELDS: usize = 11;

/// Service kind of a call whose payload is not a map-server envelope.
const NOT_AN_ENVELOPE: u64 = u64::MAX;

/// The span store: a fixed array of slots claimed by one atomic
/// increment each.
pub struct Tracer {
    epoch: Instant,
    enabled: AtomicBool,
    slots: Vec<[AtomicU64; FIELDS]>,
    next: AtomicUsize,
    dropped: AtomicU64,
    tile_payloads: Vec<OnceLock<Vec<u8>>>,
    next_tile: AtomicUsize,
}

impl Tracer {
    /// A tracer holding at most `capacity` spans, recording off.
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(Self {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            slots: (0..capacity)
                .map(|_| std::array::from_fn(|_| AtomicU64::new(0)))
                .collect(),
            next: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            tile_payloads: (0..TILE_CAPTURES).map(|_| OnceLock::new()).collect(),
            next_tile: AtomicUsize::new(0),
        })
    }

    /// Turns recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    /// Whether spans are being recorded.
    pub(crate) fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Nanoseconds since the tracer's epoch.
    pub(crate) fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn record(&self, span: Span) {
        let idx = self.next.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = self.slots.get(idx) else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let values = [
            span.sub,
            span.op,
            span.start,
            span.end,
            span.from,
            span.to,
            span.key,
            span.req_bytes,
            span.resp_bytes,
            span.hook_ns,
        ];
        for (field, value) in slot[1..].iter().zip(values) {
            field.store(value, Ordering::Relaxed);
        }
        // Publishes the fields above to `spans()` (Acquire load).
        slot[0].store(span.kind, Ordering::Release);
    }

    /// Records an op root span of class index `class`.
    pub(crate) fn record_root(&self, op: u64, class: usize, start: u64, end: u64) {
        self.record(Span {
            kind: KIND_ROOT,
            sub: class as u64,
            op,
            start,
            end,
            from: 0,
            to: 0,
            key: 0,
            req_bytes: 0,
            resp_bytes: 0,
            hook_ns: 0,
        });
    }

    /// Every published span, plus how many did not fit.
    pub fn spans(&self) -> (Vec<Span>, u64) {
        let claimed = self.next.load(Ordering::Acquire).min(self.slots.len());
        let spans = self.slots[..claimed]
            .iter()
            .filter_map(|slot| {
                let kind = slot[0].load(Ordering::Acquire);
                (kind != 0).then(|| {
                    let f = |i: usize| slot[i].load(Ordering::Relaxed);
                    Span {
                        kind,
                        sub: f(1),
                        op: f(2),
                        start: f(3),
                        end: f(4),
                        from: f(5),
                        to: f(6),
                        key: f(7),
                        req_bytes: f(8),
                        resp_bytes: f(9),
                        hook_ns: f(10),
                    }
                })
            })
            .collect();
        (spans, self.dropped.load(Ordering::Relaxed))
    }

    /// Tile response payloads captured while recording.
    pub fn tile_payloads(&self) -> Vec<&[u8]> {
        self.tile_payloads
            .iter()
            .filter_map(|p| p.get().map(Vec::as_slice))
            .collect()
    }

    fn capture_tile(&self, payload: &[u8]) {
        if payload.len() < TILE_PAYLOAD_MIN {
            return;
        }
        let idx = self.next_tile.fetch_add(1, Ordering::Relaxed);
        if let Some(cell) = self.tile_payloads.get(idx) {
            let _ = cell.set(payload.to_vec());
        }
    }
}

/// FNV-1a over the request bytes: links a served request to the call
/// that carried it.
fn payload_key(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The service kind index of an encoded envelope (see
/// [`SERVICE_KINDS`]), or [`NOT_AN_ENVELOPE`].
fn service_kind(payload: &[u8]) -> u64 {
    let kind = |r: &Request| match r {
        Request::Hello => 0,
        Request::Search { .. } => 1,
        Request::Geocode { .. } => 2,
        Request::ReverseGeocode { .. } => 3,
        Request::Route { .. } => 4,
        Request::RouteMatrix { .. } => 5,
        Request::NearestNode { .. } => 6,
        Request::Localize { .. } => 7,
        Request::GetTile { .. } => 8,
        Request::ApplyPatch { .. } => 9,
        Request::Batch(_) => 0,
    };
    match from_bytes::<Envelope>(payload) {
        Ok(Envelope {
            request: Request::Batch(items),
            ..
        }) => items.iter().map(kind).find(|&k| k != 0).unwrap_or(0),
        Ok(env) => kind(&env.request),
        Err(_) => NOT_AN_ENVELOPE,
    }
}

/// A [`Transport`] that delegates every method to `inner` and, while
/// its tracer is enabled, records `netsim.call` spans around submitted
/// calls and service spans around served requests.
pub struct TracingTransport {
    inner: Arc<dyn Transport>,
    tracer: Arc<Tracer>,
}

impl TracingTransport {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn Transport>, tracer: Arc<Tracer>) -> Self {
        Self { inner, tracer }
    }
}

struct TracedCall {
    inner: CallHandle,
    tracer: Arc<Tracer>,
    span: Span,
}

impl PendingCall for TracedCall {
    fn wait(self: Box<Self>) -> Result<Transfer, NetError> {
        let result = self.inner.wait();
        let mut span = self.span;
        span.end = self.tracer.now_ns();
        if let Ok(transfer) = &result {
            span.resp_bytes = transfer.payload.len() as u64;
            self.tracer.capture_tile(&transfer.payload);
        }
        self.tracer.record(span);
        result
    }
}

struct TracedService {
    inner: Arc<dyn WireService>,
    tracer: Arc<Tracer>,
    endpoint: EndpointId,
    mapserver: bool,
}

impl WireService for TracedService {
    fn handle(&self, from: EndpointId, payload: &[u8]) -> Vec<u8> {
        if !self.tracer.enabled() {
            return self.inner.handle(from, payload);
        }
        let start = self.tracer.now_ns();
        let response = self.inner.handle(from, payload);
        let end = self.tracer.now_ns();
        let key = payload_key(payload);
        self.tracer.record(Span {
            kind: if self.mapserver {
                KIND_MAPSERVER
            } else {
                KIND_DNS
            },
            sub: 0,
            op: 0,
            start,
            end,
            from: from.0,
            to: self.endpoint.0,
            key,
            req_bytes: 0,
            resp_bytes: 0,
            // The hash above: decorator time on the served path.
            hook_ns: self.tracer.now_ns() - end,
        });
        response
    }
}

// `call` and `call_parallel` keep their default bodies: they are
// conveniences over `submit` on every backend, so leaving them default
// routes them through the traced `submit`.
impl Transport for TracingTransport {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn register(&self, name: &str, location: Option<LatLng>) -> EndpointId {
        self.inner.register(name, location)
    }

    fn set_service(&self, id: EndpointId, service: Arc<dyn WireService>) {
        let mapserver = self
            .inner
            .endpoint_name(id)
            .is_some_and(|n| n.starts_with("mapsrv:"));
        self.inner.set_service(
            id,
            Arc::new(TracedService {
                inner: service,
                tracer: self.tracer.clone(),
                endpoint: id,
                mapserver,
            }),
        );
    }

    fn submit(&self, from: EndpointId, to: EndpointId, payload: Vec<u8>) -> CallHandle {
        if !self.tracer.enabled() {
            return self.inner.submit(from, to, payload);
        }
        let hook_start = self.tracer.now_ns();
        let span = Span {
            kind: KIND_CALL,
            sub: service_kind(&payload),
            op: CURRENT_OP.with(Cell::get),
            start: 0,
            end: 0,
            from: from.0,
            to: to.0,
            key: payload_key(&payload),
            req_bytes: payload.len() as u64,
            resp_bytes: 0,
            hook_ns: 0,
        };
        let start = self.tracer.now_ns();
        let inner = self.inner.submit(from, to, payload);
        CallHandle::new(Box::new(TracedCall {
            inner,
            tracer: self.tracer.clone(),
            span: Span {
                start,
                hook_ns: start - hook_start,
                ..span
            },
        }))
    }

    fn now_us(&self) -> u64 {
        self.inner.now_us()
    }

    fn advance_us(&self, dt_us: u64) {
        self.inner.advance_us(dt_us);
    }

    fn stats(&self) -> NetStats {
        self.inner.stats()
    }

    fn endpoint_stats(&self, id: EndpointId) -> Option<EndpointStats> {
        self.inner.endpoint_stats(id)
    }

    fn endpoint_latency(&self, id: EndpointId) -> Option<EndpointLatency> {
        self.inner.endpoint_latency(id)
    }

    fn reset_stats(&self) {
        self.inner.reset_stats();
    }

    fn endpoint_name(&self, id: EndpointId) -> Option<String> {
        self.inner.endpoint_name(id)
    }

    fn set_down(&self, id: EndpointId, down: bool) {
        self.inner.set_down(id, down);
    }

    fn set_drop_probability(&self, p: f64) {
        self.inner.set_drop_probability(p);
    }

    fn set_timeout_us(&self, timeout_us: u64) {
        self.inner.set_timeout_us(timeout_us);
    }

    fn worker_threads(&self) -> usize {
        self.inner.worker_threads()
    }

    fn set_overload_policy(&self, id: EndpointId, policy: Option<OverloadPolicy>) {
        self.inner.set_overload_policy(id, policy);
    }

    fn dispatch_depth(&self, id: EndpointId) -> usize {
        self.inner.dispatch_depth(id)
    }

    fn shed_requests(&self) -> u64 {
        self.inner.shed_requests()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`:
/// overlapping children are counted once.
fn union_len(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Self time of a span `[start, end]`: its duration minus the union of
/// its children's intervals.
fn self_time(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    (end - start).saturating_sub(union_len(start, end, children))
}

/// Per-layer timings distilled from one traced run, microseconds.
#[derive(Debug, Default)]
pub struct Breakdown {
    /// Root self time per op class (client-side work: planning,
    /// session, codec, stitching), indexed like [`CLASSES`].
    pub client_self_us: Vec<Vec<f64>>,
    /// Per op class: time some call of the op was on the wire and no
    /// server was serving it (queueing, hand-offs, transfer).
    pub op_wire_self_us: Vec<Vec<f64>>,
    /// Per op class: time some server was serving the op.
    pub op_service_us: Vec<Vec<f64>>,
    /// Per op (every class): time the decorator itself spent on the
    /// op's calls, charged to no layer.
    pub hook_us: Vec<f64>,
    /// Every `netsim.call` duration.
    pub call_us: Vec<f64>,
    /// Call duration minus its linked service time (queueing, reactor
    /// hand-offs, wire).
    pub wire_self_us: Vec<f64>,
    /// Map-server service time per request kind, indexed like
    /// [`SERVICE_KINDS`].
    pub mapserver_us: Vec<Vec<f64>>,
    /// DNS authoritative service times.
    pub dns_us: Vec<f64>,
    /// Request sizes of calls, bytes.
    pub request_bytes: Vec<f64>,
    /// Response sizes of calls, bytes.
    pub response_bytes: Vec<f64>,
    /// Service spans with no matching call (should be 0).
    pub unlinked_services: u64,
}

/// Attributes every span to its layer (see module docs).
pub fn breakdown(spans: &[Span]) -> Breakdown {
    let mut out = Breakdown {
        client_self_us: vec![Vec::new(); CLASSES.len()],
        op_wire_self_us: vec![Vec::new(); CLASSES.len()],
        op_service_us: vec![Vec::new(); CLASSES.len()],
        mapserver_us: vec![Vec::new(); SERVICE_KINDS.len()],
        ..Breakdown::default()
    };
    let us = |ns: u64| ns as f64 / 1_000.0;
    let calls: Vec<&Span> = spans.iter().filter(|s| s.kind == KIND_CALL).collect();
    // Calls by (caller, callee, request hash), for linking services.
    let mut by_key: HashMap<(u64, u64, u64), Vec<usize>> = HashMap::new();
    for (i, c) in calls.iter().enumerate() {
        by_key.entry((c.from, c.to, c.key)).or_default().push(i);
    }
    // Per call: its linked services' intervals, and the decorator's
    // intervals (its own submit-side work and the services' hashing).
    let mut served_in: Vec<Vec<(u64, u64)>> = vec![Vec::new(); calls.len()];
    let mut hooks_in: Vec<Vec<(u64, u64)>> = calls
        .iter()
        .map(|c| vec![(c.start - c.hook_ns, c.start)])
        .collect();
    for s in spans
        .iter()
        .filter(|s| s.kind == KIND_MAPSERVER || s.kind == KIND_DNS)
    {
        if s.kind == KIND_DNS {
            out.dns_us.push(us(s.end - s.start));
        }
        let linked = by_key.get(&(s.from, s.to, s.key)).and_then(|cands| {
            cands
                .iter()
                .copied()
                .find(|&i| calls[i].start <= s.start && s.end <= calls[i].end)
        });
        let Some(i) = linked else {
            out.unlinked_services += 1;
            continue;
        };
        served_in[i].push((s.start, s.end));
        hooks_in[i].push((s.end, s.end + s.hook_ns));
        if s.kind == KIND_MAPSERVER {
            if let Some(times) = out.mapserver_us.get_mut(calls[i].sub as usize) {
                times.push(us(s.end - s.start));
            }
        }
    }
    let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, c) in calls.iter().enumerate() {
        out.call_us.push(us(c.end - c.start));
        out.request_bytes.push(c.req_bytes as f64);
        out.response_bytes.push(c.resp_bytes as f64);
        if !served_in[i].is_empty() {
            // Skips the submit-side hook, which precedes the call.
            let mut off_wire = [&served_in[i][..], &hooks_in[i][1..]].concat();
            out.wire_self_us
                .push(us(self_time(c.start, c.end, &mut off_wire)));
        }
        if c.op != 0 {
            children.entry(c.op).or_default().push(i);
        }
    }
    for root in spans.iter().filter(|s| s.kind == KIND_ROOT) {
        let kids = children.remove(&root.op).unwrap_or_default();
        let (lo, hi) = (root.start, root.end);
        // Each instant of the root is client self time, or under a call;
        // an instant under a call is service, decorator or wire time.
        let mut under_calls: Vec<(u64, u64)> = kids
            .iter()
            .map(|&i| (calls[i].start - calls[i].hook_ns, calls[i].end))
            .collect();
        let mut served: Vec<(u64, u64)> = kids.iter().flat_map(|&i| served_in[i].clone()).collect();
        let mut off_wire: Vec<(u64, u64)> = kids
            .iter()
            .flat_map(|&i| served_in[i].iter().chain(&hooks_in[i]).copied())
            .collect();
        let class = root.sub as usize;
        let covered = union_len(lo, hi, &mut under_calls);
        let in_service = union_len(lo, hi, &mut served);
        let not_wire = union_len(lo, hi, &mut off_wire);
        out.client_self_us[class].push(us(hi - lo - covered));
        out.op_wire_self_us[class].push(us(covered.saturating_sub(not_wire)));
        out.op_service_us[class].push(us(in_service));
        out.hook_us.push(us(not_wire.saturating_sub(in_service)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Root [0, 100]; children [10, 50] and [30, 70] overlap on
        // [30, 50], so they cover 60, not 80.
        let mut kids = vec![(30, 70), (10, 50)];
        assert_eq!(union_len(0, 100, &mut kids), 60);
        assert_eq!(self_time(0, 100, &mut kids), 40);
        // Nested and identical children add nothing more.
        let mut kids = vec![(10, 50), (20, 30), (10, 50), (30, 70)];
        assert_eq!(self_time(0, 100, &mut kids), 40);
        // Children are clipped to the parent.
        let mut kids = vec![(90, 150)];
        assert_eq!(self_time(0, 100, &mut kids), 90);
        assert_eq!(self_time(0, 100, &mut []), 100);
    }

    /// A search call of op 7 from endpoint 1 to endpoint 2.
    fn call(start: u64, end: u64, key: u64) -> Span {
        Span {
            kind: KIND_CALL,
            sub: 1,
            op: 7,
            start,
            end,
            from: 1,
            to: 2,
            key,
            req_bytes: 10,
            resp_bytes: 20,
            hook_ns: 0,
        }
    }

    #[test]
    fn services_link_to_the_call_that_carried_them() {
        let tracer = Tracer::new(16);
        tracer.set_enabled(true);
        tracer.record_root(7, 0, 0, 1_000_000);
        tracer.record(call(100_000, 500_000, 5));
        tracer.record(call(200_000, 600_000, 6));
        tracer.record(Span {
            kind: KIND_MAPSERVER,
            start: 250_000,
            end: 450_000,
            key: 6,
            op: 0,
            ..call(0, 0, 0)
        });
        let (spans, dropped) = tracer.spans();
        assert_eq!(dropped, 0);
        let b = breakdown(&spans);
        assert_eq!(b.unlinked_services, 0);
        // The service takes its kind (search) from the call it served.
        assert_eq!(b.mapserver_us[1], vec![200.0]);
        // Only the second call was served: 400 µs minus 200 µs served.
        assert_eq!(b.wire_self_us, vec![200.0]);
        // Root self: 1000 µs minus the union [100, 600] of its calls,
        // split into 200 µs served and 300 µs on the wire.
        assert_eq!(b.client_self_us[0], vec![500.0]);
        assert_eq!(b.op_service_us[0], vec![200.0]);
        assert_eq!(b.op_wire_self_us[0], vec![300.0]);
        assert_eq!(b.hook_us, vec![0.0]);
    }

    #[test]
    fn decorator_time_is_charged_to_no_layer() {
        let tracer = Tracer::new(16);
        tracer.record_root(7, 0, 0, 1_000_000);
        // 50 µs of submit-side hashing and decoding before the call.
        tracer.record(Span {
            hook_ns: 50_000,
            ..call(150_000, 600_000, 6)
        });
        // 30 µs of served-side hashing after the service.
        tracer.record(Span {
            kind: KIND_MAPSERVER,
            start: 250_000,
            end: 450_000,
            key: 6,
            op: 0,
            hook_ns: 30_000,
            ..call(0, 0, 0)
        });
        let (spans, _) = tracer.spans();
        let b = breakdown(&spans);
        // Call: 450 µs, minus 200 µs served and 30 µs hashing.
        assert_eq!(b.wire_self_us, vec![220.0]);
        // Root: 1000 µs minus [100, 600] under the call and its hook.
        assert_eq!(b.client_self_us[0], vec![500.0]);
        assert_eq!(b.op_service_us[0], vec![200.0]);
        assert_eq!(b.op_wire_self_us[0], vec![220.0]);
        assert_eq!(b.hook_us, vec![80.0]);
    }

    #[test]
    fn a_full_tracer_counts_what_it_drops() {
        let tracer = Tracer::new(1);
        tracer.record_root(1, 0, 0, 1);
        tracer.record_root(2, 0, 0, 1);
        let (spans, dropped) = tracer.spans();
        assert_eq!((spans.len(), dropped), (1, 1));
    }
}
