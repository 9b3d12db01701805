//! The global lock-rank table.
//!
//! One table for the whole workspace: a thread may only acquire a lock
//! whose rank is strictly greater than every rank it already holds.
//! Lower rank = outer lock (acquired first); higher rank = inner lock
//! (leaf). The bands, lowest to highest:
//!
//! - **0–99 — application layer.** Session/discovery/resolver/server
//!   state. Application code calls *into* the transports (and, on the
//!   sim backend, server handlers run inline on the caller's thread),
//!   so everything here must rank below every transport lock.
//! - **100–199 — SimNet and the TCP backend.** Within TCP, the order
//!   mirrors the call chains that really nest: `endpoints` is held
//!   while consulting a connection's demux (`obtain_conn`), a
//!   connection's `out` queue is held while marking frames sent in the
//!   demux (`ClientConn::enqueue`, `ClientEntry::pump_write`), and a
//!   demux's `pending` map may be held while filling a completion cell.
//! - **200–299 — the QuicLite backend.** `client` is the outermost
//!   lock: `obtain_conn` holds it across conn-id routing, the resume
//!   cache, the wire's conn registry, the unacked buffer, transmit
//!   (rng/stats) and the RTO generation — so all of those rank above
//!   it.
//! - **300+ — the shared dispatch gauge.** Admission-control state is
//!   consulted from both backends, sometimes while an `endpoints`
//!   table is held, never the other way around.
//!
//! The prose version of this table (with the invariants each ordering
//! protects) lives in `docs/wire-protocol.md` Appendix A. Keep the two
//! in sync.

use crate::Rank;

// ----------------------------------------------------------------
// Application band (0–99).
// ----------------------------------------------------------------

/// Load-harness collector queue (held only across `recv`).
pub const LOADGEN_COLLECTOR_QUEUE: Rank = Rank::new(10, "loadgen.collector_queue");
/// Session principal (identity swap).
pub const SESSION_PRINCIPAL: Rank = Rank::new(20, "core.session.principal");
/// Session discovery cache.
pub const SESSION_DISCOVERIES: Rank = Rank::new(22, "core.session.discoveries");
/// Session hello (capability) cache.
pub const SESSION_HELLOS: Rank = Rank::new(24, "core.session.hellos");
/// Session coverage-summary cache (query-planner pruning state; may be
/// refreshed while absorbing hellos, so it ranks inside the hello
/// cache).
pub const SESSION_COVERAGE: Rank = Rank::new(25, "core.session.coverage");
/// Session statistics.
pub const SESSION_STATS: Rank = Rank::new(26, "core.session.stats");
/// Discovery statistics.
pub const DISCOVERY_STATS: Rank = Rank::new(30, "core.discovery.stats");
/// Fleet-selector replica dead-list (held across `Transport::now_us`,
/// which takes the sim-net state lock).
pub const FLEET_DEAD: Rank = Rank::new(34, "core.fleet.dead");
/// DNS resolver referral/record cache.
pub const RESOLVER_CACHE: Rank = Rank::new(40, "dns.resolver.cache");
/// DNS resolver statistics.
pub const RESOLVER_STATS: Rank = Rank::new(42, "dns.resolver.stats");
/// Authoritative DNS server zone set.
pub const DNS_ZONES: Rank = Rank::new(50, "dns.server.zones");
/// Map-server engine state (rwlock; read on every request).
pub const MAPSERVER_ENGINES: Rank = Rank::new(60, "mapserver.engines");
/// Tile render cache (taken inside engine reads).
pub const TILE_CACHE: Rank = Rank::new(70, "tiles.render_cache");

// ----------------------------------------------------------------
// SimNet + TCP backend band (100–199).
// ----------------------------------------------------------------

/// The simulated network's single state lock (never held across a
/// handler invocation).
pub const SIM_NET: Rank = Rank::new(100, "netsim.sim.state");
/// TCP reactor pool slot.
pub const TCP_REACTORS: Rank = Rank::new(110, "netsim.tcp.reactors");
/// TCP dispatch-pool slot.
pub const TCP_DISPATCH_POOL: Rank = Rank::new(112, "netsim.tcp.dispatch_pool");
/// TCP failure-injection rng.
pub const TCP_RNG: Rank = Rank::new(120, "netsim.tcp.rng");
/// TCP global wire statistics.
pub const TCP_STATS: Rank = Rank::new(122, "netsim.tcp.stats");
/// TCP endpoint table (held while consulting a conn's demux).
pub const TCP_ENDPOINTS: Rank = Rank::new(130, "netsim.tcp.endpoints");
/// A TCP client connection's outgoing frame queue (held across every
/// write to the socket, and while marking frames sent in the demux).
pub const TCP_CONN_OUT: Rank = Rank::new(140, "netsim.tcp.conn_out");
/// A TCP reactor's inbox of sockets handed over for adoption.
pub const TCP_REACTOR_CMDS: Rank = Rank::new(144, "netsim.tcp.reactor_cmds");
/// A served TCP connection's finished-reply queue (held across every
/// response write to the socket).
pub const TCP_SERVE_DONE: Rank = Rank::new(146, "netsim.tcp.serve_done");
/// The TCP dispatch-pool job queue (held only across `recv`).
pub const TCP_DISPATCH_QUEUE: Rank = Rank::new(148, "netsim.tcp.dispatch_queue");
/// A TCP connection's correlation demux (may be held while filling a
/// completion cell).
pub const TCP_DEMUX: Rank = Rank::new(150, "netsim.tcp.demux");
/// A TCP call's completion cell (leaf; paired with its condvar).
pub const TCP_COMPLETION: Rank = Rank::new(160, "netsim.tcp.completion");

// ----------------------------------------------------------------
// QuicLite backend band (200–299).
// ----------------------------------------------------------------

/// The QuicLite client side (outermost: held across conn setup).
pub const QUIC_CLIENT: Rank = Rank::new(200, "netsim.quic.client");
/// QuicLite endpoint table.
pub const QUIC_ENDPOINTS: Rank = Rank::new(205, "netsim.quic.endpoints");
/// QuicLite shared serve-poller slot.
pub const QUIC_SERVE_POOL: Rank = Rank::new(207, "netsim.quic.serve_pool");
/// QuicLite dispatch-pool slot.
pub const QUIC_DISPATCH_POOL: Rank = Rank::new(208, "netsim.quic.dispatch_pool");
/// Conn-id → connection routing map.
pub const QUIC_BY_CONN_ID: Rank = Rank::new(210, "netsim.quic.by_conn_id");
/// 0-RTT resumption ticket cache.
pub const QUIC_RESUME: Rank = Rank::new(212, "netsim.quic.resume");
/// The wire's registry of live connections (RTO sweep source).
pub const QUIC_CONN_REGISTRY: Rank = Rank::new(214, "netsim.quic.conn_registry");
/// A connection's pre-establishment queue.
pub const QUIC_QUEUED: Rank = Rank::new(220, "netsim.quic.conn_queued");
/// A connection's peer address slot.
pub const QUIC_PEER: Rank = Rank::new(222, "netsim.quic.conn_peer");
/// A connection's receive/reassembly state.
pub const QUIC_RECV: Rank = Rank::new(224, "netsim.quic.conn_recv");
/// A connection's unacked (retransmission) buffer.
pub const QUIC_UNACKED: Rank = Rank::new(230, "netsim.quic.conn_unacked");
/// QuicLite loss-injection rng.
pub const QUIC_RNG: Rank = Rank::new(240, "netsim.quic.rng");
/// QuicLite global wire statistics.
pub const QUIC_STATS: Rank = Rank::new(242, "netsim.quic.stats");
/// RTO timer generation (paired with the RTO condvar).
pub const QUIC_RTO_GEN: Rank = Rank::new(244, "netsim.quic.rto_gen");
/// The shared serve poller's command inbox.
pub const QUIC_SERVE_CMDS: Rank = Rank::new(250, "netsim.quic.serve_cmds");
/// The QuicLite dispatch-pool job queue (held only across `recv`).
pub const QUIC_DISPATCH_QUEUE: Rank = Rank::new(252, "netsim.quic.dispatch_queue");
/// A connection's correlation demux (held while filling a completion
/// cell).
pub const QUIC_DEMUX: Rank = Rank::new(254, "netsim.quic.demux");
/// A QuicLite call's completion cell (leaf; paired with its condvar).
pub const QUIC_COMPLETION: Rank = Rank::new(260, "netsim.quic.completion");

// ----------------------------------------------------------------
// Shared admission-control band (300+).
// ----------------------------------------------------------------

/// Dispatch gauge overload policy slot (set while an endpoint table is
/// held; consulted lock-free afterwards).
pub const DISPATCH_GAUGE_POLICY: Rank = Rank::new(300, "netsim.gauge.policy");
/// Dispatch gauge per-principal admission book.
pub const DISPATCH_GAUGE_PRINCIPALS: Rank = Rank::new(302, "netsim.gauge.principals");
