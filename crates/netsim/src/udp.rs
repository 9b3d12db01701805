//! QuicLite: a QUIC-inspired reliable-datagram transport over UDP.
//!
//! [`QuicLiteTransport`] is the third [`Transport`] backend, built for
//! the federation's traffic shape: reconnect-heavy, wide fan-out
//! scatter-gather to many independently-operated servers, where TCP's
//! per-connection handshake and head-of-line stream semantics hurt. It
//! speaks framed envelopes ([`openflame_codec::framing`] v2, the same
//! frames TCP streams) as payloads of small datagrams
//! ([`openflame_codec::packet`]) over `std::net::UdpSocket`, with the
//! load-bearing QUIC ideas re-created in miniature:
//!
//! - **Connection ids with 0-RTT resumption**: a cold connect costs one
//!   `Init`/`InitAck` handshake round before data flows; the conn id it
//!   registers is cached per destination endpoint, and a client that
//!   reconnects to a known server ([`QuicLiteTransport::close_connections`]
//!   models an idle teardown) skips the handshake entirely — `Data`
//!   packets go out immediately under the resumed conn id. Packet
//!   counters make the saving observable
//!   ([`QuicLiteTransport::quic_stats`]).
//! - **Packet numbers + ack-elicited retransmission**: every `Data`
//!   packet is numbered and acknowledged; a background RTO timer thread
//!   retransmits unacknowledged packets, so injected datagram loss
//!   ([`Transport::set_drop_probability`]) below the call timeout is
//!   *recovered*, not surfaced as failure — the call succeeds and the
//!   [`QuicLiteTransport::retransmits`] counter tells the story.
//!   Retransmissions reuse their packet number; receivers deduplicate
//!   with a seen-set, so a retransmitted request is never executed
//!   twice.
//! - **One ranged ack per drained burst**: a receiver reads its socket
//!   until the read would block, then answers each (conn id, peer) it
//!   heard from with one `Ack` whose ranges cover every data packet it
//!   took ([`openflame_codec::packet::encode_acks`]). It flushes early
//!   once [`MAX_ACK_RANGES`] data packets have built up, so ack delay
//!   stays bounded under sustained traffic. A 167-fragment tile costs a
//!   few acks instead of 167. Both sides run this one routine
//!   (`drain_socket`).
//! - **Sized socket buffers**: a frame leaves as one back-to-back burst
//!   of datagrams, and a burst the receiving socket cannot queue is
//!   lost and waits out a full RTO. Every socket therefore asks for
//!   `SOCKET_BUFFER_BYTES` of send and receive buffer, enough for
//!   several of the largest replies at once; the grant the kernel
//!   allowed is reported in [`QuicStats::recv_buffer_bytes`].
//! - **Fragmentation**: frames over the datagram MTU are split across
//!   consecutive packet numbers and reassembled on the far side, so
//!   batched envelopes of any size ride the same path.
//! - **Correlation-id demux**: one client socket multiplexes unbounded
//!   in-flight calls across every destination; responses complete out
//!   of order and are matched by the frame correlation id, exactly as
//!   on TCP. Each served endpoint binds one UDP socket; all serve
//!   sockets are multiplexed by a single epoll-driven poller thread,
//!   which dispatches decoded frames through a bounded transport-wide
//!   worker pool ([`SERVE_POOL`]); responses are sent the moment they
//!   complete — with datagrams there is no stream to keep ordered, so
//!   completion-order responses are free (the "per-stream trivia" the
//!   roadmap predicted).
//!
//! **No TLS — deliberate non-goal.** This is an offline vendor tree
//! with no crypto dependency; QuicLite carries the *transport* ideas of
//! QUIC (resumption, loss recovery, multiplexing) and none of its
//! security. Conn ids are unauthenticated and datagrams are plaintext;
//! the backend is for tests, benches and single-process demos, like the
//! TCP backend beside it.
//!
//! Threads are few and fixed: one poller multiplexing every served
//! endpoint's socket, a transport-wide pool of [`SERVE_POOL`] dispatch
//! workers, one epoll-driven receiver draining the shared client
//! socket, and one RTO timer — a small
//! constant, independent of served endpoints, fan-out width, call
//! volume and destination count (the pipelining stress test pins the
//! ceiling, which sits below even TCP's shared-reactor budget). The
//! RTO timer is lazy and parked: it does not exist until the first
//! packet awaits an ack, and it sleeps on a condvar — burning no
//! wakeups — whenever nothing is unacknowledged. The receiver blocks
//! until a datagram arrives, so an idle transport wakes no thread at
//! all. Dropping the last transport handle fires the receiver's and
//! the serve poller's wakers and unparks the RTO timer: every worker
//! exits promptly.
//!
//! Accounting mirrors TCP at the frame level: each completed exchange
//! charges 2 messages and `payload + FRAME_HEADER_LEN` bytes per
//! direction on the claiming side, so cross-backend message parity
//! holds for failure-free runs; a failed call whose request frame was
//! put on the wire still charges its request bytes (the request really
//! did cost wire). Packet-level truth — handshakes, acks,
//! retransmissions, per-packet headers — lives in the separate
//! [`QuicStats`] counters, because charging it to [`NetStats`] would
//! break the parity the federation's invariants rest on.

use crate::reactor::{size_socket_buffers, Epoll, EpollEvent, Waker, EPOLLIN, WAKER_TOKEN};
use crate::stats::{EndpointLatency, EndpointStats, NetStats};
use crate::transport::{
    CallHandle, DispatchGauge, OverloadPolicy, PendingCall, Transfer, Transport, WireService,
};
use crate::{EndpointId, NetError, ThreadGuard};
use openflame_codec::framing::{read_frame, write_frame, FRAME_HEADER_LEN};
use openflame_codec::packet::{
    decode_ack_ranges, decode_packet, encode_acks, encode_packet, AckRange, Packet, PacketType,
    MAX_ACK_RANGES, PAYLOAD_MTU,
};
use openflame_diag::{ranks, OrderedCondvar, OrderedMutex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Weak};
use std::thread;
use std::time::{Duration, Instant};

/// Concurrent dispatch workers for the whole transport: reassembled
/// request frames from every served endpoint are executed by this many
/// threads, so a slow request delays only its own response (there is
/// no stream to head-of-line block; see module docs). A fixed
/// transport-wide pool — not per endpoint — keeps the thread ceiling
/// constant no matter how many endpoints serve.
pub const SERVE_POOL: usize = 4;

/// How often the RTO timer thread scans for unacknowledged packets.
const RTO_TICK: Duration = Duration::from_millis(3);

/// Send and receive buffer every QuicLite socket asks for. A 196 KB
/// tile leaves as ~167 back-to-back datagrams, and the kernel charges
/// each queued one ~2.3 KB, so the 212 KB default drops most of a tile
/// burst. 2 MiB (which Linux doubles to 4 MiB) queues about ten tiles.
const SOCKET_BUFFER_BYTES: usize = 2 << 20;

/// How long a served endpoint keeps state for a silent connection
/// before evicting it. Generous, so live clients' 0-RTT tickets stay
/// valid across realistic idle gaps; an evicted client's resumption
/// attempt breaks and falls back to a cold handshake.
const SERVER_CONN_IDLE: Duration = Duration::from_secs(600);

/// Retransmission timeout for one unacknowledged packet, derived from
/// the configured call timeout so several retransmission rounds always
/// fit below the caller's deadline.
fn rto(timeout_us: u64) -> Duration {
    Duration::from_micros((timeout_us / 8).clamp(5_000, 50_000))
}

/// Packet-level counters, separate from the frame-level [`NetStats`]
/// (see module docs on accounting).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QuicStats {
    /// Datagrams put on the wire (handshakes, data, acks;
    /// retransmissions included).
    pub packets_sent: u64,
    /// Datagrams received and decoded.
    pub packets_received: u64,
    /// Data/handshake packets re-sent by the RTO timer.
    pub retransmits: u64,
    /// Datagrams the kernel refused to send (a full buffer on a
    /// non-blocking socket, `ENOBUFS`). Not in `packets_sent`; the RTO
    /// recovers them like wire loss, but they are the host's doing.
    pub send_errors: u64,
    /// Smallest receive buffer the kernel granted any of this
    /// transport's sockets, as `getsockopt(SO_RCVBUF)` reports it (0
    /// before the first socket binds). Below what a burst of the
    /// largest frame needs, `net.core.rmem_max` is capping it.
    pub recv_buffer_bytes: u64,
}

// ---------------------------------------------------------------------
// Completion plumbing.
// ---------------------------------------------------------------------

/// One in-flight request's completion slot, filled exactly once by the
/// client receiver thread when the correlated response frame
/// reassembles.
struct CompletionCell {
    state: OrderedMutex<Option<Vec<u8>>>,
    cond: OrderedCondvar,
}

impl CompletionCell {
    fn new() -> Self {
        Self {
            state: OrderedMutex::new(ranks::QUIC_COMPLETION, None),
            cond: OrderedCondvar::new(),
        }
    }

    fn fill(&self, payload: Vec<u8>) {
        let mut state = self.state.lock();
        if state.is_none() {
            *state = Some(payload);
            self.cond.notify_all();
        }
    }

    /// Blocks until filled or `deadline`; `None` means the deadline
    /// passed first.
    fn wait_until(&self, deadline: Instant) -> Option<Vec<u8>> {
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

/// Correlation id → completion cell for one connection. Unlike TCP's
/// demux there is no failure sweep: datagram loss is repaired by
/// retransmission below the caller's deadline, and anything past the
/// deadline is simply abandoned by the waiter.
struct Demux {
    pending: OrderedMutex<HashMap<u64, Arc<CompletionCell>>>,
    orphans: Arc<AtomicU64>,
}

impl Demux {
    fn new(orphans: Arc<AtomicU64>) -> Self {
        Self {
            pending: OrderedMutex::new(ranks::QUIC_DEMUX, HashMap::new()),
            orphans,
        }
    }

    fn register(&self, corr: u64) -> Arc<CompletionCell> {
        let cell = Arc::new(CompletionCell::new());
        self.pending.lock().insert(corr, cell.clone());
        cell
    }

    /// Routes a response to its waiter; unknown or already-answered
    /// correlation ids (late responses after a timeout, duplicates that
    /// slipped past packet dedup) are discarded and counted.
    fn complete(&self, corr: u64, payload: Vec<u8>) {
        match self.pending.lock().remove(&corr) {
            Some(cell) => cell.fill(payload),
            None => {
                self.orphans.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Abandons a request (timed-out waiter); a late response becomes
    /// an orphan.
    fn forget(&self, corr: u64) {
        self.pending.lock().remove(&corr);
    }
}

// ---------------------------------------------------------------------
// Connection state (shared by both directions).
// ---------------------------------------------------------------------

/// One unacknowledged packet awaiting its ack (or the RTO timer).
struct Unacked {
    datagram: Vec<u8>,
    peer: SocketAddr,
    first_sent: Instant,
    last_sent: Instant,
}

/// One frame mid-reassembly.
struct Reassembly {
    parts: Vec<Option<Vec<u8>>>,
    got: usize,
    started: Instant,
}

/// Receive-side state: packet dedup and fragment reassembly. Dedup
/// entries are timestamped so pruning can be *time*-based: an entry may
/// only be forgotten once its sender has provably given up
/// retransmitting it, or a retransmitted request could slip past dedup
/// and execute twice.
struct RecvState {
    seen: HashMap<u64, Instant>,
    partial: HashMap<u64, Reassembly>,
}

/// One end of a QuicLite connection: reliability bookkeeping for the
/// packets *this* side sends, dedup/reassembly for the packets it
/// receives. The client and the server each hold their own `ConnState`
/// for a conn id; the id (and the peer address) is what ties them
/// together.
struct ConnState {
    conn_id: u64,
    /// The socket this side sends from (client socket or the served
    /// endpoint's socket).
    socket: Arc<UdpSocket>,
    /// Where to send: the server address (client side) or the last
    /// address the client was seen at (server side; updated per packet,
    /// a miniature of QUIC's connection migration).
    peer: OrderedMutex<SocketAddr>,
    /// Handshake completed (always true for resumed and server-side
    /// conns). Guarded by `queued`'s lock on the establishing path so
    /// no frame is stranded between the check and the flush.
    established: AtomicBool,
    /// Set by the RTO timer when this end gave up on an unacknowledged
    /// packet: the peer has been unreachable for the whole give-up
    /// horizon, so the connection is replaced at the next checkout
    /// instead of wedging its endpoint forever (the datagram analogue
    /// of the TCP pool pruning stalled connections).
    broken: AtomicBool,
    /// Whether this conn was created from a 0-RTT resumption ticket.
    resumed: bool,
    /// Any packet ever arrived for this conn. A resumed conn that
    /// breaks without traffic evidently resumed against a server that
    /// forgot it — its ticket must not be re-cached, or the client
    /// would resume into the void forever.
    got_traffic: AtomicBool,
    next_packet_no: AtomicU64,
    unacked: OrderedMutex<HashMap<u64, Unacked>>,
    /// Frames submitted before the handshake completed, flushed on
    /// `InitAck`.
    queued: OrderedMutex<Vec<Vec<u8>>>,
    recv: OrderedMutex<RecvState>,
    /// Client-side conns route reassembled responses here; server-side
    /// conns route requests to the endpoint's dispatch pool instead.
    demux: Option<Arc<Demux>>,
}

impl ConnState {
    fn new(
        conn_id: u64,
        socket: Arc<UdpSocket>,
        peer: SocketAddr,
        established: bool,
        resumed: bool,
        first_packet_no: u64,
        demux: Option<Arc<Demux>>,
    ) -> Arc<Self> {
        Arc::new(Self {
            conn_id,
            socket,
            peer: OrderedMutex::new(ranks::QUIC_PEER, peer),
            established: AtomicBool::new(established),
            broken: AtomicBool::new(false),
            resumed,
            got_traffic: AtomicBool::new(false),
            next_packet_no: AtomicU64::new(first_packet_no),
            unacked: OrderedMutex::new(ranks::QUIC_UNACKED, HashMap::new()),
            queued: OrderedMutex::new(ranks::QUIC_QUEUED, Vec::new()),
            recv: OrderedMutex::new(
                ranks::QUIC_RECV,
                RecvState {
                    seen: HashMap::new(),
                    partial: HashMap::new(),
                },
            ),
            demux,
        })
    }

    /// Whether the conn id may be re-cached for a later 0-RTT
    /// resumption: only ids a server demonstrably knows qualify — a
    /// never-established handshake or a resumption that produced no
    /// traffic at all would poison every future reconnect.
    fn resumable(&self) -> bool {
        self.established.load(Ordering::SeqCst)
            && (!self.resumed || self.got_traffic.load(Ordering::SeqCst))
    }

    /// Drops every packet the peer acknowledged from the retransmit
    /// buffer.
    fn acknowledge(&self, ranges: &[AckRange]) {
        let mut unacked = self.unacked.lock();
        for range in ranges {
            // Walk whichever side is smaller: a range from the wire may
            // span billions of numbers this end never sent.
            if u64::from(range.count()) <= unacked.len() as u64 {
                for no in range.first()..=range.last() {
                    unacked.remove(&no);
                }
            } else {
                unacked.retain(|no, _| !range.contains(*no));
            }
        }
    }

    /// Deduplicates and reassembles one `Data` packet; returns the
    /// completed frame bytes when this packet was the last missing
    /// fragment. `retention` is the sender's give-up horizon: a dedup
    /// entry younger than it may still see a retransmission and MUST
    /// be kept (wire-protocol spec §6.2), older ones are prunable.
    fn accept_data(&self, pkt: Packet, retention: Duration) -> Option<Vec<u8>> {
        let mut recv = self.recv.lock();
        let now = Instant::now();
        if recv.seen.insert(pkt.packet_no, now).is_some() {
            return None; // retransmitted duplicate
        }
        // Bound the dedup map by TIME, never by count: only entries the
        // sender has provably stopped retransmitting are forgotten, so
        // a non-idempotent request can never be executed twice no
        // matter the traffic rate or fragment volume in between.
        if recv.seen.len() > 65_536 {
            recv.seen.retain(|_, seen_at| now - *seen_at < retention);
        }
        if pkt.frag_count == 1 {
            return Some(pkt.payload);
        }
        let key = pkt.packet_no - pkt.frag_index as u64;
        let count = pkt.frag_count as usize;
        // Drop reassemblies that can never complete (their sender gave
        // up retransmitting long ago).
        recv.partial
            .retain(|_, r| r.started.elapsed() < Duration::from_secs(30));
        let r = recv.partial.entry(key).or_insert_with(|| Reassembly {
            parts: vec![None; count],
            got: 0,
            started: Instant::now(),
        });
        if r.parts.len() != count {
            return None; // corrupt: same key, different geometry
        }
        let slot = &mut r.parts[pkt.frag_index as usize];
        if slot.is_none() {
            *slot = Some(pkt.payload);
            r.got += 1;
        }
        if r.got == count {
            let r = recv.partial.remove(&key).expect("entry exists");
            let mut frame = Vec::new();
            for part in r.parts {
                frame.extend_from_slice(&part.expect("all fragments present"));
            }
            Some(frame)
        } else {
            None
        }
    }
}

// ---------------------------------------------------------------------
// Shared wire state (outlives the transport handle in worker threads).
// ---------------------------------------------------------------------

/// Everything the detached worker threads need, deliberately separate
/// from [`Inner`] so the threads never keep the transport itself (and
/// the services it owns) alive.
struct Wire {
    timeout_us: AtomicU64,
    /// Drop probability as IEEE-754 bits (atomics hold no f64).
    drop_bits: AtomicU64,
    rng: OrderedMutex<StdRng>,
    stats: OrderedMutex<NetStats>,
    packets_sent: AtomicU64,
    packets_received: AtomicU64,
    retransmits: AtomicU64,
    /// See [`QuicStats::send_errors`].
    send_errors: AtomicU64,
    /// See [`QuicStats::recv_buffer_bytes`].
    recv_buffer_bytes: AtomicU64,
    orphans: Arc<AtomicU64>,
    /// Requests shed by admission control, transport-wide.
    shed: AtomicU64,
    /// Live worker threads: the serve poller + dispatch workers, the
    /// client receiver, the RTO timer.
    threads: Arc<AtomicUsize>,
    /// Every live connection end, for the RTO timer's retransmit scan.
    conns: OrderedMutex<Vec<Weak<ConnState>>>,
    /// Whether the lazy RTO timer thread has been spawned (it first
    /// exists when the first packet awaits an ack).
    rto_started: AtomicBool,
    /// Bumped (under the lock, with a notify) whenever a packet enters
    /// an unacked buffer: the parked RTO timer's wake signal. The
    /// timer parks on the condvar whenever nothing is unacknowledged,
    /// so an idle transport burns no RTO wakeups at all.
    rto_gen: OrderedMutex<u64>,
    rto_cv: OrderedCondvar,
    /// Set when the last transport handle drops (which also fires the
    /// wakers and unparks the RTO timer); every worker exits on its
    /// next wakeup.
    shutdown: AtomicBool,
}

impl Wire {
    /// Sends one datagram, applying drop injection. A dropped datagram
    /// is modelled as lost *in flight* — it stays in its sender's
    /// unacked buffer, so the RTO timer recovers it (the whole point of
    /// this backend's loss story).
    fn transmit(&self, socket: &UdpSocket, peer: SocketAddr, datagram: &[u8]) {
        let p = f64::from_bits(self.drop_bits.load(Ordering::Relaxed));
        if p > 0.0 && self.rng.lock().gen_bool(p) {
            self.stats.lock().drops += 1;
            return;
        }
        // Count before the send: once the datagram is on the loopback
        // the receiver can run — and a caller can observe the
        // completed exchange — before this thread regains the CPU, so
        // counting after `send_to` undercounts under load. Counting
        // first makes every packet a reader can observe already
        // accounted for (the same charge-at-send discipline the TCP
        // backend uses for wire accounting).
        self.packets_sent.fetch_add(1, Ordering::Relaxed);
        if socket.send_to(datagram, peer).is_err() {
            // The kernel refused it, so it never reached the wire:
            // count it apart from loss. A refused data packet stays
            // unacked and the RTO re-sends it; a refused ack is
            // repaired by the data's retransmission.
            self.packets_sent.fetch_sub(1, Ordering::Relaxed);
            self.send_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Binds one QuicLite socket on loopback: non-blocking (both sides
    /// drain theirs from a poll loop) with buffers sized for bursts
    /// ([`SOCKET_BUFFER_BYTES`]). Records the receive buffer granted.
    fn bind_socket(&self) -> Arc<UdpSocket> {
        let socket = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind QuicLite UDP socket");
        socket
            .set_nonblocking(true)
            .expect("non-blocking QuicLite socket");
        let granted = size_socket_buffers(&socket, SOCKET_BUFFER_BYTES)
            .expect("size QuicLite socket buffers") as u64;
        let _ = self
            .recv_buffer_bytes
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |now| {
                Some(if now == 0 { granted } else { now.min(granted) })
            });
        Arc::new(socket)
    }

    /// Fragments one frame into numbered `Data` packets, records them
    /// for retransmission, and transmits each once.
    fn send_frame(self: &Arc<Self>, conn: &ConnState, frame: Vec<u8>) {
        let chunks: Vec<&[u8]> = frame.chunks(PAYLOAD_MTU).collect();
        let count = chunks.len();
        let base = conn
            .next_packet_no
            .fetch_add(count as u64, Ordering::SeqCst);
        let peer = *conn.peer.lock();
        for (i, chunk) in chunks.into_iter().enumerate() {
            let datagram = encode_packet(
                PacketType::Data,
                conn.conn_id,
                base + i as u64,
                i as u16,
                count as u16,
                chunk,
            );
            let now = Instant::now();
            conn.unacked.lock().insert(
                base + i as u64,
                Unacked {
                    datagram: datagram.clone(),
                    peer,
                    first_sent: now,
                    last_sent: now,
                },
            );
            self.transmit(&conn.socket, peer, &datagram);
        }
        self.note_unacked();
    }

    /// Queues the frame if the connection is still handshaking, sends
    /// it otherwise. Returns whether the frame went on the wire now.
    fn send_or_queue(self: &Arc<Self>, conn: &ConnState, frame: Vec<u8>) -> bool {
        if conn.established.load(Ordering::SeqCst) {
            self.send_frame(conn, frame);
            return true;
        }
        let mut queued = conn.queued.lock();
        // Re-check under the lock: establishment flips the flag while
        // holding it, so a frame is either flushed by the establishing
        // thread or sent here — never stranded.
        if conn.established.load(Ordering::SeqCst) {
            drop(queued);
            self.send_frame(conn, frame);
            true
        } else {
            queued.push(frame);
            false
        }
    }

    /// Completes a handshake: flips the established flag and flushes
    /// every queued frame (see [`Wire::send_or_queue`] for the lock
    /// discipline).
    fn establish(self: &Arc<Self>, conn: &ConnState) {
        let frames: Vec<Vec<u8>> = {
            let mut queued = conn.queued.lock();
            conn.established.store(true, Ordering::SeqCst);
            queued.drain(..).collect()
        };
        for frame in frames {
            self.send_frame(conn, frame);
        }
    }

    /// Acknowledges the `Data` packets numbered `packet_nos` back to
    /// their sender with ranged acks, emptying `packet_nos`.
    fn send_acks(
        &self,
        socket: &UdpSocket,
        peer: SocketAddr,
        conn_id: u64,
        packet_nos: &mut Vec<u64>,
    ) {
        packet_nos.sort_unstable();
        packet_nos.dedup();
        for ack in encode_acks(conn_id, packet_nos) {
            self.transmit(socket, peer, &ack);
        }
        packet_nos.clear();
    }

    /// How long one end keeps retransmitting an unacknowledged packet
    /// before giving up — by then every caller has long passed its
    /// deadline. Doubles as the dedup-retention horizon on the receive
    /// side: a packet past this age can never legitimately reappear.
    fn give_up_horizon(&self) -> Duration {
        let timeout_us = self.timeout_us.load(Ordering::Relaxed);
        rto(timeout_us) * 2 + Duration::from_micros(2 * timeout_us)
    }

    /// One RTO scan: retransmits every packet unacknowledged past the
    /// RTO, and gives up on packets whose caller must long since have
    /// abandoned them. Giving up marks the connection broken — the
    /// peer was unreachable for the whole horizon — so the next
    /// checkout replaces it instead of queueing into the void.
    fn retransmit_due(&self) {
        let rto = rto(self.timeout_us.load(Ordering::Relaxed));
        let give_up = self.give_up_horizon();
        let conns: Vec<Arc<ConnState>> = {
            let mut registry = self.conns.lock();
            registry.retain(|w| w.strong_count() > 0);
            registry.iter().filter_map(Weak::upgrade).collect()
        };
        for conn in conns {
            let mut due: Vec<(SocketAddr, Vec<u8>)> = Vec::new();
            {
                let mut unacked = conn.unacked.lock();
                let before = unacked.len();
                unacked.retain(|_, u| u.first_sent.elapsed() < give_up);
                if unacked.len() < before {
                    conn.broken.store(true, Ordering::SeqCst);
                }
                let now = Instant::now();
                for u in unacked.values_mut() {
                    if now.duration_since(u.last_sent) >= rto {
                        u.last_sent = now;
                        due.push((u.peer, u.datagram.clone()));
                    }
                }
            }
            for (peer, datagram) in due {
                self.retransmits.fetch_add(1, Ordering::Relaxed);
                self.transmit(&conn.socket, peer, &datagram);
            }
        }
    }

    fn register_conn(&self, conn: &Arc<ConnState>) {
        self.conns.lock().push(Arc::downgrade(conn));
    }

    /// Whether any live connection end currently has a packet awaiting
    /// its ack — the RTO timer's keep-running condition.
    fn any_unacked(&self) -> bool {
        let conns: Vec<Arc<ConnState>> = {
            let registry = self.conns.lock();
            registry.iter().filter_map(Weak::upgrade).collect()
        };
        conns.iter().any(|c| !c.unacked.lock().is_empty())
    }

    /// Signals that a packet just entered an unacked buffer: spawns the
    /// RTO timer on first use and unparks it if it was idle. Callers
    /// invoke this AFTER the insert, so the timer's
    /// snapshot-generation-then-scan park protocol can never miss it.
    fn note_unacked(self: &Arc<Self>) {
        if !self.rto_started.swap(true, Ordering::SeqCst) {
            let wire = self.clone();
            let guard = ThreadGuard::enter(&self.threads);
            thread::Builder::new()
                .name("ofl-quic-rto".into())
                .spawn(move || {
                    let _guard = guard;
                    loop {
                        if wire.shutdown.load(Ordering::SeqCst) {
                            return;
                        }
                        let gen_before = *wire.rto_gen.lock();
                        if wire.any_unacked() {
                            thread::sleep(RTO_TICK);
                            wire.retransmit_due();
                            continue;
                        }
                        // Nothing awaits an ack: park until the
                        // generation moves (a new unacked packet) or
                        // shutdown. The timed wait only bounds the
                        // shutdown latency — an idle transport takes a
                        // few waits per second, not a busy RTO loop.
                        let mut gen = wire.rto_gen.lock();
                        while *gen == gen_before && !wire.shutdown.load(Ordering::SeqCst) {
                            let (next, _) =
                                wire.rto_cv.wait_timeout(gen, Duration::from_millis(250));
                            gen = next;
                        }
                    }
                })
                .expect("spawn RTO timer");
        }
        let mut gen = self.rto_gen.lock();
        *gen = gen.wrapping_add(1);
        self.rto_cv.notify_all();
    }
}

// ---------------------------------------------------------------------
// Transport state.
// ---------------------------------------------------------------------

struct Endpoint {
    name: String,
    /// UDP socket address once the endpoint serves; `None` for clients.
    addr: Option<SocketAddr>,
    /// Shared with the endpoint's receiver thread: when set, requests
    /// are silently dropped instead of dispatched (a crashed process).
    down: Arc<AtomicBool>,
    stats: EndpointStats,
    latency: EndpointLatency,
    /// Admission book for the endpoint's serve path (policy, live
    /// dispatch depth, per-principal split); shared with the serve
    /// poller and the dispatch workers.
    gauge: Arc<DispatchGauge>,
}

/// What a closed connection leaves behind for 0-RTT resumption: the
/// conn id the server already knows, and where its packet numbering
/// left off (the server's dedup set has seen everything below).
struct ResumeTicket {
    conn_id: u64,
    next_packet_no: u64,
}

/// The client side: one socket (plus its receiver thread) multiplexing
/// every outgoing connection.
struct ClientSide {
    socket: Arc<UdpSocket>,
    /// Destination endpoint → live connection.
    conns: HashMap<EndpointId, Arc<ConnState>>,
    /// Conn id → connection, the receiver thread's routing table.
    by_conn_id: Arc<OrderedMutex<HashMap<u64, Arc<ConnState>>>>,
    /// Pops the receiver out of its indefinite wait at teardown.
    waker: Arc<Waker>,
}

struct Inner {
    epoch: Instant,
    next_id: AtomicU64,
    next_corr: AtomicU64,
    /// High bits of every conn id this transport mints, so two
    /// transports (differently seeded) talking to one server do not
    /// collide.
    conn_nonce: u64,
    next_conn: AtomicU64,
    endpoints: OrderedMutex<HashMap<EndpointId, Endpoint>>,
    /// 0-RTT resumption cache: destination endpoint → ticket.
    resume: OrderedMutex<HashMap<EndpointId, ResumeTicket>>,
    client: OrderedMutex<Option<ClientSide>>,
    /// The shared serve poller's registration queue + waker (spawned
    /// lazily with the first served endpoint).
    serve: OrderedMutex<Option<Arc<ServeShared>>>,
    /// Master sender of the transport-wide dispatch pool.
    dispatch: OrderedMutex<Option<mpsc::Sender<ServeJob>>>,
    wire: Arc<Wire>,
}

impl Drop for Inner {
    fn drop(&mut self) {
        // Set the flag, then wake every blocked worker so it observes
        // it. No per-endpoint blocking work regardless of fleet size.
        self.wire.shutdown.store(true, Ordering::SeqCst);
        if let Some(serve) = self.serve.get_mut().take() {
            serve.waker.wake();
        }
        if let Some(client) = self.client.get_mut() {
            client.waker.wake();
        }
        // Unpark the RTO timer if it is idle so it observes the flag.
        {
            let mut gen = self.wire.rto_gen.lock();
            *gen = gen.wrapping_add(1);
            self.wire.rto_cv.notify_all();
        }
    }
}

/// [`Transport`] over QUIC-inspired reliable datagrams (see module
/// docs).
///
/// Cheap to clone (shared handle), usually passed around as
/// `Arc<dyn Transport>` via [`QuicLiteTransport::shared`].
#[derive(Clone)]
pub struct QuicLiteTransport {
    inner: Arc<Inner>,
}

impl QuicLiteTransport {
    /// Creates a transport. `seed` drives the drop-injection RNG and
    /// the conn-id nonce.
    pub fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let conn_nonce = (rng.gen::<u32>() as u64) << 32;
        Self {
            inner: Arc::new(Inner {
                epoch: Instant::now(),
                next_id: AtomicU64::new(1),
                next_corr: AtomicU64::new(1),
                conn_nonce,
                next_conn: AtomicU64::new(1),
                endpoints: OrderedMutex::new(ranks::QUIC_ENDPOINTS, HashMap::new()),
                resume: OrderedMutex::new(ranks::QUIC_RESUME, HashMap::new()),
                client: OrderedMutex::new(ranks::QUIC_CLIENT, None),
                serve: OrderedMutex::new(ranks::QUIC_SERVE_POOL, None),
                dispatch: OrderedMutex::new(ranks::QUIC_DISPATCH_POOL, None),
                wire: Arc::new(Wire {
                    timeout_us: AtomicU64::new(2_000_000),
                    drop_bits: AtomicU64::new(0f64.to_bits()),
                    rng: OrderedMutex::new(ranks::QUIC_RNG, rng),
                    stats: OrderedMutex::new(ranks::QUIC_STATS, NetStats::default()),
                    packets_sent: AtomicU64::new(0),
                    packets_received: AtomicU64::new(0),
                    retransmits: AtomicU64::new(0),
                    send_errors: AtomicU64::new(0),
                    recv_buffer_bytes: AtomicU64::new(0),
                    orphans: Arc::new(AtomicU64::new(0)),
                    shed: AtomicU64::new(0),
                    threads: Arc::new(AtomicUsize::new(0)),
                    conns: OrderedMutex::new(ranks::QUIC_CONN_REGISTRY, Vec::new()),
                    rto_started: AtomicBool::new(false),
                    rto_gen: OrderedMutex::new(ranks::QUIC_RTO_GEN, 0),
                    rto_cv: OrderedCondvar::new(),
                    shutdown: AtomicBool::new(false),
                }),
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

    /// Live worker threads: one shared serve poller + the
    /// [`SERVE_POOL`] dispatch workers (however many endpoints serve),
    /// one shared client receiver, and — once any packet has awaited
    /// an ack — one RTO timer. A small constant, independent of served
    /// endpoints, fan-out width, destination count and call volume;
    /// the pipelining stress test pins the ceiling.
    pub fn worker_threads(&self) -> usize {
        self.inner.wire.threads.load(Ordering::SeqCst)
    }

    /// Responses discarded because their correlation id matched no
    /// in-flight request (late responses after a timeout).
    pub fn orphan_responses(&self) -> u64 {
        self.inner.wire.orphans.load(Ordering::Relaxed)
    }

    /// Packet-level counters (see module docs on accounting).
    pub fn quic_stats(&self) -> QuicStats {
        QuicStats {
            packets_sent: self.inner.wire.packets_sent.load(Ordering::Relaxed),
            packets_received: self.inner.wire.packets_received.load(Ordering::Relaxed),
            retransmits: self.inner.wire.retransmits.load(Ordering::Relaxed),
            send_errors: self.inner.wire.send_errors.load(Ordering::Relaxed),
            recv_buffer_bytes: self.inner.wire.recv_buffer_bytes.load(Ordering::Relaxed),
        }
    }

    /// Data/handshake packets re-sent by the RTO timer so far.
    pub fn retransmits(&self) -> u64 {
        self.inner.wire.retransmits.load(Ordering::Relaxed)
    }

    /// Tears down the live connection toward `to` (modelling an idle
    /// timeout or an application-level reconnect) while keeping its
    /// conn id in the 0-RTT resumption cache: the next call to `to`
    /// reconnects without a handshake round. In-flight calls on the old
    /// connection are abandoned to their deadlines.
    pub fn close_connections(&self, to: EndpointId) {
        let mut client = self.inner.client.lock();
        let Some(client) = client.as_mut() else {
            return;
        };
        if let Some(conn) = client.conns.remove(&to) {
            client.by_conn_id.lock().remove(&conn.conn_id);
            // Only a conn id the server demonstrably knows is cached;
            // an unestablished handshake or a resumption the server
            // never answered would poison every future reconnect.
            if conn.resumable() {
                self.inner.resume.lock().insert(
                    to,
                    ResumeTicket {
                        conn_id: conn.conn_id,
                        next_packet_no: conn.next_packet_no.load(Ordering::SeqCst),
                    },
                );
            }
        }
    }

    /// Test hook: the worker-thread gauge, observable after the
    /// transport itself has been dropped.
    #[cfg(test)]
    fn thread_gauge(&self) -> Arc<AtomicUsize> {
        self.inner.wire.threads.clone()
    }

    fn timeout(&self) -> Duration {
        Duration::from_micros(
            self.inner
                .wire
                .timeout_us
                .load(Ordering::Relaxed)
                .max(1_000),
        )
    }

    /// The shared serve poller's registration handle, spawning the
    /// poller thread on first use (the first served endpoint).
    fn serve_shared(&self) -> Arc<ServeShared> {
        let mut slot = self.inner.serve.lock();
        if let Some(shared) = slot.as_ref() {
            return shared.clone();
        }
        let shared = Arc::new(ServeShared {
            cmds: OrderedMutex::new(ranks::QUIC_SERVE_CMDS, Vec::new()),
            waker: Waker::new().expect("create serve poller waker"),
        });
        let epoll = Epoll::new().expect("create serve poller epoll set");
        epoll
            .add(shared.waker.fd(), WAKER_TOKEN, EPOLLIN)
            .expect("register serve poller waker");
        let wire = self.inner.wire.clone();
        let poller = shared.clone();
        let guard = ThreadGuard::enter(&wire.threads);
        thread::Builder::new()
            .name("ofl-quic-serve".into())
            .spawn(move || {
                let _guard = guard;
                run_serve_poller(wire, poller, epoll);
            })
            .expect("spawn serve poller");
        *slot = Some(shared.clone());
        shared
    }

    /// The lazily spawned transport-wide dispatch pool's job sender.
    fn dispatch_sender(&self) -> mpsc::Sender<ServeJob> {
        let mut slot = self.inner.dispatch.lock();
        if let Some(tx) = slot.as_ref() {
            return tx.clone();
        }
        let tx = spawn_dispatch_pool(&self.inner.wire);
        *slot = Some(tx.clone());
        tx
    }

    /// Binds the shared client socket and spawns its receiver on first
    /// use. (The RTO timer is spawned even more lazily — by
    /// [`Wire::note_unacked`], when the first packet actually awaits
    /// an ack.)
    fn ensure_client(&self) {
        let mut client = self.inner.client.lock();
        if client.is_some() {
            return;
        }
        let wire = self.inner.wire.clone();
        let socket = wire.bind_socket();
        let by_conn_id: Arc<OrderedMutex<HashMap<u64, Arc<ConnState>>>> =
            Arc::new(OrderedMutex::new(ranks::QUIC_BY_CONN_ID, HashMap::new()));
        let rx_socket = socket.clone();
        let mut rx = ClientRx {
            routes: by_conn_id.clone(),
        };
        let waker = Arc::new(Waker::new().expect("create client receiver waker"));
        let rx_waker = waker.clone();
        let epoll = Epoll::new().expect("create client receiver epoll set");
        epoll
            .add(rx_socket.as_raw_fd(), 0, EPOLLIN)
            .expect("register client socket");
        epoll
            .add(waker.fd(), WAKER_TOKEN, EPOLLIN)
            .expect("register client receiver waker");
        let guard = ThreadGuard::enter(&wire.threads);
        thread::Builder::new()
            .name("ofl-quic-client-rx".into())
            .spawn(move || {
                let _guard = guard;
                let mut buf = [0u8; 2048];
                let mut events = [EpollEvent::EMPTY; 2];
                // No timeout: datagrams end the wait, and so does the
                // waker that teardown fires after setting the flag.
                while !wire.shutdown.load(Ordering::SeqCst) {
                    let Ok(ready) = epoll.wait(&mut events, -1) else {
                        thread::sleep(Duration::from_millis(1));
                        continue;
                    };
                    for event in &events[..ready] {
                        match event.token() {
                            WAKER_TOKEN => rx_waker.drain(),
                            _ => drain_socket(&wire, &rx_socket, &mut buf, &mut rx),
                        }
                    }
                }
            })
            .expect("spawn client receiver");
        *client = Some(ClientSide {
            socket,
            conns: HashMap::new(),
            by_conn_id,
            waker,
        });
    }

    /// Checks out (or creates) the connection toward `to`. A fresh
    /// connection resumes from the 0-RTT cache when the server already
    /// knows a conn id for us; otherwise it pays the `Init` handshake
    /// round.
    fn obtain_conn(&self, to: EndpointId, addr: SocketAddr) -> Arc<ConnState> {
        self.ensure_client();
        let mut guard = self.inner.client.lock();
        let client = guard.as_mut().expect("client side initialized");
        if let Some(conn) = client.conns.get(&to) {
            if !conn.broken.load(Ordering::SeqCst) {
                return conn.clone();
            }
            // The RTO timer gave up on this connection (peer
            // unreachable for the whole horizon): replace it instead of
            // queueing more frames into the void — the datagram
            // analogue of the TCP pool pruning stalled connections.
            let dead = client.conns.remove(&to).expect("checked above");
            client.by_conn_id.lock().remove(&dead.conn_id);
            if dead.resumable() {
                self.inner.resume.lock().insert(
                    to,
                    ResumeTicket {
                        conn_id: dead.conn_id,
                        next_packet_no: dead.next_packet_no.load(Ordering::SeqCst),
                    },
                );
            }
        }
        let wire = &self.inner.wire;
        let demux = Arc::new(Demux::new(wire.orphans.clone()));
        let resumed = self.inner.resume.lock().remove(&to);
        let (conn, init) = match resumed {
            // 0-RTT: the server knows this conn id; skip the handshake
            // and continue the packet numbering where it left off (the
            // server's dedup set has seen everything below).
            Some(ticket) => (
                ConnState::new(
                    ticket.conn_id,
                    client.socket.clone(),
                    addr,
                    true,
                    true,
                    ticket.next_packet_no,
                    Some(demux),
                ),
                None,
            ),
            None => {
                let conn_id =
                    self.inner.conn_nonce | self.inner.next_conn.fetch_add(1, Ordering::Relaxed);
                let conn = ConnState::new(
                    conn_id,
                    client.socket.clone(),
                    addr,
                    false,
                    false,
                    0,
                    Some(demux),
                );
                // The Init packet rides the reliability machinery like
                // any other: numbered, buffered, RTO-retransmitted. Its
                // InitAck doubles as its acknowledgement. Built here,
                // transmitted only AFTER the conn is routable below —
                // on loopback the InitAck can arrive faster than two
                // map inserts, and an unroutable ack would cost a full
                // RTO to recover.
                let no = conn.next_packet_no.fetch_add(1, Ordering::SeqCst);
                let datagram = encode_packet(PacketType::Init, conn_id, no, 0, 1, &[]);
                let now = Instant::now();
                conn.unacked.lock().insert(
                    no,
                    Unacked {
                        datagram: datagram.clone(),
                        peer: addr,
                        first_sent: now,
                        last_sent: now,
                    },
                );
                (conn, Some(datagram))
            }
        };
        wire.register_conn(&conn);
        client.by_conn_id.lock().insert(conn.conn_id, conn.clone());
        client.conns.insert(to, conn.clone());
        if let Some(datagram) = init {
            wire.transmit(&conn.socket, addr, &datagram);
            // The Init sits unacked until its InitAck: the (possibly
            // parked) RTO timer must know to watch it.
            wire.note_unacked();
        }
        conn
    }

    fn submit_inner(
        &self,
        from: EndpointId,
        to: EndpointId,
        payload: Vec<u8>,
    ) -> Result<QuicPending, NetError> {
        let (addr, down) = {
            let endpoints = self.inner.endpoints.lock();
            let ep = endpoints.get(&to).ok_or(NetError::NoSuchEndpoint(to))?;
            (ep.addr, ep.down.clone())
        };
        let addr = addr.ok_or(NetError::NoSuchEndpoint(to))?;
        if down.load(Ordering::Relaxed) {
            return Err(NetError::EndpointDown(to));
        }
        let conn = self.obtain_conn(to, addr);
        let corr = self.inner.next_corr.fetch_add(1, Ordering::Relaxed);
        let demux = conn.demux.clone().expect("client conns have a demux");
        let cell = demux.register(corr);
        let bytes_sent = payload.len() as u64;
        let mut frame = Vec::with_capacity(payload.len() + FRAME_HEADER_LEN);
        write_frame(&mut frame, from.0, corr, &payload).map_err(|e| {
            demux.forget(corr);
            NetError::Connection(format!("encode frame: {e}"))
        })?;
        let sent_now = self.inner.wire.send_or_queue(&conn, frame);
        Ok(QuicPending {
            transport: self.clone(),
            from,
            to,
            bytes_sent,
            corr,
            cell,
            demux,
            conn,
            sent_now,
            down,
            t0: Instant::now(),
        })
    }

    /// Charges one completed request/response exchange to the global
    /// and both per-endpoint counters (frame headers included; packet
    /// headers, acks and retransmissions are counted separately in
    /// [`QuicStats`] — see module docs).
    fn charge(&self, from: EndpointId, to: EndpointId, payload_out: u64, payload_in: u64) {
        let sent = payload_out + FRAME_HEADER_LEN as u64;
        let received = payload_in + FRAME_HEADER_LEN as u64;
        {
            let mut stats = self.inner.wire.stats.lock();
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

    /// Charges a request whose frame went on the wire but whose call
    /// failed: the request bytes were really spent (same rule as the
    /// TCP backend since the wire-accounting fix).
    fn charge_tx(&self, from: EndpointId, to: EndpointId, payload_out: u64) {
        let sent = payload_out + FRAME_HEADER_LEN as u64;
        {
            let mut stats = self.inner.wire.stats.lock();
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
}

/// One in-flight QuicLite call: the frame is on the wire (or queued
/// behind a handshake); the client receiver fills `cell` when the
/// correlated response frame reassembles.
struct QuicPending {
    transport: QuicLiteTransport,
    from: EndpointId,
    to: EndpointId,
    /// Request payload length (the frame adds `FRAME_HEADER_LEN`).
    bytes_sent: u64,
    corr: u64,
    cell: Arc<CompletionCell>,
    demux: Arc<Demux>,
    conn: Arc<ConnState>,
    /// Whether the frame was transmitted at submit time (false while
    /// the handshake was still pending — it may have been flushed
    /// since; the conn's established flag is the tiebreaker at claim
    /// time).
    sent_now: bool,
    down: Arc<AtomicBool>,
    t0: Instant,
}

impl PendingCall for QuicPending {
    fn wait(self: Box<Self>) -> Result<Transfer, NetError> {
        let deadline = self.t0 + self.transport.timeout();
        match self.cell.wait_until(deadline) {
            Some(response) => {
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
            None => {
                // Abandon the correlation slot: a response past the
                // deadline is discarded as an orphan, never delivered
                // to a future call.
                self.demux.forget(self.corr);
                // The request frame hit the wire iff the handshake
                // completed (queued frames flush exactly at
                // establishment); if it did, its bytes were spent and
                // are charged even though the call failed.
                if self.sent_now || self.conn.established.load(Ordering::SeqCst) {
                    self.transport
                        .charge_tx(self.from, self.to, self.bytes_sent);
                }
                if self.down.load(Ordering::Relaxed) {
                    Err(NetError::EndpointDown(self.to))
                } else {
                    Err(NetError::Timeout)
                }
            }
        }
    }
}

impl Transport for QuicLiteTransport {
    fn kind(&self) -> &'static str {
        "quiclite"
    }

    fn register(&self, name: &str, location: Option<openflame_geo::LatLng>) -> EndpointId {
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
                gauge: Arc::new(DispatchGauge::new()),
            },
        );
        id
    }

    fn set_service(&self, id: EndpointId, service: Arc<dyn WireService>) {
        let socket = self.inner.wire.bind_socket();
        let addr = socket.local_addr().expect("socket has an address");
        let (down, gauge) = {
            let mut endpoints = self.inner.endpoints.lock();
            let ep = endpoints
                .get_mut(&id)
                .expect("set_service on an unregistered endpoint");
            ep.addr = Some(addr);
            (ep.down.clone(), ep.gauge.clone())
        };
        let dispatch = self.dispatch_sender();
        let serve = self.serve_shared();
        serve.push(ServeSock {
            socket,
            me: id.0,
            down,
            service,
            dispatch,
            gauge,
            conns: HashMap::new(),
            last_seen: HashMap::new(),
        });
    }

    fn submit(&self, from: EndpointId, to: EndpointId, payload: Vec<u8>) -> CallHandle {
        match self.submit_inner(from, to, payload) {
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
        self.inner.wire.stats.lock().clone()
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
        *self.inner.wire.stats.lock() = NetStats::default();
        self.inner.wire.shed.store(0, Ordering::SeqCst);
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
        {
            let mut endpoints = self.inner.endpoints.lock();
            let Some(ep) = endpoints.get_mut(&id) else {
                return;
            };
            ep.down.store(down, Ordering::Relaxed);
        }
        // Drop the live connection toward it either way (a revived
        // server is re-approached over a resumed connection); in-flight
        // calls are abandoned to their deadlines, as with a crashed
        // process.
        self.close_connections(id);
    }

    fn set_drop_probability(&self, p: f64) {
        self.inner
            .wire
            .drop_bits
            .store(p.clamp(0.0, 1.0).to_bits(), Ordering::Relaxed);
    }

    fn set_timeout_us(&self, timeout_us: u64) {
        self.inner
            .wire
            .timeout_us
            .store(timeout_us, Ordering::Relaxed);
    }

    fn worker_threads(&self) -> usize {
        QuicLiteTransport::worker_threads(self)
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
        self.inner.wire.shed.load(Ordering::SeqCst)
    }
}

// ---------------------------------------------------------------------
// Server-side dispatch.
// ---------------------------------------------------------------------

/// One reassembled request frame on its way to a dispatch worker.
struct ServeJob {
    from: u64,
    corr: u64,
    payload: Vec<u8>,
    /// The served endpoint id: the response frame's sender.
    me: u64,
    /// The service bound to that endpoint. Carried per job (not per
    /// worker) because the pool is transport-wide: idle workers pin no
    /// service alive.
    service: Arc<dyn WireService>,
    /// The connection to answer on (reliable, fragmented).
    conn: Arc<ConnState>,
    /// The endpoint's admission book and this request's principal key
    /// (present when an overload policy classified it). The worker
    /// releases the slot right after execution — on every path,
    /// including service panics — so a vanished requester can never
    /// leak slots and wedge the endpoint.
    gauge: Arc<DispatchGauge>,
    admit_key: Option<u64>,
}

/// Spawns the transport-wide dispatch pool: [`SERVE_POOL`] workers
/// execute reassembled frames from every served endpoint concurrently
/// (the [`WireService`] `Send + Sync` contract makes that legal) and
/// send each response the moment it completes — with no stream to keep
/// ordered, completion-order responses need no writer machinery at
/// all. Workers exit when the transport's master sender and the serve
/// poller's clone are gone.
fn spawn_dispatch_pool(wire: &Arc<Wire>) -> mpsc::Sender<ServeJob> {
    let (job_tx, job_rx) = mpsc::channel::<ServeJob>();
    let job_rx = Arc::new(OrderedMutex::new(ranks::QUIC_DISPATCH_QUEUE, job_rx));
    for worker in 0..SERVE_POOL {
        let guard = ThreadGuard::enter(&wire.threads);
        let job_rx = job_rx.clone();
        let wire = wire.clone();
        thread::Builder::new()
            .name(format!("ofl-quic-disp-{worker}"))
            .spawn(move || {
                let _guard = guard;
                loop {
                    // Hold the shared receiver only for the blocking
                    // recv: pickup is serialized, execution is not.
                    let job = {
                        let rx = job_rx.lock();
                        rx.recv()
                    };
                    let Ok(job) = job else { break };
                    // Contain panics: a panicking request is answered
                    // with silence (the caller times out) — a datagram
                    // transport has no connection to cut — and must
                    // never kill a shared worker.
                    let response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        job.service.handle(EndpointId(job.from), &job.payload)
                    }));
                    // Release the admission slot before the panic
                    // check: the endpoint-wide depth must drain on
                    // every execution path.
                    job.gauge.release(job.admit_key);
                    let Ok(response) = response else { continue };
                    let mut frame = Vec::with_capacity(response.len() + FRAME_HEADER_LEN);
                    if write_frame(&mut frame, job.me, job.corr, &response).is_ok() {
                        wire.send_frame(&job.conn, frame);
                    }
                }
            })
            .expect("spawn dispatch worker");
    }
    job_tx
}

/// The cross-thread face of the serve poller: newly served endpoints
/// queue their socket state here and pop the poller's `epoll_wait`.
struct ServeShared {
    cmds: OrderedMutex<Vec<ServeSock>>,
    waker: Waker,
}

impl ServeShared {
    fn push(&self, sock: ServeSock) {
        self.cmds.lock().push(sock);
        self.waker.wake();
    }

    fn take(&self) -> Vec<ServeSock> {
        std::mem::take(&mut *self.cmds.lock())
    }
}

/// One served endpoint's socket and per-connection state, owned by the
/// poller thread (single-threaded access: no locks). The conn table is
/// bounded by IDLE eviction: conns silent past the generous idle
/// horizon are dropped during quiet poller ticks, so a long-lived server
/// with client churn holds state for recent clients only (an evicted
/// client's next resumption misses, breaks, and falls back to a cold
/// handshake).
struct ServeSock {
    socket: Arc<UdpSocket>,
    me: u64,
    down: Arc<AtomicBool>,
    service: Arc<dyn WireService>,
    dispatch: mpsc::Sender<ServeJob>,
    gauge: Arc<DispatchGauge>,
    conns: HashMap<u64, Arc<ConnState>>,
    last_seen: HashMap<u64, Instant>,
}

impl ServeSock {
    /// Drops connection state for clients silent past the idle horizon
    /// (run on quiet poller ticks).
    fn evict_idle(&mut self) {
        if self.conns.len() <= 1 {
            return;
        }
        let now = Instant::now();
        let last_seen = &self.last_seen;
        self.conns.retain(|conn_id, _| {
            last_seen
                .get(conn_id)
                .is_some_and(|seen| now.duration_since(*seen) < SERVER_CONN_IDLE)
        });
        let conns = &self.conns;
        self.last_seen
            .retain(|conn_id, _| conns.contains_key(conn_id));
    }
}

/// The one serve-side event loop: multiplexes every served endpoint's
/// UDP socket in one epoll set, handling handshakes and acks inline and
/// handing reassembled request frames to the dispatch pool. Replaces
/// the receiver-thread-per-endpoint design — a 128-server fleet costs
/// one poller, not 128 parked receivers. Exits on shutdown, dropping
/// every socket, conn table and service handle it owns.
fn run_serve_poller(wire: Arc<Wire>, shared: Arc<ServeShared>, epoll: Epoll) {
    let mut socks: Vec<ServeSock> = Vec::new();
    // Sockets the kernel refused to watch (ENOMEM, the max_user_watches
    // limit), retried every round — at least once a second.
    let mut unwatched: Vec<ServeSock> = Vec::new();
    let mut events = vec![EpollEvent::EMPTY; 64];
    let mut buf = [0u8; 2048];
    loop {
        if wire.shutdown.load(Ordering::SeqCst) {
            return;
        }
        unwatched.extend(shared.take());
        for sock in std::mem::take(&mut unwatched) {
            // Registered once, under its index: `socks` only grows.
            if epoll
                .add(sock.socket.as_raw_fd(), socks.len() as u64, EPOLLIN)
                .is_ok()
            {
                socks.push(sock);
            } else {
                unwatched.push(sock);
            }
        }
        // The 1 s timeout provides the idle ticks conn eviction runs
        // on.
        let ready = match epoll.wait(&mut events, 1_000) {
            Ok(n) => n,
            Err(_) => {
                thread::sleep(Duration::from_millis(1));
                continue;
            }
        };
        if ready == 0 {
            for s in &mut socks {
                s.evict_idle();
            }
            continue;
        }
        for event in &events[..ready] {
            match event.token() {
                WAKER_TOKEN => shared.waker.drain(),
                token => {
                    if let Some(s) = socks.get_mut(token as usize) {
                        let socket = s.socket.clone();
                        drain_socket(&wire, &socket, &mut buf, s);
                    }
                }
            }
        }
    }
}

impl DrainSide for ServeSock {
    fn route(&mut self, wire: &Arc<Wire>, pkt: &Packet, src: SocketAddr) -> Option<Arc<ConnState>> {
        self.last_seen.insert(pkt.conn_id, Instant::now());
        match pkt.ptype {
            PacketType::Init => {
                // Register (or refresh) the connection and answer.
                // Duplicate Inits (a lost InitAck) are answered
                // idempotently.
                let socket = self.socket.clone();
                let conn = self.conns.entry(pkt.conn_id).or_insert_with(|| {
                    let conn = ConnState::new(pkt.conn_id, socket, src, true, false, 0, None);
                    wire.register_conn(&conn);
                    conn
                });
                *conn.peer.lock() = src;
                let ack = encode_packet(PacketType::InitAck, pkt.conn_id, pkt.packet_no, 0, 1, &[]);
                wire.transmit(&self.socket, src, &ack);
                None
            }
            PacketType::Data => {
                // Data under an unregistered conn id is dropped (and
                // not acked): without the handshake (or a resumption
                // ticket minted by one) the server does not speak to
                // you. The client's RTO keeps retrying until its
                // deadline.
                let conn = self.conns.get(&pkt.conn_id)?;
                *conn.peer.lock() = src;
                Some(conn.clone())
            }
            PacketType::Ack => self.conns.get(&pkt.conn_id).cloned(),
            PacketType::InitAck => None, // server side never dials
        }
    }

    fn deliver(&mut self, wire: &Arc<Wire>, conn: &Arc<ConnState>, frame: Vec<u8>) {
        if self.down.load(Ordering::Relaxed) {
            return; // a crashed process answers nothing
        }
        let Ok(frame) = read_frame(&mut &frame[..]) else {
            return;
        };
        let admit_key = match self.gauge.admit(&frame.payload) {
            Ok(key) => key,
            Err(busy) => {
                // Shed: the poller answers with the policy's busy
                // payload directly — the dispatch pool never sees the
                // request and the reply rides the ordinary
                // reliable-send path.
                wire.shed.fetch_add(1, Ordering::Relaxed);
                let mut reply = Vec::with_capacity(busy.len() + FRAME_HEADER_LEN);
                if write_frame(&mut reply, self.me, frame.correlation, &busy).is_ok() {
                    wire.send_frame(conn, reply);
                }
                return;
            }
        };
        let job = ServeJob {
            from: frame.sender,
            corr: frame.correlation,
            payload: frame.payload,
            me: self.me,
            service: self.service.clone(),
            conn: conn.clone(),
            gauge: self.gauge.clone(),
            admit_key,
        };
        // Send failure means the transport is unwinding; nothing left
        // to answer.
        let _ = self.dispatch.send(job);
    }
}

// ---------------------------------------------------------------------
// The shared receive path.
// ---------------------------------------------------------------------

/// The client receiver's half of [`drain_socket`]: routes by conn id
/// and completes waiters.
struct ClientRx {
    routes: Arc<OrderedMutex<HashMap<u64, Arc<ConnState>>>>,
}

impl DrainSide for ClientRx {
    fn route(
        &mut self,
        wire: &Arc<Wire>,
        pkt: &Packet,
        _src: SocketAddr,
    ) -> Option<Arc<ConnState>> {
        let conn = self.routes.lock().get(&pkt.conn_id).cloned()?;
        // Any traffic at all proves the server speaks this conn id —
        // the evidence the resumption cache needs.
        conn.got_traffic.store(true, Ordering::SeqCst);
        match pkt.ptype {
            PacketType::InitAck => {
                conn.unacked.lock().remove(&pkt.packet_no);
                wire.establish(&conn);
                None
            }
            PacketType::Data | PacketType::Ack => Some(conn),
            PacketType::Init => None, // client side never serves
        }
    }

    fn deliver(&mut self, _wire: &Arc<Wire>, conn: &Arc<ConnState>, frame: Vec<u8>) {
        if let (Ok(frame), Some(demux)) = (read_frame(&mut &frame[..]), &conn.demux) {
            demux.complete(frame.correlation, frame.payload);
        }
    }
}

/// One side's part in [`drain_socket`]: the server's [`ServeSock`] or
/// the client's [`ClientRx`].
trait DrainSide {
    /// Handles a handshake packet itself, or returns the connection a
    /// `Data`/`Ack` packet belongs to; `None` drops the packet, and a
    /// dropped `Data` packet goes unacknowledged.
    fn route(&mut self, wire: &Arc<Wire>, pkt: &Packet, src: SocketAddr) -> Option<Arc<ConnState>>;

    /// Takes one reassembled frame, after the acks for its packets went
    /// out.
    fn deliver(&mut self, wire: &Arc<Wire>, conn: &Arc<ConnState>, frame: Vec<u8>);
}

/// What one drain has taken but not yet answered.
#[derive(Default)]
struct Burst {
    /// Data packet numbers awaiting their ack, per (conn id, peer).
    to_ack: HashMap<(u64, SocketAddr), Vec<u64>>,
    /// Data packets taken since the last flush.
    taken: usize,
    /// Frames completed since the last flush.
    frames: Vec<(Arc<ConnState>, Vec<u8>)>,
}

impl Burst {
    /// Sends one ranged ack per (conn id, peer), then delivers the
    /// frames — acks first, so a sender sees its packets acknowledged
    /// no later than the work they carried begins.
    fn flush(&mut self, wire: &Arc<Wire>, socket: &UdpSocket, side: &mut impl DrainSide) {
        for (&(conn_id, peer), packet_nos) in &mut self.to_ack {
            if !packet_nos.is_empty() {
                wire.send_acks(socket, peer, conn_id, packet_nos);
            }
        }
        self.taken = 0;
        for (conn, frame) in self.frames.drain(..) {
            side.deliver(wire, &conn, frame);
        }
    }
}

/// The receive routine both sides share: reads `socket` until the read
/// would block, decoding each datagram and letting `side` route it.
/// Acks are applied to the retransmit buffer (a malformed range list
/// is dropped whole, never half-applied); data is deduplicated and
/// reassembled. When the socket runs dry, every data packet taken is
/// acknowledged with one ranged `Ack` per (conn id, peer) and the
/// completed frames are delivered. The same flush happens mid-drain
/// once [`MAX_ACK_RANGES`] data packets are waiting — one ack
/// datagram's worth even if none coalesce — so under sustained traffic
/// neither acks nor frames wait on the drain's end.
fn drain_socket(wire: &Arc<Wire>, socket: &UdpSocket, buf: &mut [u8], side: &mut impl DrainSide) {
    let retention = wire.give_up_horizon();
    let mut burst = Burst::default();
    loop {
        let (n, src) = match socket.recv_from(buf) {
            Ok(got) => got,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            // Would block: drained. Anything else is transient; the
            // senders retransmit.
            Err(_) => break,
        };
        let Ok(pkt) = decode_packet(&buf[..n]) else {
            continue; // corrupt datagram: dropped, sender retransmits
        };
        wire.packets_received.fetch_add(1, Ordering::Relaxed);
        let Some(conn) = side.route(wire, &pkt, src) else {
            continue;
        };
        match pkt.ptype {
            PacketType::Ack => {
                if let Ok(ranges) = decode_ack_ranges(pkt.packet_no, &pkt.payload) {
                    conn.acknowledge(&ranges);
                }
            }
            PacketType::Data => {
                burst
                    .to_ack
                    .entry((pkt.conn_id, src))
                    .or_default()
                    .push(pkt.packet_no);
                burst.taken += 1;
                if let Some(frame) = conn.accept_data(pkt, retention) {
                    burst.frames.push((conn, frame));
                }
                if burst.taken == MAX_ACK_RANGES {
                    burst.flush(wire, socket, side);
                }
            }
            PacketType::Init | PacketType::InitAck => {} // routed
        }
    }
    burst.flush(wire, socket, side);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::CompletionSet;

    fn echo_transport() -> (QuicLiteTransport, EndpointId, EndpointId) {
        let transport = QuicLiteTransport::new(7);
        let server = transport.register("echo", None);
        transport.set_service(
            server,
            Arc::new(|_from: EndpointId, payload: &[u8]| payload.to_vec()),
        );
        let client = transport.register("client", None);
        (transport, client, server)
    }

    #[test]
    fn echo_round_trip_over_real_datagrams() {
        let (transport, client, server) = echo_transport();
        let transfer = transport.call(client, server, vec![1, 2, 3]).unwrap();
        assert_eq!(transfer.payload, vec![1, 2, 3]);
        assert_eq!(transfer.bytes_sent, 3 + FRAME_HEADER_LEN as u64);
        let stats = transport.stats();
        assert_eq!(stats.messages, 2);
        assert_eq!(stats.bytes, 2 * (3 + FRAME_HEADER_LEN as u64));
        let q = transport.quic_stats();
        assert!(q.packets_sent >= 4, "init + init-ack + data + response");
    }

    #[test]
    fn pipelined_submits_multiplex_one_socket() {
        let (transport, client, server) = echo_transport();
        let mut set = CompletionSet::new();
        for i in 0..32u8 {
            set.push(transport.submit(client, server, vec![i]));
        }
        for (i, result) in set.wait_all().into_iter().enumerate() {
            assert_eq!(result.unwrap().payload, vec![i as u8]);
        }
        assert_eq!(transport.orphan_responses(), 0);
        assert_eq!(transport.stats().messages, 64);
    }

    #[test]
    fn worker_threads_do_not_grow_with_call_volume() {
        let (transport, client, server) = echo_transport();
        transport.call(client, server, vec![0]).unwrap();
        let after_first = transport.worker_threads();
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
            "datagram calls must not spawn per-call threads"
        );
        // 1 shared serve poller + SERVE_POOL workers + client receiver
        // + RTO timer.
        assert_eq!(after_first, 1 + SERVE_POOL + 2);
    }

    #[test]
    fn serve_side_threads_are_constant_and_rto_timer_is_lazy() {
        let transport = QuicLiteTransport::new(7);
        let client = transport.register("client", None);
        let mut servers = Vec::new();
        for i in 0..12 {
            let id = transport.register(&format!("srv-{i}"), None);
            transport.set_service(
                id,
                Arc::new(|_from: EndpointId, payload: &[u8]| payload.to_vec()),
            );
            servers.push(id);
        }
        // Serving any number of endpoints costs the one shared poller
        // plus the dispatch pool — and no RTO timer until a client
        // actually has unacked packets in flight.
        assert_eq!(
            transport.worker_threads(),
            1 + SERVE_POOL,
            "serve-only transport must not start the client rx or RTO threads"
        );
        for &server in &servers {
            transport.call(client, server, vec![9]).unwrap();
        }
        // First dial added the shared client receiver and woke the
        // (lazy) RTO timer; nothing scales with endpoint count.
        assert_eq!(transport.worker_threads(), 1 + SERVE_POOL + 2);
    }

    #[test]
    fn over_mtu_batch_round_trips_via_fragmentation() {
        let (transport, client, server) = echo_transport();
        // Several MTUs in both directions (the echo doubles the test).
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let transfer = transport.call(client, server, payload.clone()).unwrap();
        assert_eq!(transfer.payload, payload, "fragments reassemble in order");
        assert!(
            transport.quic_stats().packets_sent as usize > 2 * (payload.len() / PAYLOAD_MTU),
            "the frame must really have been fragmented"
        );
        assert_eq!(transport.stats().messages, 2, "still one logical exchange");
    }

    #[test]
    fn zero_rtt_reconnect_costs_fewer_packets_than_cold_connect() {
        let (transport, client, server) = echo_transport();
        // Cold connect: Init + InitAck ride ahead of the data exchange
        // (6 packets minimum: handshake pair + data/ack each way).
        transport.call(client, server, vec![1]).unwrap();
        let cold = transport.quic_stats().packets_sent;
        assert!(cold >= 6, "cold connect pays the handshake: {cold}");
        // Idle teardown; the conn id stays in the resumption cache.
        // A resumed reconnect needs only data + ack each way — 4
        // packets. Scheduler stalls under a loaded test host can add
        // spurious retransmits to any single attempt, so take the
        // minimum over a few reconnects: the 0-RTT saving must show.
        let mut best = u64::MAX;
        for i in 0..5u8 {
            transport.close_connections(server);
            let before = transport.quic_stats().packets_sent;
            transport.call(client, server, vec![2, i]).unwrap();
            best = best.min(transport.quic_stats().packets_sent - before);
        }
        assert!(
            best < cold,
            "0-RTT reconnect ({best} packets) must beat the cold connect ({cold})"
        );
        assert!(best >= 4, "resumed exchange floor: {best}");
    }

    #[test]
    fn bulk_echo_on_a_warm_connection_needs_no_retransmits_and_few_acks() {
        let (transport, client, server) = echo_transport();
        transport.call(client, server, vec![0]).unwrap();
        // A tile-sized frame leaves as one burst each way: the sized
        // socket buffers must queue all of it (no loss, so no RTO), and
        // ranged acks must cost a fraction of the data packets. A
        // loaded test host can stall a receiver past the RTO in any
        // single attempt, so take the best of a few.
        let payload: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        let fragments = (payload.len() + FRAME_HEADER_LEN).div_ceil(PAYLOAD_MTU) as u64;
        let (mut best_retransmits, mut best_packets) = (u64::MAX, u64::MAX);
        for _ in 0..5 {
            let before = transport.quic_stats();
            let transfer = transport.call(client, server, payload.clone()).unwrap();
            assert_eq!(transfer.payload, payload);
            let after = transport.quic_stats();
            best_retransmits = best_retransmits.min(after.retransmits - before.retransmits);
            best_packets = best_packets.min(after.packets_sent - before.packets_sent);
        }
        let q = transport.quic_stats();
        assert_eq!(best_retransmits, 0, "a warm bulk echo lost packets: {q:?}");
        assert!(
            best_packets <= 2 * (fragments + fragments / 8),
            "{best_packets} packets for {fragments} fragments each way: {q:?}"
        );
        assert!(q.recv_buffer_bytes > 0, "granted buffer not reported");
    }

    #[test]
    fn dropped_ranged_acks_are_recovered_and_the_service_runs_once() {
        // A hand-rolled client that ignores the server's first acks, as
        // if every one were lost: it re-sends the whole request, and the
        // server must ack again and still execute the request once.
        let transport = QuicLiteTransport::new(7);
        let server = transport.register("counting", None);
        let runs = Arc::new(AtomicUsize::new(0));
        let counter = runs.clone();
        transport.set_service(
            server,
            Arc::new(move |_from: EndpointId, payload: &[u8]| {
                counter.fetch_add(1, Ordering::SeqCst);
                payload.to_vec()
            }),
        );
        let addr = transport.listen_addr(server).unwrap();
        let raw = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let recv = || {
            let mut buf = [0u8; 2048];
            let (n, _) = raw.recv_from(&mut buf).expect("server went silent");
            decode_packet(&buf[..n]).unwrap()
        };
        let conn_id = 0xACC;
        raw.send_to(
            &encode_packet(PacketType::Init, conn_id, 0, 0, 1, &[]),
            addr,
        )
        .unwrap();
        assert_eq!(recv().ptype, PacketType::InitAck);

        let payload: Vec<u8> = (0..5_000u32).map(|i| (i % 241) as u8).collect();
        let mut frame = Vec::new();
        write_frame(&mut frame, 99, 1, &payload).unwrap();
        let chunks: Vec<&[u8]> = frame.chunks(PAYLOAD_MTU).collect();
        let count = chunks.len() as u16;
        let fragments: Vec<Vec<u8>> = chunks
            .iter()
            .enumerate()
            .map(|(i, chunk)| {
                encode_packet(
                    PacketType::Data,
                    conn_id,
                    1 + i as u64,
                    i as u16,
                    count,
                    chunk,
                )
            })
            .collect();
        let request: Vec<u64> = (1..=count as u64).collect();

        let mut response: HashMap<u64, Packet> = HashMap::new();
        for round in 0..2 {
            for datagram in &fragments {
                raw.send_to(datagram, addr).unwrap();
            }
            // Wait until acks cover the whole request; round 0's are
            // "lost" (never acted on), round 1's find duplicates only.
            let mut acked = Vec::new();
            while !request.iter().all(|no| acked.contains(no)) {
                let pkt = recv();
                match pkt.ptype {
                    PacketType::Ack => {
                        for r in decode_ack_ranges(pkt.packet_no, &pkt.payload).unwrap() {
                            acked.extend(r.first()..=r.last());
                        }
                    }
                    PacketType::Data => {
                        response.insert(pkt.packet_no, pkt);
                    }
                    other => panic!("unexpected {other:?} in round {round}"),
                }
            }
        }
        // Collect the rest of the response, acking it so the server
        // stops re-sending.
        let frag_count =
            |r: &HashMap<u64, Packet>| r.values().next().map(|p| p.frag_count as usize);
        while frag_count(&response) != Some(response.len()) {
            let pkt = recv();
            if pkt.ptype == PacketType::Data {
                response.insert(pkt.packet_no, pkt);
            }
        }
        let mut numbers: Vec<u64> = response.keys().copied().collect();
        numbers.sort_unstable();
        for ack in encode_acks(conn_id, &numbers) {
            raw.send_to(&ack, addr).unwrap();
        }
        let bytes: Vec<u8> = numbers
            .iter()
            .flat_map(|no| response[no].payload.clone())
            .collect();
        let reply = read_frame(&mut &bytes[..]).unwrap();
        assert_eq!((reply.correlation, reply.payload), (1, payload));
        // A late retransmission must not run the service again either.
        thread::sleep(Duration::from_millis(100));
        assert_eq!(runs.load(Ordering::SeqCst), 1, "request executed twice");
    }

    #[test]
    fn injected_datagram_loss_is_recovered_by_retransmission() {
        let (transport, client, server) = echo_transport();
        // Warm the connection so the loss hits data packets, then drop
        // a third of all datagrams. Every loss must be repaired by the
        // RTO timer well below the (default 2 s) call deadline.
        transport.call(client, server, vec![0]).unwrap();
        transport.set_drop_probability(0.3);
        // A multi-fragment payload gives the drop injection dozens of
        // independent chances per call; a handful of calls makes a
        // zero-retransmit run astronomically unlikely.
        let payload: Vec<u8> = vec![7; 8_000];
        let mut calls = 0;
        while transport.retransmits() == 0 && calls < 5 {
            let transfer = transport
                .call(client, server, payload.clone())
                .expect("loss below the timeout must be recovered, not surfaced");
            assert_eq!(transfer.payload, payload);
            calls += 1;
        }
        assert!(
            transport.retransmits() > 0,
            "recovery must have used retransmission"
        );
        assert!(transport.stats().drops > 0, "losses really were injected");
        transport.set_drop_probability(0.0);
        assert!(transport.call(client, server, vec![9]).is_ok());
    }

    #[test]
    fn total_loss_times_out_and_charges_the_sent_request() {
        let (transport, client, server) = echo_transport();
        transport.call(client, server, vec![1]).unwrap();
        transport.reset_stats();
        transport.set_drop_probability(1.0);
        transport.set_timeout_us(80_000);
        let err = transport.call(client, server, vec![2, 3]).unwrap_err();
        assert!(matches!(err, NetError::Timeout));
        // The request frame was put on the send path: its bytes are
        // charged even though the call failed (wire-accounting rule
        // shared with the TCP backend).
        let stats = transport.stats();
        assert_eq!(stats.messages, 1);
        assert_eq!(stats.bytes, 2 + FRAME_HEADER_LEN as u64);
        assert!(stats.drops > 0);
        let ep = transport.endpoint_stats(client).unwrap();
        assert_eq!(ep.tx_msgs, 1);
        assert_eq!(ep.rx_msgs, 0, "no response ever arrived");
        transport.set_drop_probability(0.0);
        transport.set_timeout_us(2_000_000);
        assert!(transport.call(client, server, vec![4]).is_ok());
    }

    #[test]
    fn failed_handshake_connection_is_replaced_not_wedged() {
        let (transport, client, server) = echo_transport();
        // Total loss during the COLD connect: the Init never gets
        // through, the call times out, and after the give-up horizon
        // the RTO timer abandons the handshake and marks the
        // connection broken.
        transport.set_timeout_us(100_000);
        transport.set_drop_probability(1.0);
        assert!(matches!(
            transport.call(client, server, vec![1]),
            Err(NetError::Timeout)
        ));
        // Past give-up (~2*RTO + 2*timeout = ~225 ms at this setting).
        thread::sleep(Duration::from_millis(400));
        // Loss lifts: the next call must NOT queue into the dead
        // handshake forever — the broken conn is replaced by a fresh
        // dial and the endpoint works again.
        transport.set_drop_probability(0.0);
        assert_eq!(
            transport.call(client, server, vec![2]).unwrap().payload,
            [2],
            "endpoint wedged behind a failed handshake"
        );
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
    fn slow_request_does_not_block_pipelined_fast_requests() {
        let transport = QuicLiteTransport::new(7);
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
        transport.call(client, server, vec![0]).unwrap();
        let t0 = Instant::now();
        let slow = transport.submit(client, server, vec![1]);
        let mut fast = CompletionSet::new();
        for i in 0..8u8 {
            fast.push(transport.submit(client, server, vec![0, i]));
        }
        for (i, result) in fast.wait_all().into_iter().enumerate() {
            assert_eq!(result.unwrap().payload, vec![0, i as u8]);
        }
        assert!(
            t0.elapsed() < Duration::from_millis(300),
            "fast requests waited on the slow one: {:?}",
            t0.elapsed()
        );
        assert_eq!(slow.wait().unwrap().payload, vec![1]);
        assert!(t0.elapsed() >= Duration::from_millis(400));
        assert_eq!(transport.orphan_responses(), 0);
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
    fn dropping_the_transport_unwinds_every_worker() {
        let (transport, client, server) = echo_transport();
        transport.call(client, server, vec![1]).unwrap();
        let gauge = transport.thread_gauge();
        assert!(gauge.load(Ordering::SeqCst) > 0);
        drop(transport);
        // Receivers poll with a short socket timeout and the RTO timer
        // ticks every few ms: the whole backend must unwind promptly,
        // releasing sockets and the service.
        let t0 = Instant::now();
        while gauge.load(Ordering::SeqCst) > 0 {
            assert!(
                t0.elapsed() < Duration::from_secs(2),
                "{} workers still alive after drop",
                gauge.load(Ordering::SeqCst)
            );
            thread::sleep(Duration::from_millis(10));
        }
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
        let transport = QuicLiteTransport::new(7);
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
        // 48 requests at 100 ms on 4 workers would be ~1.2 s fully
        // queued; shedding bounds the tail by the admitted depth.
        assert!(
            elapsed < Duration::from_millis(700),
            "saturation wedged the dispatch queue: {elapsed:?}"
        );
        assert!(
            transport.dispatch_depth(server) <= 4,
            "admitted depth exceeded the policy cap"
        );
    }

    #[test]
    fn hot_principal_is_shed_before_quiet_one() {
        let transport = QuicLiteTransport::new(7);
        let server = transport.register("slow", None);
        transport.set_service(
            server,
            Arc::new(|_from: EndpointId, payload: &[u8]| {
                thread::sleep(Duration::from_millis(80));
                payload.to_vec()
            }),
        );
        // max_depth 8 → per-principal cap 4.
        transport.set_overload_policy(server, Some(test_policy(8)));
        let hot = transport.register("hot", None);
        let quiet = transport.register("quiet", None);
        let mut hot_set = CompletionSet::new();
        for i in 0..24u8 {
            hot_set.push(transport.submit(hot, server, vec![1, i]));
        }
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
    fn shed_plus_vanished_requester_releases_every_admission_slot() {
        // Regression for the leaked-slot wedge: flood a tiny admission
        // queue with a service that panics on half the requests (the
        // datagram analogue of a requester that will never read its
        // answer), then verify the gauge drains to zero and a
        // well-behaved caller is served, not shed forever.
        let transport = QuicLiteTransport::new(7);
        let server = transport.register("flaky", None);
        transport.set_service(
            server,
            Arc::new(|_from: EndpointId, payload: &[u8]| {
                thread::sleep(Duration::from_millis(30));
                assert_ne!(payload.get(1), Some(&1), "injected service bug");
                payload.to_vec()
            }),
        );
        transport.set_overload_policy(server, Some(test_policy(2)));
        let client = transport.register("client", None);
        transport.set_timeout_us(300_000);
        let mut set = CompletionSet::new();
        for i in 0..16u8 {
            // Odd requests panic the service (answered with silence).
            set.push(transport.submit(client, server, vec![i, i % 2]));
        }
        // Some complete, some time out (panicked ones): either way the
        // workers must have released every admitted slot.
        let _ = set.wait_all();
        thread::sleep(Duration::from_millis(200));
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
            "admission slots leaked across panics/timeouts"
        );
        transport.set_timeout_us(2_000_000);
        let transfer = transport
            .call(client, server, vec![9, 0])
            .expect("endpoint must still answer after the flood");
        assert!(
            !is_busy(&transfer.payload),
            "leaked admission slots left the endpoint shedding forever"
        );
    }

    #[test]
    fn dispatch_depth_high_water_and_shed_reset_with_stats() {
        let transport = QuicLiteTransport::new(7);
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
    fn clock_is_monotonic_wall_time() {
        let transport = QuicLiteTransport::new(1);
        let t0 = transport.now_us();
        thread::sleep(Duration::from_millis(2));
        assert!(transport.now_us() > t0);
        transport.advance_us(1_000_000); // no-op by contract
        assert!(transport.now_us() < 60_000_000);
    }
}
