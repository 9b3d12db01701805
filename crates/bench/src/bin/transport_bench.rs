//! Transport bench — SimNet-modelled vs real-loopback TCP vs QuicLite
//! reliable datagrams.
//!
//! Two sections:
//!
//! **Cold/warm search** runs the identical federated-search workload on
//! every wire backend and compares message counts (which must match
//! exactly: the batched wire discipline is transport-independent) and
//! latency (which must not: the simulator charges a modelled WAN,
//! loopback sockets charge reality).
//!
//! - **cold**: a fresh client whose session knows nothing — it pays
//!   DNS discovery plus one hello round before the search round;
//! - **warm**: the same client a moment later — discovery and hellos
//!   come from the session cache and the search costs exactly one
//!   batched envelope per discovered server.
//!
//! **Fan-out sweep** measures a warm route-leg-matrix-style scatter
//! round (one `RouteMatrix` envelope per server through one `Session`)
//! across fan-out widths 5 → 64 on every backend — the JSON lines feed
//! the `BENCH_transport.json` CI artifact, which now compares sim vs
//! tcp vs quiclite. This is the pipelining acceptance workload: with
//! the submit/completion reactor, a TCP round reuses one multiplexed
//! connection per server instead of spawning one thread per branch (on
//! QuicLite, one shared socket multiplexes everything), so warm
//! latency stays flat as the width grows. Every width runs on two
//! transports, measured round by round in turn: one alone, one beside
//! 64 warm idle endpoints (called once, then left alone). The process
//! CPU time per call is a column — a poller whose per-call cost grows
//! with the sockets it merely owns shows up there.
//!
//! **Slow-request sweep** pipelines fast requests behind one
//! deliberately slow request on a single TCP connection. With
//! concurrent server-side dispatch the fast requests complete at
//! unchanged latency while the slow one is in flight; before it, they
//! queued behind the slow request's entire service time.
//!
//! Latency is read off the transport clock: simulated microseconds on
//! `sim`, wall-clock microseconds on `tcp`.
//!
//! **Fleet sweep** (`--fleet`) deploys every venue as a replicated +
//! content-sharded serving fleet (replicas × shards grid) and measures
//! a warm, spatially narrow federated search on every backend: how
//! many shards the plan consulted, messages per round, and latency.
//! The worldgen shelf layout is spatially skewed, so the skew-aware
//! equal-count shard cuts give narrow queries something to prune — the
//! JSON lines feed the `BENCH_fleet.json` CI artifact, whose expected
//! shape is consulted < shards and msgs/round independent of the
//! replication factor.
//!
//! **Planner sweep** (`--planner`) deploys a wide worldgen fan-out and
//! measures identical warm queries with the coverage planner on vs off
//! (`docs/wire-protocol.md` spec §13): candidate sources considered,
//! sources actually consulted, sources pruned on proof, and the wire
//! cost of each arm. The sweep self-checks recall parity — both arms
//! must return byte-identical results while the planner arm consults
//! strictly fewer servers on the provably prunable kinds — and feeds
//! the `BENCH_planner.json` CI artifact.
//!
//! Flags: `--sweep` runs only the fan-out and slow-request sweeps
//! (fast, CI-friendly); `--fleet` runs only the fleet sweep;
//! `--planner` runs only the planner sweep; `--json` additionally
//! emits one JSON line per sweep point so the bench trajectory can be
//! recorded across commits.
//!
//! `cargo run --release -p openflame-bench --bin transport_bench [-- --sweep|--fleet|--planner] [-- --json]`

use openflame_bench::{header, mean, percentile, process_cpu_us, row};
use openflame_codec::{from_bytes, to_bytes};
use openflame_core::{Deployment, DeploymentConfig, OpenFlameClient, QueryKind, Session};
use openflame_mapserver::protocol::{Envelope, HelloInfo, Request, Response};
use openflame_mapserver::Principal;
use openflame_netsim::{BackendKind, CompletionSet, EndpointId, Transport, WireService};
use openflame_worldgen::{World, WorldConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const SEARCHES: usize = 15;
const SWEEP_WIDTHS: [usize; 6] = [5, 7, 8, 16, 32, 64];
/// Warm idle endpoints beside the measured ones.
const SWEEP_IDLE: [usize; 2] = [0, 64];
const SWEEP_REPS: usize = 200;
const SLOW_MS: u64 = 40;
const SLOW_FAST_REQS: usize = 16;
const SLOW_REPS: usize = 8;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let sweep_only = args.iter().any(|a| a == "--sweep");
    if args.iter().any(|a| a == "--fleet") {
        fleet_sweep(json);
        return;
    }
    if args.iter().any(|a| a == "--planner") {
        planner_sweep(json);
        return;
    }
    if !sweep_only {
        cold_warm_search();
    }
    fanout_sweep(json);
    slow_request_sweep(json);
}

fn cold_warm_search() {
    header(
        "TRANSPORT",
        "identical warm/cold search workload: simulator vs loopback TCP vs QuicLite datagrams",
    );
    row(&[
        "backend".into(),
        "servers".into(),
        "cold msgs".into(),
        "warm msgs".into(),
        "cold ms".into(),
        "warm ms".into(),
        "envelopes/search".into(),
    ]);
    for stores in [4usize, 8] {
        for backend in [BackendKind::Sim, BackendKind::Tcp, BackendKind::QuicLite] {
            let world = World::generate(WorldConfig {
                stores,
                products_per_store: 12,
                blocks_x: 8,
                blocks_y: 8,
                ..WorldConfig::default()
            });
            let dep = Deployment::build(
                world,
                DeploymentConfig {
                    backend,
                    ..DeploymentConfig::default()
                },
            );
            let mut rng = StdRng::seed_from_u64(7);
            let mut cold_msgs = Vec::new();
            let mut warm_msgs = Vec::new();
            let mut cold_ms = Vec::new();
            let mut warm_ms = Vec::new();
            let mut envelopes = Vec::new();
            for _ in 0..SEARCHES {
                let product = &dep.world.products[rng.gen_range(0..dep.world.products.len())];
                let near = dep.world.venues[product.venue]
                    .hint
                    .destination(rng.gen_range(0.0..360.0), rng.gen_range(0.0..100.0));
                // Cold: a fresh client with an empty session.
                let cold_client = OpenFlameClient::builder()
                    .build_on(dep.transport.clone(), dep.resolver.clone());
                dep.transport.reset_stats();
                let t0 = dep.transport.now_us();
                let _ = cold_client.federated_search(&product.name, near, 5);
                cold_msgs.push(dep.transport.stats().messages as f64);
                cold_ms.push((dep.transport.now_us() - t0) as f64 / 1000.0);
                // Warm: the same client again, caches populated.
                dep.transport.reset_stats();
                let batches_before = cold_client.session().stats().batches;
                let t0 = dep.transport.now_us();
                let _ = cold_client.federated_search(&product.name, near, 5);
                warm_msgs.push(dep.transport.stats().messages as f64);
                warm_ms.push((dep.transport.now_us() - t0) as f64 / 1000.0);
                envelopes.push((cold_client.session().stats().batches - batches_before) as f64);
            }
            row(&[
                dep.transport.kind().into(),
                format!("{}", stores + 1),
                format!("{:.0}", mean(&cold_msgs)),
                format!("{:.0}", mean(&warm_msgs)),
                format!("{:.2}", mean(&cold_ms)),
                format!("{:.2}", mean(&warm_ms)),
                format!("{:.0}", mean(&envelopes)),
            ]);
        }
    }
    println!(
        "\nexpected shape: message counts and envelopes/search are identical\n\
         across backends (the wire discipline is transport-independent);\n\
         warm msgs == 2 x discovered servers. Latency differs by design:\n\
         the simulator charges a modelled WAN round trip (~ms), loopback\n\
         TCP charges real kernel time (~tens of us warm). The cold/warm\n\
         ratio — what the session caches buy — shows up on both.\n"
    );
}

const FLEET_REPLICAS: [usize; 3] = [1, 2, 3];
const FLEET_SHARDS: [usize; 3] = [2, 4, 8];
const FLEET_SEARCHES: usize = 8;
const FLEET_NARROW_M: f64 = 5.0;

fn fleet_sweep(json: bool) {
    header(
        "FLEET SWEEP",
        "replicated + sharded venue fleets: warm narrow-search cost vs replicas x shards",
    );
    row(&[
        "backend".into(),
        "replicas".into(),
        "shards".into(),
        "consulted".into(),
        "msgs/round".into(),
        "warm mean us".into(),
        "warm p95 us".into(),
    ]);
    for backend in [BackendKind::Sim, BackendKind::Tcp, BackendKind::QuicLite] {
        for replicas in FLEET_REPLICAS {
            for shards in FLEET_SHARDS {
                let world = World::generate(WorldConfig {
                    stores: 4,
                    products_per_store: 16,
                    ..WorldConfig::default()
                });
                let dep = Deployment::build(
                    world,
                    DeploymentConfig {
                        backend,
                        replicas,
                        content_shards: shards,
                        ..DeploymentConfig::default()
                    },
                );
                let mut rng = StdRng::seed_from_u64(13);
                let mut consulted = Vec::new();
                let mut msgs = Vec::new();
                let mut lat_us = Vec::new();
                for _ in 0..FLEET_SEARCHES {
                    let product =
                        dep.world.products[rng.gen_range(0..dep.world.products.len())].clone();
                    let shelf_geo = dep
                        .world
                        .venue_point_to_geo(product.venue, product.shelf_pos);
                    // Warm: a wide search populates discovery and the
                    // hello caches of every consulted replica.
                    let _ = dep.client.federated_search(&product.name, shelf_geo, 3);
                    let plan = dep
                        .client
                        .plan_scatter(shelf_geo, FLEET_NARROW_M)
                        .expect("plan");
                    consulted.push(
                        plan.iter()
                            .filter(|s| s.server_id.starts_with("venue-"))
                            .count() as f64,
                    );
                    dep.transport.reset_stats();
                    let t0 = dep.transport.now_us();
                    let _ = dep.client.federated_search_within(
                        &product.name,
                        shelf_geo,
                        FLEET_NARROW_M,
                        3,
                    );
                    msgs.push(dep.transport.stats().messages as f64);
                    lat_us.push((dep.transport.now_us() - t0) as f64);
                }
                let (warm_mean, warm_p95) = (mean(&lat_us), percentile(&mut lat_us, 95.0));
                let (consulted_mean, msgs_mean) = (mean(&consulted), mean(&msgs));
                row(&[
                    dep.transport.kind().into(),
                    format!("{replicas}"),
                    format!("{shards}"),
                    format!("{consulted_mean:.1}"),
                    format!("{msgs_mean:.0}"),
                    format!("{warm_mean:.0}"),
                    format!("{warm_p95:.0}"),
                ]);
                if json {
                    println!(
                        "{{\"bench\":\"fleet_sweep\",\"backend\":\"{}\",\"replicas\":{replicas},\
                         \"shards\":{shards},\"searches\":{FLEET_SEARCHES},\
                         \"narrow_radius_m\":{FLEET_NARROW_M},\
                         \"consulted_shards_mean\":{consulted_mean:.2},\
                         \"msgs_per_round\":{msgs_mean:.1},\
                         \"warm_mean_us\":{warm_mean:.1},\"warm_p95_us\":{warm_p95:.1}}}",
                        dep.transport.kind(),
                    );
                }
            }
        }
    }
    println!(
        "\nexpected shape: consulted (fleet shards the plan touched, summed\n\
         over every adjoining venue fleet) stays nearly FLAT as shards\n\
         grows — the narrow cap intersects a few shard extents no matter\n\
         how finely each venue is partitioned, so consulted stays far\n\
         below venues x shards. Wire cost (msgs/round == 2 x (consulted +\n\
         outdoor)) does not grow with the replication factor either:\n\
         exactly one replica per consulted shard is spoken to. Latency\n\
         differences across backends are the usual modelled-WAN vs\n\
         loopback story."
    );
}

const PLANNER_STORES: [usize; 2] = [4, 8];
const PLANNER_REPS: usize = 8;

/// Runs one warm query `reps` times, returning the last result plus
/// mean transport messages and mean latency (transport-clock us).
fn measure<R>(dep: &Deployment, reps: usize, f: impl Fn() -> R) -> (R, f64, f64) {
    let mut msgs = Vec::with_capacity(reps);
    let mut lat_us = Vec::with_capacity(reps);
    let mut out = None;
    for _ in 0..reps {
        dep.transport.reset_stats();
        let t0 = dep.transport.now_us();
        out = Some(f());
        lat_us.push((dep.transport.now_us() - t0) as f64);
        msgs.push(dep.transport.stats().messages as f64);
    }
    (out.expect("reps > 0"), mean(&msgs), mean(&lat_us))
}

fn planner_sweep(json: bool) {
    header(
        "PLANNER SWEEP",
        "coverage-based pruning (wire-protocol spec §13): identical warm queries, planner on vs off",
    );
    row(&[
        "backend".into(),
        "stores".into(),
        "kind".into(),
        "considered".into(),
        "consulted on".into(),
        "consulted off".into(),
        "pruned".into(),
        "msgs on".into(),
        "msgs off".into(),
        "on mean us".into(),
        "off mean us".into(),
    ]);
    for backend in [BackendKind::Sim, BackendKind::Tcp, BackendKind::QuicLite] {
        for stores in PLANNER_STORES {
            let world = World::generate(WorldConfig {
                stores,
                products_per_store: 12,
                ..WorldConfig::default()
            });
            let dep = Deployment::build(
                world,
                DeploymentConfig {
                    backend,
                    ..DeploymentConfig::default()
                },
            );
            let off = OpenFlameClient::builder()
                .principal(Principal::anonymous())
                .world_provider(dep.outdoor_server.endpoint())
                .coverage_planner(false)
                .build_on(dep.transport.clone(), dep.resolver.clone());
            let center = dep.world.config.center;
            let product = dep.world.products[0].clone();
            let near = dep.world.venues[product.venue].hint;
            // Warm both arms: the search's two-phase handshake seeds
            // discovery, the hello cache and the coverage summaries of
            // every discovered server.
            let warm_on = dep
                .client
                .federated_search(&product.name, center, 3)
                .expect("warm-up search");
            let warm_off = off
                .federated_search(&product.name, center, 3)
                .expect("warm-up search");
            assert_eq!(warm_on, warm_off, "planner must not change warm-up recall");
            // Also warm the product-venue cell in both arms (the
            // shared resolver would otherwise bill the whole DNS walk
            // to whichever arm is measured first).
            dep.client
                .federated_search(&product.name, near, 3)
                .expect("warm-up search");
            off.federated_search(&product.name, near, 3)
                .expect("warm-up search");
            for kind in [
                QueryKind::Tile,
                QueryKind::ReverseGeocode,
                QueryKind::Search,
            ] {
                let (label, loc, radius_m, parity, msgs_on, msgs_off, lat_on, lat_off) = match kind
                {
                    QueryKind::Tile => {
                        let (a, m_on, l_on) = measure(&dep, PLANNER_REPS, || {
                            dep.client.federated_tile(center, 16).expect("tile")
                        });
                        let (b, m_off, l_off) = measure(&dep, PLANNER_REPS, || {
                            off.federated_tile(center, 16).expect("tile")
                        });
                        ("tiles", center, 200.0, a == b, m_on, m_off, l_on, l_off)
                    }
                    QueryKind::ReverseGeocode => {
                        let (a, m_on, l_on) = measure(&dep, PLANNER_REPS, || {
                            dep.client
                                .federated_reverse_geocode(center, 150.0)
                                .expect("rgeocode")
                        });
                        let (b, m_off, l_off) = measure(&dep, PLANNER_REPS, || {
                            off.federated_reverse_geocode(center, 150.0)
                                .expect("rgeocode")
                        });
                        ("rgeocode", center, 150.0, a == b, m_on, m_off, l_on, l_off)
                    }
                    _ => {
                        let (a, m_on, l_on) = measure(&dep, PLANNER_REPS, || {
                            dep.client
                                .federated_search(&product.name, near, 5)
                                .expect("search")
                        });
                        let (b, m_off, l_off) = measure(&dep, PLANNER_REPS, || {
                            off.federated_search(&product.name, near, 5)
                                .expect("search")
                        });
                        ("search", near, 2_000.0, a == b, m_on, m_off, l_on, l_off)
                    }
                };
                // Self-check 1: recall parity — pruning never changes
                // what a query returns (spec §13.3).
                assert!(parity, "recall parity violated for {label} on {backend:?}");
                let plan_on = dep.client.plan_query(kind, loc, radius_m).expect("plan");
                let plan_off = off.plan_query(kind, loc, radius_m).expect("plan");
                assert_eq!(plan_off.pruned_count(), 0, "planner off never prunes");
                assert_eq!(
                    plan_on.considered(),
                    plan_off.considered(),
                    "both arms consider the same candidates"
                );
                // Self-check 2: on the provably prunable kinds the
                // wide fan-out consults strictly fewer servers —
                // unaligned venues advertise zero tiles and zero
                // rgeocode documents (spec §13.1) — and for tiles the
                // saving is whole wire calls, not just plan rows
                // (rgeocode skips unanchored servers without a wire
                // call in both arms).
                if matches!(kind, QueryKind::Tile | QueryKind::ReverseGeocode) {
                    assert!(
                        plan_on.consulted() < plan_off.consulted(),
                        "{label} on {backend:?}: expected strictly fewer sources, \
                         got {} vs {}",
                        plan_on.consulted(),
                        plan_off.consulted()
                    );
                }
                if kind == QueryKind::Tile {
                    assert!(
                        msgs_on < msgs_off,
                        "tiles on {backend:?}: planner savings must be wire-real, \
                         got {msgs_on} vs {msgs_off} messages"
                    );
                }
                row(&[
                    dep.transport.kind().into(),
                    format!("{}", stores + 1),
                    label.into(),
                    format!("{}", plan_on.considered()),
                    format!("{}", plan_on.consulted()),
                    format!("{}", plan_off.consulted()),
                    format!("{}", plan_on.pruned_count()),
                    format!("{msgs_on:.0}"),
                    format!("{msgs_off:.0}"),
                    format!("{lat_on:.0}"),
                    format!("{lat_off:.0}"),
                ]);
                if json {
                    println!(
                        "{{\"bench\":\"planner_sweep\",\"backend\":\"{}\",\"stores\":{stores},\
                         \"kind\":\"{label}\",\"servers_considered\":{},\
                         \"servers_consulted\":{},\"servers_pruned\":{},\
                         \"consulted_off\":{},\"msgs_on\":{msgs_on:.1},\"msgs_off\":{msgs_off:.1},\
                         \"warm_mean_us_on\":{lat_on:.1},\"warm_mean_us_off\":{lat_off:.1}}}",
                        dep.transport.kind(),
                        plan_on.considered(),
                        plan_on.consulted(),
                        plan_on.pruned_count(),
                        plan_off.consulted(),
                    );
                }
            }
        }
    }
    println!(
        "\nexpected shape: considered is identical in both arms (the planner\n\
         only ever removes, never adds). On tiles and rgeocode every\n\
         unaligned venue is pruned on proof (zero advertised documents,\n\
         spec §13.1), so consulted on < consulted off by exactly the venue\n\
         count, and for tiles msgs on < msgs off by two messages per\n\
         pruned venue — the whole point of the planner. search prunes\n\
         only on a provably disjoint extent, which a query near the\n\
         product's own venue rarely triggers: expect pruned ~0 there,\n\
         with byte-identical results everywhere (the recall-parity\n\
         self-check would abort the sweep otherwise).\n"
    );
}

/// A leg-matrix-shaped stub server: answers `RouteMatrix` items with a
/// 1×1 cost matrix and anything else with a `Hello`, so a `Session`
/// can drive a scatter round without standing up a whole world.
fn matrix_stub(id: usize) -> Arc<dyn WireService> {
    Arc::new(move |_from: EndpointId, payload: &[u8]| {
        let env: Envelope = from_bytes(payload).expect("well-formed envelope");
        let Request::Batch(items) = env.request else {
            panic!("sessions always batch");
        };
        let answers: Vec<Response> = items
            .iter()
            .map(|item| match item {
                Request::RouteMatrix { entries, exits } => Response::RouteMatrix {
                    costs: vec![vec![1.0; exits.len()]; entries.len()],
                },
                _ => Response::Hello(HelloInfo {
                    server_id: format!("stub-{id}"),
                    map_name: "sweep".into(),
                    services: vec!["route".into()],
                    localization_techs: Vec::new(),
                    anchored: false,
                    anchor: None,
                    portals: Vec::new(),
                    version: 1,
                    coverage: None,
                }),
            })
            .collect();
        to_bytes(&Response::Batch(answers)).to_vec()
    })
}

fn fanout_sweep(json: bool) {
    header(
        "FAN-OUT SWEEP",
        "warm route leg-matrix scatter latency vs fan-out width (pipelined wire path)",
    );
    row(&[
        "backend".into(),
        "width".into(),
        "idle".into(),
        "warm mean us".into(),
        "warm p95 us".into(),
        "cpu us/call".into(),
        "msgs/round".into(),
        "consulted".into(),
        "pruned".into(),
        "threads".into(),
        "depth hw".into(),
        "shed".into(),
    ]);
    for backend in [BackendKind::Sim, BackendKind::Tcp, BackendKind::QuicLite] {
        for width in SWEEP_WIDTHS {
            // One transport per idle count, alive side by side and
            // measured round by round in turn, so drift in the host's
            // speed lands on every idle count alike.
            let mut arms: Vec<SweepArm> = SWEEP_IDLE
                .into_iter()
                .map(|idle| SweepArm::new(backend, width, idle))
                .collect();
            for _ in 0..SWEEP_REPS {
                for arm in &mut arms {
                    arm.measure_round();
                }
            }
            for arm in arms {
                arm.report(json);
            }
        }
    }
    println!(
        "\nexpected shape: msgs/round == 2 x width on every backend (one\n\
         batched envelope per server). On tcp, warm latency should stay\n\
         flat-ish as width grows: the reactor pipelines over pooled\n\
         connections instead of spawning one thread per branch, so a\n\
         64-wide scatter pays queueing, not thread churn. quiclite rides\n\
         one multiplexed datagram socket and typically undercuts tcp at\n\
         wide fan-outs (no per-connection pools at all). The simulator\n\
         charges max-of-branches by construction. consulted == width and\n\
         pruned == 0 here by design: the stubs advertise no coverage, so\n\
         the planner may not skip any of them (spec §13.3) — the\n\
         --planner sweep shows the pruned column doing work. threads is\n\
         the peak worker population and must be FLAT across widths: tcp\n\
         runs its\n\
         reactor pool + dispatch pool, quiclite its small constant, sim\n\
         dispatches inline (0). depth hw is the dispatch-queue high-water\n\
         across the stub servers and shed the transport's Busy-shed count\n\
         — no overload policy is installed here, so shed must be 0 and\n\
         depth hw small (see the loadgen harness for the contended case).\n\
         idle is the number of warm endpoints the transport owns but the\n\
         rounds never call; cpu us/call is process CPU time (all threads)\n\
         per measured call. Both must be flat across the idle column:\n\
         an event costs work for ready sockets only."
    );
}

/// One fan-out sweep configuration: `width` measured stub servers plus
/// `idle` warm stub servers on one transport, and what its measured
/// rounds have cost so far.
struct SweepArm {
    transport: Arc<dyn Transport>,
    session: Session,
    servers: Vec<EndpointId>,
    idle: Vec<EndpointId>,
    lat_us: Vec<f64>,
    cpu_us: u64,
    /// Peak worker-thread population over the measured rounds: the
    /// thread-budget acceptance column. On the real-socket backends
    /// this must stay flat as the width grows (tcp: reactor pool +
    /// dispatch pool; quiclite: its small constant); sim dispatches
    /// inline and reports 0.
    threads: usize,
}

impl SweepArm {
    fn new(backend: BackendKind, width: usize, idle: usize) -> Self {
        let transport = backend.build(9);
        let mut servers: Vec<EndpointId> = (0..width + idle)
            .map(|i| {
                let id = transport.register(&format!("stub-{i}"), None);
                transport.set_service(id, matrix_stub(i));
                id
            })
            .collect();
        let endpoint = transport.register("sweep-client", None);
        let session = Session::new(transport.clone(), endpoint, Principal::anonymous());
        // Warm-up: dial the pools / populate the sim endpoints. The idle
        // endpoints get their one call here and no other.
        round(&session, &servers);
        transport.reset_stats();
        let idle = servers.split_off(width);
        Self {
            threads: transport.worker_threads(),
            transport,
            session,
            servers,
            idle,
            lat_us: Vec::with_capacity(SWEEP_REPS),
            cpu_us: 0,
        }
    }

    fn measure_round(&mut self) {
        let cpu0 = process_cpu_us();
        let t0 = self.transport.now_us();
        round(&self.session, &self.servers);
        self.lat_us.push((self.transport.now_us() - t0) as f64);
        self.cpu_us += process_cpu_us() - cpu0;
        self.threads = self.threads.max(self.transport.worker_threads());
    }

    fn report(mut self, json: bool) {
        let transport = &self.transport;
        let (width, idle) = (self.servers.len(), self.idle.len());
        assert!(
            self.idle
                .iter()
                .all(|s| transport.endpoint_stats(*s).is_some_and(|e| e.rx_msgs == 0)),
            "idle endpoints stay idle while measured"
        );
        let reps = self.lat_us.len();
        let cpu_per_call = self.cpu_us as f64 / (reps * width) as f64;
        let msgs_per_round = transport.stats().messages as f64 / reps as f64;
        let warm_mean = mean(&self.lat_us);
        let warm_p95 = percentile(&mut self.lat_us, 95.0);
        let threads = self.threads;
        // Admission-control observability: the deepest any server's
        // dispatch queue got over the measured rounds, and how many
        // requests the transport shed (always 0 here — the stubs
        // install no overload policy, so the columns baseline the
        // uncontended case).
        let depth_hw = self
            .servers
            .iter()
            .map(|s| transport.dispatch_depth(*s))
            .max()
            .unwrap_or(0);
        let shed = transport.shed_requests();
        // Planner accounting for the artifact schema: the stubs
        // advertise no coverage summaries, so every branch has unknown
        // coverage and MUST be consulted (spec §13.3) — the sweep
        // scatters to all `width` servers and prunes none. The planner
        // sweep (`--planner`) is where the pruned column moves.
        let (consulted, pruned) = (width, 0usize);
        row(&[
            transport.kind().into(),
            format!("{width}"),
            format!("{idle}"),
            format!("{warm_mean:.0}"),
            format!("{warm_p95:.0}"),
            format!("{cpu_per_call:.1}"),
            format!("{msgs_per_round:.0}"),
            format!("{consulted}"),
            format!("{pruned}"),
            format!("{threads}"),
            format!("{depth_hw}"),
            format!("{shed}"),
        ]);
        if json {
            println!(
                "{{\"bench\":\"fanout_sweep\",\"backend\":\"{}\",\"width\":{width},\
                 \"idle_endpoints\":{idle},\"reps\":{reps},\
                 \"warm_mean_us\":{warm_mean:.1},\"warm_p95_us\":{warm_p95:.1},\
                 \"cpu_us_per_call\":{cpu_per_call:.2},\"msgs_per_round\":{msgs_per_round:.0},\
                 \"servers_consulted\":{consulted},\"servers_pruned\":{pruned},\
                 \"threads\":{threads},\"dispatch_depth_hw\":{depth_hw},\
                 \"shed_requests\":{shed}}}",
                transport.kind(),
            );
        }
    }
}

/// One warm route leg-matrix scatter round: one `RouteMatrix` envelope
/// per server through one `Session`.
fn round(session: &Session, servers: &[EndpointId]) {
    let calls: Vec<(EndpointId, Vec<Request>)> = servers
        .iter()
        .map(|s| {
            (
                *s,
                vec![Request::RouteMatrix {
                    entries: vec![1],
                    exits: vec![2, 3],
                }],
            )
        })
        .collect();
    for result in session.batch_parallel(calls) {
        result.expect("sweep branch succeeds");
    }
}

fn slow_request_sweep(json: bool) {
    header(
        "SLOW REQUEST",
        "fast pipelined requests while one slow request is in flight (tcp, one connection)",
    );
    row(&[
        "fast reqs".into(),
        "slow ms".into(),
        "baseline mean us".into(),
        "baseline p95 us".into(),
        "contended mean us".into(),
        "contended p95 us".into(),
    ]);
    let transport = BackendKind::Tcp.build(11);
    let server = transport.register("mixed-speed", None);
    // payload[0] == 1 marks the deliberately slow request.
    transport.set_service(
        server,
        Arc::new(|_from: EndpointId, payload: &[u8]| {
            if payload.first() == Some(&1) {
                std::thread::sleep(std::time::Duration::from_millis(SLOW_MS));
            }
            payload.to_vec()
        }),
    );
    let client = transport.register("client", None);
    // Warm the pool: every round below rides one pipelined connection.
    transport
        .call(client, server, vec![0])
        .expect("warm-up call");
    let fast_round = |contended: bool| -> Vec<f64> {
        let mut lat_us = Vec::with_capacity(SLOW_REPS * SLOW_FAST_REQS);
        for _ in 0..SLOW_REPS {
            let slow = contended.then(|| transport.submit(client, server, vec![1]));
            let mut set = CompletionSet::new();
            for i in 0..SLOW_FAST_REQS {
                set.push(transport.submit(client, server, vec![0, i as u8]));
            }
            for result in set.wait_all() {
                lat_us.push(result.expect("fast request").latency_us as f64);
            }
            if let Some(slow) = slow {
                slow.wait().expect("slow request");
            }
        }
        lat_us
    };
    // One unmeasured round soaks up scheduler/allocator cold start.
    let _ = fast_round(false);
    let mut baseline = fast_round(false);
    let mut contended = fast_round(true);
    let (base_mean, base_p95) = (mean(&baseline), percentile(&mut baseline, 95.0));
    let (cont_mean, cont_p95) = (mean(&contended), percentile(&mut contended, 95.0));
    row(&[
        format!("{SLOW_FAST_REQS}"),
        format!("{SLOW_MS}"),
        format!("{base_mean:.0}"),
        format!("{base_p95:.0}"),
        format!("{cont_mean:.0}"),
        format!("{cont_p95:.0}"),
    ]);
    if json {
        println!(
            "{{\"bench\":\"slow_request\",\"backend\":\"tcp\",\"fast_reqs\":{SLOW_FAST_REQS},\
             \"slow_ms\":{SLOW_MS},\"reps\":{SLOW_REPS},\
             \"baseline_mean_us\":{base_mean:.1},\"baseline_p95_us\":{base_p95:.1},\
             \"contended_mean_us\":{cont_mean:.1},\"contended_p95_us\":{cont_p95:.1}}}"
        );
    }
    println!(
        "\nexpected shape: contended ~= baseline (a few hundred us at most):\n\
         the server's dispatch pool answers fast requests out of order in\n\
         completion order while the slow request occupies one worker.\n\
         Before concurrent server-side dispatch, contended ~= slow ms —\n\
         every fast request queued behind the slow one's service time."
    );
}
