//! Workloads: a seeded open-loop trace of user operations, driven
//! through [`SpatialProvider`] on a [`Deployment`], with every answer
//! checked against the generated world's ground truth.

use crate::pin;
use crate::spans::{self, Tracer, TracingTransport, CLASSES};
use openflame_codec::{from_bytes, to_bytes};
use openflame_core::{
    ClientError, Deployment, DeploymentConfig, FederatedSearchHit, GeocodeQuery, LocalizeQuery,
    QueryKind, ReverseGeocodeQuery, RouteQuery, SearchQuery, SpatialProvider, TileQuery,
};
use openflame_geo::{LatLng, Mercator, Point2};
use openflame_localize::{GnssModel, LocationCue, RadioMap};
use openflame_mapdata::{ElementId, MapPatch, NodeId};
use openflame_mapserver::protocol::{Envelope, Request, Response};
use openflame_mapserver::Principal;
use openflame_netsim::{BackendKind, EndpointId, QuicLiteTransport, TcpTransport, Transport};
use openflame_worldgen::{World, WorldConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Op-class indices into [`CLASSES`].
const SEARCH: usize = 0;
/// Route op class.
const ROUTE: usize = 1;
/// Localize op class.
const LOCALIZE: usize = 2;
/// Tile op class.
const TILE: usize = 3;
/// Geocode and reverse-geocode op class.
const GEOCODE: usize = 4;
/// Operator patch op class.
pub const UPDATE: usize = 5;

/// Spans one traced run can hold (88 bytes each).
const SPAN_CAPACITY: usize = 300_000;
/// Products per restocked venue whose nodes the operator rewrites;
/// readers never search for them.
const RESTOCK_SLOTS: usize = 3;
/// Search radius of a user's "near me" query, meters.
const SEARCH_RADIUS_M: f64 = 1_000.0;
/// Radius of a reverse-geocode query, meters.
const REVERSE_RADIUS_M: f64 = 40.0;
/// Footprint radius the client plans localization scatters with,
/// meters.
const LOCALIZE_RADIUS_M: f64 = 150.0;
/// Margin around a venue map's extent inside which a beacon fix counts
/// as an answer to a cue observed in that venue, meters. The check
/// catches fixes from the wrong venue or in the wrong frame, not
/// fingerprinting accuracy: under 3 dB noise a few fixes in a thousand
/// land 10–25 m from the device while stating a 1–2 m error.
const BEACON_MARGIN_M: f64 = 5.0;
/// How far a geocoded venue may sit from its entrance, meters.
const GEOCODE_TOLERANCE_M: f64 = 60.0;
/// How far an outdoor fix may sit from the GNSS cue, meters.
const GNSS_TOLERANCE_M: f64 = 30.0;

/// Reader ops per deck of [`Mix::DECK`] arrivals, by class. Every
/// deck holds exactly these counts in a seeded shuffled order (see
/// [`Deck`]), so the mix is exact in every run and only its order
/// depends on the seed.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Product search near a venue.
    pub search: usize,
    /// Route from the street to a pre-resolved search hit.
    pub route: usize,
    /// Localization from device cues.
    pub localize: usize,
    /// Map tile around a venue.
    pub tile: usize,
    /// Forward geocode of a venue name.
    pub geocode: usize,
    /// Reverse geocode at a venue entrance.
    pub reverse_geocode: usize,
}

impl Mix {
    /// Arrivals per deck.
    pub const DECK: usize = 20;

    /// The counts as deck weights, in class-index order.
    fn weights(&self) -> [f64; 6] {
        let counts = [
            self.search,
            self.route,
            self.localize,
            self.tile,
            self.geocode,
            self.reverse_geocode,
        ];
        assert_eq!(counts.iter().sum::<usize>(), Self::DECK);
        counts.map(|n| n as f64)
    }
}

/// Zipf exponent of the venue popularity.
const ZIPF_S: f64 = 1.0;

/// Cards per venue deck: the Zipf popularity is exact over every 100
/// arrivals.
const VENUE_DECK: usize = 100;

/// Draws indices in exact proportions: each deck holds every index as
/// many times as its weight's share of the deck (largest remainders
/// round), in a seeded shuffled order.
struct Deck {
    counts: Vec<usize>,
    cards: Vec<usize>,
}

impl Deck {
    fn new(weights: &[f64], size: usize) -> Self {
        let total: f64 = weights.iter().sum();
        let exact: Vec<f64> = weights.iter().map(|w| w / total * size as f64).collect();
        let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
        let mut by_remainder: Vec<usize> = (0..weights.len()).collect();
        by_remainder.sort_by(|&a, &b| {
            (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor()))
        });
        let short = size - counts.iter().sum::<usize>();
        for &i in by_remainder.iter().take(short) {
            counts[i] += 1;
        }
        Self {
            counts,
            cards: Vec::new(),
        }
    }

    fn draw(&mut self, rng: &mut StdRng) -> usize {
        if self.cards.is_empty() {
            self.cards = self
                .counts
                .iter()
                .enumerate()
                .flat_map(|(i, &n)| std::iter::repeat_n(i, n))
                .collect();
            // Fisher–Yates.
            for i in (1..self.cards.len()).rev() {
                self.cards.swap(i, rng.gen_range(0..i + 1));
            }
        }
        self.cards.pop().expect("a deck holds at least one card")
    }
}

/// Arrival instants of a Poisson process at `rate` per second over
/// `horizon_us`, conditioned on its expected count: the count is exact
/// and the instants are uniform, so runs differ in timing, not in load.
fn instants(rng: &mut StdRng, rate: f64, horizon_us: u64) -> Vec<u64> {
    let n = (rate * horizon_us as f64 / 1e6).round() as usize;
    let mut at: Vec<u64> = (0..n).map(|_| rng.gen_range(0..horizon_us)).collect();
    at.sort_unstable();
    at
}

/// One workload's fixed parameters (mirrored in `BENCHMARK.json`).
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload name (the `--workload` argument).
    pub name: &'static str,
    /// Wire backend.
    pub backend: BackendKind,
    /// City blocks per side.
    pub blocks: usize,
    /// Venues in the city.
    pub stores: usize,
    /// Offered reader arrivals per second (errands per second when
    /// `errands`).
    pub rate: f64,
    /// Offered operator patches per second.
    pub patch_rate: f64,
    /// Venues readers visit (the most popular ones).
    pub hot_venues: usize,
    /// Reader op mix (ignored for errands).
    pub mix: Mix,
    /// Each arrival is the paper §2 errand on an empty session instead
    /// of one op on a warm one.
    pub errands: bool,
    /// Tile zoom levels drawn from.
    pub zooms: &'static [u8],
    /// Localize with GNSS on the street (one small datagram) instead of
    /// beacons inside the venue.
    pub outdoor_localize: bool,
}

/// Every workload, in `BENCHMARK.json` order.
pub fn specs() -> Vec<Spec> {
    // Geocode and reverse geocode share one latency class; an even split
    // would put its median in the gap between their two costs.
    let everyday = Mix {
        search: 6,
        route: 3,
        localize: 5,
        tile: 2,
        geocode: 3,
        reverse_geocode: 1,
    };
    vec![
        Spec {
            name: "warm_city_tcp",
            backend: BackendKind::Tcp,
            blocks: 6,
            stores: 8,
            rate: 300.0,
            patch_rate: 0.0,
            hot_venues: 8,
            mix: everyday,
            errands: false,
            zooms: &[16, 17],
            outdoor_localize: false,
        },
        Spec {
            name: "cold_errands_sim",
            backend: BackendKind::Sim,
            blocks: 12,
            stores: 24,
            rate: 40.0,
            patch_rate: 0.0,
            hot_venues: 24,
            mix: everyday,
            errands: true,
            zooms: &[17],
            outdoor_localize: false,
        },
        Spec {
            name: "restock_tcp",
            backend: BackendKind::Tcp,
            blocks: 6,
            stores: 8,
            rate: 300.0,
            patch_rate: 5.0,
            hot_venues: 3,
            mix: everyday,
            errands: false,
            zooms: &[16, 17],
            outdoor_localize: false,
        },
        Spec {
            name: "tiles_quiclite",
            backend: BackendKind::QuicLite,
            blocks: 6,
            stores: 8,
            rate: 40.0,
            patch_rate: 0.0,
            hot_venues: 4,
            mix: Mix {
                search: 4,
                route: 3,
                localize: 6,
                tile: 3,
                geocode: 0,
                reverse_geocode: 4,
            },
            errands: false,
            zooms: &[15, 16, 17, 18],
            outdoor_localize: true,
        },
    ]
}

/// One step of an arrival.
#[derive(Debug, Clone)]
pub enum Step {
    /// Search a product near its venue.
    Search {
        /// Index into `world.products`.
        product: usize,
        /// Where the user stands.
        at: LatLng,
    },
    /// Route from the street to a product's shelf.
    Route {
        /// Index into `world.products`.
        product: usize,
        /// Where the user starts.
        from: LatLng,
    },
    /// Localize from device cues.
    Localize {
        /// Venue the device is at.
        venue: usize,
        /// Coarse position driving discovery.
        coarse: LatLng,
        /// The cues.
        cues: Vec<LocationCue>,
        /// The device is inside the venue, observing its beacons.
        indoor: bool,
    },
    /// A map tile.
    Tile {
        /// Position the tile must cover.
        center: LatLng,
        /// Zoom level.
        z: u8,
    },
    /// Forward geocode of a venue name.
    Geocode {
        /// Venue index.
        venue: usize,
    },
    /// Reverse geocode at a position.
    ReverseGeocode {
        /// Query position.
        location: LatLng,
    },
    /// Operator restock patch.
    Restock {
        /// Venue index.
        venue: usize,
    },
}

impl Step {
    /// The step's op class index.
    pub fn class(&self) -> usize {
        match self {
            Step::Search { .. } => SEARCH,
            Step::Route { .. } => ROUTE,
            Step::Localize { .. } => LOCALIZE,
            Step::Tile { .. } => TILE,
            Step::Geocode { .. } | Step::ReverseGeocode { .. } => GEOCODE,
            Step::Restock { .. } => UPDATE,
        }
    }

    /// What the step's op asks the planner: kind, location and
    /// footprint radius (`None` for steps that do not plan one scatter).
    pub fn plan_probe(&self) -> Option<(QueryKind, LatLng, f64)> {
        match self {
            Step::Search { at, .. } => Some((QueryKind::Search, *at, SEARCH_RADIUS_M)),
            Step::Localize { coarse, .. } => {
                Some((QueryKind::Localize, *coarse, LOCALIZE_RADIUS_M))
            }
            Step::Tile { center, .. } => Some((QueryKind::Tile, *center, 1.0)),
            Step::ReverseGeocode { location } => {
                Some((QueryKind::ReverseGeocode, *location, REVERSE_RADIUS_M))
            }
            Step::Route { .. } | Step::Geocode { .. } | Step::Restock { .. } => None,
        }
    }
}

/// One scheduled arrival: a single op, or a whole errand.
#[derive(Debug, Clone)]
pub struct Arrival {
    /// Scheduled instant, microseconds from the start of the trace.
    pub at_us: u64,
    /// Generator thread that issues it.
    pub thread: usize,
    /// Start from an empty session (cold errands).
    pub fresh_session: bool,
    /// Steps, run back to back.
    pub steps: Vec<Step>,
}

/// A running deployment plus what the generators need from setup.
pub struct Bench {
    /// The workload.
    pub spec: Spec,
    /// The deployment under test.
    pub dep: Deployment,
    /// The concrete QuicLite transport, for its packet counters.
    pub quic: Option<QuicLiteTransport>,
    /// The span store, when the deployment runs on the tracing
    /// decorator.
    pub tracer: Option<Arc<Tracer>>,
    /// Pre-resolved search hit per product (index into
    /// `world.products`), for route ops.
    hits: Vec<Option<FederatedSearchHit>>,
    /// Operator endpoint sending patches.
    operator: EndpointId,
    /// Products readers may target, per venue.
    readable: Vec<Vec<usize>>,
    /// Restock slots (product indices) per venue.
    slots: Vec<Vec<usize>>,
    /// Last map version the operator saw acked, per venue. Only the
    /// operator thread writes it.
    acked: Vec<AtomicU64>,
    /// Venue radio maps, for beacon cues.
    radio: Vec<RadioMap>,
}

/// How an op went wrong.
#[derive(Debug)]
pub enum Failure {
    /// Shed, timed out or lost on the wire: counted as failed.
    Failed(String),
    /// A wrong answer: the benchmark fails.
    Wrong(String),
}

fn client_failure(e: ClientError) -> Failure {
    match e {
        ClientError::Overloaded { .. }
        | ClientError::Network(_)
        | ClientError::PartialFailure { .. } => Failure::Failed(e.to_string()),
        other => Failure::Wrong(other.to_string()),
    }
}

fn wrong(msg: String) -> Result<(), Failure> {
    Err(Failure::Wrong(msg))
}

/// The street point a user starts from near a venue.
fn street_point(world: &World, venue: usize) -> LatLng {
    world.venues[venue].hint.destination(225.0, 80.0)
}

/// Geographic position of an outdoor-map node.
fn outdoor_geo(world: &World, node: NodeId) -> LatLng {
    let pos = world.outdoor.node(node).expect("outdoor node exists").pos;
    world.city_frame().from_local(pos)
}

impl Bench {
    /// Generates the city, builds the deployment (on the tracing
    /// decorator when `traced`) and warms it.
    pub fn setup(spec: &Spec, seed: u64, traced: bool) -> Result<Self, Failure> {
        let world = World::generate(WorldConfig {
            blocks_x: spec.blocks,
            blocks_y: spec.blocks,
            stores: spec.stores,
            ..WorldConfig::default()
        });
        let (raw, quic): (Arc<dyn Transport>, Option<QuicLiteTransport>) = match spec.backend {
            BackendKind::QuicLite => {
                let quic = QuicLiteTransport::new(seed);
                (Arc::new(quic.clone()), Some(quic))
            }
            BackendKind::Tcp => (Arc::new(TcpTransport::new(seed)), None),
            BackendKind::Sim => (BackendKind::Sim.build(seed), None),
        };
        let tracer = traced.then(|| Tracer::new(SPAN_CAPACITY));
        let transport: Arc<dyn Transport> = match &tracer {
            Some(t) => Arc::new(TracingTransport::new(raw, t.clone())),
            None => raw,
        };
        let dep = Deployment::build_on(
            transport.clone(),
            world,
            DeploymentConfig {
                backend: spec.backend,
                net_seed: seed,
                ..DeploymentConfig::default()
            },
        );
        let operator = transport.register("restock-operator", None);
        let venues = dep.world.venues.len();
        let mut readable: Vec<Vec<usize>> = vec![Vec::new(); venues];
        let mut slots: Vec<Vec<usize>> = vec![Vec::new(); venues];
        for (i, p) in dep.world.products.iter().enumerate() {
            readable[p.venue].push(i);
        }
        if spec.patch_rate > 0.0 {
            for (r, s) in readable.iter_mut().zip(slots.iter_mut()) {
                *s = r.split_off(r.len() - RESTOCK_SLOTS);
            }
        }
        // Only `RadioMap::observe` is used, which depends on the beacons
        // alone; the survey grid matches the one the grocery scenario uses.
        let radio = dep
            .world
            .venues
            .iter()
            .map(|v| {
                RadioMap::survey(
                    v.beacons.clone(),
                    Point2::new(-5.0, -5.0),
                    Point2::new(60.0, 45.0),
                    2.0,
                )
            })
            .collect();
        let acked = dep
            .venue_servers
            .iter()
            .map(|s| AtomicU64::new(s.with_map(|m| m.meta().version)))
            .collect();
        let mut bench = Self {
            spec: spec.clone(),
            acked,
            hits: vec![None; dep.world.products.len()],
            dep,
            quic,
            tracer,
            operator,
            readable,
            slots,
            radio,
        };
        bench.warm_up(seed)?;
        Ok(bench)
    }

    /// Runs every op class once per hot venue, so caches, connections
    /// and pre-resolved route targets are in place before timing. Cold
    /// errand workloads warm only the shared resolver: their sessions
    /// start empty by design.
    fn warm_up(&mut self, seed: u64) -> Result<(), Failure> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let venues = self.spec.hot_venues.min(self.dep.world.venues.len());
        if !self.spec.errands {
            for v in 0..venues {
                for &p in &self.readable[v] {
                    let at = street_point(&self.dep.world, v);
                    self.hits[p] = Some(self.search(p, at)?);
                }
            }
        }
        let mut ctx = Ctx::new();
        for v in 0..venues {
            let arrival = if self.spec.errands {
                self.errand(&mut rng, v)
            } else {
                let p = self.readable[v][0];
                let at = street_point(&self.dep.world, v);
                let mut steps = vec![
                    Step::Route {
                        product: p,
                        from: at,
                    },
                    self.localize_step(&mut rng, v, self.spec.outdoor_localize),
                    Step::Geocode { venue: v },
                    self.reverse_step(v),
                ];
                steps.extend(self.spec.zooms.iter().map(|&z| Step::Tile {
                    center: self.dep.world.venues[v].hint,
                    z,
                }));
                Arrival {
                    at_us: 0,
                    thread: 0,
                    fresh_session: false,
                    steps,
                }
            };
            for step in &arrival.steps {
                self.run_step(step, &mut ctx)?;
            }
        }
        if self.spec.errands {
            self.dep.client.session().invalidate();
        }
        Ok(())
    }

    /// Searches `product` from `at`; checks that the top hit is the
    /// product, served by its venue.
    fn search(&self, product: usize, at: LatLng) -> Result<FederatedSearchHit, Failure> {
        let truth = &self.dep.world.products[product];
        let outcome = self
            .dep
            .client
            .search(SearchQuery {
                query: truth.name.clone(),
                location: at,
                radius_m: SEARCH_RADIUS_M,
                k: 5,
            })
            .map_err(client_failure)?;
        let Some(top) = outcome.hits.into_iter().next() else {
            return Err(Failure::Wrong(format!("search {:?}: no hits", truth.name)));
        };
        // Several venues may stock a product of the same name; any of
        // them answers the query.
        if top.result.label != truth.name || self.shelf_of(&top).is_none() {
            return Err(Failure::Wrong(format!(
                "search {:?}: top hit {:?} from {}, which does not stock it",
                truth.name, top.result.label, top.server_id
            )));
        }
        Ok(top)
    }

    /// The shelf node a search hit names, if the venue that served it
    /// stocks a product of that name on that node.
    fn shelf_of(&self, hit: &FederatedSearchHit) -> Option<u64> {
        let venue: usize = hit.server_id.strip_prefix("venue-")?.parse().ok()?;
        let ElementId::Node(node) = hit.result.element else {
            return None;
        };
        self.dep
            .world
            .products
            .iter()
            .any(|p| p.venue == venue && p.name == hit.result.label && p.shelf == node)
            .then_some(node.0)
    }

    /// Localization cues at `venue`: one GNSS fix on the street when
    /// `outdoor`, else beacon readings at a shelf inside.
    fn localize_step(&self, rng: &mut StdRng, venue: usize, outdoor: bool) -> Step {
        let world = &self.dep.world;
        if outdoor {
            let truth = street_point(world, venue)
                .destination(rng.gen_range(0.0..360.0), rng.gen_range(0.0..30.0));
            let cue = GnssModel::default()
                .sample(rng, truth, false)
                .expect("outdoor fixes always exist");
            let LocationCue::Gnss { fix, .. } = &cue else {
                unreachable!("GNSS model yields GNSS cues")
            };
            return Step::Localize {
                venue,
                coarse: *fix,
                cues: vec![cue],
                indoor: false,
            };
        }
        let products = &self.readable[venue];
        let shelf = world.products[products[rng.gen_range(0..products.len())]].shelf_pos;
        Step::Localize {
            venue,
            coarse: world.venues[venue].hint,
            cues: vec![self.radio[venue].observe(rng, shelf, 3.0)],
            indoor: true,
        }
    }

    fn reverse_step(&self, venue: usize) -> Step {
        Step::ReverseGeocode {
            location: outdoor_geo(
                &self.dep.world,
                self.dep.world.venues[venue].entrance_outdoor,
            ),
        }
    }

    /// The paper §2 errand at `venue`: find the store, look at the map,
    /// find the product, walk there while localizing (once on the
    /// street, twice inside, so the localize median falls within one
    /// technique's cost).
    fn errand(&self, rng: &mut StdRng, venue: usize) -> Arrival {
        let products = &self.readable[venue];
        let product = products[rng.gen_range(0..products.len())];
        let at = street_point(&self.dep.world, venue);
        let street_fix = self.localize_step(rng, venue, true);
        Arrival {
            at_us: 0,
            thread: 0,
            fresh_session: true,
            steps: vec![
                Step::Geocode { venue },
                Step::Tile {
                    center: self.dep.world.venues[venue].hint,
                    z: self.spec.zooms[rng.gen_range(0..self.spec.zooms.len())],
                },
                Step::Search { product, at },
                Step::Route { product, from: at },
                street_fix,
                self.localize_step(rng, venue, false),
                self.localize_step(rng, venue, false),
            ],
        }
    }

    /// The seeded trace for `seconds` of offered load.
    pub fn trace(&self, seed: u64, seconds: f64) -> Vec<Arrival> {
        let mut rng = StdRng::seed_from_u64(seed);
        let spec = &self.spec;
        let horizon_us = (seconds * 1e6) as u64;
        let generators = self.generators();
        let hot = spec.hot_venues.min(self.dep.world.venues.len());
        let zipf: Vec<f64> = (1..=hot).map(|k| 1.0 / (k as f64).powf(ZIPF_S)).collect();
        let mut venues = Deck::new(&zipf, VENUE_DECK);
        let mut classes = Deck::new(&spec.mix.weights(), Mix::DECK);
        let mut out = Vec::new();
        for t in instants(&mut rng, spec.rate, horizon_us) {
            let venue = venues.draw(&mut rng);
            let pick = classes.draw(&mut rng);
            let mut arrival = if spec.errands {
                self.errand(&mut rng, venue)
            } else {
                Arrival {
                    at_us: 0,
                    thread: 0,
                    fresh_session: false,
                    steps: vec![self.reader_step(&mut rng, venue, pick)],
                }
            };
            arrival.at_us = t;
            // Tiles take the last generator, so light ops never queue
            // behind a multi-millisecond tile on the same thread.
            if pick == TILE && !spec.errands {
                arrival.thread = generators - 1;
            }
            out.push(arrival);
        }
        if spec.patch_rate > 0.0 {
            // The operator shares the tile generator: one thread applies
            // every patch, so versions advance in order, while the light
            // readers on generator 0 hit the patched venues concurrently.
            for t in instants(&mut rng, spec.patch_rate, horizon_us) {
                out.push(Arrival {
                    at_us: t,
                    thread: generators - 1,
                    fresh_session: false,
                    steps: vec![Step::Restock {
                        venue: venues.draw(&mut rng),
                    }],
                });
            }
            out.sort_by_key(|a| a.at_us);
        }
        out
    }

    /// A reader op of class index `pick` (see [`Mix`]) at `venue`.
    fn reader_step(&self, rng: &mut StdRng, venue: usize, pick: usize) -> Step {
        let world = &self.dep.world;
        let products = &self.readable[venue];
        let product = products[rng.gen_range(0..products.len())];
        let at = street_point(world, venue);
        match pick {
            0 => Step::Search { product, at },
            1 => Step::Route { product, from: at },
            2 => self.localize_step(rng, venue, self.spec.outdoor_localize),
            3 => Step::Tile {
                center: world.venues[venue]
                    .hint
                    .destination(rng.gen_range(0.0..360.0), rng.gen_range(0.0..50.0)),
                z: self.spec.zooms[rng.gen_range(0..self.spec.zooms.len())],
            },
            4 => Step::Geocode { venue },
            _ => self.reverse_step(venue),
        }
    }

    /// Generator threads this run uses: one per core the process was
    /// allowed at start-up, at most two (one for tiles and patches, one
    /// for light reads).
    pub fn generators(&self) -> usize {
        if self.spec.backend == BackendKind::Sim {
            // The simulator models concurrency in simulated time from
            // one driving thread.
            1
        } else {
            pin::cores().min(2)
        }
    }

    /// Runs one step and checks its answer.
    fn run_step(&self, step: &Step, ctx: &mut Ctx) -> Result<(), Failure> {
        let client = &self.dep.client;
        let world = &self.dep.world;
        match step {
            Step::Search { product, at } => {
                ctx.last_hit = Some((*product, self.search(*product, *at)?));
                Ok(())
            }
            Step::Route { product, from } => {
                let hit = match ctx.last_hit.take() {
                    Some((p, hit)) if p == *product => hit,
                    _ => self.hits[*product].clone().ok_or_else(|| {
                        Failure::Wrong(format!("route: product {product} has no resolved hit"))
                    })?,
                };
                let shelf = self.shelf_of(&hit);
                let outcome = client
                    .route(RouteQuery {
                        from: *from,
                        target: hit,
                    })
                    .map_err(client_failure)?;
                let end = outcome
                    .route
                    .legs
                    .last()
                    .and_then(|leg| leg.route.nodes.last().copied());
                if end.is_none() || end != shelf {
                    return wrong(format!("route: ends at {end:?}, shelf is {shelf:?}"));
                }
                Ok(())
            }
            Step::Localize {
                venue,
                coarse,
                cues,
                indoor,
            } => {
                let outcome = client
                    .localize(LocalizeQuery {
                        coarse: *coarse,
                        cues: cues.clone(),
                    })
                    .map_err(client_failure)?;
                let near = if *indoor {
                    let server = format!("venue-{venue}");
                    let (lo, hi) = world.venues[*venue]
                        .map
                        .local_bounds()
                        .expect("venue maps have nodes");
                    let m = BEACON_MARGIN_M;
                    let inside = |p: Point2| {
                        p.x >= lo.x - m && p.x <= hi.x + m && p.y >= lo.y - m && p.y <= hi.y + m
                    };
                    outcome
                        .estimates
                        .iter()
                        .any(|e| e.server_id == server && inside(e.estimate.pos))
                } else {
                    outcome.estimates.iter().any(|e| {
                        e.geo
                            .is_some_and(|g| g.haversine_distance(*coarse) <= GNSS_TOLERANCE_M)
                    })
                };
                if !near {
                    return wrong(format!(
                        "localize at venue {venue} (indoor: {indoor}): no estimate near the cue in {:?}",
                        outcome.estimates
                    ));
                }
                Ok(())
            }
            Step::Tile { center, z } => {
                let outcome = client
                    .tile(TileQuery {
                        center: *center,
                        z: *z,
                    })
                    .map_err(client_failure)?;
                let (x, y) = Mercator::tile_for(*center, *z);
                let c = outcome.tile.coord;
                if (c.z, c.x, c.y) != (*z, x, y) || outcome.tile.coverage() <= 0.0 {
                    return wrong(format!(
                        "tile z{z}/{x}/{y}: got {c:?}, coverage {}",
                        outcome.tile.coverage()
                    ));
                }
                Ok(())
            }
            Step::Geocode { venue } => {
                let name = &world.venues[*venue].name;
                let outcome = client
                    .geocode(GeocodeQuery {
                        query: name.clone(),
                        k: 3,
                    })
                    .map_err(client_failure)?;
                // The venue's outdoor elements ("FreshMart #1",
                // "FreshMart #1 entrance", ...) all place the user at it.
                let entrance = outdoor_geo(world, world.venues[*venue].entrance_outdoor);
                let names_venue =
                    |label: &str| label == name.as_str() || label.starts_with(&format!("{name} "));
                match outcome.hits.first() {
                    Some(top)
                        if names_venue(&top.hit.label)
                            && top.geo.is_some_and(|g| {
                                g.haversine_distance(entrance) <= GEOCODE_TOLERANCE_M
                            }) =>
                    {
                        Ok(())
                    }
                    other => wrong(format!("geocode {name:?}: top hit {other:?}")),
                }
            }
            Step::ReverseGeocode { location } => {
                let outcome = client
                    .reverse_geocode(ReverseGeocodeQuery {
                        location: *location,
                        radius_m: REVERSE_RADIUS_M,
                    })
                    .map_err(client_failure)?;
                let near = outcome
                    .hit
                    .as_ref()
                    .and_then(|h| h.geo)
                    .is_some_and(|g| g.haversine_distance(*location) <= REVERSE_RADIUS_M);
                if !near {
                    return wrong(format!("reverse geocode {location}: hit {:?}", outcome.hit));
                }
                Ok(())
            }
            Step::Restock { venue } => self.restock(*venue),
        }
    }

    /// Sends one restock patch for `venue` on the last acked version and
    /// checks that the ack advances it by one. The restocked labels are
    /// checked by [`Bench::check_restock`].
    fn restock(&self, venue: usize) -> Result<(), Failure> {
        let server = &self.dep.venue_servers[venue];
        let base = self.acked[venue].load(Ordering::Relaxed);
        let venue_map = &self.dep.world.venues[venue].map;
        let mut patch = MapPatch::new(base);
        for (j, &p) in self.slots[venue].iter().enumerate() {
            let shelf = self.dep.world.products[p].shelf;
            let mut node = venue_map.node(shelf).expect("shelf node exists").clone();
            node.tags = node.tags.with("name", restock_label(venue, base + 1, j));
            patch.upsert_nodes.push(node);
        }
        let envelope = Envelope {
            principal: Principal::user("operator@restock.test"),
            request: Request::ApplyPatch { patch },
        };
        let transfer = self
            .dep
            .transport
            .call(
                self.operator,
                server.endpoint(),
                to_bytes(&envelope).to_vec(),
            )
            .map_err(|e| Failure::Failed(format!("patch: {e}")))?;
        match from_bytes::<Response>(&transfer.payload) {
            Ok(Response::PatchApplied { version }) if version == base + 1 => {
                self.acked[venue].store(version, Ordering::Relaxed);
                Ok(())
            }
            Ok(Response::Busy { .. }) => Err(Failure::Failed("patch shed".into())),
            other => wrong(format!(
                "patch on venue {venue} v{base}: got {other:?}, expected v{}",
                base + 1
            )),
        }
    }

    /// A later search finds the label the last patch wrote.
    fn check_restock(&self, venue: usize) -> Result<(), Failure> {
        let version = self.acked[venue].load(Ordering::Relaxed);
        let label = restock_label(venue, version, 0);
        let outcome = self
            .dep
            .client
            .search(SearchQuery {
                query: label.clone(),
                location: street_point(&self.dep.world, venue),
                radius_m: SEARCH_RADIUS_M,
                k: 3,
            })
            .map_err(client_failure)?;
        match outcome.hits.first() {
            Some(top) if top.result.label == label => Ok(()),
            other => wrong(format!("restocked label {label:?}: top hit {other:?}")),
        }
    }
}

/// The name a restock patch gives slot `slot` of `venue` at `version`.
fn restock_label(venue: usize, version: u64, slot: usize) -> String {
    format!("Restock lot{version}x{venue} slot{slot}")
}

/// Per-thread state and tallies, merged after the threads join.
#[derive(Default)]
pub struct Ctx {
    last_hit: Option<(usize, FederatedSearchHit)>,
    /// Latency samples per op class, microseconds from the instant the
    /// op was due.
    pub samples: Vec<Vec<f64>>,
    /// Generator lag per arrival, microseconds.
    pub lag_us: Vec<f64>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops shed, timed out or lost.
    pub failed: u64,
    /// Wrong answers, with the first few messages.
    pub wrong: Vec<String>,
    /// Wrong-answer count.
    pub wrong_count: u64,
}

impl Ctx {
    fn new() -> Self {
        Self {
            samples: vec![Vec::new(); CLASSES.len()],
            ..Self::default()
        }
    }

    /// Folds another thread's tallies into this one.
    pub fn merge(&mut self, other: Ctx) {
        for (into, from) in self.samples.iter_mut().zip(other.samples) {
            into.extend(from);
        }
        self.lag_us.extend(other.lag_us);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong_count += other.wrong_count;
        self.wrong.extend(other.wrong);
        self.wrong.truncate(5);
    }

    fn note(&mut self, outcome: Result<(), Failure>) {
        self.attempted += 1;
        match outcome {
            Ok(()) => {}
            Err(Failure::Failed(_)) => self.failed += 1,
            Err(Failure::Wrong(msg)) => {
                self.wrong_count += 1;
                if self.wrong.len() < 5 {
                    self.wrong.push(msg);
                }
            }
        }
    }
}

/// Drives `trace` open-loop from the bench's generator threads and
/// returns the merged tallies and the wall time from the first due
/// instant to the last completion.
pub fn drive(bench: &Bench, trace: &[Arrival]) -> (Ctx, Duration) {
    let generators = bench.generators();
    let t0 = Instant::now();
    let mut merged = Ctx::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..generators)
            .map(|g| {
                scope.spawn(move || {
                    let mut ctx = Ctx::new();
                    for (seq, arrival) in trace.iter().filter(|a| a.thread == g).enumerate() {
                        run_arrival(
                            bench,
                            arrival,
                            t0,
                            (g as u64) << 40 | (seq as u64 + 1),
                            &mut ctx,
                        );
                    }
                    ctx
                })
            })
            .collect();
        for h in handles {
            merged.merge(h.join().expect("generator thread panicked"));
        }
    });
    (merged, t0.elapsed())
}

fn run_arrival(bench: &Bench, arrival: &Arrival, t0: Instant, op_base: u64, ctx: &mut Ctx) {
    let due = t0 + Duration::from_micros(arrival.at_us);
    loop {
        let now = Instant::now();
        if now >= due {
            break;
        }
        std::thread::sleep(due - now);
    }
    ctx.lag_us.push(due.elapsed().as_secs_f64() * 1e6);
    if arrival.fresh_session {
        bench.dep.client.session().invalidate();
    }
    // The first step is due at the arrival instant; each later step is
    // due when the one before it completes.
    let mut step_due = due;
    for (i, step) in arrival.steps.iter().enumerate() {
        let op = op_base << 4 | i as u64;
        let tracer = bench.tracer.as_ref().filter(|t| t.enabled());
        let start_ns = tracer.map_or(0, |t| t.now_ns());
        let outcome = spans::with_op(op, || bench.run_step(step, ctx));
        let done = Instant::now();
        if let Some(t) = tracer {
            t.record_root(op, step.class(), start_ns, t.now_ns());
        }
        if outcome.is_ok() {
            ctx.samples[step.class()].push((done - step_due).as_secs_f64() * 1e6);
        }
        step_due = done;
        let restocked = match (&outcome, step) {
            (Ok(()), Step::Restock { venue }) => Some(*venue),
            _ => None,
        };
        ctx.note(outcome);
        if let Some(venue) = restocked {
            // The later search that must find the restocked label, timed
            // as a search op.
            let check = bench.check_restock(venue);
            if check.is_ok() {
                ctx.samples[SEARCH].push(step_due.elapsed().as_secs_f64() * 1e6);
            }
            step_due = Instant::now();
            ctx.note(check);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decks_hold_exact_proportions_in_seeded_order() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut deck = Deck::new(&[6.0, 3.0, 1.0], 20);
        let drawn: Vec<usize> = (0..40).map(|_| deck.draw(&mut rng)).collect();
        for half in drawn.chunks(20) {
            let count = |i| half.iter().filter(|&&c| c == i).count();
            assert_eq!((count(0), count(1), count(2)), (12, 6, 2));
        }
        let mut again = Deck::new(&[6.0, 3.0, 1.0], 20);
        let mut rng = StdRng::seed_from_u64(3);
        let replay: Vec<usize> = (0..40).map(|_| again.draw(&mut rng)).collect();
        assert_eq!(drawn, replay);
        // Largest remainders round a Zipf deck to its exact size.
        let zipf: Vec<f64> = (1..=24).map(|k| 1.0 / k as f64).collect();
        assert_eq!(
            Deck::new(&zipf, VENUE_DECK).counts.iter().sum::<usize>(),
            VENUE_DECK
        );
    }

    #[test]
    fn arrival_counts_are_exact_and_sorted() {
        let mut rng = StdRng::seed_from_u64(9);
        let at = instants(&mut rng, 300.0, 2_000_000);
        assert_eq!(at.len(), 600);
        assert!(at.windows(2).all(|w| w[0] <= w[1]));
        assert!(at.iter().all(|&t| t < 2_000_000));
    }
}
