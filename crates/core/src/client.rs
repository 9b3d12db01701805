//! The OpenFLAME client: federated location-based services (paper §5.2).
//!
//! "In OpenFLAME, the client device first has to discover relevant map
//! servers and request the required services from these map servers,
//! stitching the results if required."
//!
//! Wire discipline: every scatter round sends **one batched envelope
//! per server** through the [`Session`] layer, which also caches
//! capability handshakes and discovery results, so steady-state
//! operation pays one round trip per server per logical operation and
//! re-resolves nothing it already knows.
//!
//! Multi-round operations are **pipelined** through the session's
//! [`crate::session::ScatterRound`]: envelopes whose inputs are already
//! known go on the wire immediately instead of barriering behind an
//! earlier round — cold searches overlap the capability handshake with
//! warm servers' search envelopes, stitched routing sends the venue's
//! portal cost matrix alongside the outdoor nearest-node probes, and
//! localization prefetches the anchoring handshakes inside the localize
//! scatter itself. Pipelining reorders *waiting*, never traffic: the
//! one-envelope-per-server discipline and all message counts are
//! unchanged on the warm path.
//!
//! The client is transport-agnostic: it holds an `Arc<dyn Transport>`
//! and runs identically over the deterministic simulator
//! ([`openflame_netsim::SimTransport`]) and real TCP sockets
//! ([`openflame_netsim::TcpTransport`]) — pick the backend with
//! [`OpenFlameClientBuilder::build_on`].

use crate::discovery::{DiscoveredServer, DiscoveryClient};
use crate::fleet::{DiscoveryView, FleetSelector};
use crate::plan::{HelloDiscipline, PlanExecutor, QueryKind, QueryPlanner, ScatterPlan};
use crate::provider::{
    GeocodeHit, GeocodeOutcome, GeocodeQuery, LocalizeOutcome, LocalizeQuery, ProviderEstimate,
    ReverseGeocodeOutcome, ReverseGeocodeQuery, RouteOutcome, RouteQuery, SearchOutcome,
    SearchQuery, SpatialProvider, StatScope, TileOutcome, TileQuery,
};
use crate::session::{expect_matrix, expect_nearest, expect_route, unexpected_opt, Session};
use crate::ClientError;
use openflame_cells::CellId;
use openflame_codec::{from_bytes, to_bytes};
use openflame_dns::Resolver;
use openflame_geo::{LatLng, LocalFrame, Point2};
use openflame_localize::LocationCue;
use openflame_mapdata::{ElementId, NodeId};
use openflame_mapserver::naming::QUERY_LEVEL;
use openflame_mapserver::protocol::{
    Envelope, HelloInfo, Request, Response, WireEstimate, WireGeocodeHit, WireRoute,
    WireSearchResult,
};
use openflame_mapserver::Principal;
use openflame_netsim::{EndpointId, SimNet, SimTransport, Transport};
use openflame_routing::{stitch_legs, LegMatrix};
use openflame_search::{fuse_ranked, SearchResult};
use openflame_tiles::{stitch::compose, Tile, TileCoord};
use std::sync::Arc;

/// A search hit with provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct FederatedSearchHit {
    /// The server that returned the hit.
    pub server_id: String,
    /// The server's endpoint (for follow-up requests such as routing).
    pub endpoint: EndpointId,
    /// The hit itself (positions are in the *server's* frame).
    pub result: WireSearchResult,
}

/// One leg of a stitched route.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteLeg {
    /// The server whose map this leg crosses.
    pub server_id: String,
    /// The in-map route.
    pub route: WireRoute,
    /// Whether this leg's geometry is geo-anchored.
    pub anchored: bool,
}

/// An end-to-end route stitched from per-server legs (paper §5.2).
#[derive(Debug, Clone, PartialEq)]
pub struct FederatedRoute {
    /// Legs in travel order.
    pub legs: Vec<RouteLeg>,
    /// Total cost, seconds.
    pub total_cost: f64,
    /// Total length, meters.
    pub total_length_m: f64,
    /// Number of map servers consulted while planning.
    pub servers_consulted: usize,
}

/// Configures and builds an [`OpenFlameClient`].
///
/// ```
/// use openflame_core::OpenFlameClient;
/// use openflame_dns::Resolver;
/// use openflame_mapserver::Principal;
/// use openflame_netsim::SimNet;
/// use std::sync::Arc;
///
/// let net = SimNet::new(1);
/// let dns = net.register("stub-dns", None);
/// let resolver = Arc::new(Resolver::new(&net, "resolver", vec![dns]));
/// let client = OpenFlameClient::builder()
///     .principal(Principal::user("alice@example.com"))
///     .expand_neighbors(false)
///     .build(&net, resolver);
/// assert!(!client.expand_neighbors());
/// ```
#[derive(Debug, Clone)]
pub struct OpenFlameClientBuilder {
    principal: Principal,
    expand_neighbors: bool,
    session_ttl_us: Option<u64>,
    world_provider: Option<EndpointId>,
    coverage_planner: bool,
}

impl Default for OpenFlameClientBuilder {
    fn default() -> Self {
        Self {
            principal: Principal::anonymous(),
            expand_neighbors: true,
            session_ttl_us: None,
            world_provider: None,
            coverage_planner: true,
        }
    }
}

impl OpenFlameClientBuilder {
    /// Starts from defaults: anonymous principal, neighbor expansion
    /// on, default session TTL, no world provider.
    pub fn new() -> Self {
        Self::default()
    }

    /// The identity attached to requests (paper §5.3 ACLs).
    pub fn principal(mut self, principal: Principal) -> Self {
        self.principal = principal;
        self
    }

    /// Whether discovery also resolves the query cell's edge neighbors
    /// (ablation E12).
    pub fn expand_neighbors(mut self, expand: bool) -> Self {
        self.expand_neighbors = expand;
        self
    }

    /// Session cache TTL in simulated microseconds (capability and
    /// discovery caches).
    pub fn session_ttl_us(mut self, ttl_us: u64) -> Self {
        self.session_ttl_us = Some(ttl_us);
        self
    }

    /// The world-map provider used for coarse geocoding
    /// ([`SpatialProvider::geocode`] needs one; per-endpoint
    /// [`OpenFlameClient::federated_geocode`] does not).
    pub fn world_provider(mut self, endpoint: EndpointId) -> Self {
        self.world_provider = Some(endpoint);
        self
    }

    /// Whether the cost-based query planner prunes provably
    /// non-contributing sources from scatter plans using cached
    /// coverage summaries (wire-protocol spec §13). On by default;
    /// pruning is sound, so results are identical either way — the
    /// recall-parity tests pin exactly that. Off is for those tests,
    /// ablations and benches.
    pub fn coverage_planner(mut self, enabled: bool) -> Self {
        self.coverage_planner = enabled;
        self
    }

    /// Registers the client on the simulated network and builds it
    /// ([`OpenFlameClientBuilder::build_on`] with a [`SimTransport`]).
    pub fn build(self, net: &SimNet, resolver: Arc<Resolver>) -> OpenFlameClient {
        self.build_on(SimTransport::shared(net), resolver)
    }

    /// Registers the client on any transport backend and builds it.
    /// The resolver should speak the same transport, or discovery will
    /// hand back endpoints the client cannot dial.
    pub fn build_on(
        self,
        transport: Arc<dyn Transport>,
        resolver: Arc<Resolver>,
    ) -> OpenFlameClient {
        let endpoint = transport.register("openflame-client", None);
        let session = Session::new(transport.clone(), endpoint, self.principal);
        if let Some(ttl) = self.session_ttl_us {
            session.set_ttl_us(ttl);
        }
        OpenFlameClient {
            endpoint,
            discovery: DiscoveryClient::new(resolver),
            session,
            fleet: FleetSelector::new(),
            planner: QueryPlanner::new(self.coverage_planner),
            expand_neighbors: self.expand_neighbors,
            world_provider: self.world_provider,
        }
    }
}

/// The OpenFLAME client device.
pub struct OpenFlameClient {
    endpoint: EndpointId,
    discovery: DiscoveryClient,
    session: Session,
    fleet: FleetSelector,
    planner: QueryPlanner,
    expand_neighbors: bool,
    world_provider: Option<EndpointId>,
}

/// The footprint radius used to prune shards for localization: coarse
/// fixes are street-address quality, so a shard further than this from
/// the coarse position cannot be where the client stands.
const LOCALIZE_FOOTPRINT_M: f64 = 150.0;

impl OpenFlameClient {
    /// Creates a client on the network using `resolver` for discovery.
    ///
    /// Shorthand for [`OpenFlameClient::builder`] with a principal.
    pub fn new(net: &SimNet, resolver: Arc<Resolver>, principal: Principal) -> Self {
        Self::builder().principal(principal).build(net, resolver)
    }

    /// A builder for configured clients.
    pub fn builder() -> OpenFlameClientBuilder {
        OpenFlameClientBuilder::new()
    }

    /// The discovery layer.
    pub fn discovery(&self) -> &DiscoveryClient {
        &self.discovery
    }

    /// The client's network endpoint.
    pub fn endpoint(&self) -> EndpointId {
        self.endpoint
    }

    /// The session layer (batched wire calls + caches).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// The wire transport the client speaks.
    pub fn transport(&self) -> &Arc<dyn Transport> {
        self.session.transport()
    }

    /// Whether discovery expands to neighbor cells.
    pub fn expand_neighbors(&self) -> bool {
        self.expand_neighbors
    }

    /// Issues one raw (unbatched) request to one server. Low-level
    /// escape hatch; service methods go through the batched session.
    pub fn call(&self, to: EndpointId, request: Request) -> Result<Response, ClientError> {
        let env = Envelope {
            principal: self.session.principal(),
            request,
        };
        let transfer = self
            .session
            .transport()
            .call(self.endpoint, to, to_bytes(&env).to_vec())
            .map_err(|e| ClientError::Network(e.to_string()))?;
        from_bytes::<Response>(&transfer.payload).map_err(|e| ClientError::Protocol(e.to_string()))
    }

    /// Capability handshake with a server (session-cached).
    pub fn hello(&self, to: EndpointId) -> Result<HelloInfo, ClientError> {
        self.session.hello(to)
    }

    /// The cost-based query planner (wire-protocol spec §13).
    pub fn planner(&self) -> &QueryPlanner {
        &self.planner
    }

    /// The plan executor over this client's session and fleet state.
    fn executor(&self) -> PlanExecutor<'_> {
        PlanExecutor::new(&self.session, &self.fleet)
    }

    /// Discovers map servers around a coarse location, consulting the
    /// session's per-cell cache before the DNS. Fleets are flattened:
    /// each shard contributes the replica the selector picks, so
    /// callers without a spatial footprint still consult every shard
    /// exactly once. Footprint-aware paths use the shard-pruning plan
    /// instead.
    pub fn discover(&self, location: LatLng) -> Result<Vec<DiscoveredServer>, ClientError> {
        Ok(self
            .plan_query_at(None, location, None)?
            .targets
            .into_iter()
            .map(|t| t.server)
            .collect())
    }

    /// The fleet-aware discovery view for a location, shard-stably
    /// cached in the session (per query cell). Returns the cache key
    /// cell alongside the view so failover can invalidate it.
    fn discover_view_at(&self, location: LatLng) -> Result<(u64, DiscoveryView), ClientError> {
        let cell = CellId::from_latlng(location, QUERY_LEVEL)
            .map_err(|e| ClientError::Protocol(format!("bad location: {e}")))?;
        if let Some(view) = self
            .session
            .cached_discovery(cell.raw(), self.expand_neighbors)
        {
            return Ok((cell.raw(), view));
        }
        let view = self
            .discovery
            .discover_view(location, self.expand_neighbors)?;
        self.session
            .store_discovery(cell.raw(), self.expand_neighbors, view.clone());
        Ok((cell.raw(), view))
    }

    /// Builds the scatter plan for one query: discovery (session-cached
    /// per cell) feeds the [`QueryPlanner`], which keeps every plain
    /// server plus one selected replica per fleet shard intersecting
    /// the footprint, minus the sources whose cached coverage
    /// summaries prove they cannot contribute to `kind`
    /// (wire-protocol spec §13).
    fn plan_query_at(
        &self,
        kind: Option<QueryKind>,
        location: LatLng,
        footprint: Option<(LatLng, f64)>,
    ) -> Result<ScatterPlan, ClientError> {
        let (cell_raw, view) = self.discover_view_at(location)?;
        Ok(self
            .planner
            .plan(&self.session, &self.fleet, cell_raw, view, kind, footprint))
    }

    /// The planner's scatter plan for a `kind` query at `location`
    /// with footprint radius `radius_m`: consulted targets, pruned
    /// sources with their proofs, and the demotion cost signal. Costs
    /// no wire traffic beyond (cached) discovery — coverage is read
    /// from the session cache only, so benches and tests use it to
    /// account for planner wire savings.
    pub fn plan_query(
        &self,
        kind: QueryKind,
        location: LatLng,
        radius_m: f64,
    ) -> Result<ScatterPlan, ClientError> {
        self.plan_query_at(Some(kind), location, Some((location, radius_m)))
    }

    /// The servers a spatial query at `location` with footprint radius
    /// `radius_m` would consult before coverage pruning: every plain
    /// provider plus the selected replica of each shard whose extent
    /// intersects the footprint. Costs no wire traffic beyond (cached)
    /// discovery. Kind-agnostic and therefore planner-agnostic — the
    /// coverage-aware equivalent is [`OpenFlameClient::plan_query`].
    pub fn plan_scatter(
        &self,
        location: LatLng,
        radius_m: f64,
    ) -> Result<Vec<DiscoveredServer>, ClientError> {
        Ok(self
            .plan_query_at(None, location, Some((location, radius_m)))?
            .targets
            .into_iter()
            .map(|t| t.server)
            .collect())
    }

    // ----------------------------------------------------------------
    // Federated services (paper §5.2).
    // ----------------------------------------------------------------

    /// Federated location-based search: scatter one batched envelope to
    /// every discovered server, gather, and fuse rankings on the
    /// client.
    pub fn federated_search(
        &self,
        query: &str,
        location: LatLng,
        k: usize,
    ) -> Result<Vec<FederatedSearchHit>, ClientError> {
        self.search_impl(query, location, 2_000.0, k)
    }

    /// [`OpenFlameClient::federated_search`] with an explicit query
    /// radius. A spatially narrow radius lets the fleet layer prune
    /// shards whose extent cannot intersect the query, so wire cost
    /// scales with shards consulted rather than fleet size.
    pub fn federated_search_within(
        &self,
        query: &str,
        location: LatLng,
        radius_m: f64,
        k: usize,
    ) -> Result<Vec<FederatedSearchHit>, ClientError> {
        self.search_impl(query, location, radius_m, k)
    }

    fn search_impl(
        &self,
        query: &str,
        location: LatLng,
        radius_m: f64,
        k: usize,
    ) -> Result<Vec<FederatedSearchHit>, ClientError> {
        // Planner-built scatter: plain servers plus one selected
        // replica per fleet shard whose extent intersects the query
        // cap, minus sources whose coverage summaries prove they
        // cannot contribute (spec §13.3 — absent summaries are always
        // consulted, so a cold federation is searched in full).
        let mut plan = self.plan_query_at(
            Some(QueryKind::Search),
            location,
            Some((location, radius_m)),
        )?;
        if plan.targets.is_empty() {
            if plan.pruned.is_empty() {
                return Err(ClientError::NothingDiscovered(format!(
                    "no servers near {location}"
                )));
            }
            // Every discovered source proved empty for this query: the
            // honest answer is "nothing here", same as consulting them
            // all would have returned.
            return Ok(Vec::new());
        }
        // One batched envelope per server, pipelined with the
        // capability handshake (TwoPhase discipline): servers whose
        // Hello is cached get their search envelope immediately
        // (anchored servers get a frame-local center so they can
        // distance-rank; unaligned venue maps are small, so their
        // whole extent is relevant — center unknown in their frame).
        // Unknown servers get a Hello envelope in the *same* round,
        // and their search follows once the anchor is known — so a few
        // cold servers no longer stall the whole warm federation
        // behind a handshake barrier. Steady state is one round of
        // exactly one envelope per server, as ever. Search is
        // idempotent (wire-protocol spec §7), so failed fleet branches
        // fail over to sibling replicas inside the executor.
        let search_request = |center| Request::Search {
            query: query.to_string(),
            center,
            radius_m,
            k: k as u32,
        };
        let gathered = self
            .executor()
            .run(&mut plan, HelloDiscipline::TwoPhase, |_, hello| {
                let center = hello
                    .and_then(|h| h.anchor)
                    .map(|anchor| LocalFrame::new(anchor).to_local(location));
                Some(vec![search_request(center)])
            });
        let targets = &plan.targets;
        let mut lists: Vec<Vec<SearchResult>> = Vec::new();
        let mut provenance: Vec<Vec<FederatedSearchHit>> = Vec::new();
        let mut answered = 0usize;
        let mut failures: Vec<(usize, ClientError)> = Vec::new();
        for (idx, (target, outcome)) in targets.iter().zip(gathered).enumerate() {
            let server = &target.server;
            let results = match outcome.map(|mut r| r.pop()) {
                Ok(Some(Response::Search { results })) => {
                    answered += 1;
                    results
                }
                // A paper §5.3 denial is an answer — skip it, the show goes
                // on with the rest of the federation.
                Ok(Some(Response::Error { .. })) => {
                    answered += 1;
                    continue;
                }
                // A dead or dropping server is not; the source error is
                // kept for total-blackout detection.
                Err(e) => {
                    failures.push((idx, e));
                    continue;
                }
                Ok(other) => return Err(unexpected_opt("Search", other)),
            };
            let mut list = Vec::with_capacity(results.len());
            let mut prov = Vec::with_capacity(results.len());
            for r in results {
                list.push(SearchResult {
                    element: r.element,
                    pos: r.pos,
                    text_score: r.score,
                    distance_m: r.distance_m,
                    score: r.score,
                    label: r.label.clone(),
                });
                prov.push(FederatedSearchHit {
                    server_id: server.server_id.clone(),
                    endpoint: server.endpoint,
                    result: r,
                });
            }
            lists.push(list);
            provenance.push(prov);
        }
        // Every server was unreachable (denials count as answers):
        // surface the sources instead of passing off a total outage as
        // an empty result set.
        if answered == 0 && !failures.is_empty() {
            return Err(ClientError::PartialFailure {
                succeeded: 0,
                failures,
            });
        }
        // A fleet branch still failing after failover means a whole
        // shard is down: part of the advertised content is unreachable,
        // which must not read as "no results there". Surface it with
        // the per-replica sources preserved (a lone plain server
        // failing while others answer stays absorbed, as before —
        // plain servers advertise no content partition).
        if failures
            .iter()
            .any(|(idx, _)| targets[*idx].fleet.is_some())
        {
            return Err(ClientError::PartialFailure {
                succeeded: answered,
                failures,
            });
        }
        // Client-side rank fusion (paper §5.2: "the client would then rank
        // results from multiple map servers"). RRF merges the
        // heterogeneous per-server rankings; a client-side relevance
        // check against the query then dominates, so an exact match from
        // one store outranks a near-miss stocked in several (server
        // scores are not comparable, but the client can always score
        // returned labels against its own query).
        // Fuse without truncation: the final cut happens after the
        // relevance re-scoring, otherwise a large federation can crowd
        // the exact match out of the fused prefix.
        let fused = fuse_ranked(lists, usize::MAX);
        let mut out: Vec<(f64, FederatedSearchHit)> = Vec::with_capacity(fused.len());
        for f in fused {
            let source_list = &provenance[f.source];
            if let Some(hit) = source_list
                .iter()
                .find(|h| h.result.label == f.result.label && h.result.element == f.result.element)
            {
                let relevance = label_relevance(query, &hit.result.label);
                out.push((relevance * (1.0 + f.fused_score), hit.clone()));
            }
        }
        out.sort_by(|a, b| b.0.total_cmp(&a.0));
        out.truncate(k);
        Ok(out.into_iter().map(|(_, h)| h).collect())
    }

    /// Federated forward geocode: coarse lookup on the world provider,
    /// then refinement by servers discovered at the coarse location
    /// (paper §5.2), one batched envelope per refining server.
    pub fn federated_geocode(
        &self,
        address: &str,
        world_provider: EndpointId,
        k: usize,
    ) -> Result<Vec<(String, WireGeocodeHit)>, ClientError> {
        Ok(self
            .geocode_impl(address, world_provider, k)?
            .into_iter()
            .map(|h| (h.server_id, h.hit))
            .collect())
    }

    fn geocode_impl(
        &self,
        address: &str,
        world_provider: EndpointId,
        k: usize,
    ) -> Result<Vec<GeocodeHit>, ClientError> {
        // Step 1: coarse position from the world-map provider.
        let responses = self.session.batch(
            world_provider,
            vec![Request::Geocode {
                query: address.to_string(),
                k: 1,
            }],
        )?;
        let coarse = match responses.into_iter().next() {
            Some(Response::Geocode { hits }) => hits.into_iter().next(),
            other => return Err(unexpected_opt("Geocode", other)),
        };
        let Some(coarse_hit) = coarse else {
            return Err(ClientError::NotFound(format!(
                "no coarse geocode for {address:?}"
            )));
        };
        let anchor = self
            .session
            .hello(world_provider)?
            .anchor
            .ok_or_else(|| ClientError::Protocol("world provider must be anchored".into()))?;
        let world_frame = LocalFrame::new(anchor);
        let coarse_geo = world_frame.from_local(coarse_hit.pos);
        let mut out = vec![GeocodeHit {
            server_id: "world".to_string(),
            geo: Some(coarse_geo),
            hit: coarse_hit,
        }];
        // Step 2: fine geocode on the servers discovered there — one
        // batched envelope each, in one concurrent round, with the
        // handshakes for uncached refiners riding in the same round
        // (the frames are needed right below to geo-anchor the hits).
        // The planner prunes refiners whose summaries advertise an
        // empty geocoder; an address is not a spatial footprint, so no
        // extent pruning applies.
        let mut plan = self.plan_query_at(Some(QueryKind::Geocode), coarse_geo, None)?;
        plan.targets.retain(|t| t.server.endpoint != world_provider);
        let outcomes = self
            .executor()
            .run(&mut plan, HelloDiscipline::Prefetch, |_, _| {
                Some(vec![Request::Geocode {
                    query: address.to_string(),
                    k: k as u32,
                }])
            });
        for (target, outcome) in plan.targets.iter().zip(outcomes) {
            let server = &target.server;
            if let Ok(Some(Response::Geocode { hits })) = outcome.map(|mut r| r.pop()) {
                let frame = self
                    .session
                    .cached_hello(server.endpoint)
                    .and_then(|h| h.anchor)
                    .map(LocalFrame::new);
                for hit in hits {
                    out.push(GeocodeHit {
                        server_id: server.server_id.clone(),
                        geo: frame.as_ref().map(|f| f.from_local(hit.pos)),
                        hit,
                    });
                }
            }
        }
        out.sort_by(|a, b| b.hit.score.total_cmp(&a.hit.score));
        out.truncate(k);
        Ok(out)
    }

    /// Federated reverse geocode: ask every discovered *anchored*
    /// server to name the position, best score wins. Unaligned venue
    /// maps cannot interpret a geographic position (paper §3) and are
    /// skipped without a wire call.
    pub fn federated_reverse_geocode(
        &self,
        location: LatLng,
        radius_m: f64,
    ) -> Result<Option<GeocodeHit>, ClientError> {
        // The planner prunes sources advertising no reverse-geocode
        // capability (unaligned venues advertise a zero count) or an
        // extent provably disjoint from the query cap; the anchored
        // filter below then drops whatever unanchored sources remain
        // unproven — they cannot interpret a geographic position
        // (paper §3) and are skipped without a wire call.
        let mut plan = self.plan_query_at(
            Some(QueryKind::ReverseGeocode),
            location,
            Some((location, radius_m)),
        )?;
        let endpoints: Vec<EndpointId> = plan.targets.iter().map(|t| t.server.endpoint).collect();
        self.session.ensure_hellos(&endpoints);
        let outcomes = self
            .executor()
            .run(&mut plan, HelloDiscipline::Direct, |_, hello| {
                let anchor = hello.and_then(|h| h.anchor)?;
                Some(vec![Request::ReverseGeocode {
                    pos: LocalFrame::new(anchor).to_local(location),
                    radius_m,
                }])
            });
        let mut best: Option<GeocodeHit> = None;
        let mut answered = 0usize;
        let mut failures: Vec<(usize, ClientError)> = Vec::new();
        for (idx, (target, outcome)) in plan.targets.iter().zip(outcomes).enumerate() {
            let server = &target.server;
            let frame = self
                .session
                .cached_hello(server.endpoint)
                .and_then(|h| h.anchor)
                .map(LocalFrame::new);
            match outcome.map(|mut r| r.pop()) {
                Ok(Some(Response::ReverseGeocode { hit: Some(hit) })) => {
                    answered += 1;
                    let geo = frame.as_ref().map(|f| f.from_local(hit.pos));
                    if best.as_ref().is_none_or(|b| hit.score > b.hit.score) {
                        best = Some(GeocodeHit {
                            server_id: server.server_id.clone(),
                            geo,
                            hit,
                        });
                    }
                }
                // A server answering "nothing nearby" or denying the
                // service (paper §5.3) has spoken; only wire failures count
                // toward total-blackout detection.
                Ok(_) => answered += 1,
                Err(e) => failures.push((idx, e)),
            }
        }
        // Every consulted server was unreachable: that is an outage,
        // not an honest "nothing here".
        if answered == 0 && !failures.is_empty() {
            return Err(ClientError::PartialFailure {
                succeeded: 0,
                failures,
            });
        }
        Ok(best)
    }

    /// Routes from a street position to a search result, stitching an
    /// outdoor leg and (if the target is in a venue) an indoor leg at
    /// the portal the paper §5.2 dynamic program selects. The per-portal
    /// probes are coalesced into batched envelopes: one nearest-node
    /// batch, one concurrent matrix round, one concurrent leg round.
    pub fn federated_route(
        &self,
        from: LatLng,
        target: &FederatedSearchHit,
    ) -> Result<FederatedRoute, ClientError> {
        let target_node = match target.result.element {
            ElementId::Node(n) => n,
            _ => {
                return Err(ClientError::NotFound(
                    "route targets must be node elements".into(),
                ))
            }
        };
        let target_hello = self.session.hello(target.endpoint)?;
        let mut servers_consulted = 1usize;
        if let Some(anchor) = target_hello.anchor {
            // Single anchored map covers both endpoints.
            let frame = LocalFrame::new(anchor);
            let responses = Session::expect_all(self.session.batch(
                target.endpoint,
                vec![Request::NearestNode {
                    pos: frame.to_local(from),
                }],
            )?)?;
            let from_node = expect_nearest(&responses[0])?;
            let route = self.route_on(target.endpoint, from_node, target_node)?;
            return Ok(FederatedRoute {
                total_cost: route.cost,
                total_length_m: route.length_m,
                legs: vec![RouteLeg {
                    server_id: target.server_id.clone(),
                    route,
                    anchored: true,
                }],
                servers_consulted,
            });
        }
        // Venue target: outdoor leg to a portal, indoor leg to the node.
        if target_hello.portals.is_empty() {
            return Err(ClientError::NotFound(format!(
                "venue {} advertises no portals",
                target.server_id
            )));
        }
        // Find the outdoor provider covering the start. The planner's
        // candidate plan prunes sources that provably cannot route
        // (an advertised node count of zero).
        let candidate_plan = self.plan_query_at(Some(QueryKind::Route), from, None)?;
        let candidates: Vec<DiscoveredServer> = candidate_plan
            .targets
            .into_iter()
            .map(|t| t.server)
            .filter(|s| s.endpoint != target.endpoint)
            .collect();
        let candidate_endpoints: Vec<EndpointId> = candidates.iter().map(|s| s.endpoint).collect();
        self.session.ensure_hellos(&candidate_endpoints);
        let outdoor = candidates
            .into_iter()
            .find_map(|s| {
                let hello = self.session.cached_hello(s.endpoint)?;
                hello.anchor.map(|anchor| (s, anchor))
            })
            .ok_or_else(|| ClientError::NothingDiscovered("no anchored outdoor provider".into()))?;
        servers_consulted += 1;
        let (outdoor_server, outdoor_anchor) = outdoor;
        let outdoor_frame = LocalFrame::new(outdoor_anchor);
        // Round 1 — pipelined: one batch to the outdoor server (nearest
        // node to the start plus the outdoor side of every advertised
        // portal) *and*, in the same scatter round, the venue-side cost
        // matrix — its entries are the advertised portals and the
        // target node, none of which depend on the outdoor probes, so
        // it has no reason to wait behind them.
        let mut probes = vec![Request::NearestNode {
            pos: outdoor_frame.to_local(from),
        }];
        probes.extend(
            target_hello
                .portals
                .iter()
                .map(|(_, hint)| Request::NearestNode {
                    pos: outdoor_frame.to_local(*hint),
                }),
        );
        let venue_portals: Vec<NodeId> = target_hello
            .portals
            .iter()
            .map(|(n, _)| NodeId(*n))
            .collect();
        let mut round1 = self.session.scatter();
        let probe_idx = round1.submit(outdoor_server.endpoint, probes);
        let venue_idx = round1.submit(
            target.endpoint,
            vec![Request::RouteMatrix {
                entries: venue_portals.iter().map(|n| n.0).collect(),
                exits: vec![target_node.0],
            }],
        );
        // A dead or dropping server in either branch surfaces as a
        // PartialFailure carrying the source error, never a panic.
        let mut gathered: Vec<Option<Vec<Response>>> = Session::gather_all(round1.collect())?
            .into_iter()
            .map(Some)
            .collect();
        let responses =
            Session::expect_all(gathered[probe_idx].take().expect("probe branch present"))?;
        let from_node = expect_nearest(&responses[0])?;
        let outdoor_portals: Vec<NodeId> = responses[1..]
            .iter()
            .map(expect_nearest)
            .collect::<Result<_, _>>()?;
        let venue_matrix = expect_matrix(
            Session::expect_all(gathered[venue_idx].take().expect("venue branch present"))?
                .into_iter()
                .next()
                .expect("one item sent"),
        )?;
        // Round 2 — the outdoor cost matrix (it needs round 1's snapped
        // nodes). Same failure discipline as the scatter rounds.
        let mut round2 = self.session.scatter();
        round2.submit(
            outdoor_server.endpoint,
            vec![Request::RouteMatrix {
                entries: vec![from_node.0],
                exits: outdoor_portals.iter().map(|n| n.0).collect(),
            }],
        );
        let outdoor_matrix = expect_matrix(
            Session::expect_all(
                Session::gather_all(round2.collect())?
                    .pop()
                    .expect("one branch sent"),
            )?
            .into_iter()
            .next()
            .expect("one item sent"),
        )?;
        // The paper §5.2 stitching DP selects the portal.
        let plan = stitch_legs(&[
            LegMatrix::new(outdoor_matrix).map_err(|e| ClientError::Protocol(e.to_string()))?,
            LegMatrix::new(venue_matrix).map_err(|e| ClientError::Protocol(e.to_string()))?,
        ])
        .map_err(|e| ClientError::NotFound(format!("no stitched path: {e}")))?;
        let portal_idx = plan.portal_choices[0];
        // Round 3 — fetch both chosen legs, concurrently.
        let leg_calls = vec![
            (
                outdoor_server.endpoint,
                vec![Request::Route {
                    from: from_node.0,
                    to: outdoor_portals[portal_idx].0,
                }],
            ),
            (
                target.endpoint,
                vec![Request::Route {
                    from: venue_portals[portal_idx].0,
                    to: target_node.0,
                }],
            ),
        ];
        let mut legs = Vec::with_capacity(2);
        for responses in Session::gather_all(self.session.batch_parallel(leg_calls))? {
            let responses = Session::expect_all(responses)?;
            legs.push(expect_route(
                responses.into_iter().next().expect("one item sent"),
            )?);
        }
        let venue_route = legs.pop().expect("two legs");
        let outdoor_route = legs.pop().expect("two legs");
        Ok(FederatedRoute {
            total_cost: outdoor_route.cost + venue_route.cost,
            total_length_m: outdoor_route.length_m + venue_route.length_m,
            legs: vec![
                RouteLeg {
                    server_id: outdoor_server.server_id.clone(),
                    route: outdoor_route,
                    anchored: true,
                },
                RouteLeg {
                    server_id: target.server_id.clone(),
                    route: venue_route,
                    anchored: false,
                },
            ],
            servers_consulted,
        })
    }

    /// Federated localization: send each discovered server the cues its
    /// advertisement accepts — one batched envelope per server, in one
    /// concurrent round — gather estimates, best (smallest error) first
    /// (paper §5.2).
    pub fn federated_localize(
        &self,
        coarse: LatLng,
        cues: &[LocationCue],
    ) -> Result<Vec<(String, WireEstimate)>, ClientError> {
        Ok(self
            .localize_impl(coarse, cues, false)?
            .into_iter()
            .map(|(server, estimate)| (server.server_id, estimate))
            .collect())
    }

    /// The localize scatter. With `prefetch_hellos`, capability
    /// handshakes for consulted servers that lack a cached Hello ride
    /// in the *same* pipelined round as the localize envelopes — the
    /// provider path needs them immediately afterwards to geo-anchor
    /// the estimates, and overlapping them costs no extra round trip.
    fn localize_impl(
        &self,
        coarse: LatLng,
        cues: &[LocationCue],
        prefetch_hellos: bool,
    ) -> Result<Vec<(DiscoveredServer, WireEstimate)>, ClientError> {
        // Planner-built scatter: the coarse fix bounds where the
        // client can stand, so shards outside the localize footprint
        // are skipped, and sources whose summaries prove no
        // localization coverage (no advertised techs, disjoint extent)
        // are pruned (spec §13.3).
        let mut plan = self.plan_query_at(
            Some(QueryKind::Localize),
            coarse,
            Some((coarse, LOCALIZE_FOOTPRINT_M)),
        )?;
        let cues_for = |server: &DiscoveredServer| -> Vec<LocationCue> {
            cues.iter()
                .filter(|c| server.accepts_cue(c.technology()))
                .cloned()
                .collect()
        };
        // One batched envelope per server accepting any of the offered
        // cues (the builder drops the rest from the plan without wire
        // traffic); with `prefetch_hellos` the handshakes for uncached
        // servers ride in the same round. Localization is idempotent
        // (wire-protocol spec §7) — a failed fleet branch retries on a
        // sibling replica inside the executor, which accepts the same
        // cues (services are advertised group-wide).
        let discipline = if prefetch_hellos {
            HelloDiscipline::Prefetch
        } else {
            HelloDiscipline::Direct
        };
        let results = self.executor().run(&mut plan, discipline, |server, _| {
            let matching = cues_for(server);
            (!matching.is_empty()).then(|| vec![Request::Localize { cues: matching }])
        });
        let mut out: Vec<(DiscoveredServer, WireEstimate)> = Vec::new();
        let mut answered = 0usize;
        let mut failures: Vec<(usize, ClientError)> = Vec::new();
        let mut fleet_failed = false;
        for (idx, (target, outcome)) in plan.targets.iter().zip(results).enumerate() {
            match outcome.map(|mut r| r.pop()) {
                Ok(Some(Response::Localize { estimates })) => {
                    answered += 1;
                    for e in estimates {
                        out.push((target.server.clone(), e));
                    }
                }
                // No fix and paper §5.3 denials are answers; only wire
                // failures count toward total-blackout detection.
                Ok(_) => answered += 1,
                Err(e) => {
                    fleet_failed |= target.fleet.is_some();
                    failures.push((idx, e));
                }
            }
        }
        // Every consulted server was unreachable: an outage must not
        // read as "no localization coverage here". A fleet shard still
        // down after failover is likewise surfaced, sources preserved.
        if (answered == 0 || fleet_failed) && !failures.is_empty() {
            return Err(ClientError::PartialFailure {
                succeeded: answered,
                failures,
            });
        }
        out.sort_by(|a, b| a.1.error_m.total_cmp(&b.1.error_m));
        Ok(out)
    }

    /// Federated tiles: fetch the tile covering `center` at zoom `z`
    /// from every discovered server — one batched envelope each, in one
    /// concurrent round — and compose them (paper §5.2). When no server
    /// contributes a layer and some branch failed on the wire or sent a
    /// malformed tile, the result is [`ClientError::PartialFailure`]
    /// with each branch's error.
    pub fn federated_tile(&self, center: LatLng, z: u8) -> Result<Tile, ClientError> {
        Ok(self.tile_impl(center, z)?.0)
    }

    /// [`OpenFlameClient::federated_tile`] plus the number of servers
    /// whose layers went into the composition.
    fn tile_impl(&self, center: LatLng, z: u8) -> Result<(Tile, usize), ClientError> {
        let (x, y) = openflame_geo::Mercator::tile_for(center, z);
        let coord = TileCoord { z, x, y };
        // The planner prunes sources that provably serve no tiles —
        // unaligned venues advertise a zero tile count and refuse
        // `GetTile` outright, so skipping them saves a whole wire call
        // per venue per tile without changing the composition.
        let mut plan = self.plan_query_at(Some(QueryKind::Tile), center, None)?;
        let outcomes = self
            .executor()
            .run(&mut plan, HelloDiscipline::Direct, |_, _| {
                Some(vec![Request::GetTile { z, x, y }])
            });
        let mut layers: Vec<Tile> = Vec::new();
        let mut answered = 0usize;
        let mut failures: Vec<(usize, ClientError)> = Vec::new();
        let mut fleet_failed = false;
        for (idx, (target, outcome)) in plan.targets.iter().zip(outcomes).enumerate() {
            match outcome.map(|mut r| r.pop()) {
                Ok(Some(Response::Tile { rgb, .. })) => match Tile::from_rgb(coord, &rgb) {
                    Some(tile) => {
                        answered += 1;
                        layers.push(tile);
                    }
                    None => {
                        failures.push((idx, ClientError::Protocol("malformed tile payload".into())))
                    }
                },
                // Unaligned venues and paper §5.3 denials are answers
                // without a layer.
                Ok(_) => answered += 1,
                Err(e) => {
                    fleet_failed |= target.fleet.is_some();
                    failures.push((idx, e));
                }
            }
        }
        // As for localization: an outage or a malformed reply must not
        // read as "no tiles here". With no layer, or a fleet shard still
        // down after failover, the failures surface, sources preserved.
        if (layers.is_empty() || fleet_failed) && !failures.is_empty() {
            return Err(ClientError::PartialFailure {
                succeeded: answered,
                failures,
            });
        }
        let count = layers.len();
        let tile = match count {
            0 => {
                return Err(ClientError::NothingDiscovered(format!(
                    "no tile-serving providers near {center}"
                )))
            }
            // `compose` of one layer is the identity.
            1 => layers.swap_remove(0),
            _ => compose(&layers.iter().collect::<Vec<_>>()),
        };
        Ok((tile, count))
    }

    // ----------------------------------------------------------------
    // Single-server helpers.
    // ----------------------------------------------------------------

    /// Nearest routable node on a server.
    pub fn nearest_node(&self, to: EndpointId, pos: Point2) -> Result<NodeId, ClientError> {
        let responses =
            Session::expect_all(self.session.batch(to, vec![Request::NearestNode { pos }])?)?;
        expect_nearest(&responses[0])
    }

    /// Point-to-point route on one server.
    pub fn route_on(
        &self,
        to: EndpointId,
        from: NodeId,
        dest: NodeId,
    ) -> Result<WireRoute, ClientError> {
        let responses = Session::expect_all(self.session.batch(
            to,
            vec![Request::Route {
                from: from.0,
                to: dest.0,
            }],
        )?)?;
        expect_route(responses.into_iter().next().expect("one item sent"))
    }

    /// Portal cost matrix from one server.
    pub fn route_matrix(
        &self,
        to: EndpointId,
        entries: &[NodeId],
        exits: &[NodeId],
    ) -> Result<Vec<Vec<f64>>, ClientError> {
        let request = Request::RouteMatrix {
            entries: entries.iter().map(|n| n.0).collect(),
            exits: exits.iter().map(|n| n.0).collect(),
        };
        let responses = Session::expect_all(self.session.batch(to, vec![request])?)?;
        expect_matrix(responses.into_iter().next().expect("one item sent"))
    }
}

impl SpatialProvider for OpenFlameClient {
    fn provider_id(&self) -> String {
        "openflame-federated".into()
    }

    fn geocode(&self, query: GeocodeQuery) -> Result<GeocodeOutcome, ClientError> {
        let world = self.world_provider.ok_or_else(|| {
            ClientError::Protocol("no world provider configured for coarse geocoding".into())
        })?;
        let scope = StatScope::begin(self.session.transport().as_ref());
        let hits = self.geocode_impl(&query.query, world, query.k)?;
        let servers: std::collections::HashSet<&str> =
            hits.iter().map(|h| h.server_id.as_str()).collect();
        let stats = scope.finish(self.session.transport().as_ref(), servers.len());
        Ok(GeocodeOutcome { hits, stats })
    }

    fn reverse_geocode(
        &self,
        query: ReverseGeocodeQuery,
    ) -> Result<ReverseGeocodeOutcome, ClientError> {
        let scope = StatScope::begin(self.session.transport().as_ref());
        let hit = self.federated_reverse_geocode(query.location, query.radius_m)?;
        let stats = scope.finish(
            self.session.transport().as_ref(),
            usize::from(hit.is_some()),
        );
        Ok(ReverseGeocodeOutcome { hit, stats })
    }

    fn search(&self, query: SearchQuery) -> Result<SearchOutcome, ClientError> {
        let scope = StatScope::begin(self.session.transport().as_ref());
        let hits = self.search_impl(&query.query, query.location, query.radius_m, query.k)?;
        let servers: std::collections::HashSet<&str> =
            hits.iter().map(|h| h.server_id.as_str()).collect();
        let stats = scope.finish(self.session.transport().as_ref(), servers.len());
        Ok(SearchOutcome { hits, stats })
    }

    fn route(&self, query: RouteQuery) -> Result<RouteOutcome, ClientError> {
        let scope = StatScope::begin(self.session.transport().as_ref());
        let route = self.federated_route(query.from, &query.target)?;
        let servers = route.servers_consulted;
        let stats = scope.finish(self.session.transport().as_ref(), servers);
        Ok(RouteOutcome { route, stats })
    }

    fn localize(&self, query: LocalizeQuery) -> Result<LocalizeOutcome, ClientError> {
        let scope = StatScope::begin(self.session.transport().as_ref());
        // Hellos for anchoring are prefetched inside the localize
        // scatter itself (one pipelined round, no handshake barrier).
        let raw = self.localize_impl(query.coarse, &query.cues, true)?;
        // Geo-anchor the estimates whose producing server is anchored.
        // Steady state and prefetched-cold are pure cache reads here;
        // ensure_hellos only fires for servers whose prefetched
        // handshake failed in-round.
        let endpoints: Vec<EndpointId> = raw.iter().map(|(s, _)| s.endpoint).collect();
        self.session.ensure_hellos(&endpoints);
        let estimates: Vec<ProviderEstimate> = raw
            .into_iter()
            .map(|(server, estimate)| {
                let geo = self
                    .session
                    .cached_hello(server.endpoint)
                    .and_then(|h| h.anchor)
                    .map(|anchor| LocalFrame::new(anchor).from_local(estimate.pos));
                ProviderEstimate {
                    server_id: server.server_id,
                    estimate,
                    geo,
                }
            })
            .collect();
        let servers: std::collections::HashSet<&str> =
            estimates.iter().map(|e| e.server_id.as_str()).collect();
        let stats = scope.finish(self.session.transport().as_ref(), servers.len());
        Ok(LocalizeOutcome { estimates, stats })
    }

    fn tile(&self, query: TileQuery) -> Result<TileOutcome, ClientError> {
        let scope = StatScope::begin(self.session.transport().as_ref());
        let (tile, layer_servers) = self.tile_impl(query.center, query.z)?;
        let stats = scope.finish(self.session.transport().as_ref(), layer_servers);
        Ok(TileOutcome { tile, stats })
    }
}

/// Harmonic token-coverage relevance of a result label for a query
/// (same blend the geocoder uses): 1.0 for an exact token match, lower
/// when either side has unmatched tokens.
fn label_relevance(query: &str, label: &str) -> f64 {
    let q = openflame_geocode::tokenize(query);
    let l = openflame_geocode::tokenize(label);
    if q.is_empty() || l.is_empty() {
        return 0.0;
    }
    let matched = q.iter().filter(|t| l.contains(t)).count() as f64;
    if matched == 0.0 {
        return 0.0;
    }
    let qc = matched / q.len() as f64;
    let lc = matched / l.len() as f64;
    2.0 * qc * lc / (qc + lc)
}
