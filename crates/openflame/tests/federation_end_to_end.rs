//! Cross-crate integration tests: the full federated stack from world
//! generation through DNS discovery to stitched services.

use openflame_core::{ClientError, Deployment, DeploymentConfig, ProviderKind};
use openflame_dns::ResolverConfig;
use openflame_geo::LatLng;
use openflame_localize::{LocationCue, RadioMap};
use openflame_mapserver::{AccessPolicy, Principal, Rule, ServiceKind};
use openflame_worldgen::{World, WorldConfig};

fn small_world() -> World {
    World::generate(WorldConfig {
        stores: 4,
        products_per_store: 12,
        ..WorldConfig::default()
    })
}

#[test]
fn discovery_to_search_to_route_pipeline() {
    let dep = Deployment::build(small_world(), DeploymentConfig::default());
    let product = dep.world.products[5].clone();
    let venue_hint = dep.world.venues[product.venue].hint;
    let user = venue_hint.destination(200.0, 90.0);

    // Discover, search, route — the paper §2 flow.
    let hit = dep.client.federated_search(&product.name, user, 5).unwrap()[0].clone();
    assert_eq!(hit.result.label, product.name);
    let route = dep.client.federated_route(user, &hit).unwrap();
    assert_eq!(route.legs.len(), 2, "outdoor leg + indoor leg");
    assert!(route.legs[0].anchored);
    assert!(!route.legs[1].anchored);
    assert_eq!(
        route.legs[1].route.nodes.last().copied(),
        Some(product.shelf.0),
        "indoor leg ends at the shelf"
    );
    assert!(route.total_length_m > 50.0, "user starts ~100 m away");
}

#[test]
fn partially_warm_search_pipelines_handshakes_without_extra_traffic() {
    // The pipelined cold-search path splits a scatter round: servers
    // with a cached Hello get their search envelope immediately,
    // unknown servers get a Hello first and their search in a
    // follow-up round. Warm a session in one part of the city, then
    // search near a different venue so the round mixes warm servers
    // (the city-wide world map) with cold ones (the new venue) — the
    // wire cost must be exactly one envelope per warm server plus two
    // per cold server, and the results must be correct.
    //
    // A city big enough that venues land in different query cells —
    // in the 720 m default world one neighbor-expanded discovery
    // already blankets every server.
    let world = World::generate(WorldConfig {
        stores: 6,
        products_per_store: 8,
        blocks_x: 40,
        blocks_y: 40,
        ..WorldConfig::default()
    });
    let dep = Deployment::build(world, DeploymentConfig::default());
    let first = dep.world.products[0].clone();
    let near_first = dep.world.venues[first.venue].hint;
    dep.client
        .federated_search(&first.name, near_first, 3)
        .unwrap();

    // Find a product whose venue discovery includes at least one
    // server the session has not yet handshaken with.
    let (product, near, warm, cold) = dep
        .world
        .products
        .iter()
        .find_map(|p| {
            let near = dep.world.venues[p.venue].hint;
            let servers = dep.client.discover(near).ok()?;
            let warm = servers
                .iter()
                .filter(|s| dep.client.session().has_hello(s.endpoint))
                .count();
            let cold = servers.len() - warm;
            (cold > 0).then(|| (p.clone(), near, warm, cold))
        })
        .expect("some venue outside the first discovery footprint");
    assert!(warm > 0, "the city-wide world map is always warm");

    let batches_before = dep.client.session().stats().batches;
    dep.transport.reset_stats();
    let hits = dep.client.federated_search(&product.name, near, 3).unwrap();
    assert!(hits.iter().any(|h| h.result.label == product.name));

    let batches = dep.client.session().stats().batches - batches_before;
    assert_eq!(
        batches,
        (warm + 2 * cold) as u64,
        "one envelope per warm server, hello + search per cold server"
    );
    // Discovery was cached by the probe above, so the whole search is
    // exactly those envelopes: two messages each, nothing else.
    assert_eq!(dep.transport.stats().messages, 2 * batches);

    // Steady state thereafter: everyone is warm, one envelope each.
    let batches_before = dep.client.session().stats().batches;
    dep.client.federated_search(&product.name, near, 3).unwrap();
    let warm_batches = dep.client.session().stats().batches - batches_before;
    assert_eq!(warm_batches, (warm + cold) as u64);
}

#[test]
fn scenario_comparison_federated_wins_indoors() {
    let world = small_world();
    let fed = openflame_core::run_grocery_scenario(&world, ProviderKind::Federated, 2, 5).unwrap();
    let pub_ = openflame_core::run_grocery_scenario(&world, ProviderKind::CentralizedPublic, 2, 5)
        .unwrap();
    let omni =
        openflame_core::run_grocery_scenario(&world, ProviderKind::CentralizedOmniscient, 2, 5)
            .unwrap();
    assert!(fed.found_product && fed.route_reaches_shelf);
    assert!(!pub_.found_product);
    assert!(omni.found_product && omni.route_reaches_shelf);
    // Only the federation localizes indoors.
    assert!(fed.indoor_median_err_m.is_some());
    assert!(pub_.indoor_median_err_m.is_none());
    assert!(omni.indoor_median_err_m.is_none());
}

#[test]
fn acl_protected_venue_invisible_to_strangers_but_searchable_by_staff() {
    let policy = AccessPolicy::locked().with(
        ServiceKind::Search,
        vec![
            Rule::AllowUserDomain("@staff.example".into()),
            Rule::DenyAll,
        ],
    );
    let dep = Deployment::build(
        small_world(),
        DeploymentConfig {
            venue_policy: policy,
            ..DeploymentConfig::default()
        },
    );
    let product = dep.world.products[0].clone();
    let hint = dep.world.venues[product.venue].hint;
    // Anonymous: venue search denied everywhere, so nothing found.
    let anon_hits = dep
        .client
        .federated_search(&product.name, hint, 5)
        .unwrap_or_default();
    assert!(
        anon_hits.iter().all(|h| h.result.label != product.name),
        "protected inventory leaked to anonymous client"
    );
    // Staff identity: same query succeeds.
    let staff = openflame_core::OpenFlameClient::builder()
        .principal(Principal::user("worker@staff.example"))
        .build_on(dep.transport.clone(), dep.resolver.clone());
    let staff_hits = staff.federated_search(&product.name, hint, 5).unwrap();
    assert_eq!(staff_hits[0].result.label, product.name);
}

#[test]
fn dead_venue_server_degrades_gracefully() {
    let dep = Deployment::build(small_world(), DeploymentConfig::default());
    let product = dep.world.products[0].clone();
    let hint = dep.world.venues[product.venue].hint;
    // Kill the venue's server.
    dep.transport
        .set_down(dep.venue_servers[product.venue].endpoint(), true);
    // Search still completes using the remaining federation; the dead
    // server's inventory is simply missing.
    let hits = dep
        .client
        .federated_search(&product.name, hint, 5)
        .unwrap_or_default();
    assert!(hits
        .iter()
        .all(|h| h.server_id != format!("venue-{}", product.venue)));
    // Revive and retry: the product is back.
    dep.transport
        .set_down(dep.venue_servers[product.venue].endpoint(), false);
    let hits = dep.client.federated_search(&product.name, hint, 5).unwrap();
    assert_eq!(hits[0].result.label, product.name);
}

#[test]
fn federated_localization_switches_indoors() {
    let dep = Deployment::build(small_world(), DeploymentConfig::default());
    let venue = &dep.world.venues[1];
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3);
    // Outdoors: GNSS cue answered by the anchored world map.
    let outdoor_geo = dep.world.config.center;
    let gnss = LocationCue::Gnss {
        fix: outdoor_geo,
        accuracy_m: 4.0,
    };
    let outdoor_est = dep.client.federated_localize(outdoor_geo, &[gnss]).unwrap();
    assert!(outdoor_est
        .iter()
        .any(|(sid, e)| sid == "world-map" && e.technology == "gnss"));
    // Indoors: beacon cue answered by the venue server.
    let radio = RadioMap::survey(
        venue.beacons.clone(),
        openflame_geo::Point2::new(-5.0, -5.0),
        openflame_geo::Point2::new(60.0, 45.0),
        2.0,
    );
    let truth = openflame_geo::Point2::new(12.0, 10.0);
    let cue = radio.observe(&mut rng, truth, 2.0);
    let indoor_est = dep.client.federated_localize(venue.hint, &[cue]).unwrap();
    let (sid, est) = &indoor_est[0];
    assert_eq!(sid, "venue-1");
    assert_eq!(est.technology, "beacon");
    assert!(est.pos.distance(truth) < 8.0);
}

#[test]
fn resolver_cache_makes_repeat_discovery_cheap() {
    let dep = Deployment::build(small_world(), DeploymentConfig::default());
    let hint = dep.world.venues[0].hint;
    dep.client.discover(hint).unwrap();
    let cold_upstream = dep.client.discovery().resolver().stats().upstream_queries;
    dep.client.discover(hint).unwrap();
    let warm_upstream = dep.client.discovery().resolver().stats().upstream_queries - cold_upstream;
    assert_eq!(
        warm_upstream, 0,
        "warm discovery must be answered from cache"
    );
}

#[test]
fn ttl_expiry_picks_up_reregistration() {
    let mut dep = Deployment::build(
        small_world(),
        DeploymentConfig {
            resolver: ResolverConfig {
                negative_ttl_s: 5,
                ..Default::default()
            },
            ..DeploymentConfig::default()
        },
    );
    // A location outside every venue: initially only the outdoor map.
    let corner = dep.world.config.center.destination(45.0, 1_000.0);
    let before = dep.client.discover(corner).unwrap();
    // Spawn a new venue server there at runtime and register it.
    let venue = dep.world.venues[0].clone();
    let server = openflame_mapserver::MapServer::spawn_on(
        &dep.transport,
        openflame_mapserver::MapServerConfig {
            id: "popup-store".into(),
            map: venue.map.clone(),
            beacons: vec![],
            tags: openflame_localize::TagRegistry::new(),
            policy: AccessPolicy::open(),
            portals: vec![],
            location_hint: corner,
            radius_m: 50.0,
            build_ch: false,
        },
    );
    dep.register(&server);
    // Cached (possibly negative) answers hide it until TTL expiry.
    dep.transport.advance_us(301 * 1_000_000);
    let after = dep.client.discover(corner).unwrap();
    assert!(
        after.len() > before.len(),
        "new registration visible after TTL"
    );
    assert!(after.iter().any(|s| s.server_id == "popup-store"));
}

#[test]
fn packet_loss_surfaces_as_client_errors_not_panics() {
    let dep = Deployment::build(small_world(), DeploymentConfig::default());
    dep.transport.set_drop_probability(0.35);
    dep.transport.set_timeout_us(10_000);
    let hint = dep.world.venues[0].hint;
    // Run a bunch of operations; all must return Ok or Err, never panic.
    for i in 0..10 {
        let _ = dep.client.discover(hint);
        let _ = dep.client.federated_search("seaweed", hint, 3);
        let _ = dep.client.federated_localize(
            hint,
            &[LocationCue::Gnss {
                fix: hint,
                accuracy_m: 4.0,
            }],
        );
        let _ = i;
    }
}

#[test]
fn geocode_through_world_provider() {
    let dep = Deployment::build(small_world(), DeploymentConfig::default());
    // The outdoor map has addressed buildings like "105 Forbes Ave".
    let address = dep
        .world
        .outdoor
        .nodes()
        .find_map(|n| {
            n.tags
                .has("addr:housenumber")
                .then(|| n.tags.get("name").unwrap().to_string())
        })
        .expect("world has addresses");
    let hits = dep
        .client
        .federated_geocode(&address, dep.outdoor_server.endpoint(), 3)
        .unwrap();
    assert!(!hits.is_empty());
    assert!(hits[0].1.score > 0.9, "address {address:?} hits {hits:?}");
}

#[test]
fn tiles_compose_from_outdoor_provider() {
    let dep = Deployment::build(small_world(), DeploymentConfig::default());
    let tile = dep
        .client
        .federated_tile(dep.world.config.center, 16)
        .unwrap();
    assert!(tile.coverage() > 0.0, "city center tile must show streets");
}

#[test]
fn dead_tile_provider_surfaces_as_partial_failure() {
    let dep = Deployment::build(small_world(), DeploymentConfig::default());
    let center = dep.world.config.center;
    // Warm: the outdoor server's hello is cached, so the plan still
    // targets it once it is down.
    dep.client.federated_tile(center, 16).unwrap();
    dep.transport.set_down(dep.outdoor_server.endpoint(), true);
    match dep.client.federated_tile(center, 16) {
        Err(ClientError::PartialFailure { failures, .. }) => {
            assert!(
                failures.iter().any(|(_, e)| e.to_string().contains("down")),
                "failures {failures:?}"
            );
        }
        other => panic!("expected a partial failure naming the outage, got {other:?}"),
    }
    dep.transport.set_down(dep.outdoor_server.endpoint(), false);
    assert!(dep.client.federated_tile(center, 16).is_ok());
}

#[test]
fn world_scales_up_cleanly() {
    // A larger world exercises allocator paths and index growth.
    let world = World::generate(WorldConfig {
        blocks_x: 10,
        blocks_y: 10,
        stores: 12,
        products_per_store: 25,
        ..WorldConfig::default()
    });
    assert!(world.outdoor.validate().is_ok());
    let dep = Deployment::build(world, DeploymentConfig::default());
    let product = dep.world.products[100].clone();
    let hint = dep.world.venues[product.venue].hint;
    let hit = dep.client.federated_search(&product.name, hint, 3).unwrap();
    assert_eq!(hit[0].result.label, product.name);
}

#[test]
fn sharded_dns_deployment_serves_discovery() {
    let dep = Deployment::build(
        small_world(),
        DeploymentConfig {
            dns_shards: 3,
            ..DeploymentConfig::default()
        },
    );
    for venue in 0..dep.world.venues.len() {
        let hint = dep.world.venues[venue].hint;
        let found = dep.client.discover(hint).unwrap();
        assert!(
            found
                .iter()
                .any(|s| s.server_id == format!("venue-{venue}")),
            "venue {venue} undiscoverable under sharded DNS"
        );
    }
}

#[test]
fn deterministic_end_to_end() {
    let run = || {
        let dep = Deployment::build(small_world(), DeploymentConfig::default());
        let product = dep.world.products[7].clone();
        let hint = dep.world.venues[product.venue].hint;
        let hit = dep.client.federated_search(&product.name, hint, 3).unwrap();
        let route = dep
            .client
            .federated_route(hint.destination(10.0, 120.0), &hit[0])
            .unwrap();
        (
            hit[0].result.label.clone(),
            route.total_cost,
            dep.transport.now_us(),
        )
    };
    assert_eq!(run(), run(), "identical seeds must give identical runs");
}

#[test]
fn localization_denied_while_tiles_allowed() {
    // The paper §5.3 service-level example, end to end through the client.
    let policy = AccessPolicy::open().with(ServiceKind::Localize, vec![Rule::DenyAll]);
    let dep = Deployment::build(
        small_world(),
        DeploymentConfig {
            venue_policy: policy,
            ..DeploymentConfig::default()
        },
    );
    let venue = &dep.world.venues[0];
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(4);
    let radio = RadioMap::survey(
        venue.beacons.clone(),
        openflame_geo::Point2::new(-5.0, -5.0),
        openflame_geo::Point2::new(60.0, 45.0),
        2.0,
    );
    let cue = radio.observe(&mut rng, openflame_geo::Point2::new(10.0, 10.0), 2.0);
    let estimates = dep.client.federated_localize(venue.hint, &[cue]).unwrap();
    assert!(
        estimates.iter().all(|(sid, _)| !sid.starts_with("venue-")),
        "venue localization must be denied"
    );
    // Search on the same venue still works (service-level separation).
    let product = dep.world.products[0].clone();
    let hits = dep
        .client
        .federated_search(&product.name, venue.hint, 3)
        .unwrap();
    assert_eq!(hits[0].result.label, product.name);
}

#[test]
fn no_discovery_outside_registered_space() {
    let dep = Deployment::build(small_world(), DeploymentConfig::default());
    // Another continent: nothing registered there.
    let nowhere = LatLng::new(-33.86, 151.21).unwrap();
    let found = dep.client.discover(nowhere).unwrap();
    assert!(found.is_empty());
    let err = dep.client.federated_search("anything", nowhere, 3);
    assert!(matches!(
        err,
        Err(openflame_core::ClientError::NothingDiscovered(_))
    ));
}
