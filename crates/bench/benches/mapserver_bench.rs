//! Criterion micro-benches for per-request map-server cost, served
//! through `MapServer::wire_service` (envelope decode, dispatch,
//! response encode) with no network: the handshake every new session
//! pays, and a tile from a warm render cache.

use criterion::{criterion_group, criterion_main, Criterion};
use openflame_codec::to_bytes;
use openflame_core::{Deployment, DeploymentConfig};
use openflame_geo::Mercator;
use openflame_mapserver::protocol::{Envelope, Request};
use openflame_mapserver::Principal;
use openflame_netsim::EndpointId;
use openflame_worldgen::{World, WorldConfig};
use std::time::Duration;

fn bench_mapserver(c: &mut Criterion) {
    let dep = Deployment::build(
        World::generate(WorldConfig::default()),
        DeploymentConfig::default(),
    );
    let envelope = |request: Request| {
        to_bytes(&Envelope {
            principal: Principal::anonymous(),
            request,
        })
        .to_vec()
    };
    let hello = envelope(Request::Batch(vec![Request::Hello]));
    let (x, y) = Mercator::tile_for(dep.world.config.center, 16);
    let get_tile = envelope(Request::GetTile { z: 16, x, y });
    let outdoor = dep.outdoor_server.wire_service();
    let venue = dep.venue_servers[0].wire_service();
    let from = EndpointId(0);
    // Render once so the timed requests hit the cache.
    outdoor.handle(from, &get_tile);

    let mut group = c.benchmark_group("mapserver");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(2));
    group.bench_function("hello_outdoor", |b| b.iter(|| outdoor.handle(from, &hello)));
    group.bench_function("hello_venue", |b| b.iter(|| venue.handle(from, &hello)));
    group.bench_function("get_tile_warm", |b| {
        b.iter(|| outdoor.handle(from, &get_tile))
    });
    group.finish();
}

criterion_group!(benches, bench_mapserver);
criterion_main!(benches);
