//! Criterion micro-benches for rasterization and stitching (backs E7's
//! throughput table).

use criterion::{criterion_group, criterion_main, Criterion};
use openflame_geo::Mercator;
use openflame_tiles::stitch::compose;
use openflame_tiles::{Tile, TileCoord, TileRenderer};
use openflame_worldgen::{World, WorldConfig};
use std::time::Duration;

fn bench_tiles(c: &mut Criterion) {
    let world = World::generate(WorldConfig::default());
    let renderer = TileRenderer::new(&world.outdoor).unwrap();
    let (x, y) = Mercator::tile_for(world.config.center, 16);
    let mut group = c.benchmark_group("tiles");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(2));
    group.bench_function("render_z16_cold", |b| {
        let mut n = 0u32;
        b.iter(|| {
            // Vary the coordinate to dodge the cache.
            n = n.wrapping_add(1);
            let fresh = TileRenderer::new(&world.outdoor).unwrap();
            fresh.tile(TileCoord { z: 16, x, y })
        })
    });
    group.bench_function("render_z16_cached", |b| {
        b.iter(|| renderer.tile(TileCoord { z: 16, x, y }))
    });
    let a = Tile::blank(TileCoord { z: 16, x, y });
    let tile_b = renderer.tile(TileCoord { z: 16, x, y });
    group.bench_function("compose_1_layer", |b| b.iter(|| compose(&[&tile_b])));
    group.bench_function("compose_2_layers", |b| b.iter(|| compose(&[&a, &tile_b])));
    group.bench_function("to_ppm", |b| b.iter(|| tile_b.to_ppm()));
    let rgb = tile_b.to_rgb();
    group.bench_function("from_rgb", |b| {
        b.iter(|| Tile::from_rgb(TileCoord { z: 16, x, y }, &rgb))
    });
    group.finish();
}

criterion_group!(benches, bench_tiles);
criterion_main!(benches);
