//! Rendering map documents into tiles, with caching.

use crate::raster::{draw_disc, draw_line, fill_polygon};
use crate::style::style_for;
use crate::tile::{Tile, TileCoord, TILE_SIZE};
use openflame_geo::{LatLng, Mercator, Point2};
use openflame_mapdata::MapDocument;
use std::collections::HashMap;
use std::sync::Arc;

/// Renders a geo-anchored map document into slippy tiles.
///
/// Rendering follows the centralized pipeline of paper §4.1 — tiles can be
/// pre-rendered for a zoom range or rendered on demand into a cache —
/// but each *federated* server only holds its own map, so its tiles are
/// mostly background outside its region; the client composes tiles from
/// many servers (see [`crate::stitch`]).
///
/// The cache holds each tile together with its RGB wire form
/// ([`Tile::to_rgb`]), encoded once when the tile is rendered: paper §4.1's
/// pre-rendering extends to the encoding, so serving a cached tile
/// ([`TileRenderer::tile_rgb`]) copies bytes instead of re-packing
/// pixels. The cache is bounded by [`CACHE_CAP_BYTES`]: past it, the
/// least recently used tiles are evicted and re-rendered on demand.
pub struct TileRenderer {
    /// Projected world coordinates (unit square) per node, plus tags.
    features: Vec<Feature>,
    cache: openflame_diag::OrderedMutex<TileCache>,
    render_count: std::sync::atomic::AtomicU64,
}

/// Byte budget of one renderer's tile cache. A cached tile holds its
/// ARGB pixels and its RGB wire form, 448 KiB at 256 × 256, so the cap
/// keeps about 146 tiles: several times the working set of one map
/// server in the benchmark workloads (at most 22 distinct tiles per
/// renderer over a 10 s run), while requests for ever new `(z, x, y)`
/// can no longer grow a server's memory without bound.
pub const CACHE_CAP_BYTES: usize = 64 << 20;

/// One cache entry: a rendered tile and its RGB wire form.
#[derive(Clone)]
struct Rendered {
    tile: Arc<Tile>,
    rgb: Arc<[u8]>,
}

impl Rendered {
    fn bytes(&self) -> usize {
        std::mem::size_of_val(self.tile.pixels()) + self.rgb.len()
    }
}

/// Rendered tiles by address, each stamped with its last use; the
/// least recently used go first once the cache outgrows
/// [`CACHE_CAP_BYTES`].
#[derive(Default)]
struct TileCache {
    entries: HashMap<TileCoord, (Rendered, u64)>,
    bytes: usize,
    clock: u64,
    evictions: u64,
}

impl TileCache {
    fn get(&mut self, coord: TileCoord) -> Option<Rendered> {
        self.clock += 1;
        let (rendered, used) = self.entries.get_mut(&coord)?;
        *used = self.clock;
        Some(rendered.clone())
    }

    fn insert(&mut self, coord: TileCoord, rendered: Rendered) {
        self.clock += 1;
        self.bytes += rendered.bytes();
        if let Some((old, _)) = self.entries.insert(coord, (rendered, self.clock)) {
            // Two threads rendered the same miss; keep the newer copy.
            self.bytes -= old.bytes();
        }
        while self.bytes > CACHE_CAP_BYTES {
            let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(coord, _)| *coord)
            else {
                break;
            };
            if let Some((evicted, _)) = self.entries.remove(&oldest) {
                self.bytes -= evicted.bytes();
                self.evictions += 1;
            }
        }
    }
}

enum Feature {
    Node {
        world: Point2,
        style: crate::style::Style,
    },
    Way {
        world: Vec<Point2>,
        style: crate::style::Style,
        closed: bool,
    },
}

impl TileRenderer {
    /// Builds a renderer for an anchored map. Returns `None` if the map
    /// is unaligned (no geographic meaning; use
    /// [`crate::stitch::render_unaligned_overlay`] instead).
    pub fn new(map: &MapDocument) -> Option<Self> {
        let georef = map.georef();
        georef.to_geo(Point2::ZERO)?;
        let project = |p: Point2| -> Point2 {
            let geo = georef.to_geo(p).expect("anchored");
            Mercator::project(geo)
        };
        let mut features = Vec::new();
        for node in map.nodes() {
            if let Some(style) = style_for(&node.tags) {
                features.push(Feature::Node {
                    world: project(node.pos),
                    style,
                });
            }
        }
        for way in map.ways() {
            if let Some(style) = style_for(&way.tags) {
                if let Some(geom) = map.way_geometry(way.id) {
                    features.push(Feature::Way {
                        world: geom.into_iter().map(project).collect(),
                        style,
                        closed: way.is_closed(),
                    });
                }
            }
        }
        // Draw lower layers first.
        features.sort_by_key(|f| match f {
            Feature::Node { style, .. } | Feature::Way { style, .. } => style.layer,
        });
        Some(Self {
            features,
            cache: openflame_diag::OrderedMutex::new(
                openflame_diag::ranks::TILE_CACHE,
                TileCache::default(),
            ),
            render_count: std::sync::atomic::AtomicU64::new(0),
        })
    }

    /// Number of drawable features.
    pub fn feature_count(&self) -> usize {
        self.features.len()
    }

    /// Number of tiles rendered (not served from cache).
    pub fn renders_performed(&self) -> u64 {
        self.render_count.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Tiles currently cached.
    pub fn cached_tiles(&self) -> usize {
        self.cache.lock().entries.len()
    }

    /// Bytes the cache currently holds (at most [`CACHE_CAP_BYTES`]).
    pub fn cache_bytes(&self) -> usize {
        self.cache.lock().bytes
    }

    /// Tiles evicted from the cache to stay under [`CACHE_CAP_BYTES`].
    pub fn evictions(&self) -> u64 {
        self.cache.lock().evictions
    }

    /// Renders (or fetches from cache) one tile.
    pub fn tile(&self, coord: TileCoord) -> Arc<Tile> {
        self.rendered(coord).tile
    }

    /// One tile's RGB wire form ([`Tile::to_rgb`]), rendering and
    /// encoding it on a cache miss.
    pub fn tile_rgb(&self, coord: TileCoord) -> Arc<[u8]> {
        self.rendered(coord).rgb
    }

    fn rendered(&self, coord: TileCoord) -> Rendered {
        if let Some(hit) = self.cache.lock().get(coord) {
            return hit;
        }
        let tile = self.render(coord);
        let entry = Rendered {
            rgb: tile.to_rgb().into(),
            tile: Arc::new(tile),
        };
        self.cache.lock().insert(coord, entry.clone());
        entry
    }

    /// Pre-renders every tile covering `nw`–`se` for zooms
    /// `z_min..=z_max`, returning how many tiles were produced (paper §4.1:
    /// "the tile rendering service might pre-render tiles ... even
    /// before they are requested").
    pub fn prerender(&self, nw: LatLng, se: LatLng, z_min: u8, z_max: u8) -> usize {
        let mut count = 0;
        for z in z_min..=z_max {
            let (x0, y0) = Mercator::tile_for(nw, z);
            let (x1, y1) = Mercator::tile_for(se, z);
            for x in x0.min(x1)..=x0.max(x1) {
                for y in y0.min(y1)..=y0.max(y1) {
                    self.tile(TileCoord { z, x, y });
                    count += 1;
                }
            }
        }
        count
    }

    fn render(&self, coord: TileCoord) -> Tile {
        self.render_count
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut tile = Tile::blank(coord);
        let n = (1u64 << coord.z) as f64;
        let scale = n * TILE_SIZE as f64;
        let origin_x = coord.x as f64 * TILE_SIZE as f64;
        let origin_y = coord.y as f64 * TILE_SIZE as f64;
        let to_px = |w: Point2| -> (i64, i64) {
            (
                (w.x * scale - origin_x).round() as i64,
                (w.y * scale - origin_y).round() as i64,
            )
        };
        let margin = 16i64;
        let in_range = |(x, y): (i64, i64)| {
            x > -margin
                && y > -margin
                && x < TILE_SIZE as i64 + margin
                && y < TILE_SIZE as i64 + margin
        };
        for feature in &self.features {
            match feature {
                Feature::Node { world, style } => {
                    let px = to_px(*world);
                    if in_range(px) {
                        draw_disc(&mut tile, px.0, px.1, style.width, style.color);
                    }
                }
                Feature::Way {
                    world,
                    style,
                    closed,
                } => {
                    let px: Vec<(i64, i64)> = world.iter().map(|w| to_px(*w)).collect();
                    // Skip ways entirely far outside this tile.
                    if !px.iter().any(|&p| in_range(p)) && px.len() < 64 {
                        continue;
                    }
                    if *closed && style.fill {
                        fill_polygon(&mut tile, &px, style.color);
                    } else {
                        for w in px.windows(2) {
                            draw_line(
                                &mut tile,
                                w[0].0,
                                w[0].1,
                                w[1].0,
                                w[1].1,
                                style.color,
                                style.width,
                            );
                        }
                    }
                }
            }
        }
        tile
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openflame_mapdata::{GeoReference, Tags};

    fn city_map() -> MapDocument {
        let origin = LatLng::new(40.4433, -79.9436).unwrap();
        let mut map = MapDocument::new("city", "t", GeoReference::Anchored { origin });
        // A 500 m road east and a building.
        let a = map.add_node(Point2::new(0.0, 0.0), Tags::new());
        let b = map.add_node(Point2::new(500.0, 0.0), Tags::new());
        map.add_way(vec![a, b], Tags::new().with("highway", "primary"))
            .unwrap();
        let c1 = map.add_node(Point2::new(100.0, 50.0), Tags::new());
        let c2 = map.add_node(Point2::new(150.0, 50.0), Tags::new());
        let c3 = map.add_node(Point2::new(150.0, 100.0), Tags::new());
        let c4 = map.add_node(Point2::new(100.0, 100.0), Tags::new());
        map.add_way(
            vec![c1, c2, c3, c4, c1],
            Tags::new().with("building", "yes"),
        )
        .unwrap();
        map.add_node(
            Point2::new(250.0, 20.0),
            Tags::new().with("amenity", "restaurant"),
        );
        map
    }

    #[test]
    fn unaligned_maps_have_no_geo_renderer() {
        let map = MapDocument::new("x", "t", GeoReference::Unaligned { hint: None });
        assert!(TileRenderer::new(&map).is_none());
    }

    #[test]
    fn renders_features_on_covering_tile() {
        let map = city_map();
        let r = TileRenderer::new(&map).unwrap();
        assert_eq!(r.feature_count(), 3);
        let origin = LatLng::new(40.4433, -79.9436).unwrap();
        let (x, y) = Mercator::tile_for(origin, 16);
        let tile = r.tile(TileCoord { z: 16, x, y });
        assert!(tile.coverage() > 0.001, "coverage {}", tile.coverage());
    }

    #[test]
    fn empty_area_tile_is_blank() {
        let map = city_map();
        let r = TileRenderer::new(&map).unwrap();
        let far = LatLng::new(48.85, 2.35).unwrap();
        let (x, y) = Mercator::tile_for(far, 16);
        let tile = r.tile(TileCoord { z: 16, x, y });
        assert_eq!(tile.coverage(), 0.0);
    }

    #[test]
    fn cache_avoids_rerender() {
        let map = city_map();
        let r = TileRenderer::new(&map).unwrap();
        let coord = TileCoord {
            z: 14,
            x: 100,
            y: 200,
        };
        let t1 = r.tile(coord);
        let t2 = r.tile(coord);
        assert!(Arc::ptr_eq(&t1, &t2));
        assert_eq!(r.renders_performed(), 1);
    }

    #[test]
    fn cached_wire_form_round_trips_the_rendered_tile() {
        let r = TileRenderer::new(&city_map()).unwrap();
        let origin = LatLng::new(40.4433, -79.9436).unwrap();
        let (x, y) = Mercator::tile_for(origin, 16);
        let coord = TileCoord { z: 16, x, y };
        let tile = r.tile(coord);
        assert!(tile.coverage() > 0.0);
        assert_eq!(&*r.tile_rgb(coord), tile.to_rgb().as_slice());
        assert_eq!(Tile::from_rgb(coord, &tile.to_rgb()).as_ref(), Some(&*tile));
        assert_eq!(
            r.renders_performed(),
            1,
            "tile and wire form share one render"
        );
    }

    /// Renders distinct z16 tiles west of `origin` until the cache has
    /// evicted, touching `hot` between renders; returns how many.
    fn overfill(r: &TileRenderer, origin: TileCoord, hot: TileCoord) -> u32 {
        let mut n = 0;
        while r.evictions() < 4 {
            n += 1;
            r.tile_rgb(TileCoord {
                x: origin.x - n,
                ..origin
            });
            r.tile_rgb(hot);
        }
        n
    }

    #[test]
    fn cache_evicts_least_recently_used_under_its_byte_cap() {
        let map = city_map();
        let r = TileRenderer::new(&map).unwrap();
        let (x, y) = Mercator::tile_for(LatLng::new(40.4433, -79.9436).unwrap(), 16);
        let first = TileCoord { z: 16, x, y };
        let hot = TileCoord { y: y + 1, ..first };
        let first_rgb = r.tile_rgb(first);
        let filled = overfill(&r, first, hot);
        assert!(r.cache_bytes() <= CACHE_CAP_BYTES);
        assert_eq!(
            r.cached_tiles() as u64 + r.evictions(),
            u64::from(filled) + 2
        );
        // The hot tile stayed; the cold first tile went and comes back
        // as a fresh render, byte-identical to the evicted copy and to
        // an independent renderer's.
        let renders = r.renders_performed();
        r.tile_rgb(hot);
        assert_eq!(r.renders_performed(), renders, "the hot tile stayed cached");
        let again = r.tile_rgb(first);
        assert_eq!(
            r.renders_performed(),
            renders + 1,
            "the cold tile was evicted"
        );
        assert_eq!(again, first_rgb);
        assert_eq!(again, TileRenderer::new(&map).unwrap().tile_rgb(first));
    }

    #[test]
    fn slippy_grid_bounds() {
        let at = |z, x, y| TileCoord { z, x, y }.in_grid();
        assert!(at(0, 0, 0));
        assert!(!at(0, 1, 0));
        assert!(at(2, 3, 3));
        assert!(!at(2, 4, 0));
        assert!(!at(2, 0, 4));
        assert!(at(32, u32::MAX, u32::MAX));
        assert!(!at(33, 0, 0));
    }

    #[test]
    fn prerender_counts_pyramid() {
        let map = city_map();
        let r = TileRenderer::new(&map).unwrap();
        let origin = LatLng::new(40.4433, -79.9436).unwrap();
        let nw = origin.destination(315.0, 400.0);
        let se = origin.destination(135.0, 400.0);
        let n = r.prerender(nw, se, 14, 16);
        assert!(n >= 3, "at least one tile per zoom, got {n}");
        assert_eq!(r.renders_performed() as usize, n);
        // Subsequent requests are all cache hits.
        r.prerender(nw, se, 14, 16);
        assert_eq!(r.renders_performed() as usize, n);
    }

    #[test]
    fn higher_zoom_tiles_show_more_detail() {
        let map = city_map();
        let r = TileRenderer::new(&map).unwrap();
        let origin = LatLng::new(40.4433, -79.9436).unwrap();
        let (x14, y14) = Mercator::tile_for(origin, 14);
        let (x17, y17) = Mercator::tile_for(origin, 17);
        let z14 = r.tile(TileCoord {
            z: 14,
            x: x14,
            y: y14,
        });
        let z17 = r.tile(TileCoord {
            z: 17,
            x: x17,
            y: y17,
        });
        // At high zoom the road is thicker in relative terms; both must
        // show something, and they must differ.
        assert!(z14.coverage() > 0.0);
        assert!(z17.coverage() > 0.0);
        assert_ne!(z14.pixels(), z17.pixels());
    }
}
