//! Client-side tile stitching across servers and coordinate frames.

use crate::raster::{draw_disc, draw_line};
use crate::style::style_for;
use crate::tile::{Tile, TileCoord, BACKGROUND, TILE_SIZE};
use openflame_geo::{Affine2, LocalFrame, Mercator, Point2};
use openflame_mapdata::MapDocument;

/// Composes tiles from multiple servers for the same coordinate:
/// later tiles paint over earlier ones wherever they are not
/// background. This is the client-side "download these representations
/// from multiple discovered map servers and stitch them together"
/// step of paper §5.2.
///
/// Painting one layer over a blank tile reproduces it, so `compose` of
/// a single layer is the identity: callers holding exactly one layer
/// can use it as is.
///
/// # Panics
///
/// Panics if the tiles do not share the same coordinate.
pub fn compose(layers: &[&Tile]) -> Tile {
    let Some((first, rest)) = layers.split_first() else {
        return Tile::blank(TileCoord { z: 0, x: 0, y: 0 });
    };
    let mut out = (*first).clone();
    for layer in rest {
        assert_eq!(
            layer.coord, first.coord,
            "composing tiles from different coordinates"
        );
        for (dst, &px) in out.pixels_mut().iter_mut().zip(layer.pixels()) {
            if px != BACKGROUND {
                *dst = px;
            }
        }
    }
    out
}

/// Renders an *unaligned* venue map onto a geo tile, given the fitted
/// similarity/affine transform from the venue's local frame to the ENU
/// frame at `anchor` (obtained from manual correspondences via
/// [`Affine2::fit_similarity`] — the MapCruncher mechanism of paper §5.2).
pub fn render_unaligned_overlay(
    map: &MapDocument,
    local_to_enu: &Affine2,
    anchor: openflame_geo::LatLng,
    coord: TileCoord,
) -> Tile {
    let frame = LocalFrame::new(anchor);
    let n = (1u64 << coord.z) as f64;
    let scale = n * TILE_SIZE as f64;
    let origin_x = coord.x as f64 * TILE_SIZE as f64;
    let origin_y = coord.y as f64 * TILE_SIZE as f64;
    let to_px = |local: Point2| -> (i64, i64) {
        let enu = local_to_enu.apply(local);
        let world = Mercator::project(frame.from_local(enu));
        (
            (world.x * scale - origin_x).round() as i64,
            (world.y * scale - origin_y).round() as i64,
        )
    };
    let mut tile = Tile::blank(coord);
    for node in map.nodes() {
        if let Some(style) = style_for(&node.tags) {
            let (x, y) = to_px(node.pos);
            draw_disc(&mut tile, x, y, style.width, style.color);
        }
    }
    for way in map.ways() {
        let Some(style) = style_for(&way.tags) else {
            continue;
        };
        let Some(geom) = map.way_geometry(way.id) else {
            continue;
        };
        let px: Vec<(i64, i64)> = geom.into_iter().map(to_px).collect();
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
    tile
}

#[cfg(test)]
mod tests {
    use super::*;
    use openflame_geo::LatLng;
    use openflame_mapdata::{GeoReference, Tags};

    fn coord() -> TileCoord {
        TileCoord {
            z: 16,
            x: 10,
            y: 20,
        }
    }

    #[test]
    fn compose_overlays_nonbackground() {
        let mut a = Tile::blank(coord());
        a.set(5, 5, 0xFF111111);
        a.set(6, 6, 0xFF111111);
        let mut b = Tile::blank(coord());
        b.set(6, 6, 0xFF222222);
        let out = compose(&[&a, &b]);
        assert_eq!(out.get(5, 5), 0xFF111111, "from the lower layer");
        assert_eq!(out.get(6, 6), 0xFF222222, "upper layer wins overlaps");
        assert_eq!(out.get(7, 7), BACKGROUND);
    }

    #[test]
    fn compose_of_one_layer_is_the_identity() {
        let mut a = Tile::blank(coord());
        a.set(5, 5, 0xFF111111);
        assert_eq!(compose(&[&a]), a);
    }

    #[test]
    fn compose_empty_inputs() {
        let out = compose(&[]);
        assert_eq!(out.coverage(), 0.0);
    }

    #[test]
    #[should_panic(expected = "different coordinates")]
    fn compose_rejects_mismatched_coords() {
        let a = Tile::blank(coord());
        let b = Tile::blank(TileCoord {
            z: 16,
            x: 11,
            y: 20,
        });
        let _ = compose(&[&a, &b]);
    }

    #[test]
    fn unaligned_overlay_lands_on_expected_tile() {
        // A venue map in a rotated local frame, with the true transform
        // known; the overlay must paint pixels on the tile containing
        // the anchor.
        let anchor = LatLng::new(40.4433, -79.9436).unwrap();
        let mut venue = MapDocument::new("store", "t", GeoReference::Unaligned { hint: None });
        let a = venue.add_node(Point2::new(0.0, 0.0), Tags::new());
        let b = venue.add_node(Point2::new(30.0, 0.0), Tags::new());
        venue
            .add_way(vec![a, b], Tags::new().with("indoor", "corridor"))
            .unwrap();
        let truth = Affine2::similarity(0.4, 1.0, Point2::new(10.0, 5.0));
        let (x, y) = Mercator::tile_for(anchor, 18);
        let tile = render_unaligned_overlay(&venue, &truth, anchor, TileCoord { z: 18, x, y });
        assert!(tile.coverage() > 0.0, "overlay should draw the corridor");
    }

    #[test]
    fn overlay_respects_transform() {
        // With a transform that shifts the venue 10 km away, nothing
        // lands on the anchor tile.
        let anchor = LatLng::new(40.4433, -79.9436).unwrap();
        let mut venue = MapDocument::new("store", "t", GeoReference::Unaligned { hint: None });
        let a = venue.add_node(Point2::new(0.0, 0.0), Tags::new());
        let b = venue.add_node(Point2::new(30.0, 0.0), Tags::new());
        venue
            .add_way(vec![a, b], Tags::new().with("indoor", "corridor"))
            .unwrap();
        let far = Affine2::similarity(0.0, 1.0, Point2::new(10_000.0, 0.0));
        let (x, y) = Mercator::tile_for(anchor, 18);
        let tile = render_unaligned_overlay(&venue, &far, anchor, TileCoord { z: 18, x, y });
        assert_eq!(tile.coverage(), 0.0);
    }

    #[test]
    fn fitted_transform_aligns_with_truth() {
        // End-to-end E7 mechanics: fit a transform from correspondences
        // and verify the overlay matches the truth-rendered overlay.
        let anchor = LatLng::new(40.4433, -79.9436).unwrap();
        let truth = Affine2::similarity(-0.3, 1.0, Point2::new(25.0, -12.0));
        let mut venue = MapDocument::new("store", "t", GeoReference::Unaligned { hint: None });
        let a = venue.add_node(Point2::new(0.0, 0.0), Tags::new());
        let b = venue.add_node(Point2::new(40.0, 0.0), Tags::new());
        let c = venue.add_node(Point2::new(40.0, 25.0), Tags::new());
        venue
            .add_way(vec![a, b, c], Tags::new().with("indoor", "aisle"))
            .unwrap();
        // Four manual correspondences.
        let srcs = [
            Point2::new(0.0, 0.0),
            Point2::new(40.0, 0.0),
            Point2::new(40.0, 25.0),
            Point2::new(0.0, 25.0),
        ];
        let pairs: Vec<_> = srcs.iter().map(|&s| (s, truth.apply(s))).collect();
        let fitted = Affine2::fit_similarity(&pairs).unwrap();
        let (x, y) = Mercator::tile_for(anchor, 19);
        let coord = TileCoord { z: 19, x, y };
        let tile_truth = render_unaligned_overlay(&venue, &truth, anchor, coord);
        let tile_fit = render_unaligned_overlay(&venue, &fitted, anchor, coord);
        assert_eq!(tile_truth.pixels(), tile_fit.pixels());
    }
}
