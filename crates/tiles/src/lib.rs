//! Tile rendering substrate.
//!
//! "Tile rendering powers interactive maps by delivering map tiles — 2D
//! images or 3D meshes — based on the user's latitude, longitude, and
//! zoom level" (paper §4). Each federated map server exposes a visual
//! representation of its own map; the client downloads tiles from
//! multiple discovered servers and stitches them, using manual
//! correspondences to bridge coordinate frames (paper §5.2, MapCruncher-style).
//!
//! Everything is from scratch:
//!
//! - [`Tile`] — an RGBA pixel grid addressed by `(z, x, y)` slippy
//!   coordinates, with its RGB wire form and PPM export,
//! - [`raster`] — Bresenham lines, scanline polygon fill, discs,
//! - [`TileRenderer`] — style-mapped rendering of a map document into
//!   tiles, with an on-demand cache of tiles and their wire form, and
//!   pre-rendering (paper §4.1),
//! - [`compose`](stitch::compose) / [`render_unaligned_overlay`](stitch::render_unaligned_overlay)
//!   — client-side stitching of tiles from multiple servers, including
//!   venues whose frames need a fitted affine transform.

pub mod raster;
pub mod render;
pub mod stitch;
pub mod style;
pub mod tile;

pub use render::TileRenderer;
pub use style::{style_for, Style};
pub use tile::{Tile, TileCoord, TILE_SIZE};
