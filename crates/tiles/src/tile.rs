//! The tile pixel grid.

/// Edge length of a tile in pixels.
pub const TILE_SIZE: usize = 256;

/// Background color (treated as transparent when composing).
pub const BACKGROUND: u32 = 0xFFF2_EFE9;

/// Slippy-map tile coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TileCoord {
    /// Zoom level.
    pub z: u8,
    /// Column.
    pub x: u32,
    /// Row.
    pub y: u32,
}

impl TileCoord {
    /// Whether the address names a tile of the slippy grid: zoom `z`
    /// has `2^z` columns and rows, and 32 is the deepest zoom whose
    /// indices fit `x`/`y`. `GetTile` answers anything else with an
    /// error (spec §2.2).
    pub fn in_grid(&self) -> bool {
        self.z <= 32 && u64::from(self.x.max(self.y)) < 1u64 << self.z
    }
}

/// A rendered square tile of ARGB pixels (0xAARRGGBB).
#[derive(Debug, Clone, PartialEq)]
pub struct Tile {
    /// The tile address.
    pub coord: TileCoord,
    pixels: Vec<u32>,
}

impl Tile {
    /// A blank (background-colored) tile.
    pub fn blank(coord: TileCoord) -> Self {
        Self {
            coord,
            pixels: vec![BACKGROUND; TILE_SIZE * TILE_SIZE],
        }
    }

    /// Pixel at `(x, y)`; out-of-bounds reads return the background.
    pub fn get(&self, x: i64, y: i64) -> u32 {
        if x < 0 || y < 0 || x >= TILE_SIZE as i64 || y >= TILE_SIZE as i64 {
            return BACKGROUND;
        }
        self.pixels[y as usize * TILE_SIZE + x as usize]
    }

    /// Sets pixel `(x, y)` if in bounds.
    pub fn set(&mut self, x: i64, y: i64, color: u32) {
        if x >= 0 && y >= 0 && x < TILE_SIZE as i64 && y < TILE_SIZE as i64 {
            self.pixels[y as usize * TILE_SIZE + x as usize] = color;
        }
    }

    /// Raw pixel access.
    pub fn pixels(&self) -> &[u32] {
        &self.pixels
    }

    /// Mutable raw pixel access (row-major, `TILE_SIZE`² entries).
    pub(crate) fn pixels_mut(&mut self) -> &mut [u32] {
        &mut self.pixels
    }

    /// Fraction of pixels that differ from the background.
    pub fn coverage(&self) -> f64 {
        let painted = self.pixels.iter().filter(|&&p| p != BACKGROUND).count();
        painted as f64 / self.pixels.len() as f64
    }

    /// Serializes as a binary PPM (P6) image: the P6 header followed by
    /// [`Tile::to_rgb`].
    pub fn to_ppm(&self) -> Vec<u8> {
        let header = format!("P6\n{TILE_SIZE} {TILE_SIZE}\n255\n").into_bytes();
        [header, self.to_rgb()].concat()
    }

    /// The RGB wire form used by `GetTile` responses: three bytes per
    /// pixel, row-major, alpha dropped. The inverse of
    /// [`Tile::from_rgb`] for opaque tiles, which every rendered tile is.
    pub fn to_rgb(&self) -> Vec<u8> {
        let mut rgb = vec![0u8; self.pixels.len() * 3];
        for (out, px) in rgb.chunks_exact_mut(3).zip(&self.pixels) {
            out.copy_from_slice(&px.to_be_bytes()[1..]);
        }
        rgb
    }

    /// Approximate byte size on the wire (uncompressed pixels).
    pub fn byte_size(&self) -> usize {
        self.pixels.len() * 3
    }

    /// Rebuilds a tile from raw RGB bytes (the wire form used by
    /// `GetTile` responses, see [`Tile::to_rgb`]). Returns `None` on
    /// size mismatch.
    pub fn from_rgb(coord: TileCoord, rgb: &[u8]) -> Option<Self> {
        if rgb.len() != TILE_SIZE * TILE_SIZE * 3 {
            return None;
        }
        let pixels = rgb
            .chunks_exact(3)
            .map(|px| u32::from_be_bytes([0xFF, px[0], px[1], px[2]]))
            .collect();
        Some(Self { coord, pixels })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blank_tile_is_background() {
        let t = Tile::blank(TileCoord { z: 3, x: 1, y: 2 });
        assert_eq!(t.coverage(), 0.0);
        assert_eq!(t.get(0, 0), BACKGROUND);
        assert_eq!(t.get(255, 255), BACKGROUND);
    }

    #[test]
    fn set_get_round_trip() {
        let mut t = Tile::blank(TileCoord { z: 0, x: 0, y: 0 });
        t.set(10, 20, 0xFF00FF00);
        assert_eq!(t.get(10, 20), 0xFF00FF00);
        assert!(t.coverage() > 0.0);
    }

    #[test]
    fn out_of_bounds_safe() {
        let mut t = Tile::blank(TileCoord { z: 0, x: 0, y: 0 });
        t.set(-1, 0, 0xFFFFFFFF);
        t.set(0, 99999, 0xFFFFFFFF);
        assert_eq!(t.get(-1, 0), BACKGROUND);
        assert_eq!(t.get(0, 99999), BACKGROUND);
        assert_eq!(t.coverage(), 0.0);
    }

    #[test]
    fn ppm_header_and_size() {
        let t = Tile::blank(TileCoord { z: 0, x: 0, y: 0 });
        let ppm = t.to_ppm();
        assert!(ppm.starts_with(b"P6\n256 256\n255\n"));
        assert_eq!(ppm.len(), 15 + 256 * 256 * 3);
    }
}
