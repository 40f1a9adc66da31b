//! Periodic boundary conditions for a rectangular simulation box.

use crate::vec3::{vec3, Vec3};

/// A rectangular periodic box with edges along the coordinate axes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PbcBox {
    lengths: Vec3,
}

impl PbcBox {
    /// A box with the given edge lengths (nm). All must be positive.
    pub fn new(lx: f32, ly: f32, lz: f32) -> Self {
        assert!(
            lx > 0.0 && ly > 0.0 && lz > 0.0,
            "box edges must be positive"
        );
        Self {
            lengths: vec3(lx, ly, lz),
        }
    }

    /// A cubic box of edge `l`.
    pub fn cubic(l: f32) -> Self {
        Self::new(l, l, l)
    }

    /// Edge lengths.
    pub fn lengths(&self) -> Vec3 {
        self.lengths
    }

    /// Box volume in nm^3.
    pub fn volume(&self) -> f64 {
        self.lengths.x as f64 * self.lengths.y as f64 * self.lengths.z as f64
    }

    /// Minimum-image displacement `a - b`.
    #[inline]
    pub fn min_image(&self, a: Vec3, b: Vec3) -> Vec3 {
        let mut d = a - b;
        d.x -= self.lengths.x * (d.x / self.lengths.x).round();
        d.y -= self.lengths.y * (d.y / self.lengths.y).round();
        d.z -= self.lengths.z * (d.z / self.lengths.z).round();
        d
    }

    /// Squared minimum-image distance between `a` and `b`.
    #[inline]
    pub fn dist2(&self, a: Vec3, b: Vec3) -> f32 {
        self.min_image(a, b).norm2()
    }

    /// Wrap a position into `[0, L)` on each axis.
    #[inline]
    pub fn wrap(&self, p: Vec3) -> Vec3 {
        let w = |x: f32, l: f32| {
            let r = x - l * (x / l).floor();
            // Guard the x == l edge case produced by f32 rounding.
            if r >= l {
                r - l
            } else {
                r
            }
        };
        vec3(
            w(p.x, self.lengths.x),
            w(p.y, self.lengths.y),
            w(p.z, self.lengths.z),
        )
    }

    /// Largest cutoff radius compatible with the minimum-image convention.
    pub fn max_cutoff(&self) -> f32 {
        0.5 * self.lengths.x.min(self.lengths.y).min(self.lengths.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_image_picks_nearest_copy() {
        let b = PbcBox::cubic(10.0);
        let d = b.min_image(vec3(9.5, 0.0, 0.0), vec3(0.5, 0.0, 0.0));
        assert!((d.x - (-1.0)).abs() < 1e-6);
        let d2 = b.min_image(vec3(3.0, 0.0, 0.0), vec3(1.0, 0.0, 0.0));
        assert!((d2.x - 2.0).abs() < 1e-6);
    }

    #[test]
    fn wrap_lands_inside() {
        let b = PbcBox::new(4.0, 5.0, 6.0);
        for p in [
            vec3(-0.1, 5.1, 12.5),
            vec3(4.0, 5.0, 6.0),
            vec3(-8.3, 0.0, 1.0),
        ] {
            let w = b.wrap(p);
            assert!(w.x >= 0.0 && w.x < 4.0, "{w:?}");
            assert!(w.y >= 0.0 && w.y < 5.0, "{w:?}");
            assert!(w.z >= 0.0 && w.z < 6.0, "{w:?}");
        }
    }

    #[test]
    fn wrap_preserves_min_image_distances() {
        let b = PbcBox::cubic(3.0);
        let a = vec3(2.9, 2.9, 2.9);
        let c = vec3(0.1, 0.1, 0.1);
        let before = b.dist2(a, c);
        let after = b.dist2(b.wrap(a + vec3(3.0, -6.0, 9.0)), c);
        assert!((before - after).abs() < 1e-5);
    }

    #[test]
    fn max_cutoff_is_half_min_edge() {
        let b = PbcBox::new(4.0, 6.0, 8.0);
        assert_eq!(b.max_cutoff(), 2.0);
    }

    #[test]
    fn volume() {
        assert!((PbcBox::new(2.0, 3.0, 4.0).volume() - 24.0).abs() < 1e-9);
    }
}
