//! Problem geometry: the mapping between index space and physical space.

use exastro_parallel::{IndexBox, IntVect, Real, SPACEDIM};

/// Coordinate system. The astro codes support Cartesian and axisymmetric
/// cylindrical (used for the 2-D white-dwarf merger studies, §V); this
/// reproduction implements Cartesian volumes and exposes the coordinate tag
/// for problem setups that need it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoordSys {
    /// Cartesian x/y/z.
    Cartesian,
    /// Axisymmetric r/z (2-D); the third index is degenerate.
    CylindricalRZ,
}

/// Geometry of one refinement level: index-space domain, physical extent,
/// periodicity, and coordinate system.
#[derive(Clone, Debug)]
pub struct Geometry {
    domain: IndexBox,
    prob_lo: [Real; SPACEDIM],
    prob_hi: [Real; SPACEDIM],
    periodic: [bool; SPACEDIM],
    coord: CoordSys,
    dx: [Real; SPACEDIM],
}

impl Geometry {
    /// Create a geometry for `domain` spanning `[prob_lo, prob_hi]`.
    pub fn new(
        domain: IndexBox,
        prob_lo: [Real; SPACEDIM],
        prob_hi: [Real; SPACEDIM],
        periodic: [bool; SPACEDIM],
        coord: CoordSys,
    ) -> Self {
        assert!(!domain.is_empty(), "geometry domain must be non-empty");
        let size = domain.size();
        let mut dx = [0.0; SPACEDIM];
        for d in 0..SPACEDIM {
            assert!(
                prob_hi[d] > prob_lo[d],
                "prob_hi must exceed prob_lo in dim {d}"
            );
            dx[d] = (prob_hi[d] - prob_lo[d]) / size[d] as Real;
        }
        Geometry {
            domain,
            prob_lo,
            prob_hi,
            periodic,
            coord,
            dx,
        }
    }

    /// Convenience: a fully periodic cubic Cartesian unit-ish domain.
    pub fn cube(n: i32, width: Real, periodic: bool) -> Self {
        Geometry::new(
            IndexBox::cube(n),
            [0.0; SPACEDIM],
            [width; SPACEDIM],
            [periodic; SPACEDIM],
            CoordSys::Cartesian,
        )
    }

    /// The index-space domain box.
    pub fn domain(&self) -> IndexBox {
        self.domain
    }

    /// Zone width in each dimension.
    pub fn dx(&self) -> [Real; SPACEDIM] {
        self.dx
    }

    /// Smallest zone width over the dimensions.
    pub fn min_dx(&self) -> Real {
        self.dx.iter().copied().fold(Real::INFINITY, Real::min)
    }

    /// Physical lower corner.
    pub fn prob_lo(&self) -> [Real; SPACEDIM] {
        self.prob_lo
    }

    /// Physical upper corner.
    pub fn prob_hi(&self) -> [Real; SPACEDIM] {
        self.prob_hi
    }

    /// Physical domain extent per dimension.
    pub fn prob_length(&self, d: usize) -> Real {
        self.prob_hi[d] - self.prob_lo[d]
    }

    /// Periodicity flags.
    pub fn periodic(&self) -> [bool; SPACEDIM] {
        self.periodic
    }

    /// Coordinate system tag.
    pub fn coord(&self) -> CoordSys {
        self.coord
    }

    /// Physical coordinates of the *center* of zone `iv`.
    #[inline]
    pub fn cell_center(&self, iv: IntVect) -> [Real; SPACEDIM] {
        let mut x = [0.0; SPACEDIM];
        for d in 0..SPACEDIM {
            x[d] = self.prob_lo[d] + (iv[d] as Real + 0.5) * self.dx[d];
        }
        x
    }

    /// Zone volume (Cartesian).
    pub fn cell_volume(&self) -> Real {
        self.dx[0] * self.dx[1] * self.dx[2]
    }

    /// The geometry of the next finer level (same physical extent, `ratio`×
    /// the zones).
    pub fn refine(&self, ratio: i32) -> Geometry {
        Geometry::new(
            self.domain.refine(ratio),
            self.prob_lo,
            self.prob_hi,
            self.periodic,
            self.coord,
        )
    }

    /// The index shifts that map a box onto its periodic images, including
    /// the identity shift. Non-periodic dimensions contribute no shifts.
    pub fn periodic_shifts(&self) -> Vec<IntVect> {
        let n = self.domain.size();
        let mut shifts = vec![IntVect::zero()];
        for d in 0..SPACEDIM {
            if self.periodic[d] {
                let mut extended = Vec::new();
                for s in &shifts {
                    let mut plus = *s;
                    plus[d] += n[d];
                    let mut minus = *s;
                    minus[d] -= n[d];
                    extended.push(plus);
                    extended.push(minus);
                }
                shifts.extend(extended);
            }
        }
        shifts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dx_and_centers() {
        let g = Geometry::cube(10, 1.0, false);
        assert!((g.dx()[0] - 0.1).abs() < 1e-15);
        let c = g.cell_center(IntVect::zero());
        assert!((c[0] - 0.05).abs() < 1e-15);
        let c = g.cell_center(IntVect::splat(9));
        assert!((c[2] - 0.95).abs() < 1e-15);
        assert!((g.cell_volume() - 1e-3).abs() < 1e-15);
    }

    #[test]
    fn refine_preserves_extent() {
        let g = Geometry::cube(8, 2.0, true);
        let f = g.refine(4);
        assert_eq!(f.domain().num_zones(), 8 * 8 * 8 * 64);
        assert!((f.dx()[0] - g.dx()[0] / 4.0).abs() < 1e-15);
        assert_eq!(f.prob_hi(), g.prob_hi());
    }

    #[test]
    fn periodic_shift_count() {
        let g = Geometry::cube(4, 1.0, true);
        assert_eq!(g.periodic_shifts().len(), 27);
        let g = Geometry::cube(4, 1.0, false);
        assert_eq!(g.periodic_shifts().len(), 1);
        let g = Geometry::new(
            IndexBox::cube(4),
            [0.0; 3],
            [1.0; 3],
            [true, false, false],
            CoordSys::Cartesian,
        );
        assert_eq!(g.periodic_shifts().len(), 3);
    }
}
