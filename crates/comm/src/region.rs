//! Rectangular regions of a padded grid, with pack/unpack into flat
//! message buffers (the paper's §4.4: "packs the data of the inner halo
//! region in the send buffer ... unpacks the data to update the outer
//! halo region").

use msc_exec::{Grid, Scalar};

/// A box of padded-grid coordinates: `start[d] .. start[d] + extent[d]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    pub start: Vec<usize>,
    pub extent: Vec<usize>,
}

impl Region {
    pub fn new(start: Vec<usize>, extent: Vec<usize>) -> Region {
        assert_eq!(start.len(), extent.len());
        Region { start, extent }
    }

    pub fn ndim(&self) -> usize {
        self.start.len()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.extent.iter().product()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Do the two boxes share at least one cell?
    pub fn intersects(&self, other: &Region) -> bool {
        (0..self.ndim()).all(|d| {
            let end = (self.start[d] + self.extent[d]).min(other.start[d] + other.extent[d]);
            self.start[d].max(other.start[d]) < end
        })
    }

    /// Visit the linear index of the first element of each contiguous row
    /// of the region, together with the row length.
    fn for_each_row(&self, strides: &[usize], mut f: impl FnMut(usize, usize)) {
        let ndim = self.ndim();
        let row_len = self.extent[ndim - 1];
        if self.is_empty() {
            return;
        }
        let mut c = vec![0usize; ndim];
        loop {
            let lin: usize = (0..ndim)
                .map(|d| (self.start[d] + c[d]) * strides[d])
                .sum();
            f(lin, row_len);
            let mut d = ndim - 1;
            loop {
                if d == 0 {
                    return;
                }
                d -= 1;
                c[d] += 1;
                if c[d] < self.extent[d] {
                    break;
                }
                c[d] = 0;
            }
        }
    }

    /// Copy the region out of `grid` into a flat buffer.
    pub fn pack<T: Scalar>(&self, grid: &Grid<T>) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len());
        let data = grid.as_slice();
        self.for_each_row(&grid.strides.clone(), |lin, row| {
            out.extend_from_slice(&data[lin..lin + row]);
        });
        out
    }

    /// Copy a flat buffer into the region of `grid`. Panics if the buffer
    /// length does not match the region size: callers check payloads that
    /// arrived over a channel first (the halo executor turns a mis-sized
    /// one into `CommError::Corrupt`).
    pub fn unpack<T: Scalar>(&self, grid: &mut Grid<T>, buf: &[T]) {
        assert_eq!(buf.len(), self.len(), "unpack size mismatch");
        let strides = grid.strides.clone();
        let data = grid.as_mut_slice();
        let mut off = 0usize;
        self.for_each_row(&strides, |lin, row| {
            data[lin..lin + row].copy_from_slice(&buf[off..off + row]);
            off += row;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_grid() -> Grid<f64> {
        let mut g: Grid<f64> = Grid::zeros(&[4, 4], &[1, 1]);
        for (i, v) in g.as_mut_slice().iter_mut().enumerate() {
            *v = i as f64;
        }
        g
    }

    #[test]
    fn pack_extracts_rows() {
        let g = seq_grid(); // padded 6x6
        let r = Region::new(vec![1, 1], vec![2, 3]);
        let p = r.pack(&g);
        assert_eq!(p, vec![7.0, 8.0, 9.0, 13.0, 14.0, 15.0]);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let g = seq_grid();
        let r = Region::new(vec![2, 0], vec![3, 2]);
        let p = r.pack(&g);
        let mut g2: Grid<f64> = Grid::zeros(&[4, 4], &[1, 1]);
        r.unpack(&mut g2, &p);
        assert_eq!(r.pack(&g2), p);
        // Outside the region stays zero.
        assert_eq!(g2.as_slice()[0], 0.0);
    }

    #[test]
    #[should_panic(expected = "unpack size mismatch")]
    fn unpack_checks_length() {
        let mut g = seq_grid();
        Region::new(vec![0, 0], vec![2, 2]).unpack(&mut g, &[1.0]);
    }

    #[test]
    fn boxes_intersect_only_when_every_dimension_overlaps() {
        let a = Region::new(vec![1, 1], vec![2, 3]); // rows 1..3, cols 1..4
        assert!(a.intersects(&Region::new(vec![2, 3], vec![4, 4])));
        assert!(!a.intersects(&Region::new(vec![3, 1], vec![2, 2]))); // touches in dim 0
        assert!(!a.intersects(&Region::new(vec![1, 4], vec![2, 1]))); // touches in dim 1
        assert!(!a.intersects(&Region::new(vec![2, 2], vec![0, 1]))); // empty, inside
    }

    #[test]
    fn empty_region() {
        let r = Region::new(vec![0, 0], vec![0, 3]);
        assert!(r.is_empty());
        assert_eq!(r.pack(&seq_grid()), Vec::<f64>::new());
    }

    #[test]
    fn region_3d_pack_count() {
        let g: Grid<f64> = Grid::zeros(&[4, 4, 4], &[1, 1, 1]);
        let r = Region::new(vec![1, 2, 3], vec![2, 3, 2]);
        assert_eq!(r.pack(&g).len(), 12);
    }
}
