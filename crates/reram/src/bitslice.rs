//! Weight-magnitude bit-slicing across multi-bit cells.
//!
//! A `weight_bits`-bit magnitude is spread over
//! `ceil(weight_bits / cell_bits)` adjacent cells on the same crossbar row
//! (paper §III-C: "we need four 2-bit ReRAM cells to represent one 8-bit
//! weight"), most-significant slice first. Column results are recombined by
//! the shift-&-add units with weights `2^(cell_bits·k)`.

use crate::{CellSpec, Crossbar};

/// Splits weight magnitudes into per-cell codes and recombines sliced
/// column results.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BitSlicer {
    weight_bits: u32,
    cell_bits: u32,
}

impl BitSlicer {
    /// Creates a slicer for `weight_bits`-bit magnitudes on cells of
    /// `cell_bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if either is zero or `weight_bits > 32`.
    pub fn new(weight_bits: u32, cell_bits: u32) -> Self {
        assert!(
            weight_bits > 0 && weight_bits <= 32,
            "weight bits must be in 1..=32"
        );
        assert!(cell_bits > 0, "cell bits must be positive");
        Self {
            weight_bits,
            cell_bits,
        }
    }

    /// Weight magnitude bits.
    pub fn weight_bits(&self) -> u32 {
        self.weight_bits
    }

    /// Bits per cell.
    pub fn cell_bits(&self) -> u32 {
        self.cell_bits
    }

    /// Cells (columns) per weight.
    pub fn cells_per_weight(&self) -> usize {
        self.weight_bits.div_ceil(self.cell_bits) as usize
    }

    /// Largest representable magnitude.
    pub fn max_magnitude(&self) -> u64 {
        if self.weight_bits == 32 {
            u32::MAX as u64
        } else {
            (1u64 << self.weight_bits) - 1
        }
    }

    /// Slices a magnitude into per-cell codes, most-significant first.
    ///
    /// # Panics
    ///
    /// Panics if `magnitude` exceeds [`max_magnitude`](Self::max_magnitude).
    pub fn slice(&self, magnitude: u32) -> Vec<u32> {
        assert!(
            (magnitude as u64) <= self.max_magnitude(),
            "magnitude {magnitude} exceeds {} bits",
            self.weight_bits
        );
        let n = self.cells_per_weight();
        let mask = (1u32 << self.cell_bits) - 1;
        (0..n)
            .rev()
            .map(|k| (magnitude >> (k as u32 * self.cell_bits)) & mask)
            .collect()
    }

    /// Recombines per-slice column results (most-significant first) into
    /// the full dot-product value: `Σ slice_k · 2^(cell_bits·(n−1−k))`.
    pub fn recombine(&self, slice_results: &[u64]) -> u64 {
        assert_eq!(
            slice_results.len(),
            self.cells_per_weight(),
            "need one result per slice"
        );
        slice_results
            .iter()
            .fold(0u64, |acc, &r| (acc << self.cell_bits) + r)
    }

    /// Reads a `rows × cols` weight matrix back off the row-major grid of
    /// crossbars it was sliced onto (`xb_cols` crossbars per grid row) as
    /// one row-major integer image — the weight-stationary operand of the
    /// mappings' integer GEMM.
    ///
    /// Weight `(r, c)` sits where both mappings put it: on array row `r`
    /// of the grid, slices on cell columns `c × cells_per_weight + k`,
    /// most-significant first. `entry(r, c, code)` turns the recombined
    /// cell code into the stored value (a fragment sign, an offset).
    /// Returns `None` when any crossbar is not integral (see
    /// [`Crossbar::integral_dequant_codes`]) or an entry does not fit
    /// `i32`; the caller then keeps its f64 path. O(mapped cells).
    ///
    /// # Panics
    ///
    /// Panics if the grid is empty or too small for the matrix, or writes
    /// are pending a [`Crossbar::commit_writes`].
    pub fn integral_image(
        &self,
        grid: &[Crossbar],
        xb_cols: usize,
        (rows, cols): (usize, usize),
        mut entry: impl FnMut(usize, usize, u64) -> i64,
    ) -> Option<Vec<i32>> {
        let tables: Vec<&[u16]> = grid
            .iter()
            .map(Crossbar::integral_dequant_codes)
            .collect::<Option<_>>()?;
        let (dim_r, dim_c) = (grid[0].rows(), grid[0].cols());
        let cpw = self.cells_per_weight();
        assert!(
            xb_cols * dim_c >= cols * cpw,
            "grid too narrow for the matrix"
        );
        let mut image = Vec::with_capacity(rows * cols);
        let mut cells = Vec::with_capacity(xb_cols * dim_c);
        for r in 0..rows {
            // Array row `r` of the grid, cell columns in order across the
            // grid row's crossbars.
            let (xr, row) = (r / dim_r, r % dim_r);
            cells.clear();
            for table in &tables[xr * xb_cols..(xr + 1) * xb_cols] {
                cells.extend_from_slice(&table[row * dim_c..(row + 1) * dim_c]);
            }
            for (c, slices) in cells.chunks_exact(cpw).take(cols).enumerate() {
                let code = slices.iter().fold(0u64, |code, &cell| {
                    (code << self.cell_bits) + u64::from(cell)
                });
                image.push(i32::try_from(entry(r, c, code)).ok()?);
            }
        }
        Some(image)
    }

    /// Checks that a slice vector is consistent with the cell spec.
    pub fn fits(&self, spec: &CellSpec) -> bool {
        self.cell_bits == spec.bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_8bit_on_2bit_cells() {
        let s = BitSlicer::new(8, 2);
        assert_eq!(s.cells_per_weight(), 4);
        assert_eq!(s.slice(0b11_01_10_00), vec![0b11, 0b01, 0b10, 0b00]);
    }

    #[test]
    fn paper_example_16bit_on_2bit_cells() {
        assert_eq!(BitSlicer::new(16, 2).cells_per_weight(), 8);
    }

    #[test]
    fn integral_image_reads_weights_across_grid_columns() {
        // 4-bit weights on 2-bit cells over a 1×2 grid of 2×2 arrays:
        // weight column c occupies cell columns 2c, 2c+1, so column 1
        // lives entirely on the second array.
        let s = BitSlicer::new(4, 2);
        let spec = CellSpec::paper_2bit();
        let mut grid = vec![Crossbar::new(2, 2, spec); 2];
        grid[0].program_codes(&[3, 1, 1, 3]); // 13, 7
        grid[1].program_codes(&[0, 2, 3, 3]); // 2, 15
        let image = s.integral_image(&grid, 2, (2, 2), |_, _, code| code as i64 - 8);
        assert_eq!(image, Some(vec![5, -6, -1, 7]));
        grid[1].conductances_mut()[1] *= 1.01;
        grid[1].commit_writes();
        assert_eq!(s.integral_image(&grid, 2, (2, 2), |_, _, c| c as i64), None);
    }

    #[test]
    fn slice_recombine_round_trip() {
        let s = BitSlicer::new(8, 2);
        for m in [0u32, 1, 37, 128, 255] {
            let slices = s.slice(m);
            let results: Vec<u64> = slices.iter().map(|&c| c as u64).collect();
            assert_eq!(s.recombine(&results), m as u64);
        }
    }

    #[test]
    fn recombine_is_linear_over_dot_products() {
        // Slicing weights, computing per-slice dot products with inputs and
        // recombining equals the direct dot product.
        let s = BitSlicer::new(8, 2);
        let weights = [200u32, 5, 77, 130];
        let inputs = [1u64, 0, 1, 1];
        let direct: u64 = weights
            .iter()
            .zip(&inputs)
            .map(|(&w, &x)| w as u64 * x)
            .sum();
        let mut per_slice = vec![0u64; s.cells_per_weight()];
        for (&w, &x) in weights.iter().zip(&inputs) {
            for (k, &c) in s.slice(w).iter().enumerate() {
                per_slice[k] += c as u64 * x;
            }
        }
        assert_eq!(s.recombine(&per_slice), direct);
    }

    #[test]
    fn uneven_division_rounds_up() {
        let s = BitSlicer::new(7, 2);
        assert_eq!(s.cells_per_weight(), 4);
        let slices = s.slice(0b1111111);
        assert_eq!(slices.len(), 4);
        assert_eq!(slices[0], 0b01); // top slice holds the odd bit
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_magnitude_rejected() {
        BitSlicer::new(4, 2).slice(16);
    }

    #[test]
    fn fits_checks_cell_spec() {
        let s = BitSlicer::new(8, 2);
        assert!(s.fits(&CellSpec::paper_2bit()));
        assert!(!s.fits(&CellSpec::new(4, 1.0, 61.0)));
    }
}
