//! The ISAAC offset-encoding crossbar model (paper §II-B and ref. \[18\]).

use forms_exec::{ExecError, Merge};
use forms_reram::{
    for_each_set_bit, pack_bit_planes, pack_tile_bit_planes, plane_ones, Adc, BitSlicer, CellSpec,
    Crossbar, FaultCampaign, FaultReport,
};
use forms_tensor::{igemm, Tensor};

/// Samples per tile of [`IsaacLayer::matmul_into`]'s f64 window sweep —
/// kept equal to `forms_arch::MATMUL_TILE` so FORMS-vs-ISAAC batch
/// throughput comparisons use the same blocking.
const MATMUL_TILE: usize = 32;

/// Statistics of one ISAAC matrix-vector multiplication.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IsaacStats {
    /// Input shift cycles spent (always `input_bits` per row block — ISAAC
    /// has no zero-skipping).
    pub cycles: u64,
    /// ADC conversions performed.
    pub adc_conversions: u64,
    /// Input `1`s counted by the offset-correction circuitry.
    pub ones_counted: u64,
    /// Offset subtractions performed (one per counted `1`, as the paper
    /// describes the overhead).
    pub offset_subtractions: u64,
    /// Row-block activations (denominator of the mean-cycles-per-block
    /// figure the frame-rate model consumes).
    pub row_blocks: u64,
}

impl Merge for IsaacStats {
    fn merge(&mut self, other: Self) {
        self.cycles += other.cycles;
        self.adc_conversions += other.adc_conversions;
        self.ones_counted += other.ones_counted;
        self.offset_subtractions += other.offset_subtractions;
        self.row_blocks += other.row_blocks;
    }
}

/// Reusable working memory of one [`IsaacLayer`] MVM — the ISAAC mirror of
/// `forms_arch::MvmScratch`, so the FORMS-vs-ISAAC throughput comparison
/// stays apples-to-apples (both hot paths are packed and allocation-free).
#[derive(Clone, Debug, Default)]
pub struct IsaacScratch {
    /// Gathered input codes of the current row block.
    codes: Vec<u32>,
    /// Packed bit planes of the block's codes, LSB plane first.
    planes: Vec<u64>,
    /// Raw column currents, plane-major over all mapped cell columns.
    currents: Vec<f64>,
    /// Per-slice shift-&-add accumulators of the current weight column.
    slice_acc: Vec<u64>,
    /// Signed digital accumulators, one per compact weight column.
    accs: Vec<i64>,
    /// Dequantized cell values of the current block window, row-major over
    /// all mapped cell columns — the division by the conductance step is
    /// paid once per cell instead of once per cell per input bit plane.
    cell_vals: Vec<f64>,
    /// Integer GEMM: the batch's input codes gathered onto the compact
    /// rows, sample-major.
    gemm_codes: Vec<u32>,
    /// Window sweep: gathered block codes of one tile of samples,
    /// sample-major.
    tile_codes: Vec<u32>,
    /// Window sweep: packed bit planes of the whole tile.
    tile_planes: Vec<u64>,
}

/// A signed weight matrix mapped with ISAAC's offset encoding.
///
/// Every quantized weight code `k ∈ [−(2^(b−1)−1), 2^(b−1)−1]` is stored as
/// the non-negative `k + 2^(b−1)`; the analog result is corrected digitally
/// by subtracting `2^(b−1) × (number of 1 input bits)` per bit plane.
#[derive(Clone, Debug)]
pub struct IsaacLayer {
    crossbar_dim: usize,
    input_bits: u32,
    bias: u64,
    step: f32,
    row_index: Vec<usize>,
    col_index: Vec<usize>,
    orig_rows: usize,
    orig_cols: usize,
    crossbars: Vec<Crossbar>,
    xb_cols: usize,
    adc: Adc,
    slicer: BitSlicer,
    /// Pristine nominal output ceiling: `max_col Σ|k| × max_input × step`
    /// — the offset correction cancels the bias exactly on clean arrays,
    /// so no clean output can exceed this (per unit input scale).
    ceiling: f64,
    /// Signed weight image, compact rows × compact columns row-major:
    /// `recombine(cells) − bias`, the offset correction folded in — the
    /// operand of the integer GEMM. `None` while the cells are off the
    /// integer grid (drift), the ADC is lossy, or direct writes through
    /// [`crossbars_mut`](Self::crossbars_mut) await
    /// [`commit_writes`](Self::commit_writes).
    image: Option<Vec<i32>>,
    /// Cumulative stuck cells injected through fault campaigns.
    faulted_cells: u64,
    /// Cumulative drifted cells injected likewise.
    drifted_cells: u64,
}

impl IsaacLayer {
    /// Maps a signed matrix with the paper's 128×128 / 2-bit-cell
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] if `matrix` is not rank-2 or entirely zero.
    pub fn map(matrix: &Tensor, weight_bits: u32, input_bits: u32) -> Result<Self, ExecError> {
        Self::map_with(matrix, weight_bits, input_bits, 128, CellSpec::paper_2bit())
    }

    /// Maps with explicit crossbar dimension and cell spec (small arrays
    /// for tests).
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] if `matrix` is not rank-2 or entirely
    /// zero, or if `weight_bits < 2` (the offset encoding needs a sign
    /// bit's worth of bias).
    pub fn map_with(
        matrix: &Tensor,
        weight_bits: u32,
        input_bits: u32,
        crossbar_dim: usize,
        cell: CellSpec,
    ) -> Result<Self, ExecError> {
        if matrix.shape().rank() != 2 {
            return Err(ExecError::NotMatrix {
                rank: matrix.shape().rank(),
            });
        }
        if weight_bits < 2 {
            return Err(ExecError::UnsupportedConfig {
                reason: "offset encoding needs at least 2 weight bits",
            });
        }
        let (rows, cols) = (matrix.dims()[0], matrix.dims()[1]);
        let nz = |r: usize, c: usize| matrix.data()[r * cols + c] != 0.0;
        let row_index: Vec<usize> = (0..rows).filter(|&r| (0..cols).any(|c| nz(r, c))).collect();
        let col_index: Vec<usize> = (0..cols).filter(|&c| (0..rows).any(|r| nz(r, c))).collect();
        if row_index.is_empty() || col_index.is_empty() {
            return Err(ExecError::AllZero);
        }

        let levels = ((1u64 << (weight_bits - 1)) - 1) as f32;
        let abs_max = matrix.abs_max();
        let step = if abs_max > 0.0 { abs_max / levels } else { 1.0 };
        let bias = 1u64 << (weight_bits - 1);
        let slicer = BitSlicer::new(weight_bits, cell.bits());
        let cpw = slicer.cells_per_weight();

        let xb_rows = row_index.len().div_ceil(crossbar_dim);
        let xb_cols = (col_index.len() * cpw).div_ceil(crossbar_dim);
        let mut crossbars =
            vec![Crossbar::new(crossbar_dim, crossbar_dim, cell); xb_rows * xb_cols];

        let mut col_abs_sums = vec![0u64; col_index.len()];
        for (ci, &c) in col_index.iter().enumerate() {
            for (ri, &r) in row_index.iter().enumerate() {
                let w = matrix.data()[r * cols + c];
                let k = (w / step).round().clamp(-levels, levels) as i64;
                col_abs_sums[ci] += k.unsigned_abs();
                let encoded = (k + bias as i64) as u32;
                let (xr, row_in_xb) = (ri / crossbar_dim, ri % crossbar_dim);
                for (slice, &s) in slicer.slice(encoded).iter().enumerate() {
                    let cell_col = ci * cpw + slice;
                    let (xc, col_in_xb) = (cell_col / crossbar_dim, cell_col % crossbar_dim);
                    crossbars[xr * xb_cols + xc].program_cell(row_in_xb, col_in_xb, s);
                }
            }
        }

        let max_input = ((1u64 << input_bits) - 1) as f64;
        let ceiling = col_abs_sums
            .iter()
            .map(|&s| s as f64 * max_input * f64::from(step))
            .fold(0.0f64, f64::max);

        let adc = Adc::ideal_for(crossbar_dim, &cell);
        let mut layer = Self {
            crossbar_dim,
            input_bits,
            bias,
            step,
            row_index,
            col_index,
            orig_rows: rows,
            orig_cols: cols,
            crossbars,
            xb_cols,
            adc,
            slicer,
            ceiling,
            image: None,
            faulted_cells: 0,
            drifted_cells: 0,
        };
        layer.image = layer.signed_weight_image();
        Ok(layer)
    }

    /// Builds the signed weight image from the current cells, or `None`
    /// when the integer GEMM would not be exact (see
    /// [`integer_matmul_path`](Self::integer_matmul_path)).
    fn signed_weight_image(&self) -> Option<Vec<i32>> {
        if !self
            .adc
            .is_lossless_over(self.crossbar_dim, self.crossbars[0].spec())
        {
            return None;
        }
        let shape = (self.row_index.len(), self.col_index.len());
        let bias = self.bias as i64;
        self.slicer
            .integral_image(&self.crossbars, self.xb_cols, shape, |_, _, code| {
                code as i64 - bias
            })
    }

    /// Commits pending direct writes on every crossbar (see
    /// [`Crossbar::commit_writes`]) and rebuilds the signed weight image,
    /// returning the layer to the integer GEMM when its cells allow.
    /// Call after writing cells through [`crossbars_mut`](Self::crossbars_mut).
    pub fn commit_writes(&mut self) {
        // Free the stale image first, so the rebuild can reuse its memory.
        self.image = None;
        for xbar in &mut self.crossbars {
            if xbar.is_dirty() {
                xbar.commit_writes();
            }
        }
        self.image = self.signed_weight_image();
    }

    /// Applies a fault campaign to every crossbar of this layer (the same
    /// per-crossbar salting as the FORMS engine, so FORMS-vs-ISAAC fault
    /// sweeps are apples-to-apples), then rebuilds the signed weight image
    /// from the committed cells.
    pub fn inject_faults(&mut self, campaign: &FaultCampaign, salt: u64) -> FaultReport {
        let mut total = FaultReport::default();
        for (i, xbar) in self.crossbars.iter_mut().enumerate() {
            let xb_salt = salt ^ (i as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
            total.merge(&campaign.apply(xbar, xb_salt));
        }
        self.faulted_cells += total.stuck() as u64;
        self.drifted_cells += total.drifted as u64;
        self.commit_writes();
        total
    }

    /// Aggregate fault counters: (faulted cells, drifted cells, total
    /// mapped cells).
    pub fn fault_counts(&self) -> (u64, u64, u64) {
        let dim = self.crossbar_dim as u64;
        (
            self.faulted_cells,
            self.drifted_cells,
            self.crossbars.len() as u64 * dim * dim,
        )
    }

    /// Pristine nominal output ceiling (per unit input scale).
    pub fn nominal_ceiling(&self) -> f64 {
        self.ceiling
    }

    /// Weight quantization step.
    pub fn step(&self) -> f32 {
        self.step
    }

    /// Length of the layer's output vector (= original weight columns).
    pub fn output_len(&self) -> usize {
        self.orig_cols
    }

    /// Physical crossbars used.
    pub fn crossbar_count(&self) -> usize {
        self.crossbars.len()
    }

    /// Mutable access to the crossbars (variation injection).
    ///
    /// Drops the signed weight image, so [`matmul_into`](Self::matmul_into)
    /// takes the f64 window sweep until [`commit_writes`](Self::commit_writes)
    /// rebuilds it.
    pub fn crossbars_mut(&mut self) -> &mut [Crossbar] {
        self.image = None;
        &mut self.crossbars
    }

    /// Reconstructs the (quantized, signed) weight matrix this mapping
    /// represents, in original indexing.
    pub fn dequantized_matrix(&self) -> Tensor {
        let mut out = Tensor::zeros(&[self.orig_rows, self.orig_cols]);
        let cpw = self.slicer.cells_per_weight();
        let dim = self.crossbar_dim;
        for (ci, &c) in self.col_index.iter().enumerate() {
            for (ri, &r) in self.row_index.iter().enumerate() {
                let (xr, row_in_xb) = (ri / dim, ri % dim);
                let slices: Vec<u64> = (0..cpw)
                    .map(|k| {
                        let cell_col = ci * cpw + k;
                        let (xc, col_in_xb) = (cell_col / dim, cell_col % dim);
                        self.crossbars[xr * self.xb_cols + xc].read_cell(row_in_xb, col_in_xb)
                            as u64
                    })
                    .collect();
                let encoded = self.slicer.recombine(&slices) as i64;
                let k = encoded - self.bias as i64;
                out.data_mut()[r * self.orig_cols + c] = k as f32 * self.step;
            }
        }
        out
    }

    /// Executes the coarse-grained offset-encoded MVM: all rows of each
    /// crossbar block activate together, every input bit plane is fed (no
    /// zero-skipping), and the counted-ones offset is subtracted digitally.
    ///
    /// # Panics
    ///
    /// Panics if `input_codes.len()` differs from the original row count or
    /// any code exceeds `input_bits`.
    pub fn matvec(&self, input_codes: &[u32], input_scale: f32) -> (Vec<f32>, IsaacStats) {
        let mut scratch = IsaacScratch::default();
        let mut out = vec![0.0f32; self.orig_cols];
        let stats = self.matvec_into(input_codes, input_scale, &mut scratch, &mut out);
        (out, stats)
    }

    /// The allocation-free packed hot path: [`matvec`](Self::matvec) into a
    /// caller-owned output buffer (length = original columns, overwritten)
    /// with caller-owned reusable [`IsaacScratch`]. Results are bitwise
    /// identical to [`matvec_reference`](Self::matvec_reference).
    ///
    /// # Panics
    ///
    /// Panics as [`matvec`](Self::matvec) does, and if `out.len()` differs
    /// from the original column count.
    pub fn matvec_into(
        &self,
        input_codes: &[u32],
        input_scale: f32,
        scratch: &mut IsaacScratch,
        out: &mut [f32],
    ) -> IsaacStats {
        self.validate_input_codes(input_codes);
        assert_eq!(
            out.len(),
            self.orig_cols,
            "need one output slot per original column"
        );
        let dim = self.crossbar_dim;
        let cpw = self.slicer.cells_per_weight();
        let cell_bits = self.slicer.cell_bits();
        let cell_cols = self.col_index.len() * cpw;
        let mut stats = IsaacStats::default();
        out.fill(0.0);
        scratch.accs.clear();
        scratch.accs.resize(self.col_index.len(), 0);

        for (block, rows) in self.row_index.chunks(dim).enumerate() {
            scratch.codes.clear();
            scratch.codes.extend(rows.iter().map(|&r| input_codes[r]));
            stats.cycles += u64::from(self.input_bits);
            stats.row_blocks += 1;
            let words = pack_bit_planes(&scratch.codes, self.input_bits, &mut scratch.planes);

            // Offset term shared by every column of the block:
            // bias × Σ_planes ones(plane) << plane — popcounted straight
            // off the packed planes.
            let mut offset = 0u64;
            for (plane, mask) in scratch.planes.chunks_exact(words).enumerate() {
                let ones = plane_ones(mask);
                stats.ones_counted += ones;
                stats.offset_subtractions += ones;
                offset += (self.bias * ones) << plane;
            }

            // Dequantized cell values of the block window, cached once so
            // the per-plane reads below are pure adds.
            let block_rows = scratch.codes.len();
            scratch.cell_vals.clear();
            scratch.cell_vals.resize(block_rows * cell_cols, 0.0);
            for r in 0..block_rows {
                let row = &mut scratch.cell_vals[r * cell_cols..(r + 1) * cell_cols];
                for xc in 0..self.xb_cols {
                    let col_lo = xc * dim;
                    if col_lo >= cell_cols {
                        break;
                    }
                    let col_hi = (col_lo + dim).min(cell_cols);
                    self.crossbars[block * self.xb_cols + xc]
                        .dequant_row_into(r, &mut row[col_lo..col_hi]);
                }
            }

            // Raw currents for every plane × cell column: active rows
            // accumulate in ascending order, matching the legacy per-column
            // summation order bitwise.
            scratch.currents.clear();
            scratch
                .currents
                .resize(self.input_bits as usize * cell_cols, 0.0);
            let (currents, cell_vals) = (&mut scratch.currents, &scratch.cell_vals);
            for (plane, mask) in scratch.planes.chunks_exact(words).enumerate() {
                let row = &mut currents[plane * cell_cols..(plane + 1) * cell_cols];
                forms_reram::for_each_set_bit(mask, |i| {
                    if i >= block_rows {
                        return;
                    }
                    let vals = &cell_vals[i * cell_cols..(i + 1) * cell_cols];
                    for (acc, &v) in row.iter_mut().zip(vals) {
                        *acc += v;
                    }
                });
            }

            for (ci, acc) in scratch.accs.iter_mut().enumerate() {
                scratch.slice_acc.clear();
                scratch.slice_acc.resize(cpw, 0);
                for plane in 0..self.input_bits as usize {
                    let currents = &scratch.currents[plane * cell_cols..];
                    for (k, acc_k) in scratch.slice_acc.iter_mut().enumerate() {
                        let code = self
                            .adc
                            .convert(currents[ci * cpw + k], self.crossbars[0].spec());
                        stats.adc_conversions += 1;
                        *acc_k += u64::from(code) << plane;
                    }
                }
                let mut encoded_total = 0u64;
                for &s in &scratch.slice_acc {
                    encoded_total = (encoded_total << cell_bits) + s;
                }
                *acc += encoded_total as i64 - offset as i64;
            }
        }

        for (ci, &c) in self.col_index.iter().enumerate() {
            out[c] = scratch.accs[ci] as f32 * self.step * input_scale;
        }
        stats
    }

    /// Whether [`matmul_into`](Self::matmul_into) runs the exact integer
    /// GEMM — the ISAAC mirror of
    /// `forms_arch::MappedLayer::integer_matmul_path`: the signed weight
    /// image is present, which holds while every cell is an exact integer
    /// code (pristine and stuck-at arrays) and the ADC is lossless over a
    /// full block. Offset encoding then computes exactly
    /// `codes × (recombine(cells) − bias)`.
    pub fn integer_matmul_path(&self) -> bool {
        self.image.is_some()
    }

    /// The batch kernel: executes `scales.len()` offset-encoded
    /// matrix-vector products in one call, bitwise identical to calling
    /// [`matvec_into`](Self::matvec_into) once per sample (outputs *and*
    /// merged stats).
    ///
    /// Pristine and stuck-at arrays run one exact integer GEMM against the
    /// cached signed weight image; `IsaacStats` are computed
    /// arithmetically per (sample, row block): `input_bits` cycles, one
    /// conversion per mapped cell column per cycle, and the block's input
    /// `1`s (Σ popcount of its codes) as counted ones and offset
    /// subtractions. Drifted or lossy arrays run the f64 window sweep: per
    /// row block the dequantized window is built once per tile and swept
    /// bit-serially over every sample, in the per-sample ascending-row
    /// summation order and through the real ADC.
    ///
    /// # Panics
    ///
    /// Panics if the buffer lengths are inconsistent with `scales.len()`
    /// or any input code exceeds `input_bits`.
    pub fn matmul_into(
        &self,
        batch_codes: &[u32],
        scales: &[f32],
        scratch: &mut IsaacScratch,
        outs: &mut [f32],
    ) -> IsaacStats {
        let nsamples = scales.len();
        assert_eq!(
            batch_codes.len(),
            nsamples * self.orig_rows,
            "need one whole input vector per batched sample"
        );
        assert_eq!(
            outs.len(),
            nsamples * self.orig_cols,
            "need one whole output vector per batched sample"
        );
        for sample in batch_codes.chunks_exact(self.orig_rows) {
            self.validate_input_codes(sample);
        }
        let Some(image) = self.image.as_deref() else {
            return self.matmul_window_sweep(batch_codes, scales, scratch, outs);
        };
        let mut stats = IsaacStats::default();
        scratch.gemm_codes.clear();
        for sample in batch_codes.chunks_exact(self.orig_rows) {
            let start = scratch.gemm_codes.len();
            scratch
                .gemm_codes
                .extend(self.row_index.iter().map(|&r| sample[r]));
            for block in scratch.gemm_codes[start..].chunks(self.crossbar_dim) {
                let ones = block.iter().map(|&c| u64::from(c.count_ones())).sum();
                self.account_block(ones, &mut stats);
            }
        }
        scratch.accs.clear();
        scratch.accs.resize(nsamples * self.col_index.len(), 0);
        igemm(
            &scratch.gemm_codes,
            image,
            self.col_index.len(),
            &mut scratch.accs,
        );
        self.write_outputs(&scratch.accs, scales, outs);
        stats
    }

    /// Accounts one (sample, row block) activation with `ones` input `1`s
    /// into `stats` exactly as the bit-serial path spends it.
    fn account_block(&self, ones: u64, stats: &mut IsaacStats) {
        let cell_cols = (self.col_index.len() * self.slicer.cells_per_weight()) as u64;
        stats.cycles += u64::from(self.input_bits);
        stats.row_blocks += 1;
        stats.ones_counted += ones;
        stats.offset_subtractions += ones;
        stats.adc_conversions += u64::from(self.input_bits) * cell_cols;
    }

    /// Scales compact-column accumulators (`scales.len() × compact
    /// columns`) into original-column outputs; pruned columns read 0.
    fn write_outputs(&self, accs: &[i64], scales: &[f32], outs: &mut [f32]) {
        let ncols = self.col_index.len();
        for ((accs, &scale), out) in accs
            .chunks_exact(ncols)
            .zip(scales)
            .zip(outs.chunks_exact_mut(self.orig_cols))
        {
            out.fill(0.0);
            for (&acc, &c) in accs.iter().zip(&self.col_index) {
                out[c] = acc as f32 * self.step * scale;
            }
        }
    }

    /// The f64 window sweep behind [`matmul_into`](Self::matmul_into) for
    /// drifted or lossy arrays (inputs already validated).
    fn matmul_window_sweep(
        &self,
        batch_codes: &[u32],
        scales: &[f32],
        scratch: &mut IsaacScratch,
        outs: &mut [f32],
    ) -> IsaacStats {
        let nsamples = scales.len();
        let dim = self.crossbar_dim;
        let cpw = self.slicer.cells_per_weight();
        let cell_bits = self.slicer.cell_bits();
        let ncols = self.col_index.len();
        let cell_cols = ncols * cpw;
        let n_planes = self.input_bits as usize;
        let mut stats = IsaacStats::default();

        for tile_lo in (0..nsamples).step_by(MATMUL_TILE) {
            let tile = tile_lo..(tile_lo + MATMUL_TILE).min(nsamples);
            let t = tile.len();
            scratch.accs.clear();
            scratch.accs.resize(t * ncols, 0);

            for (block, rows) in self.row_index.chunks(dim).enumerate() {
                let block_rows = rows.len();
                // Gather the tile's block codes (sample-major). ISAAC has
                // no zero-skipping: every sample pays all input bit planes.
                scratch.tile_codes.clear();
                for s in tile.clone() {
                    let codes = &batch_codes[s * self.orig_rows..(s + 1) * self.orig_rows];
                    scratch.tile_codes.extend(rows.iter().map(|&r| codes[r]));
                }
                let words = pack_tile_bit_planes(
                    &scratch.tile_codes,
                    t,
                    self.input_bits,
                    &mut scratch.tile_planes,
                );
                let stride = n_planes * words;
                let IsaacScratch {
                    tile_planes,
                    cell_vals,
                    currents,
                    slice_acc,
                    accs,
                    ..
                } = scratch;
                // f64 window, once per (block, tile).
                cell_vals.clear();
                cell_vals.resize(block_rows * cell_cols, 0.0);
                for r in 0..block_rows {
                    let row = &mut cell_vals[r * cell_cols..(r + 1) * cell_cols];
                    for xc in 0..self.xb_cols {
                        let col_lo = xc * dim;
                        if col_lo >= cell_cols {
                            break;
                        }
                        let col_hi = (col_lo + dim).min(cell_cols);
                        self.crossbars[block * self.xb_cols + xc]
                            .dequant_row_into(r, &mut row[col_lo..col_hi]);
                    }
                }
                for si in 0..t {
                    let planes = &tile_planes[si * stride..(si + 1) * stride];
                    let mut offset = 0u64;
                    let mut block_ones = 0u64;
                    currents.clear();
                    currents.resize(n_planes * cell_cols, 0.0);
                    for (plane, mask) in planes.chunks_exact(words).enumerate() {
                        let ones = plane_ones(mask);
                        block_ones += ones;
                        offset += (self.bias * ones) << plane;
                        // Active rows accumulate in ascending order,
                        // matching the per-sample summation order bitwise.
                        let row = &mut currents[plane * cell_cols..(plane + 1) * cell_cols];
                        for_each_set_bit(mask, |i| {
                            if i < block_rows {
                                let vals = &cell_vals[i * cell_cols..(i + 1) * cell_cols];
                                for (acc, &v) in row.iter_mut().zip(vals) {
                                    *acc += v;
                                }
                            }
                        });
                    }
                    self.account_block(block_ones, &mut stats);
                    let sample_accs = &mut accs[si * ncols..][..ncols];
                    for (ci, acc) in sample_accs.iter_mut().enumerate() {
                        slice_acc.clear();
                        slice_acc.resize(cpw, 0);
                        for plane in 0..n_planes {
                            let cur = &currents[plane * cell_cols..];
                            for (k, acc_k) in slice_acc.iter_mut().enumerate() {
                                let code = self
                                    .adc
                                    .convert(cur[ci * cpw + k], self.crossbars[0].spec());
                                *acc_k += u64::from(code) << plane;
                            }
                        }
                        let mut encoded_total = 0u64;
                        for &s in slice_acc.iter() {
                            encoded_total = (encoded_total << cell_bits) + s;
                        }
                        *acc += encoded_total as i64 - offset as i64;
                    }
                }
            }
            self.write_outputs(
                &scratch.accs,
                &scales[tile.clone()],
                &mut outs[tile.start * self.orig_cols..tile.end * self.orig_cols],
            );
        }
        stats
    }

    /// Validates the whole input vector in one pass (length + range), so
    /// the per-block gather loops stay assert-free.
    fn validate_input_codes(&self, input_codes: &[u32]) {
        assert_eq!(
            input_codes.len(),
            self.orig_rows,
            "need one input code per original row"
        );
        let limit = 1u64 << self.input_bits;
        assert!(
            self.row_index
                .iter()
                .all(|&r| u64::from(input_codes[r]) < limit),
            "input code exceeds {} bits",
            self.input_bits
        );
    }

    /// The legacy allocating kernel, kept as the bitwise oracle for the
    /// packed path and as the pre-optimization baseline for the MVM
    /// benchmark. Results are bitwise identical to
    /// [`matvec`](Self::matvec).
    ///
    /// # Panics
    ///
    /// Panics as [`matvec`](Self::matvec) does.
    pub fn matvec_reference(
        &self,
        input_codes: &[u32],
        input_scale: f32,
    ) -> (Vec<f32>, IsaacStats) {
        self.validate_input_codes(input_codes);
        let dim = self.crossbar_dim;
        let cpw = self.slicer.cells_per_weight();
        let cell_bits = self.slicer.cell_bits();
        let mut stats = IsaacStats::default();
        let mut accs = vec![0i64; self.col_index.len()];

        for (block, rows) in self.row_index.chunks(dim).enumerate() {
            let codes: Vec<u32> = rows.iter().map(|&r| input_codes[r]).collect();
            stats.cycles += u64::from(self.input_bits);
            stats.row_blocks += 1;
            let window = 0..codes.len();

            // Offset term shared by every column of the block:
            // bias × Σ_planes ones(plane) << plane.
            let mut offset = 0u64;
            for plane in 0..self.input_bits {
                let ones = codes.iter().filter(|&&c| (c >> plane) & 1 == 1).count() as u64;
                stats.ones_counted += ones;
                stats.offset_subtractions += ones;
                offset += (self.bias * ones) << plane;
            }

            for (ci, acc) in accs.iter_mut().enumerate() {
                let mut slice_acc = vec![0u64; cpw];
                for plane in 0..self.input_bits {
                    let drives: Vec<f64> = codes
                        .iter()
                        .map(|&c| if (c >> plane) & 1 == 1 { 1.0 } else { 0.0 })
                        .collect();
                    for (k, acc_k) in slice_acc.iter_mut().enumerate() {
                        let cell_col = ci * cpw + k;
                        let (xc, col_in_xb) = (cell_col / dim, cell_col % dim);
                        let current = self.crossbars[block * self.xb_cols + xc].column_current(
                            col_in_xb,
                            &drives,
                            window.clone(),
                        );
                        let code = self.adc.convert(current, self.crossbars[0].spec());
                        stats.adc_conversions += 1;
                        *acc_k += u64::from(code) << plane;
                    }
                }
                let mut encoded_total = 0u64;
                for &s in &slice_acc {
                    encoded_total = (encoded_total << cell_bits) + s;
                }
                *acc += encoded_total as i64 - offset as i64;
            }
        }

        let mut out = vec![0.0f32; self.orig_cols];
        for (ci, &c) in self.col_index.iter().enumerate() {
            out[c] = accs[ci] as f32 * self.step * input_scale;
        }
        (out, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forms_tensor::QuantizedTensor;

    fn signed_matrix(rows: usize, cols: usize) -> Tensor {
        Tensor::from_fn(&[rows, cols], |i| {
            let v = ((i * 37 % 17) as f32 / 8.0) - 1.0;
            if v.abs() < 0.05 {
                0.1
            } else {
                v
            }
        })
    }

    #[test]
    fn matvec_matches_signed_reference() {
        let w = signed_matrix(12, 3);
        let layer = IsaacLayer::map_with(&w, 8, 8, 16, CellSpec::paper_2bit()).expect("map");
        let x = Tensor::from_fn(&[12], |i| (i as f32 * 0.21).fract());
        let q = QuantizedTensor::quantize(&x, 8);
        let (got, _) = layer.matvec(q.codes(), q.spec().scale());
        let reference = layer
            .dequantized_matrix()
            .transpose()
            .matvec(q.dequantize().data());
        for (g, r) in got.iter().zip(&reference) {
            assert!((g - r).abs() < 1e-3, "offset-encoded {g} vs signed {r}");
        }
    }

    #[test]
    fn encoding_stores_only_nonnegative_codes() {
        let w = signed_matrix(8, 2);
        let layer = IsaacLayer::map_with(&w, 8, 8, 8, CellSpec::paper_2bit()).expect("map");
        // All conductances are valid by construction; decode a negative
        // weight and verify the stored code was biased.
        let back = layer.dequantized_matrix();
        assert!(back.min() < 0.0, "test matrix should have negatives");
    }

    #[test]
    fn dequantized_round_trip_within_step() {
        let w = signed_matrix(16, 4);
        let layer = IsaacLayer::map_with(&w, 8, 8, 16, CellSpec::paper_2bit()).expect("map");
        let err = w.max_abs_diff(&layer.dequantized_matrix());
        assert!(err <= layer.step() / 2.0 + 1e-6, "error {err}");
    }

    #[test]
    fn no_zero_skipping_means_full_cycles() {
        let w = signed_matrix(8, 2);
        let layer = IsaacLayer::map_with(&w, 8, 8, 8, CellSpec::paper_2bit()).expect("map");
        // Tiny inputs whose effective bits are 1 — ISAAC still pays 8
        // cycles.
        let (_, stats) = layer.matvec(&[1; 8], 1.0);
        assert_eq!(stats.cycles, 8);
    }

    #[test]
    fn offset_work_scales_with_input_ones() {
        let w = signed_matrix(8, 2);
        let layer = IsaacLayer::map_with(&w, 8, 8, 8, CellSpec::paper_2bit()).expect("map");
        let (_, sparse) = layer.matvec(&[1; 8], 1.0); // 8 ones total
        let (_, dense) = layer.matvec(&[255; 8], 1.0); // 64 ones total
        assert_eq!(sparse.ones_counted, 8);
        assert_eq!(dense.ones_counted, 64);
        assert!(dense.offset_subtractions > sparse.offset_subtractions);
    }

    #[test]
    fn multi_block_layers_accumulate_correctly() {
        // More rows than the crossbar dimension → several blocks.
        let w = signed_matrix(40, 2);
        let layer = IsaacLayer::map_with(&w, 8, 8, 16, CellSpec::paper_2bit()).expect("map");
        assert!(layer.crossbar_count() >= 3);
        let x = Tensor::from_fn(&[40], |i| (i as f32 * 0.037).fract());
        let q = QuantizedTensor::quantize(&x, 8);
        let (got, _) = layer.matvec(q.codes(), q.spec().scale());
        let reference = layer
            .dequantized_matrix()
            .transpose()
            .matvec(q.dequantize().data());
        for (g, r) in got.iter().zip(&reference) {
            assert!((g - r).abs() < 2e-3, "{g} vs {r}");
        }
    }

    #[test]
    fn packed_kernel_is_bitwise_identical_to_reference() {
        // Mirror of the FORMS equivalence gate: the ISAAC packed kernel
        // must match the legacy allocating path bit-for-bit, including on
        // multi-block and pruned layers.
        for &(rows, cols) in &[(12usize, 3usize), (40, 5), (8, 2)] {
            let mut w = signed_matrix(rows, cols);
            for r in 0..rows {
                w.data_mut()[r * cols + 1] = 0.0; // prune a column
            }
            let layer = IsaacLayer::map_with(&w, 8, 8, 16, CellSpec::paper_2bit()).expect("map");
            for seed in 0..4u64 {
                let codes: Vec<u32> = (0..rows)
                    .map(|i| ((i as u64 * 29 + seed * 67) % 256) as u32)
                    .collect();
                let (reference, ref_stats) = layer.matvec_reference(&codes, 0.017);
                let (packed, packed_stats) = layer.matvec(&codes, 0.017);
                assert_eq!(reference, packed);
                assert_eq!(ref_stats, packed_stats);
            }
        }
    }

    #[test]
    fn packed_scratch_is_reusable_across_blocks_and_inputs() {
        let w = signed_matrix(40, 4);
        let layer = IsaacLayer::map_with(&w, 8, 8, 16, CellSpec::paper_2bit()).expect("map");
        let mut scratch = IsaacScratch::default();
        let mut out = vec![0.0f32; layer.output_len()];
        for seed in 0..3u32 {
            let codes: Vec<u32> = (0..40).map(|i| (i as u32 * 7 + seed) % 256).collect();
            let stats = layer.matvec_into(&codes, 1.0, &mut scratch, &mut out);
            let (reference, ref_stats) = layer.matvec_reference(&codes, 1.0);
            assert_eq!(reference, out);
            assert_eq!(ref_stats, stats);
        }
    }

    #[test]
    fn clean_outputs_stay_under_the_ceiling() {
        let w = signed_matrix(16, 4);
        let layer = IsaacLayer::map_with(&w, 8, 8, 16, CellSpec::paper_2bit()).expect("map");
        let ceiling = layer.nominal_ceiling();
        assert!(ceiling > 0.0);
        let (out, _) = layer.matvec(&[255u32; 16], 1.0);
        for v in out {
            assert!(
                f64::from(v.abs()) <= ceiling * (1.0 + 1e-9),
                "clean output {v} exceeds ceiling {ceiling}"
            );
        }
    }

    #[test]
    fn injected_faults_flow_through_packed_path() {
        let w = signed_matrix(16, 4);
        let mut layer = IsaacLayer::map_with(&w, 8, 8, 16, CellSpec::paper_2bit()).expect("map");
        let report = layer.inject_faults(&FaultCampaign::stuck_at(3, 0.15, 0.1), 7);
        assert!(report.stuck() > 0);
        let (faulted, _, total) = layer.fault_counts();
        assert_eq!(faulted, report.stuck() as u64);
        assert!(total >= 16 * 16);
        let codes: Vec<u32> = (0..16).map(|i| (i * 13) as u32 % 251).collect();
        let (packed, _) = layer.matvec(&codes, 0.5);
        let (reference, _) = layer.matvec_reference(&codes, 0.5);
        assert_eq!(packed, reference);
    }

    /// Per-sample oracle: N× `matvec_into` through one warm scratch.
    fn matmul_oracle(
        layer: &IsaacLayer,
        batch_codes: &[u32],
        scales: &[f32],
    ) -> (Vec<f32>, IsaacStats) {
        let mut scratch = IsaacScratch::default();
        let mut outs = vec![0.0f32; scales.len() * layer.orig_cols];
        let mut stats = IsaacStats::default();
        for ((codes, out), &scale) in batch_codes
            .chunks_exact(layer.orig_rows)
            .zip(outs.chunks_exact_mut(layer.orig_cols))
            .zip(scales)
        {
            stats.merge(layer.matvec_into(codes, scale, &mut scratch, out));
        }
        (outs, stats)
    }

    fn batch_codes_for(layer: &IsaacLayer, samples: usize, seed: u64) -> (Vec<u32>, Vec<f32>) {
        let codes: Vec<u32> = (0..samples * layer.orig_rows)
            .map(|i| ((i as u64 * 29 + seed * 67) % 256) as u32)
            .collect();
        let scales: Vec<f32> = (0..samples).map(|s| 0.015 + 0.002 * s as f32).collect();
        (codes, scales)
    }

    #[test]
    fn batched_matmul_is_bitwise_identical_to_per_sample_matvec() {
        // The batch-kernel invariant over pruned and multi-block layers,
        // covering the empty batch, a single sample and a ragged tail past
        // one tile.
        for &(rows, cols) in &[(12usize, 3usize), (40, 5), (8, 2)] {
            let mut w = signed_matrix(rows, cols);
            for r in 0..rows {
                w.data_mut()[r * cols + 1] = 0.0; // prune a column
            }
            let layer = IsaacLayer::map_with(&w, 8, 8, 16, CellSpec::paper_2bit()).expect("map");
            assert!(layer.integer_matmul_path(), "pristine map must be fast");
            let mut scratch = IsaacScratch::default();
            for samples in [0usize, 1, 5, MATMUL_TILE + 1] {
                let (codes, scales) = batch_codes_for(&layer, samples, 5);
                let mut outs = vec![0.0f32; samples * cols];
                let stats = layer.matmul_into(&codes, &scales, &mut scratch, &mut outs);
                let (want, want_stats) = matmul_oracle(&layer, &codes, &scales);
                assert_eq!(outs, want, "samples={samples}");
                assert_eq!(stats, want_stats, "samples={samples}");
            }
        }
    }

    #[test]
    fn batched_matmul_on_drifted_array_falls_back_bitwise() {
        let w = signed_matrix(40, 5);
        let mut layer = IsaacLayer::map_with(&w, 8, 8, 16, CellSpec::paper_2bit()).expect("map");
        layer.crossbars_mut()[0].conductances_mut()[5] += 3.77;
        layer.crossbars_mut()[0].commit_writes();
        assert!(!layer.integer_matmul_path(), "drift must disable fast path");
        let mut scratch = IsaacScratch::default();
        let (codes, scales) = batch_codes_for(&layer, MATMUL_TILE + 2, 9);
        let mut outs = vec![0.0f32; scales.len() * 5];
        let stats = layer.matmul_into(&codes, &scales, &mut scratch, &mut outs);
        let (want, want_stats) = matmul_oracle(&layer, &codes, &scales);
        assert_eq!(outs, want);
        assert_eq!(stats, want_stats);
    }

    #[test]
    fn batched_matmul_survives_post_map_fault_injection() {
        let w = signed_matrix(16, 4);
        let mut layer = IsaacLayer::map_with(&w, 8, 8, 16, CellSpec::paper_2bit()).expect("map");
        let report = layer.inject_faults(&FaultCampaign::stuck_at(3, 0.15, 0.1), 7);
        assert!(report.stuck() > 0);
        let mut scratch = IsaacScratch::default();
        let (codes, scales) = batch_codes_for(&layer, 11, 2);
        let mut outs = vec![0.0f32; 11 * 4];
        let stats = layer.matmul_into(&codes, &scales, &mut scratch, &mut outs);
        let (want, want_stats) = matmul_oracle(&layer, &codes, &scales);
        assert_eq!(outs, want);
        assert_eq!(stats, want_stats);
    }

    #[test]
    fn all_zero_matrix_rejected() {
        let err = IsaacLayer::map(&Tensor::zeros(&[4, 4]), 8, 8).unwrap_err();
        assert!(matches!(err, ExecError::AllZero));
    }

    #[test]
    fn single_weight_bit_rejected() {
        let w = signed_matrix(4, 4);
        let err = IsaacLayer::map(&w, 1, 8).unwrap_err();
        assert!(matches!(err, ExecError::UnsupportedConfig { .. }));
    }

    #[test]
    fn non_matrix_rejected() {
        let err = IsaacLayer::map(&Tensor::ones(&[2, 2, 2]), 8, 8).unwrap_err();
        assert!(matches!(err, ExecError::NotMatrix { rank: 3 }));
    }
}
