//! Integration: the batched `matmul_into` kernels of both designs against
//! the per-sample `matvec_reference` oracle, bitwise — outputs *and*
//! merged statistics.
//!
//! Pristine and stuck-at arrays serve batches from one exact integer GEMM
//! over a cached signed weight image; drifted arrays from the f64 window
//! sweep. Two things can go wrong that the per-layer unit pins do not
//! reach: a corner of the parameter space where the image stops being
//! exact (bit widths, fragment sizes, pruning, multi-crossbar layers, the
//! i64 range), and an image left stale after the cells changed. The seeded
//! property loops cover the first, the write/campaign sequences the second.

use forms::arch::{MappedLayer, MappingConfig};
use forms::baselines::IsaacLayer;
use forms::exec::{FaultCampaign, FaultableEngine, Merge};
use forms::reram::{CellSpec, Crossbar};
use forms::rng::{Rng, StdRng};
use forms::tensor::Tensor;

/// One design under test: its per-sample oracle and whether its batched
/// kernel currently serves from the integer GEMM.
trait Design: FaultableEngine {
    fn reference(&self, codes: &[u32], scale: f32) -> (Vec<f32>, Self::Stats);
    fn on_gemm(&self) -> bool;
}

impl Design for MappedLayer {
    fn reference(&self, codes: &[u32], scale: f32) -> (Vec<f32>, Self::Stats) {
        self.matvec_reference(codes, scale)
    }
    fn on_gemm(&self) -> bool {
        self.integer_matmul_path()
    }
}

impl Design for IsaacLayer {
    fn reference(&self, codes: &[u32], scale: f32) -> (Vec<f32>, Self::Stats) {
        self.matvec_reference(codes, scale)
    }
    fn on_gemm(&self) -> bool {
        self.integer_matmul_path()
    }
}

/// Asserts `matmul_into` (through a fresh scratch) equals per-sample
/// `matvec_reference` bitwise, outputs and merged stats, and returns the
/// batch's outputs.
fn assert_matches_reference<D: Design>(
    layer: &D,
    codes: &[u32],
    scales: &[f32],
    what: &str,
) -> Vec<f32>
where
    D::Stats: PartialEq,
{
    let rows = codes.len() / scales.len();
    let mut got = vec![f32::NAN; scales.len() * layer.output_len()];
    let got_stats = layer.matmul_into(codes, scales, &mut D::Scratch::default(), &mut got);
    let mut want = Vec::with_capacity(got.len());
    let mut want_stats = D::Stats::default();
    for (sample, &scale) in codes.chunks_exact(rows).zip(scales) {
        let (out, stats) = layer.reference(sample, scale);
        want.extend(out);
        want_stats.merge(stats);
    }
    assert_eq!(
        got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "{what}: outputs"
    );
    assert_eq!(got_stats, want_stats, "{what}: stats");
    got
}

/// A batch of input codes below `2^input_bits`: per sample, either dense
/// full-range codes, sparse codes (most zero, so whole fragments skip), or
/// small codes (a low EIC).
fn random_batch(
    rng: &mut StdRng,
    rows: usize,
    samples: usize,
    input_bits: u32,
) -> (Vec<u32>, Vec<f32>) {
    let below = 1u32 << input_bits;
    let mut codes = Vec::with_capacity(samples * rows);
    for _ in 0..samples {
        let kind = rng.gen_range(0..3u32);
        for _ in 0..rows {
            codes.push(match kind {
                0 => rng.gen_range(0..below),
                1 if rng.gen_bool(0.8) => 0,
                _ => rng.gen_range(0..below.min(8)),
            });
        }
    }
    let scales = (0..samples).map(|_| rng.gen_range(0.001f32..0.1)).collect();
    (codes, scales)
}

/// Spreads a `live_rows × live_cols` matrix over `rows × cols`, leaving
/// the other rows and columns all-zero (structurally pruned).
fn with_pruned(rng: &mut StdRng, live: &Tensor, rows: usize, cols: usize) -> Tensor {
    let (live_rows, live_cols) = (live.dims()[0], live.dims()[1]);
    let pick = |rng: &mut StdRng, n: usize, keep: usize| {
        let mut keep_at: Vec<usize> = (0..n).collect();
        while keep_at.len() > keep {
            keep_at.remove(rng.gen_range(0..keep_at.len()));
        }
        keep_at
    };
    let row_at = pick(rng, rows, live_rows);
    let col_at = pick(rng, cols, live_cols);
    let mut w = Tensor::zeros(&[rows, cols]);
    for (lr, &r) in row_at.iter().enumerate() {
        for (lc, &c) in col_at.iter().enumerate() {
            w.data_mut()[r * cols + c] = live.data()[lr * live_cols + lc];
        }
    }
    w
}

/// A fragment-polarized matrix: every `m`-row fragment of a column holds
/// one sign, magnitudes in `[0.01, 1]` (none zero, so no row or column is
/// pruned by accident).
fn polarized(rng: &mut StdRng, rows: usize, cols: usize, m: usize) -> Tensor {
    let signs: Vec<f32> = (0..rows.div_ceil(m) * cols)
        .map(|_| if rng.gen_bool(0.5) { 1.0 } else { -1.0 })
        .collect();
    Tensor::from_fn(&[rows, cols], |i| {
        let (r, c) = (i / cols, i % cols);
        signs[(r / m) * cols + c] * rng.gen_range(0.01f32..=1.0)
    })
}

/// A signed matrix with magnitudes in `[0.01, 1]`.
fn signed(rng: &mut StdRng, rows: usize, cols: usize) -> Tensor {
    Tensor::from_fn(&[rows, cols], |_| {
        let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
        sign * rng.gen_range(0.01f32..=1.0)
    })
}

/// The case grid both property loops walk: every bit width in 1..=16
/// (weights from `min_weight_bits`), crossbars of 16 and 128, layers past
/// one crossbar of rows and past 128 cell columns, pruning, batches of
/// 1..=40 (crossing the 32-sample sweep tile).
struct Case {
    weight_bits: u32,
    input_bits: u32,
    dim: usize,
    live_rows: usize,
    live_cols: usize,
    rows: usize,
    cols: usize,
    samples: usize,
}

fn case(rng: &mut StdRng, i: usize, min_weight_bits: u32) -> Case {
    let span = 17 - min_weight_bits as usize;
    let weight_bits = min_weight_bits + (i % span) as u32;
    let input_bits = 16 - ((i * 7) % 16) as u32;
    let dim = if i % 4 == 3 { 128 } else { 16 };
    // Past one crossbar of rows on most cases; 40 columns × ≥4 cells
    // (weights above 6 bits) pass 128 cell columns.
    let live_rows = rng.gen_range(1..=(dim + dim / 2).max(20));
    let live_cols = rng.gen_range(1..=40usize);
    let rows = live_rows + rng.gen_range(0..=live_rows / 3);
    let cols = live_cols + rng.gen_range(0..=live_cols / 3);
    let samples = if i.is_multiple_of(5) {
        rng.gen_range(33..=40)
    } else {
        rng.gen_range(1..=40)
    };
    Case {
        weight_bits,
        input_bits,
        dim,
        live_rows,
        live_cols,
        rows,
        cols,
        samples,
    }
}

/// Runs the pin on a pristine layer and, every third case, again after a
/// drift campaign (the f64 window sweep) over the same batch.
fn pin_case<D: Design>(mut layer: D, rng: &mut StdRng, c: &Case, what: &str)
where
    D::Stats: PartialEq,
{
    assert!(
        layer.on_gemm(),
        "{what}: a pristine map serves from the GEMM"
    );
    let (codes, scales) = random_batch(rng, c.rows, c.samples, c.input_bits);
    assert_matches_reference(&layer, &codes, &scales, what);
    if rng.gen_range(0..3u32) == 0 {
        layer.inject_faults(&FaultCampaign::drift(7, 0.05), 1);
        assert!(!layer.on_gemm(), "{what}: drift leaves the GEMM");
        assert_matches_reference(&layer, &codes, &scales, &format!("{what} drifted"));
    }
}

#[test]
fn forms_matmul_matches_per_sample_reference_over_the_parameter_space() {
    let mut rng = StdRng::seed_from_u64(0x16E4);
    for i in 0..48 {
        let c = case(&mut rng, i, 1);
        let m = [4, 8, 16][i % 3];
        let live = polarized(&mut rng, c.live_rows, c.live_cols, m);
        let w = with_pruned(&mut rng, &live, c.rows, c.cols);
        let config = MappingConfig {
            crossbar_dim: c.dim,
            fragment_size: m,
            weight_bits: c.weight_bits,
            cell: CellSpec::paper_2bit(),
            input_bits: c.input_bits,
            zero_skipping: i % 2 == 0,
        };
        let layer = MappedLayer::map(&w, config).expect("polarized by construction");
        let what = format!(
            "case {i}: {}x{} m{m} dim{} w{} a{} skip={} b{}",
            c.rows, c.cols, c.dim, c.weight_bits, c.input_bits, config.zero_skipping, c.samples
        );
        pin_case(layer, &mut rng, &c, &what);
    }
}

#[test]
fn isaac_matmul_matches_per_sample_reference_over_the_parameter_space() {
    let mut rng = StdRng::seed_from_u64(0x15AA);
    for i in 0..45 {
        // Offset encoding needs a sign bit: weights start at 2 bits.
        let c = case(&mut rng, i, 2);
        let live = signed(&mut rng, c.live_rows, c.live_cols);
        let w = with_pruned(&mut rng, &live, c.rows, c.cols);
        let layer = IsaacLayer::map_with(
            &w,
            c.weight_bits,
            c.input_bits,
            c.dim,
            CellSpec::paper_2bit(),
        )
        .expect("non-zero by construction");
        let what = format!(
            "case {i}: {}x{} dim{} w{} a{} b{}",
            c.rows, c.cols, c.dim, c.weight_bits, c.input_bits, c.samples
        );
        pin_case(layer, &mut rng, &c, &what);
    }
}

#[test]
fn worst_case_sums_stay_exact_in_i64() {
    // 1152 rows, every weight and input code at its 16-bit maximum: each
    // column sums 1152 × (2^16 − 1)^2 ≈ 2^42.2, far past i32 and the u32
    // current range, and must still match the bit-serial oracle.
    let rows = 1152;
    let full = (1u32 << 16) - 1;
    let codes = vec![full; 2 * rows];
    let scales = [1.0, 0.5];

    // FORMS: one all-positive and one all-negative column.
    let w = Tensor::from_fn(&[rows, 2], |i| if i % 2 == 0 { 1.0 } else { -1.0 });
    let config = MappingConfig {
        weight_bits: 16,
        input_bits: 16,
        ..MappingConfig::paper(8)
    };
    let forms = MappedLayer::map(&w, config).unwrap();
    assert!(forms.integer_matmul_path());
    let out = assert_matches_reference(&forms, &codes, &scales, "FORMS worst case");
    let sum = rows as f64 * f64::from(full) * f64::from(full);
    let want = (sum as f32) * forms.step();
    assert_eq!(out[..2], [want, -want]);

    // ISAAC: the all-ones encoded code (k + bias = 2^16 − 1) everywhere.
    let isaac = IsaacLayer::map(&Tensor::ones(&[rows, 2]), 16, 16).unwrap();
    assert!(isaac.integer_matmul_path());
    assert_matches_reference(&isaac, &codes, &scales, "ISAAC worst case");
}

/// The manual-write / commit / two-campaign sequence both designs must
/// survive with the GEMM reading the *current* cells at every step.
fn pin_image_lifecycle<D: Design>(
    layer: &mut D,
    crossbars_mut: fn(&mut D) -> &mut [Crossbar],
    commit: fn(&mut D),
    codes: &[u32],
    scales: &[f32],
) where
    D::Stats: PartialEq,
{
    let pristine = assert_matches_reference(layer, codes, scales, "pristine");
    assert!(layer.on_gemm());

    // A stuck-high cell written by hand and committed on its crossbar
    // only: the layer must not serve the image it cached at map time.
    let xbar = &mut crossbars_mut(layer)[0];
    xbar.conductances_mut()[0] = xbar.spec().g_max();
    xbar.commit_writes();
    assert!(!layer.on_gemm(), "a direct write drops the image");
    let manual = assert_matches_reference(layer, codes, scales, "manual write");
    assert_ne!(manual, pristine, "the stuck cell must move the outputs");

    // The layer-level commit brings the GEMM back, over the written cell.
    commit(layer);
    assert!(layer.on_gemm(), "commit_writes rebuilds the image");
    let mut previous = assert_matches_reference(layer, codes, scales, "committed");
    assert_eq!(previous, manual);

    // Two stuck-at campaigns: each must rebuild the image it invalidates.
    for salt in [1, 2] {
        layer.inject_faults(&FaultCampaign::stuck_at(5, 0.05, 0.05), salt);
        assert!(layer.on_gemm(), "stuck-at cells stay on the GEMM");
        let now = assert_matches_reference(layer, codes, scales, &format!("campaign {salt}"));
        assert_ne!(now, previous, "campaign {salt} must move the outputs");
        previous = now;
    }
}

#[test]
fn forms_image_tracks_manual_writes_and_campaigns() {
    let mut rng = StdRng::seed_from_u64(0x57A1);
    // Weight (0, 0) is small, so its most significant cell is not yet at
    // the top code and pinning it high changes the weight.
    let mut w = polarized(&mut rng, 40, 6, 8);
    w.data_mut()[0] = 0.02f32.copysign(w.data()[0]);
    w.data_mut()[1] = 1.0f32.copysign(w.data()[1]);
    let config = MappingConfig {
        crossbar_dim: 16,
        ..MappingConfig::paper(8)
    };
    let mut layer = MappedLayer::map(&w, config).unwrap();
    let (mut codes, scales) = random_batch(&mut rng, 40, 9, 16);
    codes[0] = 1000;
    pin_image_lifecycle(
        &mut layer,
        MappedLayer::crossbars_mut,
        MappedLayer::commit_writes,
        &codes,
        &scales,
    );
}

#[test]
fn isaac_image_tracks_manual_writes_and_campaigns() {
    let mut rng = StdRng::seed_from_u64(0x57A2);
    // Weight (0, 0) is the most negative code: its encoded top cell is 0.
    let mut w = signed(&mut rng, 40, 6);
    w.data_mut()[0] = -1.0;
    w.data_mut()[1] = 1.0;
    let mut layer = IsaacLayer::map_with(&w, 8, 16, 16, CellSpec::paper_2bit()).unwrap();
    let (mut codes, scales) = random_batch(&mut rng, 40, 9, 16);
    codes[0] = 1000;
    pin_image_lifecycle(
        &mut layer,
        IsaacLayer::crossbars_mut,
        IsaacLayer::commit_writes,
        &codes,
        &scales,
    );
}
