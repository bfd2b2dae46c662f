//! Exact integer GEMM — the one primitive behind the crossbar engines'
//! batched kernels.
//!
//! A crossbar whose cells hold exact integer codes, read through a
//! lossless ADC, computes exactly `input codes × integer weights`
//! (polarized fragments in FORMS, offset-corrected codes in ISAAC). The
//! mappings cache that integer weight matrix once and serve batches with
//! [`igemm`], so their simulated outputs cost one multiply-add per weight
//! instead of one add per cell per input bit plane.

/// `c = a × b`, exactly: `a` holds `m × k` unsigned input codes, `b` holds
/// `k × n` signed weights and `c` receives `m × n` accumulators
/// (overwritten), all row-major, with `k = b.len() / n`.
///
/// Each row of `a` sweeps only the weight rows of its non-zero codes, four
/// at a time, so a zero code (a pruned input, a ReLU zero) costs nothing
/// and each accumulator load and store is shared by four multiply-adds.
/// Arithmetic is plain `i64`: the result is exact as long as every
/// partial sum stays below 2^63 in magnitude, which `k × max code ×
/// max |weight|` bounds (1152 rows of 16-bit codes against 16-bit weights
/// use 43 bits).
///
/// # Panics
///
/// Panics if `n` is zero, `b.len()` is not a multiple of `n`, or `a` and
/// `c` do not hold the same number of rows.
///
/// # Example
///
/// ```
/// use forms_tensor::igemm;
///
/// // [1 2] × [ 3 -1 ]  = [11 -1]
/// //         [ 4  0 ]
/// let mut c = [0i64; 2];
/// igemm(&[1, 2], &[3, -1, 4, 0], 2, &mut c);
/// assert_eq!(c, [11, -1]);
/// ```
pub fn igemm(a: &[u32], b: &[i32], n: usize, c: &mut [i64]) {
    assert!(
        n > 0 && b.len().is_multiple_of(n),
        "b must hold whole rows of n"
    );
    let k = b.len() / n;
    assert!(k > 0, "b must hold at least one row");
    assert_eq!(
        a.len() / k * n,
        c.len(),
        "a ({} codes) and c ({} outputs) must hold the same rows",
        a.len(),
        c.len()
    );
    assert!(a.len().is_multiple_of(k), "a must hold whole rows of k");
    c.fill(0);
    for (a_row, c_row) in a.chunks_exact(k).zip(c.chunks_exact_mut(n)) {
        let mut quad = [(0i64, 0usize); 4];
        let mut queued = 0;
        for (r, &x) in a_row.iter().enumerate() {
            if x == 0 {
                continue;
            }
            quad[queued] = (i64::from(x), r * n);
            queued += 1;
            if queued == 4 {
                axpy4(c_row, b, &quad);
                queued = 0;
            }
        }
        for &(x, at) in &quad[..queued] {
            for (acc, &w) in c_row.iter_mut().zip(&b[at..at + n]) {
                *acc += x * i64::from(w);
            }
        }
    }
}

/// `c_row += Σ x · b[at..at + n]` over four queued `(x, at)` weight rows.
#[inline]
fn axpy4(c_row: &mut [i64], b: &[i32], quad: &[(i64, usize); 4]) {
    let n = c_row.len();
    let [(x0, a0), (x1, a1), (x2, a2), (x3, a3)] = *quad;
    let rows = (
        &b[a0..a0 + n],
        &b[a1..a1 + n],
        &b[a2..a2 + n],
        &b[a3..a3 + n],
    );
    for ((((acc, &w0), &w1), &w2), &w3) in c_row
        .iter_mut()
        .zip(rows.0)
        .zip(rows.1)
        .zip(rows.2)
        .zip(rows.3)
    {
        *acc += x0 * i64::from(w0) + x1 * i64::from(w1) + x2 * i64::from(w2) + x3 * i64::from(w3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The schoolbook triple loop the blocked kernel must equal.
    fn naive(a: &[u32], b: &[i32], n: usize) -> Vec<i64> {
        let k = b.len() / n;
        let m = a.len() / k;
        let mut c = vec![0i64; m * n];
        for i in 0..m {
            for j in 0..n {
                c[i * n + j] = (0..k)
                    .map(|r| i64::from(a[i * k + r]) * i64::from(b[r * n + j]))
                    .sum();
            }
        }
        c
    }

    #[test]
    fn matches_the_triple_loop_with_zeros_and_ragged_quads() {
        // k = 11 leaves a ragged tail after the quads; every third code is
        // zero so the non-zero queue straddles rows unevenly.
        let (m, k, n) = (5usize, 11usize, 7usize);
        let a: Vec<u32> = (0..m * k)
            .map(|i| {
                if i % 3 == 0 {
                    0
                } else {
                    (i * 7919 % 65536) as u32
                }
            })
            .collect();
        let b: Vec<i32> = (0..k * n).map(|i| (i as i32 * 37 % 511) - 255).collect();
        let mut c = vec![7i64; m * n];
        igemm(&a, &b, n, &mut c);
        assert_eq!(c, naive(&a, &b, n));
    }

    #[test]
    fn empty_batch_and_all_zero_codes() {
        let b = [1, -2, 3, -4];
        let mut c: [i64; 0] = [];
        igemm(&[], &b, 2, &mut c);
        let mut c = [9i64; 2];
        igemm(&[0, 0], &b, 2, &mut c);
        assert_eq!(c, [0, 0]);
    }

    #[test]
    fn extreme_operands_stay_exact() {
        // 1152 full-scale 16-bit codes against ±(2^16 − 1): 43 bits.
        let k = 1152;
        let a = vec![u32::from(u16::MAX); k];
        let b: Vec<i32> = (0..k)
            .flat_map(|_| [i32::from(u16::MAX), -i32::from(u16::MAX)])
            .collect();
        let mut c = [0i64; 2];
        igemm(&a, &b, 2, &mut c);
        let want = k as i64 * i64::from(u16::MAX) * i64::from(u16::MAX);
        assert_eq!(c, [want, -want]);
    }

    #[test]
    #[should_panic(expected = "same rows")]
    fn mismatched_outputs_are_rejected() {
        let mut c = [0i64; 3];
        igemm(&[1, 2], &[1, 2, 3, 4], 2, &mut c);
    }
}
