//! SIMD inner loop for the f64 `absorb_run` overrides.
//!
//! [`table_sum`] is the vectorised counterpart of the 4-lane ILP-unrolled
//! scalar gather-sum that PageRank/PPR (over this iteration's scatter
//! values) and HITS (over the companion score table) fold per destination
//! run: one random 8-byte gather and one add per edge. The contract is
//! **bitwise reproducibility**: every path — AVX, SSE2, scalar — computes
//! the *same* four partial lanes (lane `k` accumulates elements `k, k+4,
//! k+8, …` with IEEE adds) and folds them in the fixed order
//! `(l0 + l1) + (l2 + l3) + tail`. The SIMD paths merely execute the four
//! lane updates in one instruction, so the result is identical to the
//! scalar unroll bit for bit, and therefore identical across hosts with
//! different vector extensions.
//!
//! Dispatch is a cached runtime check (`is_x86_feature_detected!`): AVX
//! when available, else SSE2 (baseline on `x86_64`); other architectures
//! use the scalar unroll. [`table_sum_on`] runs one named path, so tests
//! can pin every path against the same expectation.

use crate::types::VertexId;

/// One implementation of the 4-lane sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lanes {
    /// One `__m256d` accumulator (x86_64 with AVX).
    Avx,
    /// Two `__m128d` accumulators (x86_64 baseline).
    Sse2,
    /// Four scalar accumulators (every architecture).
    Scalar,
}

impl Lanes {
    /// Every path, widest first.
    pub const ALL: [Lanes; 3] = [Lanes::Avx, Lanes::Sse2, Lanes::Scalar];

    /// Whether this host can run the path.
    pub fn available(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            Lanes::Avx => std::arch::is_x86_feature_detected!("avx"),
            #[cfg(target_arch = "x86_64")]
            Lanes::Sse2 => true,
            #[cfg(not(target_arch = "x86_64"))]
            Lanes::Avx | Lanes::Sse2 => false,
            Lanes::Scalar => true,
        }
    }
}

/// `Σ table[s − base]` over one destination's source run, on the widest
/// path the host supports.
#[inline]
pub fn table_sum(srcs: &[VertexId], table: &[f64], base: usize) -> f64 {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx") {
            // SAFETY: AVX support was just verified at runtime.
            return unsafe { x86::table_sum_avx(srcs, table, base) };
        }
        x86::table_sum_sse2(srcs, table, base)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        table_sum_scalar(srcs, table, base)
    }
}

/// [`table_sum`] on the named path, or `None` when the host lacks it.
pub fn table_sum_on(lanes: Lanes, srcs: &[VertexId], table: &[f64], base: usize) -> Option<f64> {
    if !lanes.available() {
        return None;
    }
    Some(match lanes {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `available` verified AVX support at runtime.
        Lanes::Avx => unsafe { x86::table_sum_avx(srcs, table, base) },
        #[cfg(target_arch = "x86_64")]
        Lanes::Sse2 => x86::table_sum_sse2(srcs, table, base),
        Lanes::Scalar => table_sum_scalar(srcs, table, base),
        #[allow(unreachable_patterns)]
        _ => unreachable!("unavailable paths returned above"),
    })
}

/// The reference 4-lane unroll (also the non-x86 fallback). Four
/// independent lanes break the loop-carried add dependency; the fold
/// order is fixed so every caller reassociates identically.
#[inline]
fn table_sum_scalar(srcs: &[VertexId], table: &[f64], base: usize) -> f64 {
    let mut lanes = [0.0f64; 4];
    let mut chunks = srcs.chunks_exact(4);
    for c in &mut chunks {
        lanes[0] += table[c[0] as usize - base];
        lanes[1] += table[c[1] as usize - base];
        lanes[2] += table[c[2] as usize - base];
        lanes[3] += table[c[3] as usize - base];
    }
    let mut tail = 0.0;
    for &s in chunks.remainder() {
        tail += table[s as usize - base];
    }
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + tail
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::*;

    use crate::types::VertexId;

    /// AVX: one `__m256d` accumulator holds the four scalar lanes; each
    /// chunk issues one packed add.
    ///
    /// # Safety
    /// Caller must ensure the host supports AVX.
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn table_sum_avx(srcs: &[VertexId], table: &[f64], base: usize) -> f64 {
        let mut acc = _mm256_setzero_pd();
        let mut chunks = srcs.chunks_exact(4);
        for c in &mut chunks {
            // `_mm256_set_pd` takes operands high-to-low: lane k of `acc`
            // replays scalar lane k exactly.
            let v = _mm256_set_pd(
                table[c[3] as usize - base],
                table[c[2] as usize - base],
                table[c[1] as usize - base],
                table[c[0] as usize - base],
            );
            acc = _mm256_add_pd(acc, v);
        }
        let mut lanes = [0.0f64; 4];
        _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
        let mut tail = 0.0;
        for &s in chunks.remainder() {
            tail += table[s as usize - base];
        }
        (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + tail
    }

    /// SSE2 (baseline on `x86_64`): lanes 0/1 and 2/3 in two `__m128d`
    /// accumulators, same per-lane arithmetic as the scalar unroll.
    pub(super) fn table_sum_sse2(srcs: &[VertexId], table: &[f64], base: usize) -> f64 {
        // SAFETY: SSE2 is part of the x86_64 baseline, and every intrinsic
        // below only reads and writes local registers and arrays.
        unsafe {
            let mut acc01 = _mm_setzero_pd();
            let mut acc23 = _mm_setzero_pd();
            let mut chunks = srcs.chunks_exact(4);
            for c in &mut chunks {
                acc01 = _mm_add_pd(
                    acc01,
                    _mm_set_pd(table[c[1] as usize - base], table[c[0] as usize - base]),
                );
                acc23 = _mm_add_pd(
                    acc23,
                    _mm_set_pd(table[c[3] as usize - base], table[c[2] as usize - base]),
                );
            }
            let mut l01 = [0.0f64; 2];
            let mut l23 = [0.0f64; 2];
            _mm_storeu_pd(l01.as_mut_ptr(), acc01);
            _mm_storeu_pd(l23.as_mut_ptr(), acc23);
            let mut tail = 0.0;
            for &s in chunks.remainder() {
                tail += table[s as usize - base];
            }
            (l01[0] + l01[1]) + (l23[0] + l23[1]) + tail
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random doubles with awkward magnitudes so a
    /// reassociated sum would actually differ in the low bits.
    fn lcg_vals(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                // Spread across several orders of magnitude.
                let m = (state >> 33) as f64 / (1u64 << 31) as f64;
                let e = ((state >> 11) % 13) as i32 - 6;
                m * 10f64.powi(e)
            })
            .collect()
    }

    #[test]
    fn table_sum_paths_agree_bitwise() {
        let table = lcg_vals(64, 41);
        for len in 0..=19usize {
            // Scattered source ids in [8, 64) against base 8.
            let srcs: Vec<VertexId> = (0..len)
                .map(|k| 8 + ((k * 17 + 5) % 56) as VertexId)
                .collect();
            let vals = &table[8..];
            let scalar = table_sum_scalar(&srcs, vals, 8);
            let dispatched = table_sum(&srcs, vals, 8);
            assert_eq!(scalar.to_bits(), dispatched.to_bits(), "len={len}");
            for lanes in Lanes::ALL {
                if let Some(got) = table_sum_on(lanes, &srcs, vals, 8) {
                    assert_eq!(scalar.to_bits(), got.to_bits(), "{lanes:?} len={len}");
                }
            }
        }
        assert!(Lanes::Scalar.available());
        #[cfg(target_arch = "x86_64")]
        assert!(Lanes::Sse2.available());
    }

    #[test]
    fn lane_association_is_the_documented_order() {
        // 8 elements: lanes are (e0+e4), (e1+e5), (e2+e6), (e3+e7) folded
        // as (l0+l1)+(l2+l3). Verify against a hand-built expression.
        let table: Vec<f64> = lcg_vals(8, 3);
        let srcs: Vec<VertexId> = (0..8).collect();
        let l0 = table[0] + table[4];
        let l1 = table[1] + table[5];
        let l2 = table[2] + table[6];
        let l3 = table[3] + table[7];
        let want = (l0 + l1) + (l2 + l3);
        assert_eq!(want.to_bits(), table_sum(&srcs, &table, 0).to_bits());
    }
}
