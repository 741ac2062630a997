//! PageRank as a [`VertexProgram`].
//!
//! The paper's primary workload: `p(v) = (1−δ)/n + δ · Σ p(u)/outdeg(u)`
//! over in-edges `u → v`, with damping `δ = 0.85`. A vertex's scatter value
//! is its rank divided by its out-degree, the incremental value stored in
//! DPU hubs is the partial sum — exactly the "8-byte vertex attribute"
//! configuration the paper uses for its I/O model (§III-C).
//!
//! [`scatter`](VertexProgram::scatter) computes `rank · (1/outdeg)` once per
//! source per iteration, so folding a destination's source run is a plain
//! gather-sum ([`simd::table_sum`](super::simd::table_sum)): one random
//! 8-byte load per edge. The product is the same IEEE multiply the per-edge
//! loop used to do, in the same lane and fold order, and is never fused
//! into an FMA, so ranks are bitwise-unchanged by where it is computed.
//!
//! Dangling mass is not redistributed (matching the reference oracle and
//! the common out-of-core implementations the paper compares against), so
//! total mass may shrink below 1 on graphs with dangling vertices.

use std::sync::Arc;

use crate::program::VertexProgram;
use crate::types::VertexId;

/// PageRank program.
pub struct PageRank {
    n: f64,
    damping: f64,
    epsilon: f64,
    /// Reciprocal out-degree per vertex, computed once at construction:
    /// scatter multiplies instead of dividing, off the (unpipelined)
    /// divider. Vertices with no out-edges map to 0.0 — they never appear
    /// as sub-shard sources.
    inv_deg: Vec<f64>,
}

impl PageRank {
    /// Standard PageRank (damping 0.85, exact change detection).
    pub fn new(num_vertices: u32, out_degrees: Arc<Vec<u32>>) -> Self {
        let inv_deg = out_degrees
            .iter()
            .map(|&d| if d == 0 { 0.0 } else { 1.0 / d as f64 })
            .collect();
        Self {
            n: num_vertices as f64,
            damping: 0.85,
            epsilon: 0.0,
            inv_deg,
        }
    }

    /// Override the damping factor.
    pub fn with_damping(mut self, damping: f64) -> Self {
        assert!((0.0..=1.0).contains(&damping));
        self.damping = damping;
        self
    }

    /// Convergence tolerance: a vertex counts as changed only when its
    /// rank moved by more than `epsilon`.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }
}

impl VertexProgram for PageRank {
    type Value = f64;
    type Accum = f64;
    const APPLY_NEEDS_OLD: bool = false;
    const ALWAYS_APPLY: bool = true;
    const SCATTERS: bool = true;

    fn init(&self, _v: VertexId) -> f64 {
        1.0 / self.n
    }

    fn scatter(&self, v: VertexId, rank: &f64) -> f64 {
        *rank * self.inv_deg[v as usize]
    }

    fn zero(&self) -> f64 {
        0.0
    }

    fn absorb(&self, _src: VertexId, share: &f64, _dst: VertexId, acc: &mut f64) -> bool {
        *acc += *share;
        true
    }

    fn combine(&self, a: &mut f64, b: &f64) {
        *a += *b;
    }

    fn absorb_run(
        &self,
        _dst: VertexId,
        srcs: &[VertexId],
        src_vals: &[f64],
        src_base: VertexId,
        acc: &mut f64,
    ) -> bool {
        if srcs.is_empty() {
            return false;
        }
        // 4-lane gather over the scatter values, one combine fold at the end.
        let run = super::simd::table_sum(srcs, src_vals, src_base as usize);
        self.combine(acc, &run);
        true
    }

    fn apply(&self, _v: VertexId, _old: &f64, acc: &f64, _got: bool) -> f64 {
        (1.0 - self.damping) / self.n + self.damping * *acc
    }

    fn changed(&self, old: &f64, new: &f64) -> bool {
        (old - new).abs() > self.epsilon
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_cycle() -> PageRank {
        PageRank::new(2, Arc::new(vec![1, 1]))
    }

    #[test]
    fn absorb_divides_by_out_degree() {
        let p = PageRank::new(4, Arc::new(vec![2, 1, 1, 1]));
        let mut acc = 0.0;
        p.absorb(0, &p.scatter(0, &0.5), 3, &mut acc);
        assert!((acc - 0.25).abs() < 1e-15);
        p.absorb(1, &p.scatter(1, &0.5), 3, &mut acc);
        assert!((acc - 0.75).abs() < 1e-15);
    }

    #[test]
    fn apply_mixes_teleport_and_damped_sum() {
        let p = two_cycle();
        let v = p.apply(0, &0.0, &0.5, true);
        assert!((v - (0.15 / 2.0 + 0.85 * 0.5)).abs() < 1e-15);
    }

    #[test]
    fn fixed_point_of_symmetric_cycle_is_uniform() {
        // On a 2-cycle the uniform distribution is stationary.
        let p = two_cycle();
        let rank = 0.5;
        let contribution = rank / 1.0;
        let next = p.apply(0, &rank, &contribution, true);
        assert!((next - rank).abs() < 1e-15);
    }

    #[test]
    fn epsilon_gates_changed() {
        let p = two_cycle().with_epsilon(1e-3);
        assert!(!p.changed(&0.5, &0.5005));
        assert!(p.changed(&0.5, &0.502));
    }

    #[test]
    #[should_panic]
    fn rejects_bad_damping() {
        let _ = two_cycle().with_damping(1.5);
    }

    #[test]
    fn unrolled_absorb_run_matches_scalar_walk() {
        // Runs of every length 0..=13 cover the 4-lane body and all tail
        // shapes; compare against per-edge absorb (the trait default).
        let n = 16u32;
        let degs: Vec<u32> = (0..n).map(|v| v % 5 + 1).collect();
        let p = PageRank::new(n, Arc::new(degs));
        let src_base = 2u32;
        let src_vals: Vec<f64> = (src_base..n)
            .map(|v| p.scatter(v, &(0.01 + (v - src_base) as f64 * 0.37)))
            .collect();
        for len in 0..=13usize {
            let srcs: Vec<u32> = (0..len as u32).map(|k| src_base + (k * 7) % (n - src_base)).collect();
            let mut srcs = srcs;
            srcs.sort_unstable();
            let mut unrolled = 0.25;
            let got_u = p.absorb_run(9, &srcs, &src_vals, src_base, &mut unrolled);
            let mut scalar = 0.25;
            let mut got_s = false;
            for &s in &srcs {
                got_s |= p.absorb(s, &src_vals[(s - src_base) as usize], 9, &mut scalar);
            }
            assert_eq!(got_u, got_s, "len {len}");
            assert!(
                (unrolled - scalar).abs() < 1e-14,
                "len {len}: {unrolled} vs {scalar}"
            );
        }
    }
}
