//! Personalised PageRank: teleportation restricted to a source set.
//!
//! `p(v) = (1−δ)·1[v ∈ S]/|S| + δ · Σ p(u)/outdeg(u)` — ranks vertices by
//! proximity to the personalisation set `S` (e.g. one user's ego network).
//! The same global-recompute pattern as [`PageRank`](super::PageRank),
//! including its scatter (`rank · (1/outdeg)` once per source, then a
//! gather-sum per destination run); the only change is the teleport term.

use std::collections::HashSet;
use std::sync::Arc;

use crate::program::VertexProgram;
use crate::types::VertexId;

/// Personalised PageRank program.
pub struct PersonalizedPageRank {
    sources: HashSet<VertexId>,
    damping: f64,
    /// Reciprocal out-degrees, precomputed so scatter multiplies instead
    /// of dividing (see [`PageRank`](super::PageRank)).
    inv_deg: Vec<f64>,
}

impl PersonalizedPageRank {
    /// Personalise on `sources` (must be non-empty).
    pub fn new(sources: impl IntoIterator<Item = VertexId>, out_degrees: Arc<Vec<u32>>) -> Self {
        let sources: HashSet<_> = sources.into_iter().collect();
        assert!(!sources.is_empty(), "personalisation set must be non-empty");
        let inv_deg = out_degrees
            .iter()
            .map(|&d| if d == 0 { 0.0 } else { 1.0 / d as f64 })
            .collect();
        Self {
            sources,
            damping: 0.85,
            inv_deg,
        }
    }

    fn teleport(&self, v: VertexId) -> f64 {
        if self.sources.contains(&v) {
            (1.0 - self.damping) / self.sources.len() as f64
        } else {
            0.0
        }
    }
}

impl VertexProgram for PersonalizedPageRank {
    type Value = f64;
    type Accum = f64;
    const APPLY_NEEDS_OLD: bool = false;
    const ALWAYS_APPLY: bool = true;
    const SCATTERS: bool = true;

    fn init(&self, v: VertexId) -> f64 {
        if self.sources.contains(&v) {
            1.0 / self.sources.len() as f64
        } else {
            0.0
        }
    }

    fn zero(&self) -> f64 {
        0.0
    }

    fn scatter(&self, v: VertexId, rank: &f64) -> f64 {
        *rank * self.inv_deg[v as usize]
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
        // Same 4-lane gather over the scatter values as PageRank.
        let run = super::simd::table_sum(srcs, src_vals, src_base as usize);
        self.combine(acc, &run);
        true
    }

    fn apply(&self, v: VertexId, _old: &f64, acc: &f64, _got: bool) -> f64 {
        self.teleport(v) + self.damping * *acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::prep::{preprocess, PrepConfig};
    use nxgraph_storage::{Disk, MemDisk};

    fn run_ppr(raw: &[(u64, u64)], sources: Vec<u32>, iters: usize) -> Vec<f64> {
        let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
        let g = preprocess(raw, &PrepConfig::forward_only("ppr", 3), disk).unwrap();
        let prog = PersonalizedPageRank::new(sources, Arc::clone(g.out_degrees()));
        let cfg = EngineConfig {
            max_iterations: iters,
            ..EngineConfig::default()
        };
        crate::engine::run(&g, &prog, &cfg).unwrap().0
    }

    #[test]
    fn mass_concentrates_near_the_source() {
        // Path 0→1→2→3→4 plus a back edge to keep everything ranked.
        let raw: Vec<(u64, u64)> = vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)];
        let r = run_ppr(&raw, vec![0], 30);
        // Rank decays monotonically with distance from the source.
        assert!(r[0] > r[1] && r[1] > r[2] && r[2] > r[3] && r[3] > r[4], "{r:?}");
    }

    #[test]
    fn vertices_unreachable_from_sources_get_zero() {
        // Two disjoint cycles; personalise on the first.
        let raw: Vec<(u64, u64)> = vec![(0, 1), (1, 0), (2, 3), (3, 2)];
        let r = run_ppr(&raw, vec![0], 20);
        assert!(r[0] > 0.0 && r[1] > 0.0);
        assert_eq!(r[2], 0.0);
        assert_eq!(r[3], 0.0);
    }

    #[test]
    fn multiple_sources_split_teleport() {
        let raw: Vec<(u64, u64)> = vec![(0, 1), (1, 0), (2, 3), (3, 2)];
        let r = run_ppr(&raw, vec![0, 2], 30);
        // Symmetric components with symmetric sources → symmetric ranks.
        assert!((r[0] - r[2]).abs() < 1e-12);
        assert!((r[1] - r[3]).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn rejects_empty_source_set() {
        let _ = PersonalizedPageRank::new(Vec::<u32>::new(), Arc::new(vec![1]));
    }
}
