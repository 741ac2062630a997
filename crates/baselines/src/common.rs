//! Shared pieces for the baseline engines.

use std::time::Duration;

use nxgraph_storage::IoSnapshot;

use nxgraph_core::program::VertexProgram;
use nxgraph_core::types::VertexId;

/// Execution report, mirroring [`nxgraph_core::engine::RunStats`] so
/// benchmark tables can mix systems.
#[derive(Debug, Clone)]
pub struct BaselineStats {
    /// Engine name for table rows.
    pub system: &'static str,
    /// Iterations performed.
    pub iterations: usize,
    /// Wall-clock traversal time.
    pub elapsed: Duration,
    /// Disk traffic during the run.
    pub io: IoSnapshot,
    /// Total edges folded.
    pub edges_traversed: u64,
}

impl BaselineStats {
    /// Million traversed edges per second.
    pub fn mteps(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.edges_traversed as f64 / 1e6 / self.elapsed.as_secs_f64()
    }
}

/// Coarse-grained absorb used by the GraphChi-like and GridGraph-like
/// engines: split the *edge list* into per-thread ranges (ignoring
/// destination ownership), give every thread a private accumulator copy,
/// and merge the copies afterwards. This is the merge cost a system pays
/// when its edges are not destination-sorted.
///
/// `edges` are `(src, dst)` with the source's attribute supplied per edge
/// by `src_val`; each is scattered right before its `absorb` (these
/// engines have no per-source pass to hoist it into).
pub fn coarse_absorb<P, F>(
    prog: &P,
    edges: &[(VertexId, VertexId)],
    src_val: F,
    acc_base: VertexId,
    acc_len: usize,
    threads: usize,
) -> (Vec<P::Accum>, Vec<u8>)
where
    P: VertexProgram,
    F: Fn(usize, VertexId) -> P::Value + Sync,
{
    let threads = threads.max(1);
    let ranges = nxgraph_core::parallel::split_ranges(edges.len(), threads);
    let mut partials: Vec<(Vec<P::Accum>, Vec<u8>)> = Vec::with_capacity(ranges.len());
    for _ in 0..ranges.len() {
        partials.push((vec![prog.zero(); acc_len], vec![0u8; acc_len]));
    }
    type Partial<'a, A> = &'a mut (Vec<A>, Vec<u8>);
    let tasks: Vec<(std::ops::Range<usize>, Partial<'_, P::Accum>)> = ranges
        .into_iter()
        .zip(partials.iter_mut())
        .collect();
    nxgraph_core::parallel::run_tasks(threads, tasks, |(range, partial)| {
        let (acc, has) = partial;
        for (k, &(s, d)) in edges[range.clone()].iter().enumerate() {
            let idx = range.start + k;
            let mut v = src_val(idx, s);
            if P::SCATTERS {
                v = prog.scatter(s, &v);
            }
            if !prog.source_active(s, &v) {
                continue;
            }
            let slot = (d - acc_base) as usize;
            if prog.absorb(s, &v, d, &mut acc[slot]) {
                has[slot] = 1;
            }
        }
    });
    // Merge the per-thread partials (the coarse-grained overhead).
    let mut iter = partials.into_iter();
    let (mut acc, mut has) = iter.next().unwrap_or((vec![prog.zero(); acc_len], vec![0; acc_len]));
    for (pa, ph) in iter {
        for k in 0..acc_len {
            if ph[k] != 0 {
                if has[k] != 0 {
                    prog.combine(&mut acc[k], &pa[k]);
                } else {
                    acc[k] = pa[k];
                    has[k] = 1;
                }
            }
        }
    }
    (acc, has)
}

/// Encode an edge list as raw little-endian `u32` pairs (the uncompressed
/// layout of GridGraph blocks and X-stream streams: 8 bytes/edge, vs the
/// ~4.x bytes/edge of the DSSS compressed sparse format).
pub fn encode_edge_pairs(edges: &[(VertexId, VertexId)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(edges.len() * 8);
    for &(s, d) in edges {
        out.extend_from_slice(&s.to_le_bytes());
        out.extend_from_slice(&d.to_le_bytes());
    }
    out
}

/// Decode raw `u32` pairs.
pub fn decode_edge_pairs(bytes: &[u8]) -> Vec<(VertexId, VertexId)> {
    assert!(bytes.len().is_multiple_of(8), "ragged edge-pair payload");
    bytes
        .chunks_exact(8)
        .map(|c| {
            (
                u32::from_le_bytes(c[0..4].try_into().unwrap()),
                u32::from_le_bytes(c[4..8].try_into().unwrap()),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nxgraph_core::algo::pagerank::PageRank;
    use std::sync::Arc;

    #[test]
    fn edge_pair_roundtrip() {
        let edges = vec![(0u32, 1u32), (7, 7), (u32::MAX, 3)];
        assert_eq!(decode_edge_pairs(&encode_edge_pairs(&edges)), edges);
    }

    #[test]
    fn coarse_absorb_matches_serial() {
        // 4 sources all pointing at dsts 0..8.
        let mut edges = Vec::new();
        for s in 0..4u32 {
            for d in 0..8u32 {
                edges.push((s, d));
            }
        }
        let prog = PageRank::new(12, Arc::new(vec![8u32; 12]));
        let vals = [0.1, 0.2, 0.3, 0.4];
        let (acc, has) = coarse_absorb(
            &prog,
            &edges,
            |_idx, s| vals[s as usize],
            0,
            8,
            4,
        );
        let expect: f64 = vals.iter().map(|v| v / 8.0).sum();
        for k in 0..8 {
            assert!((acc[k] - expect).abs() < 1e-12);
            assert_eq!(has[k], 1);
        }
    }

    #[test]
    fn coarse_absorb_empty_edges() {
        let prog = PageRank::new(4, Arc::new(vec![1u32; 4]));
        let (acc, has) = coarse_absorb(&prog, &[], |_, _| 0.0, 0, 4, 2);
        assert_eq!(acc.len(), 4);
        assert!(has.iter().all(|&h| h == 0));
    }
}
