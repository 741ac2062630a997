//! X-stream-like engine: edge-centric scatter/gather (SOSP 2013).
//!
//! X-stream never sorts edges; it streams the raw edge list twice per
//! iteration through two phases:
//!
//! * **Scatter** — stream all edges; for each edge whose source is active,
//!   append an *update record* `(dst, accum)` to the destination
//!   partition's update file.
//! * **Gather** — stream each partition's update file and fold the records
//!   into the vertex values.
//!
//! The update stream costs `m·(Bv + Ba)` written *and* read back every
//! iteration — the traffic NXgraph's hubs compress by the in-degree factor
//! `d` and SPU avoids entirely, which is why X-stream trails in Tables V
//! and VI.

use std::sync::Arc;
use std::time::Instant;

use nxgraph_core::dsss::PreparedGraph;
use nxgraph_core::error::EngineResult;
use nxgraph_core::program::VertexProgram;
use nxgraph_core::types::{Attr, VertexId};
use nxgraph_storage::format;
use nxgraph_storage::Disk;

use crate::common::{decode_edge_pairs, encode_edge_pairs, BaselineStats};

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct XStreamConfig {
    /// Iteration cap.
    pub max_iterations: usize,
}

impl Default for XStreamConfig {
    fn default() -> Self {
        Self { max_iterations: 50 }
    }
}

/// An X-stream-like engine over a flat edge stream and partitioned vertex
/// state.
pub struct XStreamEngine {
    disk: Arc<dyn Disk>,
    num_vertices: u32,
    num_partitions: u32,
    partition_len: u32,
    num_edges: u64,
}

impl XStreamEngine {
    /// Build the streaming-partition layout from a prepared graph: one flat
    /// edge file per *source* partition (X-stream shuffles edges by source
    /// so scatter can read vertex state sequentially).
    pub fn prepare(g: &PreparedGraph) -> EngineResult<Self> {
        let p = g.num_intervals();
        for i in 0..p {
            let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
            for j in 0..p {
                edges.extend(g.load_subshard(i, j, false)?.iter_edges());
            }
            g.disk()
                .write_all_to(&Self::edges_file(i), &encode_edge_pairs(&edges))?;
        }
        Ok(Self {
            disk: Arc::clone(g.disk()),
            num_vertices: g.num_vertices(),
            num_partitions: p,
            partition_len: g.manifest().interval_len() as u32,
            num_edges: g.num_edges(),
        })
    }

    fn edges_file(i: u32) -> String {
        format!("xs_edges_{i}.bin")
    }

    fn vertices_file(j: u32) -> String {
        format!("xs_vertices_{j}.bin")
    }

    fn updates_file(j: u32) -> String {
        format!("xs_updates_{j}.bin")
    }

    fn partition_range(&self, j: u32) -> std::ops::Range<VertexId> {
        let start = self.partition_len * j;
        start..((start + self.partition_len).min(self.num_vertices))
    }

    fn partition_of(&self, v: VertexId) -> u32 {
        v / self.partition_len
    }

    /// Run a vertex program under scatter/gather.
    pub fn run<P: VertexProgram>(
        &self,
        prog: &P,
        cfg: &XStreamConfig,
    ) -> EngineResult<(Vec<P::Value>, BaselineStats)> {
        let start = Instant::now();
        let io0 = self.disk.counters().snapshot();
        let p = self.num_partitions;

        for j in 0..p {
            let vals: Vec<P::Value> = self.partition_range(j).map(|v| prog.init(v)).collect();
            self.disk
                .write_all_to(&Self::vertices_file(j), &P::Value::encode_slice(&vals))?;
        }

        let mut iterations = 0;
        let mut edges_traversed = 0u64;

        for _ in 0..cfg.max_iterations {
            iterations += 1;

            // Scatter: stream edges per source partition, spill update
            // records per destination partition.
            let mut update_bufs: Vec<Vec<u8>> = vec![Vec::new(); p as usize];
            for i in 0..p {
                let src_bytes = self.disk.read_all(&Self::vertices_file(i))?;
                let src_vals = P::Value::decode_slice(&src_bytes);
                let r_i = self.partition_range(i);
                let edges = decode_edge_pairs(&self.disk.read_all(&Self::edges_file(i))?);
                edges_traversed += edges.len() as u64;
                for (s, d) in edges {
                    let mut sv = src_vals[(s - r_i.start) as usize];
                    if P::SCATTERS {
                        sv = prog.scatter(s, &sv);
                    }
                    if !prog.source_active(s, &sv) {
                        continue;
                    }
                    let mut acc = prog.zero();
                    if prog.absorb(s, &sv, d, &mut acc) {
                        let buf = &mut update_bufs[self.partition_of(d) as usize];
                        format::push_u32(buf, d);
                        acc.write_to(buf);
                    }
                }
            }
            for j in 0..p {
                self.disk
                    .write_all_to(&Self::updates_file(j), &update_bufs[j as usize])?;
            }
            drop(update_bufs);

            // Gather: fold each partition's update stream.
            let mut any_changed = false;
            for j in 0..p {
                let r_j = self.partition_range(j);
                let len = (r_j.end - r_j.start) as usize;
                let old_bytes = self.disk.read_all(&Self::vertices_file(j))?;
                let old = P::Value::decode_slice(&old_bytes);
                let mut acc = vec![prog.zero(); len];
                let mut has = vec![0u8; len];
                let upd = self.disk.read_all(&Self::updates_file(j))?;
                let rec = 4 + P::Accum::SIZE;
                assert!(upd.len() % rec == 0, "ragged update stream");
                for chunk in upd.chunks_exact(rec) {
                    let d = u32::from_le_bytes(chunk[0..4].try_into().unwrap());
                    let a = P::Accum::read_from(&chunk[4..]);
                    let k = (d - r_j.start) as usize;
                    if has[k] != 0 {
                        prog.combine(&mut acc[k], &a);
                    } else {
                        acc[k] = a;
                        has[k] = 1;
                    }
                }
                let mut new_vals = old.clone();
                for k in 0..len {
                    let v = r_j.start + k as VertexId;
                    let got = has[k] != 0;
                    if got || P::ALWAYS_APPLY {
                        new_vals[k] = prog.apply(v, &old[k], &acc[k], got);
                    }
                    if prog.changed(&old[k], &new_vals[k]) {
                        any_changed = true;
                    }
                }
                self.disk
                    .write_all_to(&Self::vertices_file(j), &P::Value::encode_slice(&new_vals))?;
                let _ = self.disk.remove(&Self::updates_file(j));
            }

            let done = if P::ALWAYS_APPLY {
                false // run to the configured cap
            } else {
                !any_changed
            };
            if done {
                break;
            }
        }

        let mut out: Vec<P::Value> = Vec::with_capacity(self.num_vertices as usize);
        for j in 0..p {
            let bytes = self.disk.read_all(&Self::vertices_file(j))?;
            out.extend(P::Value::decode_slice(&bytes));
        }
        Ok((
            out,
            BaselineStats {
                system: "xstream-like",
                iterations,
                elapsed: start.elapsed(),
                io: self.disk.counters().snapshot().delta(&io0),
                edges_traversed,
            },
        ))
    }

    /// Total edges in the stream.
    pub fn num_edges(&self) -> u64 {
        self.num_edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nxgraph_core::algo::bfs::Bfs;
    use nxgraph_core::algo::pagerank::PageRank;
    use nxgraph_core::prep::{preprocess, PrepConfig};
    use nxgraph_storage::MemDisk;

    fn graph(p: u32) -> PreparedGraph {
        let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
        let edges: Vec<(u64, u64)> = nxgraph_core::fig1_example_edges()
            .into_iter()
            .map(|(s, d)| (s as u64, d as u64))
            .collect();
        preprocess(&edges, &PrepConfig::forward_only("fig1", p), disk).unwrap()
    }

    #[test]
    fn pagerank_matches_reference() {
        let g = graph(4);
        let engine = XStreamEngine::prepare(&g).unwrap();
        let prog = PageRank::new(g.num_vertices(), Arc::clone(g.out_degrees()));
        let (vals, stats) = engine
            .run(&prog, &XStreamConfig { max_iterations: 10 })
            .unwrap();
        assert_eq!(stats.iterations, 10);
        let expect = nxgraph_core::reference::pagerank(
            g.num_vertices(),
            &nxgraph_core::fig1_example_edges(),
            g.out_degrees(),
            10,
        );
        for (a, b) in vals.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn bfs_matches_reference() {
        let g = graph(3);
        let engine = XStreamEngine::prepare(&g).unwrap();
        let (depths, _) = engine
            .run(&Bfs::new(0), &XStreamConfig { max_iterations: 100 })
            .unwrap();
        let expect = nxgraph_core::reference::bfs(7, &nxgraph_core::fig1_example_edges(), 0);
        assert_eq!(depths, expect);
    }

    #[test]
    fn update_stream_traffic_is_per_edge() {
        let g = graph(2);
        let engine = XStreamEngine::prepare(&g).unwrap();
        let prog = PageRank::new(g.num_vertices(), Arc::clone(g.out_degrees()));
        let (_, stats) = engine
            .run(&prog, &XStreamConfig { max_iterations: 2 })
            .unwrap();
        // Each iteration writes m update records of 12 bytes (u32 + f64).
        let m = g.num_edges();
        assert!(stats.io.written_bytes >= stats.iterations as u64 * m * 12);
    }
}
