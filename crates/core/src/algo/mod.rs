//! The paper's evaluation algorithms as [`VertexProgram`]s plus one-call
//! wrappers.
//!
//! * [`pagerank()`] — the global-query workload of Exps 1–5, 8, 9.
//! * [`bfs()`] — Breadth-First Search (Algorithm 2–4 of the paper).
//! * [`wcc()`] — Weakly Connected Components (undirected label propagation).
//! * [`scc()`] — Strongly Connected Components (forward-max-colouring +
//!   backward confirmation, built from two engine runs per round).
//!
//! [`VertexProgram`]: crate::program::VertexProgram

pub mod bfs;
pub mod hits;
pub mod kcore;
pub mod pagerank;
pub mod ppr;
pub mod scc;
pub mod simd;
pub mod sssp;
pub mod wcc;

use crate::dsss::PreparedGraph;
use crate::engine::{self, EngineConfig, RunStats};
use crate::error::EngineResult;
use crate::program::Direction;
use crate::types::VertexId;

pub use bfs::Bfs;
pub use hits::hits;
pub use kcore::kcore;
pub use pagerank::PageRank;
pub use ppr::PersonalizedPageRank;
pub use scc::SccOutcome;
pub use sssp::Sssp;
pub use wcc::Wcc;

/// Run `iterations` of PageRank (damping 0.85) and return ranks.
pub fn pagerank(
    g: &PreparedGraph,
    iterations: usize,
    cfg: &EngineConfig,
) -> EngineResult<(Vec<f64>, RunStats)> {
    let prog = PageRank::new(g.num_vertices(), std::sync::Arc::clone(g.out_degrees()));
    let mut cfg = cfg.clone();
    cfg.max_iterations = iterations;
    cfg.direction = Direction::Forward;
    engine::run(g, &prog, &cfg)
}

/// BFS from `root`; returns depths (`u32::MAX` = unreachable).
pub fn bfs(
    g: &PreparedGraph,
    root: VertexId,
    cfg: &EngineConfig,
) -> EngineResult<(Vec<u32>, RunStats)> {
    let prog = Bfs::new(root);
    let mut cfg = cfg.clone();
    cfg.direction = Direction::Forward;
    // BFS needs depth-of-graph iterations; the engine's activity tracking
    // terminates as soon as no interval changes.
    cfg.max_iterations = cfg.max_iterations.max(g.num_vertices() as usize + 1);
    engine::run(g, &prog, &cfg)
}

/// Weakly connected components; labels are the minimum vertex id of each
/// component.
pub fn wcc(g: &PreparedGraph, cfg: &EngineConfig) -> EngineResult<(Vec<u32>, RunStats)> {
    let prog = Wcc;
    let mut cfg = cfg.clone();
    cfg.direction = Direction::Both;
    cfg.max_iterations = cfg.max_iterations.max(g.num_vertices() as usize + 1);
    engine::run(g, &prog, &cfg)
}

/// Strongly connected components; labels are the maximum vertex id of each
/// component. See the [`mod@scc`] module docs for the round structure.
pub fn scc(g: &PreparedGraph, cfg: &EngineConfig) -> EngineResult<SccOutcome> {
    scc::run(g, cfg)
}
