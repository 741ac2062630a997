//! Double-Phase Update (§III-B2).
//!
//! Fully disk-based: intervals are loaded only when accessed, and every
//! sub-shard streams from disk. Consistency across the two phases is
//! mediated by **hubs** — per-sub-shard files of (destination id,
//! incremental value) pairs:
//!
//! * **ToHub** iterates sub-shards *by row*, loading each source interval
//!   once per iteration, computing each sub-shard's incremental
//!   contributions and writing them to its hub.
//! * **FromHub** iterates *by column*, folding the column's hubs into the
//!   destination interval and writing it back once per iteration.
//!
//! Per iteration: `Bread ≤ m·Be + n·Ba + m·(Ba+Bv)/d`,
//! `Bwrite ≤ n·Ba + m·(Ba+Bv)/d` — independent of `P` and the budget, so
//! DPU "can scale to very large graphs or very small memory budget".

use std::sync::Arc;

use crate::dsss::{HubView, PreparedGraph, SubShardView};
use crate::error::EngineResult;
use crate::program::VertexProgram;
use crate::types::VertexId;

use super::iosched::IoSession;
use super::kernel::absorb_single;
use super::prefetch::{JobStream, Jobs, Prefetcher};
use super::state::{finalize_interval_par, scatter_in_place, AccBuf};
use super::store::ShardStore;
use super::{Activity, EngineConfig};

/// Run to convergence under DPU. Returns (values, iterations, edges
/// traversed).
pub fn run_dpu<P: VertexProgram>(
    g: &PreparedGraph,
    prog: &P,
    cfg: &EngineConfig,
) -> EngineResult<(Vec<P::Value>, usize, u64)> {
    let p = g.num_intervals();

    // Initialise interval files on disk.
    for j in 0..p {
        let r = g.interval_range(j);
        let vals: Vec<P::Value> = r.map(|v| prog.init(v)).collect();
        g.write_interval(j, &vals)?;
    }
    let mut activity = Activity::init(g, prog);

    // One background decode thread for the whole run; each row/column
    // below drives it through its own ordered JobStream.
    let prefetcher = cfg
        .prefetch
        .then(|| Prefetcher::with_workers(cfg.decode_workers()));

    let mut iterations = 0;
    let mut edges_traversed = 0u64;

    for _ in 0..cfg.max_iterations {
        iterations += 1;

        // ------------------------------------------------------------------
        // ToHub phase: rows. Load interval i once, write hubs H(i→*); the
        // prefetcher decodes sub-shard (i, j+1) while (i, j) is absorbed.
        // ------------------------------------------------------------------
        for i in 0..p {
            if activity.row_skippable(i) {
                continue;
            }
            let mut src_vals: Vec<P::Value> = g.read_interval(i)?;
            let r_i = g.interval_range(i);
            let keys: Vec<(u32, bool)> = (0..p)
                .flat_map(|j| {
                    ShardStore::dirs(cfg.direction).iter().map(move |&reverse| (j, reverse))
                })
                .collect();
            // With the I/O scheduler on, the row becomes one access plan
            // whose reads a dedicated I/O thread issues in batched layout
            // order; delivery order (and so every fold) is unchanged.
            let session = cfg.io_scheduler.then(|| {
                let loader = g.view_loader();
                let plan = keys
                    .iter()
                    .map(|&(j, rev)| loader.subshard_part_names(i, j, rev))
                    .collect();
                IoSession::start(
                    Arc::clone(loader.disk()),
                    Arc::clone(loader.pool()),
                    plan,
                    cfg.io_queue_depth,
                    loader.retry_policy(),
                    cfg.io_deadline,
                )
            });
            let mut jobs: Jobs<EngineResult<SubShardView>> = Vec::with_capacity(keys.len());
            for (seq, &(j, reverse)) in keys.iter().enumerate() {
                let loader = g.view_loader();
                match session.as_ref().map(IoSession::client) {
                    Some(client) => jobs.push(Box::new(move || {
                        let names = loader.subshard_part_names(i, j, reverse);
                        loader.decode_subshard(i, j, &names, client.take(seq))
                    })),
                    None => jobs.push(Box::new(move || loader.load_subshard(i, j, reverse))),
                }
            }
            let mut stream = JobStream::new(prefetcher.as_ref(), jobs);
            // The row buffer is ours alone: scatter it in place, once per
            // source, while the first sub-shards decode.
            scatter_in_place(prog, r_i.start, &mut src_vals, cfg.threads);
            for j in 0..p {
                let r_j = g.interval_range(j);
                let mut buf: AccBuf<P> =
                    AccBuf::new(prog, r_j.start, (r_j.end - r_j.start) as usize);
                for _ in ShardStore::dirs(cfg.direction) {
                    let ss = Arc::new(stream.next().expect("one job per (j, dir)")?);
                    edges_traversed += ss.num_edges() as u64;
                    absorb_single(
                        prog,
                        &ss,
                        &src_vals,
                        r_i.start,
                        &mut buf,
                        cfg.threads,
                        cfg.edges_per_task,
                    );
                }
                let (dsts, accs) = buf.compact();
                if !dsts.is_empty() {
                    g.write_hub(i, j, &dsts, &accs)?;
                }
            }
        }

        // ------------------------------------------------------------------
        // FromHub phase: columns. Fold hubs H(*→j), apply, write interval;
        // the prefetcher decodes hub (i+1, j) while (i, j) merges.
        // ------------------------------------------------------------------
        let mut changed = vec![false; p as usize];
        let mut any_changed = false;
        for j in 0..p {
            let r_j = g.interval_range(j);
            let len = (r_j.end - r_j.start) as usize;
            // PageRank-style programs never read the old value in apply, so
            // FromHub skips the extra n·Ba read (matching Table II);
            // monotone programs (BFS/WCC) need it.
            let old: Vec<P::Value> = if P::APPLY_NEEDS_OLD {
                g.read_interval(j)?
            } else {
                r_j.clone().map(|v| prog.init(v)).collect()
            };
            let mut buf: AccBuf<P> = AccBuf::new(prog, r_j.start, len);
            type Hub<P> = Option<HubView<<P as VertexProgram>::Accum>>;
            // Hubs are stable within the phase (written in ToHub, removed
            // only after this column folds), so planning by name up-front
            // sees exactly the hubs the jobs will read. Absent hubs become
            // empty plan entries the scheduler parks immediately.
            let session = cfg.io_scheduler.then(|| {
                let loader = g.view_loader();
                let plan = (0..p)
                    .map(|i| loader.hub_part_name(i, j).map(|n| vec![n]).unwrap_or_default())
                    .collect();
                IoSession::start(
                    Arc::clone(loader.disk()),
                    Arc::clone(loader.pool()),
                    plan,
                    cfg.io_queue_depth,
                    loader.retry_policy(),
                    cfg.io_deadline,
                )
            });
            let mut jobs: Jobs<EngineResult<Hub<P>>> = Vec::with_capacity(p as usize);
            for (seq, i) in (0..p).enumerate() {
                let loader = g.view_loader();
                match session.as_ref().map(IoSession::client) {
                    Some(client) => jobs.push(Box::new(move || {
                        match loader.hub_part_name(i, j) {
                            Some(name) => {
                                let mut bytes = client.take(seq);
                                let b = bytes.pop().expect("one part per hub plan")?;
                                loader.decode_hub::<P::Accum>(&name, b).map(Some)
                            }
                            None => {
                                // Nothing planned for this seq; still take
                                // it so the scheduler frontier advances.
                                client.take(seq);
                                Ok(None)
                            }
                        }
                    })),
                    None => jobs.push(Box::new(move || loader.read_hub::<P::Accum>(i, j))),
                }
            }
            let mut stream = JobStream::new(prefetcher.as_ref(), jobs);
            // Collect the column's hubs in row order, then fold them as
            // one destination-range-parallel batch — per-slot merge order
            // stays the row order, so the result is bitwise-identical to
            // the serial fold. Hubs are sparse (m·(Ba+Bv)/d per column in
            // Table II terms), so holding one column's worth is cheap.
            let mut hubs: Vec<HubView<P::Accum>> = Vec::new();
            let mut hub_rows: Vec<u32> = Vec::new();
            for i in 0..p {
                if let Some(hub) = stream.next().expect("one job per row")? {
                    hubs.push(hub);
                    hub_rows.push(i);
                }
            }
            buf.merge_hub_views_par(prog, &hubs, cfg.threads);
            drop(hubs);
            for i in hub_rows {
                g.remove_hub(i, j);
            }
            let mut new_vals = old.clone();
            let ch = finalize_interval_par(prog, &buf, &old, &mut new_vals, cfg.threads);
            g.write_interval(j, &new_vals)?;
            changed[j as usize] = ch;
            any_changed |= ch;
        }

        let all_inactive = activity.advance(&changed);
        let done = if P::ALWAYS_APPLY {
            // Without real old values the change flags are meaningless;
            // run the configured iteration count (the paper also runs
            // PageRank for a fixed 10 iterations).
            P::APPLY_NEEDS_OLD && !any_changed
        } else {
            all_inactive
        };
        if done {
            break;
        }
    }

    // Gather output (the paper's final traversal over intervals).
    let mut out: Vec<P::Value> = Vec::with_capacity(g.num_vertices() as usize);
    for j in 0..p {
        out.extend(g.read_interval::<P::Value>(j)?);
    }
    Ok((out, iterations, edges_traversed))
}

const _: fn(VertexId) = |_| {};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::pagerank::PageRank;
    use crate::engine::spu::run_spu;
    use crate::prep::{preprocess, PrepConfig};
    use nxgraph_storage::{Disk, MemDisk};

    fn graph(p: u32) -> PreparedGraph {
        let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
        let edges: Vec<(u64, u64)> = crate::fig1_example_edges()
            .into_iter()
            .map(|(s, d)| (s as u64, d as u64))
            .collect();
        preprocess(&edges, &PrepConfig::new("fig1", p), disk).unwrap()
    }

    #[test]
    fn dpu_equals_spu_for_pagerank() {
        for p in [1u32, 3, 4] {
            let g = graph(p);
            let prog = PageRank::new(g.num_vertices(), Arc::clone(g.out_degrees()));
            let cfg = EngineConfig::default().with_max_iterations(6);
            let (dpu_vals, dpu_iters, dpu_edges) = run_dpu(&g, &prog, &cfg).unwrap();
            let (spu_vals, spu_iters, spu_edges) = run_spu(&g, &prog, &cfg).unwrap();
            assert_eq!(dpu_iters, spu_iters);
            assert_eq!(dpu_edges, spu_edges);
            for (a, b) in dpu_vals.iter().zip(&spu_vals) {
                assert!((a - b).abs() < 1e-12, "P={p}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn io_scheduler_is_bitwise_identical() {
        let g = graph(4);
        let prog = PageRank::new(g.num_vertices(), Arc::clone(g.out_degrees()));
        let base = EngineConfig::default().with_max_iterations(6);
        let (off, ..) = run_dpu(&g, &prog, &base).unwrap();
        let (on, ..) =
            run_dpu(&g, &prog, &base.clone().with_io_scheduler(true)).unwrap();
        assert_eq!(off.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                   on.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
    }

    #[test]
    fn dpu_writes_and_consumes_hubs() {
        let g = graph(4);
        let prog = PageRank::new(g.num_vertices(), Arc::clone(g.out_degrees()));
        let cfg = EngineConfig::default().with_max_iterations(1);
        run_dpu(&g, &prog, &cfg).unwrap();
        // All hubs consumed and removed by FromHub.
        for i in 0..4 {
            for j in 0..4 {
                assert!(g.read_hub::<f64>(i, j).unwrap().is_none());
            }
        }
        // Interval traffic happened.
        let io = g.disk().counters().snapshot();
        assert!(io.written_bytes > 0);
        assert!(io.read_bytes > 0);
    }
}
