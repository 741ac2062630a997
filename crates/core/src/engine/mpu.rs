//! Mixed-Phase Update (§III-B3) — the default strategy.
//!
//! `Q` of the `P` intervals stay memory-resident as ping-pong pairs
//! (`Q = ⌊B_M/(2·n·Ba)·P⌋`); the remaining `P−Q` live on disk. Of the `P²`
//! sub-shards only the `(P−Q)²` whose source *and* destination are on disk
//! need hubs; every other sub-shard updates SPU-style:
//!
//! * **Phase A** — resident rows × resident columns, pure SPU order.
//! * **Phase B** — each on-disk row `i` is loaded once: resident columns
//!   update in memory, on-disk columns write hubs (ToHub).
//! * **Phase C** — each on-disk column `j` is assembled: resident rows
//!   absorb directly from the resident ping-pong values, on-disk rows fold
//!   their hubs (FromHub); the interval is written back once.
//!
//! At `Q = P` this degenerates to SPU, at `Q = 0` to DPU; in between the
//! I/O amount interpolates Table II's MPU row.
//!
//! Scatter values take no extra memory: the resident "next" copy holds
//! them until the resident intervals finalize, after phase C (phase C's
//! resident rows gather from it too), and each on-disk row is scattered in
//! place once it is read.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::dsss::{HubView, PreparedGraph, SubShardView};
use crate::error::EngineResult;
use crate::program::VertexProgram;
use crate::types::{Attr, VertexId};

use super::iosched::IoSession;
use super::kernel::{absorb_row, absorb_single};
use super::prefetch::{JobStream, Jobs, Prefetcher};
use super::select::choose_strategy;
use super::state::{
    finalize_interval_par, finalize_intervals_par, scatter_in_place, scatter_into, AccBuf,
};
use super::store::ShardStore;
use super::{Activity, EngineConfig};

/// One unit of phase C's mixed stream: the resident-row sub-shards of a
/// column followed by the column's hubs, prefetched in consumption order.
enum ColItem<A: Attr> {
    Shard(SubShardView),
    Hub(Option<HubView<A>>),
}

/// Pop the next sub-shard for a key sequence whose cache hits were
/// resolved up-front (misses stream, in order, possibly decoded ahead).
fn next_shard(
    hits: &mut VecDeque<Option<Arc<SubShardView>>>,
    stream: &mut JobStream<'_, EngineResult<SubShardView>>,
) -> EngineResult<Arc<SubShardView>> {
    match hits.pop_front().expect("one resolved hit per key") {
        Some(ss) => Ok(ss),
        None => Ok(Arc::new(stream.next().expect("one job per miss")?)),
    }
}

/// Run to convergence under MPU. Returns (values, iterations, edges
/// traversed).
pub fn run_mpu<P: VertexProgram>(
    g: &PreparedGraph,
    prog: &P,
    cfg: &EngineConfig,
) -> EngineResult<(Vec<P::Value>, usize, u64)> {
    let n = g.num_vertices();
    let p = g.num_intervals();
    let (_, plan) = choose_strategy(n as u64, p, P::Value::SIZE, cfg.memory_budget);
    let q = plan.resident_intervals as u32;

    // Resident vertex prefix [0, res_end).
    let res_end: VertexId = if q == 0 { 0 } else { g.interval_range(q - 1).end };
    let mut prev_res: Vec<P::Value> = (0..res_end).map(|v| prog.init(v)).collect();
    let mut next_res = prev_res.clone();

    // On-disk intervals initialised on disk.
    for j in q..p {
        let r = g.interval_range(j);
        let vals: Vec<P::Value> = r.map(|v| prog.init(v)).collect();
        g.write_interval(j, &vals)?;
    }

    // Leftover budget caches sub-shards.
    let mut store = ShardStore::new(g);
    store.plan_cache(plan.shard_cache_bytes, cfg.direction)?;

    let mut activity = Activity::init(g, prog);

    // One background decode thread for the whole run; phase B's row
    // streams and phase C's shard+hub streams drive it through ordered
    // JobStreams (phase A reads via the cache/store and has nothing to
    // overlap).
    let prefetcher = cfg
        .prefetch
        .then(|| Prefetcher::with_workers(cfg.decode_workers()));

    // Accumulators for resident destination intervals (reused).
    let mut accs_res: Vec<Option<Mutex<AccBuf<P>>>> = (0..p)
        .map(|j| {
            if j < q {
                let r = g.interval_range(j);
                Some(Mutex::new(AccBuf::new(prog, r.start, (r.end - r.start) as usize)))
            } else {
                None
            }
        })
        .collect();

    let mut iterations = 0;
    let mut edges_traversed = 0u64;

    for _ in 0..cfg.max_iterations {
        iterations += 1;
        for a in accs_res.iter_mut().flatten() {
            a.get_mut().reset(prog);
        }
        let mut changed = vec![false; p as usize];
        // Resident sources' scatter values, for phases A and C.
        let src_res: &[P::Value] = if P::SCATTERS {
            scatter_into(prog, 0, &prev_res, &mut next_res, cfg.threads);
            &next_res
        } else {
            &prev_res
        };

        // ------------------------------------------------------------------
        // Phase A: resident rows into resident columns (SPU order).
        // ------------------------------------------------------------------
        for &reverse in ShardStore::dirs(cfg.direction) {
            for i in 0..q {
                if activity.row_skippable(i) {
                    continue;
                }
                let mut shards: Vec<Option<Arc<SubShardView>>> = vec![None; p as usize];
                for j in 0..q {
                    let ss = store.get(i, j, reverse)?;
                    edges_traversed += ss.num_edges() as u64;
                    shards[j as usize] = Some(ss);
                }
                let r = g.interval_range(i);
                absorb_row(
                    prog,
                    &shards,
                    &src_res[r.start as usize..r.end as usize],
                    r.start,
                    &mut accs_res,
                    cfg.threads,
                    cfg.edges_per_task,
                    cfg.sync,
                );
            }
        }

        // ------------------------------------------------------------------
        // Phase B: on-disk rows; resident columns in memory, on-disk
        // columns to hubs. All of a row's sub-shard loads feed one ordered
        // stream (cache hits resolved up-front, misses decoded in the
        // background), so the kernel folds sub-shard (i, j) while (i, j+1)
        // is already being read and validated.
        // ------------------------------------------------------------------
        let dirs = ShardStore::dirs(cfg.direction);
        for i in q..p {
            if activity.row_skippable(i) {
                continue;
            }
            let mut src_vals: Vec<P::Value> = g.read_interval(i)?;
            let r_i = g.interval_range(i);
            // Keys in exact consumption order: resident destinations per
            // direction, then hub destinations with both directions folded
            // per column.
            let mut keys: Vec<(u32, bool)> = Vec::new();
            for &reverse in dirs {
                keys.extend((0..q).map(|j| (j, reverse)));
            }
            for j in q..p {
                keys.extend(dirs.iter().map(|&reverse| (j, reverse)));
            }
            let mut hits: VecDeque<Option<Arc<SubShardView>>> = keys
                .iter()
                .map(|&(j, reverse)| store.cached(i, j, reverse))
                .collect();
            let misses: Vec<(u32, bool)> = keys
                .iter()
                .zip(&hits)
                .filter(|(_, hit)| hit.is_none())
                .map(|(&k, _)| k)
                .collect();
            // With the I/O scheduler on, the row's misses become one access
            // plan whose reads a dedicated I/O thread issues in batched
            // layout order; delivery order (and so every fold) is unchanged.
            let session = cfg.io_scheduler.then(|| {
                let loader = g.view_loader();
                let plan = misses
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
            let mut jobs: Jobs<EngineResult<SubShardView>> = Vec::with_capacity(misses.len());
            for (seq, &(j, reverse)) in misses.iter().enumerate() {
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
            scatter_in_place(prog, r_i.start, &mut src_vals, cfg.threads);
            // Resident destinations: SPU-like, straight into accs_res.
            for _ in dirs {
                let mut shards: Vec<Option<Arc<SubShardView>>> = vec![None; p as usize];
                for j in 0..q {
                    let ss = next_shard(&mut hits, &mut stream)?;
                    edges_traversed += ss.num_edges() as u64;
                    shards[j as usize] = Some(ss);
                }
                absorb_row(
                    prog,
                    &shards,
                    &src_vals,
                    r_i.start,
                    &mut accs_res,
                    cfg.threads,
                    cfg.edges_per_task,
                    cfg.sync,
                );
            }
            // On-disk destinations: ToHub. Both directions fold into the
            // same hub before writing.
            for j in q..p {
                let r_j = g.interval_range(j);
                let mut buf: AccBuf<P> =
                    AccBuf::new(prog, r_j.start, (r_j.end - r_j.start) as usize);
                for _ in dirs {
                    let ss = next_shard(&mut hits, &mut stream)?;
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
        // Phase C: on-disk columns; resident rows absorb directly, on-disk
        // rows fold hubs. One mixed stream per column carries the
        // resident-row sub-shards followed by the column's hubs, so hub
        // reads overlap the tail of the shard absorbs.
        // ------------------------------------------------------------------
        for j in q..p {
            let r_j = g.interval_range(j);
            let len = (r_j.end - r_j.start) as usize;
            let old: Vec<P::Value> = if P::APPLY_NEEDS_OLD {
                g.read_interval(j)?
            } else {
                r_j.clone().map(|v| prog.init(v)).collect()
            };
            let mut buf: AccBuf<P> = AccBuf::new(prog, r_j.start, len);
            // Shard keys in consumption order (activity filter applied now;
            // flags do not change within an iteration).
            let mut keys: Vec<(u32, bool)> = Vec::new();
            for &reverse in dirs {
                keys.extend((0..q).filter(|&i| !activity.row_skippable(i)).map(|i| (i, reverse)));
            }
            let mut hits: VecDeque<Option<Arc<SubShardView>>> = keys
                .iter()
                .map(|&(i, reverse)| store.cached(i, j, reverse))
                .collect();
            let misses: Vec<(u32, bool)> = keys
                .iter()
                .zip(&hits)
                .filter(|(_, hit)| hit.is_none())
                .map(|(&k, _)| k)
                .collect();
            // One access plan for the whole mixed stream: shard misses
            // first, then the column's hubs, in exact consumption order.
            let session = cfg.io_scheduler.then(|| {
                let loader = g.view_loader();
                let plan: Vec<Vec<String>> = misses
                    .iter()
                    .map(|&(i, rev)| loader.subshard_part_names(i, j, rev))
                    .chain((q..p).map(|i| {
                        loader.hub_part_name(i, j).map(|n| vec![n]).unwrap_or_default()
                    }))
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
            let mut jobs: Jobs<EngineResult<ColItem<P::Accum>>> = Vec::new();
            for (seq, &(i, reverse)) in misses.iter().enumerate() {
                let loader = g.view_loader();
                match session.as_ref().map(IoSession::client) {
                    Some(client) => jobs.push(Box::new(move || {
                        let names = loader.subshard_part_names(i, j, reverse);
                        loader
                            .decode_subshard(i, j, &names, client.take(seq))
                            .map(ColItem::Shard)
                    })),
                    None => jobs.push(Box::new(move || {
                        loader.load_subshard(i, j, reverse).map(ColItem::Shard)
                    })),
                }
            }
            for (seq, i) in (q..p).enumerate().map(|(k, i)| (misses.len() + k, i)) {
                let loader = g.view_loader();
                match session.as_ref().map(IoSession::client) {
                    Some(client) => jobs.push(Box::new(move || {
                        match loader.hub_part_name(i, j) {
                            Some(name) => {
                                let mut bytes = client.take(seq);
                                let b = bytes.pop().expect("one part per hub plan")?;
                                loader.decode_hub::<P::Accum>(&name, b).map(Some).map(ColItem::Hub)
                            }
                            None => {
                                client.take(seq);
                                Ok(ColItem::Hub(None))
                            }
                        }
                    })),
                    None => jobs.push(Box::new(move || {
                        loader.read_hub::<P::Accum>(i, j).map(ColItem::Hub)
                    })),
                }
            }
            let mut stream = JobStream::new(prefetcher.as_ref(), jobs);
            for (i, _) in keys {
                let ss = match hits.pop_front().expect("one resolved hit per key") {
                    Some(ss) => ss,
                    None => match stream.next().expect("one job per miss")? {
                        ColItem::Shard(ss) => Arc::new(ss),
                        ColItem::Hub(_) => unreachable!("hubs follow all shard jobs"),
                    },
                };
                edges_traversed += ss.num_edges() as u64;
                let r_i = g.interval_range(i);
                absorb_single(
                    prog,
                    &ss,
                    &src_res[r_i.start as usize..r_i.end as usize],
                    r_i.start,
                    &mut buf,
                    cfg.threads,
                    cfg.edges_per_task,
                );
            }
            // Collect the column's hubs in row order, then fold them as
            // one destination-range-parallel batch (bitwise-identical to
            // the serial fold; see `merge_hub_views_par`).
            let mut hubs: Vec<HubView<P::Accum>> = Vec::new();
            let mut hub_rows: Vec<u32> = Vec::new();
            for i in q..p {
                let hub = match stream.next().expect("one job per hub")? {
                    ColItem::Hub(h) => h,
                    ColItem::Shard(_) => unreachable!("all shard items already consumed"),
                };
                if let Some(hub) = hub {
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
        }

        // Finalise resident intervals (all their contributions arrived in
        // phases A and B) as one flat batch of destination-range chunks.
        // Runs after phase C, whose resident rows gather from `src_res`.
        if q > 0 {
            let bufs: Vec<&AccBuf<P>> = accs_res[..q as usize]
                .iter_mut()
                .map(|a| &*a.as_mut().expect("resident").get_mut())
                .collect();
            let resident_changed =
                finalize_intervals_par(prog, &bufs, &prev_res, &mut next_res, cfg.threads);
            changed[..q as usize].copy_from_slice(&resident_changed);
        }

        std::mem::swap(&mut prev_res, &mut next_res);

        let any_changed = changed.iter().any(|&c| c);
        let all_inactive = activity.advance(&changed);
        let done = if P::ALWAYS_APPLY {
            // Resident intervals have real old values; disk intervals only
            // when APPLY_NEEDS_OLD. Early termination is sound only when
            // every change flag is trustworthy.
            (q == p || P::APPLY_NEEDS_OLD) && !any_changed
        } else {
            all_inactive
        };
        if done {
            break;
        }
    }

    // Gather: resident prefix + on-disk intervals.
    let mut out = prev_res;
    out.truncate(res_end as usize);
    for j in q..p {
        out.extend(g.read_interval::<P::Value>(j)?);
    }
    Ok((out, iterations, edges_traversed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SyncMode;
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

    /// Budget that yields Q resident intervals out of P for the Fig 1
    /// graph with f64 values.
    fn budget_for_q(g: &PreparedGraph, q: u32) -> u64 {
        let n = g.num_vertices() as u64;
        let p = g.num_intervals() as u64;
        // effective = q/p * 2*n*Ba (+ degree table 4n).
        4 * n + (2 * n * 8) * q as u64 / p + 1
    }

    #[test]
    fn mpu_equals_spu_at_every_q() {
        let cfg0 = EngineConfig::default().with_max_iterations(6);
        let g = graph(4);
        let prog = PageRank::new(g.num_vertices(), Arc::clone(g.out_degrees()));
        let (want, _, want_edges) = run_spu(&g, &prog, &cfg0).unwrap();
        for q in 0..=4u32 {
            let g = graph(4);
            let prog = PageRank::new(g.num_vertices(), Arc::clone(g.out_degrees()));
            let cfg = cfg0.clone().with_budget(budget_for_q(&g, q));
            let (vals, _, edges) = run_mpu(&g, &prog, &cfg).unwrap();
            assert_eq!(edges, want_edges, "q={q}");
            for (a, b) in vals.iter().zip(&want) {
                assert!((a - b).abs() < 1e-12, "q={q}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn io_scheduler_is_bitwise_identical_at_every_q() {
        for q in 0..=4u32 {
            let g = graph(4);
            let prog = PageRank::new(g.num_vertices(), Arc::clone(g.out_degrees()));
            let base = EngineConfig::default()
                .with_max_iterations(6)
                .with_budget(budget_for_q(&g, q));
            let (off, ..) = run_mpu(&g, &prog, &base).unwrap();
            let (on, ..) =
                run_mpu(&g, &prog, &base.clone().with_io_scheduler(true)).unwrap();
            assert_eq!(off.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                       on.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                       "q={q}");
        }
    }

    #[test]
    fn mpu_lock_mode_agrees() {
        let g = graph(4);
        let prog = PageRank::new(g.num_vertices(), Arc::clone(g.out_degrees()));
        let cfg = EngineConfig::default()
            .with_max_iterations(5)
            .with_budget(budget_for_q(&g, 2));
        let (cb, _, _) = run_mpu(&g, &prog, &cfg).unwrap();
        let (lk, _, _) = run_mpu(&g, &prog, &cfg.clone().with_sync(SyncMode::Lock)).unwrap();
        for (a, b) in cb.iter().zip(&lk) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }
}
