//! `serve-mixed`: a [`GraphService`] over an R-MAT scale-12, edge-factor-16
//! dynamic graph (P = 8, reverse sub-shards, real files) under
//! `DynamicConfig::background()`, loaded by two bench threads:
//!
//! * a closed-loop query client cycling through seeded BFS, SSSP, PPR-5
//!   and top-k-PageRank-3 queries;
//! * an open-loop writer committing 256-edge batches between known
//!   vertices at 20 batches per second, each timed from its due time.

use std::sync::{Arc, Barrier, OnceLock};
use std::time::{Duration, Instant};

use nxgraph_core::dynamic::{DynamicConfig, DynamicGraph};
use nxgraph_core::engine::EngineConfig;
use nxgraph_core::prep::{preprocess, PrepConfig};
use nxgraph_core::serve::{GraphService, Query, ServeConfig};
use nxgraph_core::{algo, MaintStats, PreparedGraph};
use nxgraph_storage::{Disk, IoProfileSnapshot, OsDisk};

use crate::host::{self, Scratch};
use crate::pr::{self, decode_pass, dsss_metrics, prep_metrics, same_bits, storage_metrics};
use crate::report::{mean, median, show, tail, Metrics};
use crate::trace::{self, File, Thread, TracingDisk, QUERY_THREAD, WRITER_THREAD};
use crate::{Args, Outcome};

const SCALE: u32 = 12;
const EDGE_FACTOR: u32 = 16;
const P: u32 = 8;
const BATCH: usize = 256;
const COMMITS_PER_S: f64 = 5.0;
/// Service set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 21;
/// Iterations of the global PageRank queries and of the gate's PageRank.
const TOPK_ITERS: usize = 3;
const GATE_ITERS: usize = 10;
/// Seconds of untimed mixed load before each measured stream.
const WARMUP_S: f64 = 1.0;
const KINDS: [&str; 4] = ["bfs", "sssp", "ppr", "topk"];

/// SplitMix64: the bench's own seeded stream for queries and batches.
struct Rng(u64);

impl Rng {
    fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Query `k` of the seeded stream. Roots and targets are drawn from the
/// vertices with out-edges: a root without any makes a traversal end after
/// one step, and the share of such roots varies from seed to seed.
fn query(seed: u64, k: u64, sources: &[u32]) -> Query {
    let mut r = Rng::new(seed, k + 1);
    let a = sources[r.below(sources.len() as u64) as usize];
    let b = sources[r.below(sources.len() as u64) as usize];
    match k % 4 {
        0 => Query::Bfs { root: a, target: b },
        1 => Query::Sssp { root: a, target: b },
        2 => Query::PprFromSeed {
            seed: a,
            iterations: 5,
            k: 8,
        },
        _ => Query::PageRankTopK {
            iterations: TOPK_ITERS,
            k: 8,
        },
    }
}

/// One commit's edges, as raw index pairs.
type Batch = Vec<(u64, u64)>;

fn batches(seed: u64, stream: u64, known: &[u64], count: usize) -> Vec<Batch> {
    let mut r = Rng::new(seed, u64::MAX - stream);
    (0..count)
        .map(|_| {
            (0..BATCH)
                .map(|_| {
                    let s = known[r.below(known.len() as u64) as usize];
                    let d = known[r.below(known.len() as u64) as usize];
                    (s, d)
                })
                .collect()
        })
        .collect()
}

fn prep_config() -> PrepConfig {
    PrepConfig::new("rmat12", P)
}

fn open_service(g: PreparedGraph) -> Result<GraphService, String> {
    let dg = DynamicGraph::with_config(g, DynamicConfig::background())
        .map_err(|e| format!("dynamic: {e}"))?;
    GraphService::new(dg, ServeConfig::default()).map_err(|e| format!("service: {e}"))
}

/// Prep plus service open on a fresh directory; returns the service, the
/// untraced disk underneath it and the set-up seconds.
fn setup(
    raw: &[(u64, u64)],
    scratch: &Scratch,
    name: &str,
    traced: bool,
) -> Result<(GraphService, Arc<dyn Disk>, f64), String> {
    let inner: Arc<dyn Disk> =
        Arc::new(OsDisk::new(scratch.dir(name)).map_err(|e| format!("open disk: {e}"))?);
    let disk = if traced {
        TracingDisk::wrap(Arc::clone(&inner))
    } else {
        Arc::clone(&inner)
    };
    let t = Instant::now();
    let g = preprocess(raw, &prep_config(), disk).map_err(|e| format!("prep: {e}"))?;
    let svc = open_service(g)?;
    Ok((svc, inner, t.elapsed().as_secs_f64()))
}

/// What one measured stream produced.
#[derive(Default)]
struct Stream {
    window: f64,
    query_ms: Vec<f64>,
    kind_ms: [Vec<f64>; 4],
    query_attempts: u64,
    query_failures: u64,
    commit_ms: Vec<f64>,
    commit_service_s: Vec<f64>,
    late_ms: Vec<f64>,
    commit_attempts: u64,
    commit_failures: u64,
    deltas: Vec<f64>,
    committed: Vec<Batch>,
    io_bytes: u64,
}

impl Stream {
    fn ops(&self) -> f64 {
        (self.query_ms.len() + self.committed.len()) as f64
    }
}

/// Run the query client and the writer for `seconds`. Both threads are
/// spawned, and have bound their allocator arenas, before `on_start` runs
/// and the clock starts, so thread start-up is not part of the window.
fn stream(
    svc: &GraphService,
    disk: &Arc<dyn Disk>,
    seed: u64,
    seconds: f64,
    sources: &[u32],
    work: &[Batch],
    on_start: impl FnOnce(),
) -> Stream {
    let period = Duration::from_secs_f64(1.0 / COMMITS_PER_S);
    let ready = Barrier::new(3);
    let go = Barrier::new(3);
    let clock: OnceLock<(Instant, Instant)> = OnceLock::new();
    let bind = || {
        std::hint::black_box(Vec::<u64>::with_capacity(16));
        ready.wait();
        go.wait();
        *clock.get().expect("clock set before go")
    };
    let (io0, queries, commits) = std::thread::scope(|s| {
        let client = std::thread::Builder::new()
            .name(QUERY_THREAD.into())
            .spawn_scoped(s, || {
                let (_, deadline) = bind();
                let mut st = Stream::default();
                let mut k = 0u64;
                while k == 0 || Instant::now() < deadline {
                    let q = query(seed, k, sources);
                    st.query_attempts += 1;
                    let t = Instant::now();
                    match svc.run_query(&q) {
                        Ok(_) => {
                            let ms = t.elapsed().as_secs_f64() * 1e3;
                            st.query_ms.push(ms);
                            st.kind_ms[(k % 4) as usize].push(ms);
                        }
                        Err(e) => {
                            eprintln!("query {k}: {e}");
                            st.query_failures += 1;
                        }
                    }
                    k += 1;
                }
                st
            })
            .expect("spawn query client");
        let writer = std::thread::Builder::new()
            .name(WRITER_THREAD.into())
            .spawn_scoped(s, || {
                let (start, deadline) = bind();
                let mut st = Stream::default();
                for (b, batch) in work.iter().enumerate() {
                    let due = start + period * b as u32;
                    if due >= deadline {
                        break;
                    }
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let t = Instant::now();
                    st.late_ms.push((t - due).as_secs_f64() * 1e3);
                    st.commit_attempts += 1;
                    match svc.add_edges(batch) {
                        Ok(c) => {
                            st.commit_ms.push(due.elapsed().as_secs_f64() * 1e3);
                            st.commit_service_s.push(t.elapsed().as_secs_f64());
                            st.deltas.push(c.deltas_appended as f64);
                            st.committed.push(batch.clone());
                        }
                        Err(e) => {
                            eprintln!("commit {b}: {e}");
                            st.commit_failures += 1;
                        }
                    }
                }
                st
            })
            .expect("spawn writer");
        ready.wait();
        on_start();
        let io0 = disk.counters().snapshot();
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let _ = clock.set((start, deadline));
        go.wait();
        (
            io0,
            client.join().expect("query client panicked"),
            writer.join().expect("writer panicked"),
        )
    });
    let (start, _) = *clock.get().expect("clock set");
    let window = start.elapsed().as_secs_f64();
    Stream {
        window,
        io_bytes: disk.counters().snapshot().delta(&io0).total_bytes(),
        ..merge(queries, commits)
    }
}

fn merge(q: Stream, c: Stream) -> Stream {
    Stream {
        query_ms: q.query_ms,
        kind_ms: q.kind_ms,
        query_attempts: q.query_attempts,
        query_failures: q.query_failures,
        commit_ms: c.commit_ms,
        commit_service_s: c.commit_service_s,
        late_ms: c.late_ms,
        commit_attempts: c.commit_attempts,
        commit_failures: c.commit_failures,
        deltas: c.deltas,
        committed: c.committed,
        ..Stream::default()
    }
}

/// Gates after a stream: no query or commit failed, and compaction
/// followed by PageRank equals a fresh prep of base plus every committed
/// batch, bit for bit.
fn gates(
    svc: &GraphService,
    streams: &[&Stream],
    base: &[(u64, u64)],
    scratch: &Scratch,
    name: &str,
) -> Result<bool, String> {
    let cfg = EngineConfig::default().with_threads(2);
    let stats = svc.stats();
    let query_failures: u64 = streams.iter().map(|s| s.query_failures).sum();
    let commit_failures: u64 = streams.iter().map(|s| s.commit_failures).sum();
    let clean = query_failures == 0 && commit_failures == 0 && stats.errors == 0;
    let compacted = svc.with_writer(|dg| {
        dg.wait_maintenance_idle()
            .map_err(|e| format!("maintenance: {e}"))?;
        dg.compact().map_err(|e| format!("compact: {e}"))?;
        algo::pagerank(dg.graph(), GATE_ITERS, &cfg).map_err(|e| format!("pagerank: {e}"))
    })?;
    let mut all = base.to_vec();
    for b in streams.iter().flat_map(|s| &s.committed) {
        all.extend_from_slice(b);
    }
    let disk: Arc<dyn Disk> =
        Arc::new(OsDisk::new(scratch.dir(name)).map_err(|e| format!("open disk: {e}"))?);
    let fresh = preprocess(&all, &prep_config(), disk).map_err(|e| format!("fresh prep: {e}"))?;
    let (expect, _) =
        algo::pagerank(&fresh, GATE_ITERS, &cfg).map_err(|e| format!("pagerank: {e}"))?;
    let equal = same_bits(&compacted.0, &expect);
    println!(
        "gate serve errors {} query_failures {} commit_failures {} compact_equals_fresh_prep {equal}",
        stats.errors, query_failures, commit_failures
    );
    Ok(clean && equal)
}

fn print_latencies(st: &Stream) {
    let (qt, qp) = tail(&st.query_ms);
    let (ct, cp) = tail(&st.commit_ms);
    let nq = st.query_ms.len();
    let nc = st.commit_ms.len();
    let attempted = st.query_attempts + st.commit_attempts;
    let failed = st.query_failures + st.commit_failures;
    let late_max = st.late_ms.iter().copied().fold(0.0, f64::max);
    show(
        "query_p50_ms",
        median(&st.query_ms),
        "ms",
        &format!("{nq} samples"),
    );
    show("query_tail_ms", qt, "ms", &format!("p{qp} of {nq} samples"));
    show("queries_per_s", nq as f64 / st.window, "1/s", "");
    show(
        "commit_p50_ms",
        median(&st.commit_ms),
        "ms",
        &format!("{nc} samples, from due time"),
    );
    show(
        "commit_tail_ms",
        ct,
        "ms",
        &format!("p{cp} of {nc} samples"),
    );
    show(
        "writer_late_ms",
        mean(&st.late_ms),
        "ms",
        &format!("mean; max {late_max}"),
    );
    show(
        "failed_share",
        failed as f64 / attempted as f64,
        "share",
        "",
    );
    show("io_bytes_per_op", st.io_bytes as f64 / st.ops(), "B", "");
}

fn topk_iter_ms(st: &Stream) -> f64 {
    median(&st.kind_ms[3]) / TOPK_ITERS as f64
}

pub fn run(args: &Args, scratch: &Scratch) -> Result<Outcome, String> {
    let raw: Vec<(u64, u64)> =
        host::rmat_edges(SCALE, EDGE_FACTOR, args.seed).map_err(|e| format!("edges: {e}"))?;
    if args.trace {
        traced(args, scratch, &raw)
    } else {
        untraced(args, scratch, &raw)
    }
}

/// Query roots (vertices with out-edges) and the seeded commit batches for a stream of `seconds`:
/// stream 0 is the warm-up, stream 1 the measured window.
fn workload(
    svc: &GraphService,
    seed: u64,
    seconds: f64,
) -> Result<(Vec<u32>, [Vec<Batch>; 2]), String> {
    let snap = svc.snapshot().map_err(|e| format!("snapshot: {e}"))?;
    let sources: Vec<u32> = (0..snap.graph().num_vertices())
        .filter(|&v| snap.graph().out_degrees()[v as usize] > 0)
        .collect();
    let known = snap
        .graph()
        .load_reverse_mapping()
        .map_err(|e| format!("mapping: {e}"))?;
    let count = |s: f64| (s * COMMITS_PER_S).ceil() as usize + 1;
    Ok((
        sources,
        [
            batches(seed, 0, &known, count(WARMUP_S)),
            batches(seed, 1, &known, count(seconds)),
        ],
    ))
}

/// Warm-up stream, then the measured one (with `on_start` run just
/// before its clock starts). The warm-up brings checksum caches, buffer
/// pools and allocator arenas to their working state.
fn warm_then_measure(
    svc: &GraphService,
    disk: &Arc<dyn Disk>,
    seed: u64,
    seconds: f64,
    on_start: impl FnOnce(),
) -> Result<(Stream, Stream), String> {
    let (sources, [warm, work]) = workload(svc, seed, seconds)?;
    let w = stream(
        svc,
        disk,
        seed ^ 0x5741_524d,
        WARMUP_S,
        &sources,
        &warm,
        || (),
    );
    let st = stream(svc, disk, seed, seconds, &sources, &work, on_start);
    Ok((w, st))
}

fn untraced(args: &Args, scratch: &Scratch, raw: &[(u64, u64)]) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut last = None;
    for k in 0..SETUP_REPS {
        // The previous service is dropped (joining its maintenance thread)
        // and its files removed before the next set-up is timed.
        if let Some((svc, _, dir)) = last.take() {
            drop(svc);
            let _ = std::fs::remove_dir_all(dir);
        }
        host::settle(scratch.path());
        let name = format!("serve-{k}");
        let (svc, disk, secs) = setup(raw, scratch, &name, false)?;
        setup_s.push(secs);
        last = Some((svc, disk, scratch.dir(&name)));
    }
    let (svc, disk, _) = last.expect("at least one setup");
    println!("setup_s samples {setup_s:?}");
    host::settle(scratch.path());
    let (warm, st) = warm_then_measure(&svc, &disk, args.seed, args.seconds, || {
        host::reset_peak_rss();
    })?;
    let peak = host::peak_rss_mib();
    print_latencies(&st);
    show("peak_rss_mib", peak, "MiB", "");
    let correct = gates(&svc, &[&warm, &st], raw, scratch, "fresh")?;

    let attempted = st.query_attempts + st.commit_attempts;
    let failed = st.query_failures + st.commit_failures;
    let mut m = Metrics::default();
    m.set("setup_s", median(&setup_s));
    m.set("pr_iter_ms", topk_iter_ms(&st));
    m.set("io_bytes_per_op", st.io_bytes as f64 / st.ops());
    m.set("ok_share", (attempted - failed) as f64 / attempted as f64);
    m.set("query_p50_ms", median(&st.query_ms));

    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics: m,
    })
}

fn maint_stats(svc: &GraphService) -> MaintStats {
    svc.with_writer(|dg| dg.maintenance().map(|m| m.stats()).unwrap_or_default())
}

fn traced(args: &Args, scratch: &Scratch, raw: &[(u64, u64)]) -> Result<Outcome, String> {
    let half = args.seconds / 2.0;
    let mut m = Metrics::default();

    // Untraced half: the reference for the overhead and the source of
    // the serve-only latencies that need an untraced measurement.
    let (svc, disk, _) = setup(raw, scratch, "plain", false)?;
    host::settle(scratch.path());
    let (plain_warm, plain) = warm_then_measure(&svc, &disk, args.seed, half, || {
        host::reset_peak_rss();
    })?;
    m.set("mem.peak_rss_mib", host::peak_rss_mib());
    print_latencies(&plain);
    let mut correct = gates(&svc, &[&plain_warm, &plain], raw, scratch, "plain-fresh")?;
    drop(svc);

    // Traced half on its own copy of the same base graph.
    let inner: Arc<dyn Disk> =
        Arc::new(OsDisk::new(scratch.dir("traced")).map_err(|e| format!("open disk: {e}"))?);
    let before = trace::snapshot();
    let t = Instant::now();
    let g = preprocess(raw, &prep_config(), TracingDisk::wrap(Arc::clone(&inner)))
        .map_err(|e| format!("prep: {e}"))?;
    prep_metrics(
        &mut m,
        &trace::snapshot().since(&before),
        t.elapsed().as_secs_f64(),
    );

    // Self-test: a traced and an untraced PageRank on the base graph give
    // the same ranks bit for bit and the same I/O counters.
    let cfg = EngineConfig::default().with_threads(2);
    let run = |d: Arc<dyn Disk>| {
        let g = PreparedGraph::open(d).map_err(|e| format!("open: {e}"))?;
        algo::pagerank(&g, GATE_ITERS, &cfg).map_err(|e| format!("pagerank: {e}"))
    };
    let (r0, s0) = run(Arc::clone(&inner))?;
    let (r1, s1) = run(TracingDisk::wrap(Arc::clone(&inner)))?;
    let self_test = same_bits(&r0, &r1) && s0.io == s1.io;
    println!(
        "gate traced_equals_untraced ranks {} io {}",
        same_bits(&r0, &r1),
        s0.io == s1.io
    );
    correct &= self_test;

    let svc = open_service(g)?;
    host::settle(scratch.path());
    let prof = || inner.io_profile().map(|p| p.snapshot()).unwrap_or_default();
    let mut before = None;
    let (warm, st) = warm_then_measure(&svc, &inner, args.seed, half, || {
        before = Some((trace::snapshot(), prof(), maint_stats(&svc)));
    })?;
    let (before, p0, maint0) = before.expect("measured stream started");
    let spans = trace::snapshot().since(&before);
    let p1 = prof();
    print_latencies(&st);
    let maint = maint_stats(&svc);

    let ops = st.ops();
    let prof_delta = IoProfileSnapshot {
        opens: p1.opens - p0.opens,
        retries: p1.retries - p0.retries,
        ..IoProfileSnapshot::default()
    };
    storage_metrics(&mut m, &spans, &prof_delta, ops);
    pr::print_thread_breakdown(&spans, ops);

    let commits = st.committed.len().max(1) as f64;
    let edges = (st.committed.len() * BATCH).max(1) as f64;
    let writer = |keep: &dyn Fn(trace::Op, File) -> bool| {
        spans.sum(|o, t, f| t == Thread::Writer && keep(o, f))
    };
    m.set("dynamic.commit_s", median(&st.commit_service_s));
    m.set(
        "dynamic.commit_write_s",
        writer(&|o, _| o.is_write()).secs / commits,
    );
    m.set(
        "dynamic.manifest_save_s",
        writer(&|_, f| f == File::Manifest).secs / commits,
    );
    m.set(
        "dynamic.files_per_commit",
        writer(&|o, _| o.starts_write()).calls as f64 / commits,
    );
    m.set(
        "dynamic.write_bytes_per_edge",
        writer(&|o, _| o.is_write()).bytes as f64 / edges,
    );
    m.set("dynamic.deltas_per_commit", mean(&st.deltas));

    let maint_spans = spans.sum(|_, t, _| t == Thread::Maint);
    m.set(
        "maintain.cells_folded",
        (maint.cells_folded - maint0.cells_folded) as f64,
    );
    m.set(
        "maintain.fold_races",
        (maint.fold_races - maint0.fold_races) as f64,
    );
    m.set(
        "maintain.write_bytes",
        spans
            .sum(|o, t, _| t == Thread::Maint && o.is_write())
            .bytes as f64,
    );
    m.set("maintain.storage_s", maint_spans.secs);

    for (k, kind) in KINDS.iter().enumerate() {
        m.set(&format!("serve.query_ms.{kind}"), median(&st.kind_ms[k]));
    }
    let queries = st.query_ms.len().max(1) as f64;
    m.set(
        "serve.query_read_s",
        spans.sum(|o, t, _| t == Thread::Query && o.is_read()).secs / queries,
    );
    let stats = svc.stats();
    m.set(
        "serve.rejected",
        (stats.rejected_busy + stats.rejected_budget) as f64,
    );
    m.set("serve.max_snapshot_lag", stats.max_snapshot_lag as f64);
    m.set("serve.writer_late_ms", mean(&st.late_ms));
    m.set(
        "serve.queries_per_s",
        plain.query_ms.len() as f64 / plain.window,
    );
    m.set("serve.query_tail_ms", tail(&plain.query_ms).0);
    m.set("serve.commit_p50_ms", median(&plain.commit_ms));
    m.set("serve.commit_tail_ms", tail(&plain.commit_ms).0);

    // Decode pass over the chained cells as the stream left them.
    {
        let snap = svc.snapshot().map_err(|e| format!("snapshot: {e}"))?;
        let d = decode_pass(snap.graph())?;
        dsss_metrics(&mut m, snap.graph(), &d)?;
    }
    correct &= gates(&svc, &[&warm, &st], raw, scratch, "traced-fresh")?;

    let (pm, tm) = (median(&plain.query_ms), median(&st.query_ms));
    println!("trace query_p50_ms untraced {pm} traced {tm}");
    m.set("trace.overhead_pct", (tm - pm) / pm * 100.0);

    let attempted =
        plain.query_attempts + plain.commit_attempts + st.query_attempts + st.commit_attempts;
    let failed =
        plain.query_failures + plain.commit_failures + st.query_failures + st.commit_failures;
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics: m,
    })
}
