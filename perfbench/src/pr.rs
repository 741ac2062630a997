//! `pr-inmem` and `pr-ooc`: ten-iteration PageRank on an R-MAT scale-20,
//! edge-factor-16 graph prepared onto real files with P = 8 intervals.
//!
//! `pr-inmem` keeps the raw encoding and an unlimited budget, so the
//! engine must pick SPU; `pr-ooc` uses the auto encoding and a budget of
//! `n·Ba` bytes (half of SPU's `2·n·Ba`), so it must pick MPU.

use std::sync::Arc;
use std::time::{Duration, Instant};

use nxgraph_core::engine::{EngineConfig, RunStats, Strategy};
use nxgraph_core::iomodel::{self, IoParams};
use nxgraph_core::prep::{preprocess, PrepConfig};
use nxgraph_core::{algo, reference, PreparedGraph};
use nxgraph_storage::{Disk, EncodingPolicy, IoProfileSnapshot, IoSnapshot, OsDisk};

use crate::host::{self, Scratch};
use crate::report::{median, show, Metrics};
use crate::trace::{self, Thread, TracingDisk};
use crate::{Args, Outcome};

const SCALE: u32 = 20;
const EDGE_FACTOR: u32 = 16;
const P: u32 = 8;
const ITERS: usize = 10;
const THREADS: usize = 2;
/// Bytes per PageRank attribute (`Ba`) and per vertex id (`Bv`).
const BA: u64 = 8;
const BV: u64 = 4;
/// Preprocessing runs per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    InMemory,
    OutOfCore,
}

impl Mode {
    fn prep_config(self) -> PrepConfig {
        let encoding = match self {
            Mode::InMemory => EncodingPolicy::Raw,
            Mode::OutOfCore => EncodingPolicy::Auto,
        };
        PrepConfig::forward_only("rmat20", P).with_encoding(encoding)
    }

    fn budget(self, n: u32) -> u64 {
        match self {
            Mode::InMemory => u64::MAX,
            Mode::OutOfCore => n as u64 * BA,
        }
    }

    fn expected(self) -> Strategy {
        match self {
            Mode::InMemory => Strategy::Spu,
            Mode::OutOfCore => Strategy::Mpu,
        }
    }
}

fn strategy_code(s: Strategy) -> f64 {
    match s {
        Strategy::Spu => 1.0,
        Strategy::Mpu => 2.0,
        Strategy::Dpu => 3.0,
        Strategy::Auto => 0.0,
    }
}

fn os_disk(dir: &std::path::Path) -> Result<Arc<dyn Disk>, String> {
    Ok(Arc::new(
        OsDisk::new(dir).map_err(|e| format!("open disk: {e}"))?,
    ))
}

/// One timed `algo::pagerank` call.
struct Call {
    secs: f64,
    ranks: Vec<f64>,
    stats: RunStats,
}

fn pagerank(g: &PreparedGraph, cfg: &EngineConfig) -> Result<Call, String> {
    let t = Instant::now();
    let (ranks, stats) = algo::pagerank(g, ITERS, cfg).map_err(|e| format!("pagerank: {e}"))?;
    Ok(Call {
        secs: t.elapsed().as_secs_f64(),
        ranks,
        stats,
    })
}

pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Gates every call must pass: the expected strategy, the full iteration
/// count, and ranks bitwise equal to the first call's.
fn call_ok(c: &Call, mode: Mode, first: &[f64]) -> bool {
    let ok = c.stats.strategy == mode.expected()
        && c.stats.iterations == ITERS
        && same_bits(&c.ranks, first);
    if !ok {
        eprintln!(
            "gate: call ran {:?} for {} iterations (expected {:?}, {ITERS}); ranks equal to the first call: {}",
            c.stats.strategy,
            c.stats.iterations,
            mode.expected(),
            same_bits(&c.ranks, first)
        );
    }
    ok
}

/// Compare `ranks` with `reference::pagerank` on the same edges (untimed).
fn reference_gate(g: &PreparedGraph, seed: u64, ranks: &[f64]) -> Result<bool, String> {
    let raw = host::rmat_edges(SCALE, EDGE_FACTOR, seed).map_err(|e| format!("edges: {e}"))?;
    let mapping = g
        .load_reverse_mapping()
        .map_err(|e| format!("mapping: {e}"))?;
    let mut dense_of = vec![u32::MAX; 1usize << SCALE];
    for (id, &index) in mapping.iter().enumerate() {
        dense_of[index as usize] = id as u32;
    }
    let edges: Vec<(u32, u32)> = raw
        .iter()
        .map(|&(s, d)| (dense_of[s as usize], dense_of[d as usize]))
        .collect();
    drop(raw);
    let expect = reference::pagerank(g.num_vertices(), &edges, g.out_degrees(), ITERS);
    let worst = ranks
        .iter()
        .zip(&expect)
        .map(|(a, b)| (a - b).abs() / b.abs().max(f64::MIN_POSITIVE))
        .fold(0.0f64, f64::max);
    println!("gate reference_pagerank max_rel_err {worst:e}");
    Ok(ranks.len() == expect.len() && worst <= 1e-9)
}

pub fn run(args: &Args, scratch: &Scratch, mode: Mode) -> Result<Outcome, String> {
    let raw = host::rmat_edges(SCALE, EDGE_FACTOR, args.seed).map_err(|e| format!("edges: {e}"))?;
    if args.trace {
        traced(args, scratch, mode, raw)
    } else {
        untraced(args, scratch, mode, raw)
    }
}

fn untraced(
    args: &Args,
    scratch: &Scratch,
    mode: Mode,
    raw: Vec<(u64, u64)>,
) -> Result<Outcome, String> {
    let prep = mode.prep_config();
    let mut setup = Vec::new();
    let mut graph: Option<(PreparedGraph, std::path::PathBuf)> = None;
    for k in 0..SETUP_REPS {
        // Only the last set-up's graph is kept; each earlier one is
        // removed before the next is timed.
        if let Some((old, old_dir)) = graph.take() {
            drop(old);
            let _ = std::fs::remove_dir_all(old_dir);
        }
        host::settle(scratch.path());
        let dir = scratch.dir(&format!("prep-{k}"));
        let disk = os_disk(&dir)?;
        let t = Instant::now();
        let g = preprocess(&raw, &prep, disk).map_err(|e| format!("prep: {e}"))?;
        setup.push(t.elapsed().as_secs_f64());
        graph = Some((g, dir));
    }
    drop(raw);
    let (g, _) = graph.expect("at least one setup");
    println!("setup_s samples {setup:?}");
    let cfg = EngineConfig::default()
        .with_threads(THREADS)
        .with_budget(mode.budget(g.num_vertices()));

    // Warm-up call: allocator, pool threads and page cache settle; its
    // ranks are the reference every timed call must reproduce bitwise.
    host::settle(scratch.path());
    let warm = pagerank(&g, &cfg)?;
    let mut correct = call_ok(&warm, mode, &warm.ranks);

    host::reset_peak_rss();
    let mut iter_ms = Vec::new();
    let mut bytes = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    loop {
        attempted += 1;
        match pagerank(&g, &cfg) {
            Ok(c) => {
                correct &= call_ok(&c, mode, &warm.ranks);
                iter_ms.push(c.secs * 1e3 / ITERS as f64);
                bytes.push(c.stats.io.total_bytes() as f64 / ITERS as f64);
            }
            Err(e) => {
                eprintln!("{e}");
                failed += 1;
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    let window = start.elapsed().as_secs_f64();
    let peak = host::peak_rss_mib();
    correct &= reference_gate(&g, args.seed, &warm.ranks)?;

    let completed = attempted - failed;
    println!("pr_iter_ms samples {iter_ms:?}");
    println!(
        "graph n {} m {} strategy {:?} calls {completed} window_s {window:.3}",
        g.num_vertices(),
        g.num_edges(),
        warm.stats.strategy
    );
    show("io_bytes_per_iter", median(&bytes), "B", "");
    show(
        "failed_share",
        failed as f64 / attempted as f64,
        "share",
        "",
    );
    show("peak_rss_mib", peak, "MiB", "");
    show(
        "queries_per_s",
        completed as f64 / window,
        "1/s",
        "PageRank calls",
    );
    let mut m = Metrics::default();
    m.set("setup_s", median(&setup));
    m.set("pr_iter_ms", median(&iter_ms));
    m.set("io_bytes_per_op", median(&bytes));
    m.set("ok_share", completed as f64 / attempted as f64);
    m.set("query_p50_ms", median(&iter_ms) * ITERS as f64);

    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics: m,
    })
}

fn profile(g: &PreparedGraph) -> IoProfileSnapshot {
    g.disk()
        .io_profile()
        .map(|p| p.snapshot())
        .unwrap_or_default()
}

/// Reads on these threads stall the caller; reads on the others overlap.
fn blocking(th: Thread) -> bool {
    matches!(
        th,
        Thread::Caller | Thread::Query | Thread::Writer | Thread::Worker
    )
}

fn overlapped(th: Thread) -> bool {
    matches!(th, Thread::Prefetch | Thread::IoSched)
}

/// Storage-layer metrics over `spans`, normalised by `ops`.
pub fn storage_metrics(
    m: &mut Metrics,
    spans: &trace::Snapshot,
    prof: &IoProfileSnapshot,
    ops: f64,
) {
    let per = |x: f64| x / ops.max(1.0);
    m.set(
        "storage.read_calls",
        per(spans.sum(|o, _, _| o.starts_read()).calls as f64),
    );
    m.set(
        "storage.read_bytes",
        per(spans.sum(|o, _, _| o.is_read()).bytes as f64),
    );
    m.set("storage.opens", per(prof.opens as f64));
    m.set(
        "storage.read_blocking_s",
        per(spans.sum(|o, t, _| o.is_read() && blocking(t)).secs),
    );
    m.set(
        "storage.read_overlapped_s",
        per(spans.sum(|o, t, _| o.is_read() && overlapped(t)).secs),
    );
    m.set(
        "storage.write_calls",
        per(spans.sum(|o, _, _| o.starts_write()).calls as f64),
    );
    m.set(
        "storage.write_bytes",
        per(spans.sum(|o, _, _| o.is_write()).bytes as f64),
    );
    m.set(
        "storage.write_s",
        per(spans.sum(|o, _, _| o.is_write()).secs),
    );
    m.set(
        "storage.hub_write_s",
        per(spans
            .sum(|o, _, f| o.is_write() && f == trace::File::Hub)
            .secs),
    );
    m.set(
        "storage.interval_write_s",
        per(spans
            .sum(|o, _, f| o.is_write() && f == trace::File::Interval)
            .secs),
    );
    m.set("storage.retries", per(prof.retries as f64));
}

/// Prep-layer metrics of one traced `preprocess` call taking `total` s.
pub fn prep_metrics(m: &mut Metrics, spans: &trace::Snapshot, total: f64) {
    let caller = spans.sum(|_, t, _| t == Thread::Caller);
    let writes = spans.sum(|o, _, _| o.is_write());
    m.set("prep.total_s", total);
    m.set("prep.self_s", total - caller.secs);
    m.set("prep.write_s", writes.secs);
    m.set("prep.write_bytes", writes.bytes as f64);
}

/// What one pass of `load_subshard_view` over every forward cell saw.
pub struct DecodePass {
    pub secs: f64,
    pub storage_secs: f64,
    pub edges: u64,
    pub dsts: u64,
    pub resident_bytes: u64,
    pub parts: u64,
    pub cells: u64,
}

/// Load every forward cell of `g` twice — once to verify checksums and
/// warm the page cache, once timed — and report the timed pass.
pub fn decode_pass(g: &PreparedGraph) -> Result<DecodePass, String> {
    let p = g.num_intervals();
    let mut last = None;
    for _ in 0..2 {
        let before = trace::snapshot();
        let t = Instant::now();
        let mut d = DecodePass {
            secs: 0.0,
            storage_secs: 0.0,
            edges: 0,
            dsts: 0,
            resident_bytes: 0,
            parts: 0,
            cells: 0,
        };
        for i in 0..p {
            for j in 0..p {
                let v = g
                    .load_subshard_view(i, j, false)
                    .map_err(|e| format!("view: {e}"))?;
                d.edges += v.num_edges() as u64;
                d.dsts += v.num_dsts() as u64;
                d.resident_bytes += v.resident_bytes();
                d.parts += 1 + g.chain_info(i, j, false).deltas as u64;
                d.cells += 1;
            }
        }
        d.secs = t.elapsed().as_secs_f64();
        d.storage_secs = trace::snapshot()
            .since(&before)
            .sum(|_, t, _| t == Thread::Caller)
            .secs;
        last = Some(d);
    }
    Ok(last.expect("two passes"))
}

pub fn dsss_metrics(m: &mut Metrics, g: &PreparedGraph, d: &DecodePass) -> Result<(), String> {
    let on_disk = g
        .total_subshard_bytes()
        .map_err(|e| format!("sizes: {e}"))?;
    let decode = d.secs - d.storage_secs;
    m.set("dsss.decode_s", decode);
    m.set("dsss.decode_medges_per_s", d.edges as f64 / decode / 1e6);
    m.set(
        "dsss.blob_ratio",
        on_disk as f64 / d.resident_bytes.max(1) as f64,
    );
    m.set(
        "dsss.chain_parts_mean",
        d.parts as f64 / d.cells.max(1) as f64,
    );
    Ok(())
}

fn traced(
    args: &Args,
    scratch: &Scratch,
    mode: Mode,
    raw: Vec<(u64, u64)>,
) -> Result<Outcome, String> {
    let mut m = Metrics::default();
    let inner = os_disk(&scratch.dir("prep"))?;
    let before = trace::snapshot();
    let t = Instant::now();
    let g0 = preprocess(
        &raw,
        &mode.prep_config(),
        TracingDisk::wrap(Arc::clone(&inner)),
    )
    .map_err(|e| format!("prep: {e}"))?;
    let prep_total = t.elapsed().as_secs_f64();
    prep_metrics(&mut m, &trace::snapshot().since(&before), prep_total);
    drop(g0);
    drop(raw);
    host::settle(scratch.path());

    let open = |d: Arc<dyn Disk>| PreparedGraph::open(d).map_err(|e| format!("open: {e}"));
    let plain = open(Arc::clone(&inner))?;
    let traced = open(TracingDisk::wrap(Arc::clone(&inner)))?;
    let cfg = EngineConfig::default()
        .with_threads(THREADS)
        .with_budget(mode.budget(plain.num_vertices()));

    // Self-test: tracing must not change the program's results or I/O.
    let warm = pagerank(&plain, &cfg)?;
    let warm_traced = pagerank(&traced, &cfg)?;
    let io0: IoSnapshot = warm.stats.io;
    let mut correct = call_ok(&warm, mode, &warm.ranks) && call_ok(&warm_traced, mode, &warm.ranks);
    let mut io_equal = warm_traced.stats.io == io0;

    let mut plain_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut run_s = Vec::new();
    let mut self_s = Vec::new();
    let mut spans_total: Option<trace::Snapshot> = None;
    let mut prof_total = IoProfileSnapshot::default();
    let mut edges_per_iter = 0.0;
    let (mut attempted, mut failed) = (0u64, 0u64);
    host::reset_peak_rss();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    // Alternate untraced and traced calls so drift hits both alike.
    while plain_ms.is_empty() || Instant::now() < deadline {
        attempted += 2;
        match pagerank(&plain, &cfg) {
            Ok(c) => {
                correct &= call_ok(&c, mode, &warm.ranks);
                io_equal &= c.stats.io == io0;
                plain_ms.push(c.secs * 1e3 / ITERS as f64);
            }
            Err(e) => {
                eprintln!("{e}");
                failed += 1;
            }
        }
        let before = trace::snapshot();
        let p0 = profile(&traced);
        match pagerank(&traced, &cfg) {
            Ok(c) => {
                let spans = trace::snapshot().since(&before);
                let p1 = profile(&traced);
                correct &= call_ok(&c, mode, &warm.ranks);
                io_equal &= c.stats.io == io0;
                let blocked = spans.sum(|o, t, _| o.is_read() && blocking(t)).secs;
                traced_ms.push(c.secs * 1e3 / ITERS as f64);
                run_s.push(c.secs / ITERS as f64);
                self_s.push((c.secs - blocked) / ITERS as f64);
                edges_per_iter = c.stats.edges_traversed as f64 / c.stats.iterations as f64;
                prof_total.opens += p1.opens - p0.opens;
                prof_total.retries += p1.retries - p0.retries;
                spans_total = Some(match spans_total {
                    None => spans,
                    Some(acc) => acc.plus(&spans),
                });
            }
            Err(e) => {
                eprintln!("{e}");
                failed += 1;
            }
        }
    }
    m.set("mem.peak_rss_mib", host::peak_rss_mib());
    println!(
        "gate traced_equals_untraced ranks {} io {io_equal}",
        same_bits(&warm.ranks, &warm_traced.ranks)
    );
    correct &= io_equal;
    correct &= reference_gate(&plain, args.seed, &warm.ranks)?;

    let iters = (traced_ms.len() * ITERS) as f64;
    let spans = spans_total.ok_or("no traced call completed")?;
    storage_metrics(&mut m, &spans, &prof_total, iters);
    print_thread_breakdown(&spans, iters);

    let d = decode_pass(&traced)?;
    dsss_metrics(&mut m, &traced, &d)?;

    // Table II at this graph's n, m and Be, with the budget the engine's
    // residency plan sees (the degree table is charged first).
    let n = plain.num_vertices() as f64;
    let edges = plain.num_edges() as f64;
    let on_disk = traced
        .total_subshard_bytes()
        .map_err(|e| format!("sizes: {e}"))? as f64;
    let params = IoParams {
        n,
        m: edges,
        ba: BA as f64,
        bv: BV as f64,
        be: on_disk / edges,
        d: d.edges as f64 / d.dsts.max(1) as f64,
    };
    let budget = (mode.budget(plain.num_vertices()) as f64 - 4.0 * n).max(0.0);
    let (model_read, model_write) = match mode {
        Mode::InMemory => (
            iomodel::spu_read(&params, budget),
            iomodel::spu_write(&params, budget),
        ),
        Mode::OutOfCore => (
            iomodel::mpu_read(&params, budget),
            iomodel::mpu_write(&params, budget),
        ),
    };
    // Table II counts the steady state; every strategy reads each
    // sub-shard at least once per run, amortised over its iterations.
    let model_read = model_read.max(on_disk / ITERS as f64);
    let read = io0.read_bytes as f64 / ITERS as f64;
    let written = io0.written_bytes as f64 / ITERS as f64;
    println!(
        "model read_per_iter {read} vs {model_read:.0}, write_per_iter {written} vs {model_write:.0} (Be {:.3}, d {:.3})",
        params.be, params.d
    );
    m.set("model.read_ratio", read / model_read);
    m.set("model.write_ratio", ratio(written, model_write));

    m.set("engine.run_s", median(&run_s));
    m.set("engine.self_s", median(&self_s));
    m.set("engine.edges_per_iter", edges_per_iter);
    m.set("engine.strategy", strategy_code(warm.stats.strategy));
    let (pm, tm) = (median(&plain_ms), median(&traced_ms));
    println!("trace pr_iter_ms untraced {pm} traced {tm}");
    m.set("trace.overhead_pct", (tm - pm) / pm * 100.0);
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics: m,
    })
}

/// Measured over modelled bytes; a model of zero bytes is met exactly only
/// by zero measured bytes (ratio 1), otherwise the ratio is measured bytes
/// over one byte.
fn ratio(measured: f64, model: f64) -> f64 {
    if model > 0.0 {
        measured / model
    } else if measured == 0.0 {
        1.0
    } else {
        measured
    }
}

/// Storage time per op by thread class, for the human-readable report.
pub fn print_thread_breakdown(spans: &trace::Snapshot, ops: f64) {
    for (name, th) in [
        ("caller", Thread::Caller),
        ("query", Thread::Query),
        ("writer", Thread::Writer),
        ("prefetch", Thread::Prefetch),
        ("iosched", Thread::IoSched),
        ("maint", Thread::Maint),
        ("worker", Thread::Worker),
        ("other", Thread::Other),
    ] {
        let r = spans.sum(|o, t, _| t == th && o.is_read());
        let w = spans.sum(|o, t, _| t == th && o.is_write());
        if r.calls + w.calls > 0 {
            println!(
                "storage thread {name}: read {:.6} s/op {} B/op, write {:.6} s/op {} B/op",
                r.secs / ops,
                r.bytes as f64 / ops,
                w.secs / ops,
                w.bytes as f64 / ops
            );
        }
    }
}
