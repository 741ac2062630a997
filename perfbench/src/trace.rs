//! Storage tracing from outside the program.
//!
//! [`TracingDisk`] wraps any [`Disk`] and forwards every method of `Disk`,
//! `DiskRead` and `DiskWrite` to the wrapped value — including the
//! overridable ones (`read_into`, `read_shared`, `read_all`,
//! `write_all_to`, `rename`, `io_profile`, `counters`), so the traced
//! program takes exactly the read and write paths it takes untraced. Each
//! call is one span: its duration and byte count are added to a global
//! table indexed by operation, by the class of the calling thread (named
//! threads of the engine, the maintenance worker, or one of the bench's own
//! threads) and by the class of the file (sub-shard, hub, interval,
//! manifest, other). Spans are aggregated in place rather than logged, so
//! tracing costs two clock reads and three relaxed atomic adds per call.

use std::cell::Cell;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use nxgraph_storage::{
    AlignedBuf, BufferPool, Disk, DiskRead, DiskWrite, IoCounters, IoProfile, SharedBytes,
    StorageResult,
};

/// Storage operations a span can record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `open` of a streaming reader.
    Open,
    /// Bytes pulled through a streaming reader.
    StreamRead,
    /// A whole-file read (`read_into`, `read_shared`, `read_all`).
    WholeRead,
    /// `create` of a streaming writer.
    Create,
    /// Bytes pushed through a streaming writer, plus its flush/finish.
    StreamWrite,
    /// A whole-buffer write (`write_all_to`).
    WholeWrite,
    /// `rename` and `remove`.
    Meta,
    /// `exists`, `len_of`, `list`.
    Stat,
}

const OPS: usize = 8;

/// Which thread issued a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Thread {
    /// The bench thread that calls into the program (prep, engine runs,
    /// decode passes).
    Caller,
    /// The bench's closed-loop query client.
    Query,
    /// The bench's open-loop commit generator.
    Writer,
    /// `nxgraph-prefetch` decode workers.
    Prefetch,
    /// The `nxgraph-iosched` I/O thread.
    IoSched,
    /// The `nxgraph-maint` background maintenance thread.
    Maint,
    /// `nxgraph-worker` engine pool threads.
    Worker,
    /// Anything else.
    Other,
}

const THREADS: usize = 8;

/// Name the bench gives its query client thread.
pub const QUERY_THREAD: &str = "perfbench-query";
/// Name the bench gives its commit generator thread.
pub const WRITER_THREAD: &str = "perfbench-writer";

fn classify_thread(name: Option<&str>) -> Thread {
    match name {
        Some("main") => Thread::Caller,
        Some(QUERY_THREAD) => Thread::Query,
        Some(WRITER_THREAD) => Thread::Writer,
        Some("nxgraph-prefetch") => Thread::Prefetch,
        Some("nxgraph-iosched") => Thread::IoSched,
        Some("nxgraph-maint") => Thread::Maint,
        Some("nxgraph-worker") => Thread::Worker,
        _ => Thread::Other,
    }
}

thread_local! {
    static THREAD_CLASS: Cell<Option<Thread>> = const { Cell::new(None) };
}

fn current_thread() -> Thread {
    THREAD_CLASS.with(|c| {
        if let Some(t) = c.get() {
            return t;
        }
        let t = classify_thread(std::thread::current().name());
        c.set(Some(t));
        t
    })
}

/// What kind of file a span touched, from the program's naming scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum File {
    /// Sub-shard bases and delta blobs (`ss_*`, `rss_*`).
    SubShard,
    /// Hub scratch files (`hub_*`).
    Hub,
    /// Interval scratch files (`interval_*`).
    Interval,
    /// The manifest and its temporary (`graph.manifest*`).
    Manifest,
    /// Degree tables, id mappings and anything else.
    Other,
}

const FILES: usize = 5;

fn classify_file(name: &str) -> File {
    if name.starts_with("ss_") || name.starts_with("rss_") {
        File::SubShard
    } else if name.starts_with("hub_") {
        File::Hub
    } else if name.starts_with("interval_") {
        File::Interval
    } else if name.starts_with("graph.manifest") {
        File::Manifest
    } else {
        File::Other
    }
}

const CELLS: usize = OPS * THREADS * FILES;

fn cell(op: Op, thread: Thread, file: File) -> usize {
    (op as usize * THREADS + thread as usize) * FILES + file as usize
}

struct Table {
    calls: [AtomicU64; CELLS],
    bytes: [AtomicU64; CELLS],
    nanos: [AtomicU64; CELLS],
}

static TABLE: Table = Table {
    calls: [const { AtomicU64::new(0) }; CELLS],
    bytes: [const { AtomicU64::new(0) }; CELLS],
    nanos: [const { AtomicU64::new(0) }; CELLS],
};

fn record(op: Op, file: File, bytes: u64, start: Instant) {
    let nanos = start.elapsed().as_nanos() as u64;
    let i = cell(op, current_thread(), file);
    // Statistics only: no other data is published through these counters.
    TABLE.calls[i].fetch_add(1, Ordering::Relaxed);
    TABLE.bytes[i].fetch_add(bytes, Ordering::Relaxed);
    TABLE.nanos[i].fetch_add(nanos, Ordering::Relaxed);
}

/// A copy of every span total at one instant; subtract two with
/// [`Snapshot::since`] to get the spans of an interval.
#[derive(Clone)]
pub struct Snapshot {
    calls: Vec<u64>,
    bytes: Vec<u64>,
    nanos: Vec<u64>,
}

/// Take a copy of the global span totals.
pub fn snapshot() -> Snapshot {
    let load = |a: &[AtomicU64; CELLS]| a.iter().map(|x| x.load(Ordering::Relaxed)).collect();
    Snapshot {
        calls: load(&TABLE.calls),
        bytes: load(&TABLE.bytes),
        nanos: load(&TABLE.nanos),
    }
}

/// Totals of the spans selected by a [`Snapshot::sum`] filter.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub calls: u64,
    pub bytes: u64,
    pub secs: f64,
}

impl Snapshot {
    /// Span totals accumulated between `earlier` and `self`.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let sub = |a: &[u64], b: &[u64]| a.iter().zip(b).map(|(x, y)| x - y).collect();
        Snapshot {
            calls: sub(&self.calls, &earlier.calls),
            bytes: sub(&self.bytes, &earlier.bytes),
            nanos: sub(&self.nanos, &earlier.nanos),
        }
    }

    /// Span totals of `self` and `other` together.
    pub fn plus(&self, other: &Snapshot) -> Snapshot {
        let add = |a: &[u64], b: &[u64]| a.iter().zip(b).map(|(x, y)| x + y).collect();
        Snapshot {
            calls: add(&self.calls, &other.calls),
            bytes: add(&self.bytes, &other.bytes),
            nanos: add(&self.nanos, &other.nanos),
        }
    }

    /// Sum the spans whose operation, thread and file all pass `keep`.
    pub fn sum(&self, keep: impl Fn(Op, Thread, File) -> bool) -> Totals {
        const ALL_OPS: [Op; OPS] = [
            Op::Open,
            Op::StreamRead,
            Op::WholeRead,
            Op::Create,
            Op::StreamWrite,
            Op::WholeWrite,
            Op::Meta,
            Op::Stat,
        ];
        const ALL_THREADS: [Thread; THREADS] = [
            Thread::Caller,
            Thread::Query,
            Thread::Writer,
            Thread::Prefetch,
            Thread::IoSched,
            Thread::Maint,
            Thread::Worker,
            Thread::Other,
        ];
        const ALL_FILES: [File; FILES] = [
            File::SubShard,
            File::Hub,
            File::Interval,
            File::Manifest,
            File::Other,
        ];
        let mut t = Totals::default();
        for op in ALL_OPS {
            for th in ALL_THREADS {
                for f in ALL_FILES {
                    if keep(op, th, f) {
                        let i = cell(op, th, f);
                        t.calls += self.calls[i];
                        t.bytes += self.bytes[i];
                        t.secs += self.nanos[i] as f64 / 1e9;
                    }
                }
            }
        }
        t
    }
}

impl Op {
    /// Operations that move bytes from the disk.
    pub fn is_read(self) -> bool {
        matches!(self, Op::Open | Op::StreamRead | Op::WholeRead)
    }

    /// Operations that put bytes or names on the disk.
    pub fn is_write(self) -> bool {
        matches!(
            self,
            Op::Create | Op::StreamWrite | Op::WholeWrite | Op::Meta
        )
    }

    /// Operations that each start reading one file.
    pub fn starts_read(self) -> bool {
        matches!(self, Op::Open | Op::WholeRead)
    }

    /// Operations that each start writing one file.
    pub fn starts_write(self) -> bool {
        matches!(self, Op::Create | Op::WholeWrite)
    }
}

/// A [`Disk`] that records a span for every call and forwards it.
pub struct TracingDisk {
    inner: Arc<dyn Disk>,
}

impl TracingDisk {
    /// Trace every call made to `inner` through the returned disk.
    pub fn wrap(inner: Arc<dyn Disk>) -> Arc<dyn Disk> {
        Arc::new(Self { inner })
    }
}

struct TracingRead {
    inner: Box<dyn DiskRead>,
    file: File,
}

impl Read for TracingRead {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let t = Instant::now();
        let r = self.inner.read(buf);
        record(
            Op::StreamRead,
            self.file,
            *r.as_ref().unwrap_or(&0) as u64,
            t,
        );
        r
    }

    fn read_to_end(&mut self, buf: &mut Vec<u8>) -> io::Result<usize> {
        let t = Instant::now();
        let r = self.inner.read_to_end(buf);
        record(
            Op::StreamRead,
            self.file,
            *r.as_ref().unwrap_or(&0) as u64,
            t,
        );
        r
    }

    fn read_exact(&mut self, buf: &mut [u8]) -> io::Result<()> {
        let t = Instant::now();
        let r = self.inner.read_exact(buf);
        let n = if r.is_ok() { buf.len() as u64 } else { 0 };
        record(Op::StreamRead, self.file, n, t);
        r
    }
}

impl DiskRead for TracingRead {
    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn read_to_vec(&mut self) -> StorageResult<Vec<u8>> {
        let t = Instant::now();
        let r = self.inner.read_to_vec();
        record(
            Op::StreamRead,
            self.file,
            r.as_ref().map_or(0, |v| v.len() as u64),
            t,
        );
        r
    }
}

struct TracingWrite {
    inner: Box<dyn DiskWrite>,
    file: File,
}

impl Write for TracingWrite {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let t = Instant::now();
        let r = self.inner.write(buf);
        record(
            Op::StreamWrite,
            self.file,
            *r.as_ref().unwrap_or(&0) as u64,
            t,
        );
        r
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let t = Instant::now();
        let r = self.inner.write_all(buf);
        let n = if r.is_ok() { buf.len() as u64 } else { 0 };
        record(Op::StreamWrite, self.file, n, t);
        r
    }

    fn flush(&mut self) -> io::Result<()> {
        let t = Instant::now();
        let r = self.inner.flush();
        record(Op::StreamWrite, self.file, 0, t);
        r
    }
}

impl DiskWrite for TracingWrite {
    fn finish(self: Box<Self>) -> StorageResult<()> {
        let t = Instant::now();
        let file = self.file;
        let r = self.inner.finish();
        record(Op::StreamWrite, file, 0, t);
        r
    }
}

impl Disk for TracingDisk {
    fn create(&self, name: &str) -> StorageResult<Box<dyn DiskWrite>> {
        let t = Instant::now();
        let file = classify_file(name);
        let r = self.inner.create(name);
        record(Op::Create, file, 0, t);
        Ok(Box::new(TracingWrite { inner: r?, file }))
    }

    fn open(&self, name: &str) -> StorageResult<Box<dyn DiskRead>> {
        let t = Instant::now();
        let file = classify_file(name);
        let r = self.inner.open(name);
        record(Op::Open, file, 0, t);
        Ok(Box::new(TracingRead { inner: r?, file }))
    }

    fn exists(&self, name: &str) -> bool {
        let t = Instant::now();
        let r = self.inner.exists(name);
        record(Op::Stat, classify_file(name), 0, t);
        r
    }

    fn len_of(&self, name: &str) -> StorageResult<u64> {
        let t = Instant::now();
        let r = self.inner.len_of(name);
        record(Op::Stat, classify_file(name), 0, t);
        r
    }

    fn remove(&self, name: &str) -> StorageResult<()> {
        let t = Instant::now();
        let r = self.inner.remove(name);
        record(Op::Meta, classify_file(name), 0, t);
        r
    }

    fn rename(&self, from: &str, to: &str) -> StorageResult<()> {
        let t = Instant::now();
        let r = self.inner.rename(from, to);
        record(Op::Meta, classify_file(to), 0, t);
        r
    }

    fn list(&self) -> Vec<String> {
        let t = Instant::now();
        let r = self.inner.list();
        record(Op::Stat, File::Other, 0, t);
        r
    }

    fn counters(&self) -> &Arc<IoCounters> {
        self.inner.counters()
    }

    fn read_all(&self, name: &str) -> StorageResult<Vec<u8>> {
        let t = Instant::now();
        let r = self.inner.read_all(name);
        record(
            Op::WholeRead,
            classify_file(name),
            r.as_ref().map_or(0, |v| v.len() as u64),
            t,
        );
        r
    }

    fn read_into(&self, name: &str, buf: &mut AlignedBuf) -> StorageResult<()> {
        let t = Instant::now();
        let r = self.inner.read_into(name, buf);
        let n = if r.is_ok() { buf.len() as u64 } else { 0 };
        record(Op::WholeRead, classify_file(name), n, t);
        r
    }

    fn io_profile(&self) -> Option<&Arc<IoProfile>> {
        self.inner.io_profile()
    }

    fn read_shared(&self, name: &str, pool: &Arc<BufferPool>) -> StorageResult<SharedBytes> {
        let t = Instant::now();
        let r = self.inner.read_shared(name, pool);
        record(
            Op::WholeRead,
            classify_file(name),
            r.as_ref().map_or(0, |b| b.len() as u64),
            t,
        );
        r
    }

    fn write_all_to(&self, name: &str, data: &[u8]) -> StorageResult<()> {
        let t = Instant::now();
        let r = self.inner.write_all_to(name, data);
        let n = if r.is_ok() { data.len() as u64 } else { 0 };
        record(Op::WholeWrite, classify_file(name), n, t);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nxgraph_core::engine::EngineConfig;
    use nxgraph_core::prep::{preprocess, PrepConfig};
    use nxgraph_core::{algo, PreparedGraph};
    use nxgraph_graphgen::rmat::{self, RmatConfig};
    use nxgraph_storage::MemDisk;

    /// Tracing must not change what the program computes or which bytes
    /// it moves: the same PageRank through the wrapper and around it, on a
    /// disk that overrides `read_shared` and `write_all_to`, under SPU and
    /// under MPU (which also writes hubs and intervals).
    #[test]
    fn traced_pagerank_is_bitwise_and_byte_identical() {
        let raw: Vec<(u64, u64)> = rmat::generate(&RmatConfig::graph500(10, 8, 7))
            .into_iter()
            .map(|e| (e.src, e.dst))
            .collect();
        let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
        let cfg = PrepConfig::forward_only("t", 4);
        let n = preprocess(&raw, &cfg, Arc::clone(&disk))
            .unwrap()
            .num_vertices() as u64;
        for budget in [u64::MAX, 4 * n + 8 * n] {
            let engine = EngineConfig::default().with_threads(2).with_budget(budget);
            let run = |d: Arc<dyn Disk>| {
                let g = PreparedGraph::open(d).unwrap();
                algo::pagerank(&g, 5, &engine).unwrap()
            };
            let (plain, plain_stats) = run(Arc::clone(&disk));
            let before = snapshot();
            let (traced, traced_stats) = run(TracingDisk::wrap(Arc::clone(&disk)));
            let spans = snapshot().since(&before);
            assert_eq!(plain_stats.strategy, traced_stats.strategy);
            assert!(plain
                .iter()
                .zip(&traced)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
            assert_eq!(plain_stats.io, traced_stats.io);
            let read = spans.sum(|o, _, _| o.is_read()).bytes;
            assert!(read >= traced_stats.io.read_bytes, "spans saw {read} bytes");
        }
        // MemDisk's zero-copy `read_shared` is reached only if forwarded;
        // the trait default would copy into a pooled buffer instead.
        let traced = TracingDisk::wrap(Arc::clone(&disk));
        let name = "graph.manifest";
        let bytes = traced.read_shared(name, &BufferPool::new()).unwrap();
        assert!(matches!(bytes, SharedBytes::Owned(_)));
    }
}
