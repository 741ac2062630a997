//! Per-iteration I/O scheduling.
//!
//! The strategy drivers (SPU/DPU/MPU) already enumerate each iteration's
//! disk accesses in a fixed order — the row/column walk of Algorithm 1.
//! Without scheduling, those reads are issued one file at a time from the
//! prefetcher's decode workers, interleaved with decoding; the resulting
//! request stream hops between shard files in whatever order decode slots
//! free up. This module separates *issue order* from *delivery order*:
//!
//! * The driver hands an [`IoSession`] the iteration's **access plan** —
//!   one entry per decode job (`seq`), each naming the files that job
//!   needs (a sub-shard's base+delta chain, a hub, or nothing when the
//!   hub was never written).
//! * A dedicated I/O thread walks the plan in **windows** of
//!   `queue_depth` consecutive seqs. Within a window, reads are reordered
//!   by on-disk layout (natural file-name order, so `ss_0_2` precedes
//!   `ss_0_10` and a cell's base blob precedes its deltas) and issued
//!   back-to-back — large sequential batches per shard file instead of
//!   decode-paced single reads.
//! * Results are parked per `seq`; decode jobs (still submitted through
//!   the existing prefetch reorder buffer in plan order) block in
//!   [`IoClient::take`] until their bytes arrive. Delivery order — and
//!   therefore every checksum, decode and fold — is identical to the
//!   unscheduled path at every thread count, which is what keeps
//!   scheduler-on/off runs bitwise-identical.
//!
//! Look-ahead is bounded: window `w` is issued only once the consumer has
//! drained everything below window `w - 2`, so at most three windows of
//! read buffers are ever parked. That gate cannot deadlock: the decode
//! pool runs at most four workers ([`EngineConfig::decode_workers`]
//! (super::EngineConfig::decode_workers)), the minimum window is
//! [`MIN_QUEUE_DEPTH`] seqs, and jobs start in plan order — so every take
//! a worker can block on lies inside an already-issued window.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use nxgraph_storage::{
    BufferPool, Disk, IoProfile, RetryPolicy, SharedBytes, StorageError, StorageResult,
};

/// Default number of plan entries per issue window.
pub const DEFAULT_QUEUE_DEPTH: usize = 16;

/// Smallest permitted window: below four seqs the look-ahead gate could
/// stall a four-worker decode pool (see the deadlock argument above).
pub const MIN_QUEUE_DEPTH: usize = 4;

/// One planned read: `(seq, part, name)` — decode job `seq` needs file
/// `name` as its `part`-th input.
pub type PlannedRead = (usize, usize, String);

// The layout ordering lives in the storage crate (the paced-device
// emulation shares it); re-exported here because it is the scheduler's
// reorder key.
pub use nxgraph_storage::{layout_key, LayoutToken};

/// Partition an access plan into issue windows: consecutive groups of
/// `depth` seqs, each internally reordered by [`layout_key`] (ties broken
/// by `(seq, part)` so the result is a deterministic permutation of the
/// plan's reads). Pure — the unit under the permutation proptest.
pub fn plan_windows(plan: &[Vec<String>], depth: usize) -> Vec<Vec<PlannedRead>> {
    let depth = depth.max(MIN_QUEUE_DEPTH);
    let mut windows = Vec::with_capacity(plan.len().div_ceil(depth));
    for chunk in plan.chunks(depth) {
        let base = windows.len() * depth;
        let mut window: Vec<PlannedRead> = chunk
            .iter()
            .enumerate()
            .flat_map(|(off, names)| {
                names
                    .iter()
                    .enumerate()
                    .map(move |(part, name)| (base + off, part, name.clone()))
            })
            .collect();
        window.sort_by(|a, b| {
            layout_key(&a.2)
                .cmp(&layout_key(&b.2))
                .then_with(|| (a.0, a.1).cmp(&(b.0, b.1)))
        });
        windows.push(window);
    }
    windows
}

/// Per-seq parked results: `None` until every part of the seq has been
/// read, then `Some` until the consumer takes it.
type SeqResult = Vec<StorageResult<SharedBytes>>;

struct State {
    /// Parked results, indexed by seq. Taken entries revert to `None`.
    ready: Vec<Option<SeqResult>>,
    /// Whether each seq has been taken by its decode job.
    taken: Vec<bool>,
    /// Length of the contiguous taken prefix — the consumer's frontier.
    frontier: usize,
    /// Set by [`IoSession::drop`] or a tripped watchdog; unblocks both
    /// sides.
    shutdown: bool,
    /// The watchdog stall that shut the session down, as `(name,
    /// waited_ms)`: every later waiter gets this typed, fatal cause
    /// rather than a generic shutdown error.
    stalled: Option<(String, u64)>,
}

struct Shared {
    state: Mutex<State>,
    /// Signalled on new parked results and on frontier/shutdown changes.
    cv: Condvar,
    profile: Option<Arc<IoProfile>>,
    /// Hung-I/O watchdog: how long a consumer waits for its seq before
    /// the wait converts into [`StorageError::Stalled`]. `None` waits
    /// forever (the pre-watchdog behaviour).
    deadline: Option<Duration>,
    /// The planned file names per seq, for naming a stalled read.
    plan: Vec<Vec<String>>,
}

/// The consumer half: cloned into decode-job closures.
#[derive(Clone)]
pub struct IoClient {
    shared: Arc<Shared>,
}

impl IoClient {
    /// Block until seq `seq`'s reads are all parked, then take them (in
    /// part order). After session shutdown, returns an error instead of
    /// blocking forever. With a watchdog deadline configured, a wait that
    /// exceeds it returns a typed [`StorageError::Stalled`] and shuts the
    /// session down with that cause, so every other waiter unblocks
    /// promptly with the same fatal error — a hung device cancels the
    /// iteration instead of deadlocking the reorder buffer, and no waiter
    /// sees a retryable error in its place.
    pub fn take(&self, seq: usize) -> SeqResult {
        let started = Instant::now();
        let mut st = self.shared.state.lock();
        loop {
            if let Some(parts) = st.ready[seq].take() {
                st.taken[seq] = true;
                while st.frontier < st.taken.len() && st.taken[st.frontier] {
                    st.frontier += 1;
                }
                self.shared.cv.notify_all();
                if let Some(p) = &self.shared.profile {
                    for _ in 0..parts.len() {
                        p.dequeue();
                    }
                }
                return parts;
            }
            if st.shutdown {
                let err = match &st.stalled {
                    Some((name, waited_ms)) => StorageError::Stalled {
                        name: name.clone(),
                        waited_ms: *waited_ms,
                    },
                    None => StorageError::Io(std::io::Error::other(
                        "i/o scheduler shut down before this read was served",
                    )),
                };
                return vec![Err(err)];
            }
            match self.shared.deadline {
                None => self.shared.cv.wait(&mut st),
                Some(deadline) => {
                    let Some(remaining) = deadline.checked_sub(started.elapsed()) else {
                        // Deadline tripped: poison the session with the
                        // cause so sibling waiters fail fast with it
                        // instead of each burning a full deadline.
                        let name = self
                            .shared
                            .plan
                            .get(seq)
                            .and_then(|names| names.first())
                            .cloned()
                            .unwrap_or_else(|| format!("seq {seq}"));
                        let waited_ms = started.elapsed().as_millis() as u64;
                        st.shutdown = true;
                        st.stalled = Some((name.clone(), waited_ms));
                        self.shared.cv.notify_all();
                        drop(st);
                        if let Some(p) = &self.shared.profile {
                            p.record_stall();
                        }
                        return vec![Err(StorageError::Stalled { name, waited_ms })];
                    };
                    let _ = self.shared.cv.wait_for(&mut st, remaining);
                }
            }
        }
    }
}

/// One iteration-phase's scheduled I/O: owns the issuing thread; dropping
/// the session shuts the thread down even when the consumer abandoned the
/// plan early (an error mid-iteration discards the remaining jobs).
pub struct IoSession {
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

impl IoSession {
    /// Start scheduling `plan` against `disk`: one I/O thread issues each
    /// window's reads in layout order — retrying transient failures per
    /// `retry` — parking results for [`IoClient::take`]. A `deadline`
    /// arms the hung-I/O watchdog on every take.
    pub fn start(
        disk: Arc<dyn Disk>,
        pool: Arc<BufferPool>,
        plan: Vec<Vec<String>>,
        depth: usize,
        retry: RetryPolicy,
        deadline: Option<Duration>,
    ) -> Self {
        let depth = depth.max(MIN_QUEUE_DEPTH);
        let profile = disk.io_profile().cloned();
        let windows = plan_windows(&plan, depth);
        let parts_per_seq: Vec<usize> = plan.iter().map(Vec::len).collect();
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                ready: (0..plan.len()).map(|_| None).collect(),
                taken: vec![false; plan.len()],
                frontier: 0,
                shutdown: false,
                stalled: None,
            }),
            cv: Condvar::new(),
            profile,
            deadline,
            plan,
        });
        let worker = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("nxgraph-iosched".into())
            .spawn(move || {
                issue_loop(&worker, &*disk, &pool, &windows, &parts_per_seq, depth, retry)
            })
            .expect("spawn io scheduler thread");
        Self {
            shared,
            thread: Some(thread),
        }
    }

    /// A cloneable consumer handle.
    pub fn client(&self) -> IoClient {
        IoClient {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl Drop for IoSession {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock();
            st.shutdown = true;
            self.shared.cv.notify_all();
        }
        if let Some(t) = self.thread.take() {
            // The issuer may be stuck inside a genuinely hung read; give
            // it a bounded grace period to observe the shutdown flag and
            // exit, then detach rather than inherit the hang. A detached
            // issuer only touches state it co-owns via `Arc` and exits at
            // its next gate/park check.
            let grace = Instant::now();
            while !t.is_finished() && grace.elapsed() < Duration::from_millis(500) {
                std::thread::sleep(Duration::from_millis(1));
            }
            if t.is_finished() {
                let _ = t.join();
            }
        }
    }
}

fn issue_loop(
    shared: &Shared,
    disk: &dyn Disk,
    pool: &Arc<BufferPool>,
    windows: &[Vec<PlannedRead>],
    parts_per_seq: &[usize],
    depth: usize,
    retry: RetryPolicy,
) {
    for (w, window) in windows.iter().enumerate() {
        // Look-ahead gate: don't run more than two windows past the
        // consumer — bounds parked memory to ~3 windows of blobs.
        let threshold = w.saturating_sub(2) * depth;
        {
            let mut st = shared.state.lock();
            while st.frontier < threshold.min(st.taken.len()) && !st.shutdown {
                shared.cv.wait(&mut st);
            }
            if st.shutdown {
                return;
            }
        }
        if let Some(p) = &shared.profile {
            p.record_sched_batch(window.len() as u64);
        }
        // Reads happen outside the lock; a seq is parked (and its waiters
        // woken) the moment its last part lands, so decoding overlaps the
        // rest of the window's reads.
        let base = w * depth;
        let seqs_in_window = parts_per_seq.len().min(base + depth) - base;
        let mut pending: Vec<Vec<Option<StorageResult<SharedBytes>>>> = (0..seqs_in_window)
            .map(|off| (0..parts_per_seq[base + off]).map(|_| None).collect())
            .collect();
        let mut remaining: Vec<usize> = (0..seqs_in_window)
            .map(|off| parts_per_seq[base + off])
            .collect();
        let park = |seq: usize, parts: SeqResult| {
            let mut st = shared.state.lock();
            st.ready[seq] = Some(parts);
            shared.cv.notify_all();
            st.shutdown
        };
        // Seqs with no reads at all (absent hubs) complete immediately.
        for (off, &rem) in remaining.iter().enumerate() {
            if rem == 0 && park(base + off, Vec::new()) {
                return;
            }
        }
        for (seq, part, name) in window {
            let res = retry.run(disk.io_profile(), || disk.read_shared(name, pool));
            if let Some(p) = &shared.profile {
                p.enqueue();
            }
            let off = seq - base;
            pending[off][*part] = Some(res);
            remaining[off] -= 1;
            if remaining[off] == 0 {
                let parts = std::mem::take(&mut pending[off])
                    .into_iter()
                    .map(|r| r.expect("all parts read"))
                    .collect();
                if park(*seq, parts) {
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nxgraph_storage::MemDisk;

    #[test]
    fn plan_windows_is_a_permutation_of_the_plan() {
        let plan: Vec<Vec<String>> = (0..23)
            .map(|s| {
                (0..(s % 3))
                    .map(|p| format!("ss_{}_{p}.bin", s % 7))
                    .collect()
            })
            .collect();
        let windows = plan_windows(&plan, 4);
        let mut seen: Vec<PlannedRead> = windows.into_iter().flatten().collect();
        seen.sort();
        let mut want: Vec<PlannedRead> = plan
            .iter()
            .enumerate()
            .flat_map(|(s, names)| {
                names
                    .iter()
                    .enumerate()
                    .map(move |(p, n)| (s, p, n.clone()))
            })
            .collect();
        want.sort();
        assert_eq!(seen, want);
    }

    #[test]
    fn session_delivers_every_seq_in_any_take_order() {
        let disk = Arc::new(MemDisk::new());
        let mut plan = Vec::new();
        for s in 0..20usize {
            if s % 5 == 4 {
                plan.push(Vec::new()); // absent hub
                continue;
            }
            let name = format!("f_{s}.bin");
            disk.write_all_to(&name, &vec![s as u8; 64 + s]).unwrap();
            plan.push(vec![name]);
        }
        let pool = BufferPool::new();
        let session = IoSession::start(
            disk as Arc<dyn Disk>,
            pool,
            plan.clone(),
            4,
            RetryPolicy::none(),
            None,
        );
        let client = session.client();
        for (s, planned) in plan.iter().enumerate() {
            let parts = client.take(s);
            if planned.is_empty() {
                assert!(parts.is_empty());
            } else {
                assert_eq!(parts.len(), 1);
                let bytes = parts.into_iter().next().unwrap().unwrap();
                assert_eq!(bytes.as_slice(), &vec![s as u8; 64 + s][..]);
            }
        }
    }

    #[test]
    fn read_errors_are_delivered_not_panicked() {
        let disk = Arc::new(MemDisk::new());
        disk.write_all_to("ok.bin", b"fine").unwrap();
        let plan = vec![
            vec!["ok.bin".to_string()],
            vec!["missing.bin".to_string()],
            vec!["ok.bin".to_string()],
            vec!["ok.bin".to_string()],
        ];
        let pool = BufferPool::new();
        let session = IoSession::start(
            disk as Arc<dyn Disk>,
            pool,
            plan,
            4,
            RetryPolicy::none(),
            None,
        );
        let client = session.client();
        assert!(client.take(0)[0].is_ok());
        assert!(matches!(
            client.take(1)[0],
            Err(StorageError::NotFound(_))
        ));
        // Abandon seqs 2 and 3: dropping the session must not hang.
    }

    #[test]
    fn early_drop_shuts_down_cleanly() {
        let disk = Arc::new(MemDisk::new());
        let mut plan = Vec::new();
        for s in 0..200usize {
            let name = format!("f_{s}.bin");
            disk.write_all_to(&name, &[1u8; 32]).unwrap();
            plan.push(vec![name]);
        }
        let pool = BufferPool::new();
        let session = IoSession::start(
            disk as Arc<dyn Disk>,
            pool,
            plan,
            4,
            RetryPolicy::none(),
            None,
        );
        let client = session.client();
        // Take only the first few; the gate keeps most windows unissued.
        for s in 0..3 {
            assert!(client.take(s)[0].is_ok());
        }
        drop(session); // must join, not hang
        // A take after shutdown gets an error, not a hang.
        assert!(client.take(100).iter().all(|r| r.is_err()));
    }

    #[test]
    fn scheduler_reads_retry_transient_faults() {
        use nxgraph_storage::{FaultDisk, FaultOp, FaultPlan, FaultRule};
        let mem = Arc::new(MemDisk::new());
        let mut plan = Vec::new();
        for s in 0..8usize {
            let name = format!("f_{s}.bin");
            mem.write_all_to(&name, &[s as u8; 64]).unwrap();
            plan.push(vec![name]);
        }
        // Every file's first bulk read faults; the second succeeds.
        let fault_plan = FaultPlan::new().with_rule(FaultRule {
            name_contains: "f_".into(),
            op: FaultOp::Read,
            kind: nxgraph_storage::FaultKind::ReadError,
            first: 0,
            count: 1,
        });
        let disk: Arc<dyn Disk> = Arc::new(FaultDisk::new(mem, fault_plan));
        let profile = disk.io_profile().unwrap().clone();
        let session = IoSession::start(
            Arc::clone(&disk),
            BufferPool::new(),
            plan,
            4,
            RetryPolicy::default(),
            None,
        );
        let client = session.client();
        for s in 0..8 {
            let parts = client.take(s);
            assert!(parts[0].is_ok(), "seq {s} should be healed by retry");
        }
        let snap = profile.snapshot();
        assert_eq!(snap.retries, 8, "one retry per faulted first read");
        assert_eq!(snap.giveups, 0);
        assert_eq!(snap.injected_faults, 8);
    }

    #[test]
    fn watchdog_converts_a_stalled_read_into_a_typed_error() {
        use nxgraph_storage::{FaultDisk, FaultKind, FaultOp, FaultPlan, FaultRule};
        let mem = Arc::new(MemDisk::new());
        mem.write_all_to("slow.bin", &[7u8; 32]).unwrap();
        // The only read stalls for 2 s; the watchdog deadline is 100 ms.
        let fault_plan = FaultPlan::new().with_rule(FaultRule {
            name_contains: "slow".into(),
            op: FaultOp::Read,
            kind: FaultKind::Stall(Duration::from_secs(2)),
            first: 0,
            count: 1,
        });
        let disk: Arc<dyn Disk> = Arc::new(FaultDisk::new(mem, fault_plan));
        let profile = disk.io_profile().unwrap().clone();
        let started = Instant::now();
        let session = IoSession::start(
            Arc::clone(&disk),
            BufferPool::new(),
            vec![vec!["slow.bin".to_string()]],
            4,
            RetryPolicy::none(),
            Some(Duration::from_millis(100)),
        );
        let client = session.client();
        let parts = client.take(0);
        match &parts[0] {
            Err(StorageError::Stalled { name, waited_ms }) => {
                assert_eq!(name, "slow.bin");
                assert!(*waited_ms >= 100, "waited only {waited_ms} ms");
            }
            other => panic!("expected Stalled, got {other:?}"),
        }
        assert!(
            started.elapsed() < Duration::from_millis(1500),
            "watchdog must fire well before the 2 s stall ends (took {:?})",
            started.elapsed()
        );
        assert_eq!(profile.snapshot().stalls, 1);
        // Dropping the session must detach from the stuck issuer rather
        // than inherit its hang.
        let drop_started = Instant::now();
        drop(session);
        assert!(
            drop_started.elapsed() < Duration::from_millis(1500),
            "drop waited on a hung issuer for {:?}",
            drop_started.elapsed()
        );
    }

    /// A disk whose reads of `hung*` files rendezvous with the test on
    /// `entered`, then block until `release` — a hung device that needs no
    /// timing luck to reproduce.
    struct HungDisk {
        inner: MemDisk,
        entered: std::sync::Barrier,
        released: (Mutex<bool>, Condvar),
    }

    impl HungDisk {
        fn release(&self) {
            *self.released.0.lock() = true;
            self.released.1.notify_all();
        }
    }

    impl Disk for HungDisk {
        fn create(&self, name: &str) -> StorageResult<Box<dyn nxgraph_storage::DiskWrite>> {
            self.inner.create(name)
        }
        fn open(&self, name: &str) -> StorageResult<Box<dyn nxgraph_storage::DiskRead>> {
            self.inner.open(name)
        }
        fn exists(&self, name: &str) -> bool {
            self.inner.exists(name)
        }
        fn len_of(&self, name: &str) -> StorageResult<u64> {
            self.inner.len_of(name)
        }
        fn remove(&self, name: &str) -> StorageResult<()> {
            self.inner.remove(name)
        }
        fn list(&self) -> Vec<String> {
            self.inner.list()
        }
        fn counters(&self) -> &Arc<nxgraph_storage::IoCounters> {
            self.inner.counters()
        }
        fn read_shared(&self, name: &str, pool: &Arc<BufferPool>) -> StorageResult<SharedBytes> {
            if name.starts_with("hung") {
                self.entered.wait();
                let mut released = self.released.0.lock();
                while !*released {
                    self.released.1.wait(&mut released);
                }
            }
            self.inner.read_shared(name, pool)
        }
    }

    fn expect_stall(parts: &SeqResult, who: &str) {
        match &parts[0] {
            Err(e @ StorageError::Stalled { .. }) => {
                assert_eq!(e.class(), nxgraph_storage::ErrorClass::Fatal, "{who}");
            }
            Err(e) => panic!("{who}: expected Stalled, got {e}"),
            Ok(_) => panic!("{who}: expected Stalled, got bytes"),
        }
    }

    #[test]
    fn every_waiter_on_a_hung_read_sees_the_typed_stall() {
        let disk = Arc::new(HungDisk {
            inner: MemDisk::new(),
            entered: std::sync::Barrier::new(2),
            released: (Mutex::new(false), Condvar::new()),
        });
        disk.inner.write_all_to("hung.bin", &[1u8; 16]).unwrap();
        disk.inner.write_all_to("next.bin", &[2u8; 16]).unwrap();
        // Layout order issues `hung.bin` first, so `next.bin` is never
        // read while the device hangs.
        let plan = vec![vec!["hung.bin".to_string()], vec!["next.bin".to_string()]];
        let session = IoSession::start(
            Arc::clone(&disk) as Arc<dyn Disk>,
            BufferPool::new(),
            plan,
            4,
            RetryPolicy::none(),
            Some(Duration::from_millis(20)),
        );
        // Rendezvous with the issuer inside the hung read, then release
        // both waiters together.
        disk.entered.wait();
        let client = session.client();
        let start = Arc::new(std::sync::Barrier::new(2));
        let waiters: Vec<_> = (0..2)
            .map(|seq| {
                let (client, start) = (client.clone(), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    client.take(seq)
                })
            })
            .collect();
        for (seq, w) in waiters.into_iter().enumerate() {
            expect_stall(&w.join().unwrap(), &format!("waiter on seq {seq}"));
        }
        // A waiter arriving after the trip gets the recorded cause, not a
        // retryable shutdown error.
        expect_stall(&client.take(1), "late waiter");
        disk.release();
        drop(session);
    }

    #[test]
    fn watchdog_with_generous_deadline_never_fires_on_healthy_reads() {
        let disk = Arc::new(MemDisk::new());
        let mut plan = Vec::new();
        for s in 0..12usize {
            let name = format!("f_{s}.bin");
            disk.write_all_to(&name, &[s as u8; 64]).unwrap();
            plan.push(vec![name]);
        }
        let session = IoSession::start(
            disk as Arc<dyn Disk>,
            BufferPool::new(),
            plan,
            4,
            RetryPolicy::default(),
            Some(Duration::from_secs(30)),
        );
        let client = session.client();
        for s in 0..12 {
            assert!(client.take(s)[0].is_ok());
        }
    }
}
