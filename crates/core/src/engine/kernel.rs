//! The per-sub-shard update kernel and its parallel task machinery
//! (§III-D: fine-grained parallelism in each Destination-Sorted Sub-Shard).
//!
//! Within a sub-shard, edges of one destination are contiguous, so slicing
//! the destination axis hands each worker an exclusive accumulator range —
//! "no thread locks or atomic operations are required to maintain
//! consistency". [`absorb_row`] builds those slices and runs them on the
//! worker pool ([`SyncMode::Callback`]); the coarse alternative locks whole
//! destination intervals ([`SyncMode::Lock`]).

use std::ops::Range;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::dsss::SubShardView;
use crate::parallel::run_tasks;
use crate::program::VertexProgram;
use crate::types::VertexId;

use super::state::AccBuf;
use super::SyncMode;

/// Fold the edges of `ss` whose destination slots lie in `pos_range` into
/// the accumulator slice `acc`/`has`, which covers global destination ids
/// `[slice_base, slice_base + acc.len())`.
///
/// `src_vals` holds the source interval's scatter values for this
/// iteration ([`VertexProgram::scatter`] of the previous attributes, or
/// the attributes themselves for programs that do not scatter), starting
/// at global id `src_base`.
///
/// Flat-edge iteration: the CSR layout guarantees each destination's
/// sources form one contiguous `srcs` run, so the whole run is handed to
/// [`VertexProgram::absorb_run`] at once and `has[slot]` is written at most
/// once per destination — not once per edge as the old scalar walk did.
#[inline]
#[allow(clippy::too_many_arguments)] // hot-path kernel: explicit slices beat a params struct
pub fn absorb_chunk<P: VertexProgram>(
    prog: &P,
    ss: &SubShardView,
    pos_range: Range<usize>,
    src_vals: &[P::Value],
    src_base: VertexId,
    acc: &mut [P::Accum],
    has: &mut [u8],
    slice_base: VertexId,
) {
    let (dsts, offsets, srcs) = (ss.dsts(), ss.offsets(), ss.srcs());
    for pos in pos_range {
        let d = dsts[pos];
        let slot = (d - slice_base) as usize;
        let run = &srcs[offsets[pos] as usize..offsets[pos + 1] as usize];
        if prog.absorb_run(d, run, src_vals, src_base, &mut acc[slot]) {
            has[slot] = 1;
        }
    }
}

/// One fine-grained task: a destination chunk of a sub-shard plus the
/// exclusive accumulator slice it owns.
struct ChunkTask<'a, P: VertexProgram> {
    ss: Arc<SubShardView>,
    pos_range: Range<usize>,
    acc: &'a mut [P::Accum],
    has: &'a mut [u8],
    slice_base: VertexId,
}

/// Carve disjoint accumulator slices for each destination chunk of `ss`.
///
/// Chunks are position ranges in ascending destination order, so slices can
/// be split off the buffer front-to-back.
fn carve_tasks<'a, P: VertexProgram>(
    ss: &Arc<SubShardView>,
    chunks: Vec<Range<usize>>,
    buf: &'a mut AccBuf<P>,
) -> Vec<ChunkTask<'a, P>> {
    let mut tasks = Vec::with_capacity(chunks.len());
    let mut acc_rest: &'a mut [P::Accum] = &mut buf.acc[..];
    let mut has_rest: &'a mut [u8] = &mut buf.has[..];
    let mut cursor = buf.base;
    let dsts = ss.dsts();
    for chunk in chunks {
        let dst_lo = dsts[chunk.start];
        let dst_hi = dsts[chunk.end - 1] + 1;
        debug_assert!(dst_lo >= cursor, "chunks must be ascending");
        let skip = (dst_lo - cursor) as usize;
        let take = (dst_hi - dst_lo) as usize;
        // Split by value to keep the `'a` lifetime on the carved slices.
        let (acc, rest) = std::mem::take(&mut acc_rest).split_at_mut(skip).1.split_at_mut(take);
        acc_rest = rest;
        let (has, rest) = std::mem::take(&mut has_rest).split_at_mut(skip).1.split_at_mut(take);
        has_rest = rest;
        cursor = dst_hi;
        tasks.push(ChunkTask {
            ss: Arc::clone(ss),
            pos_range: chunk,
            acc,
            has,
            slice_base: dst_lo,
        });
    }
    tasks
}

/// Process one source row's sub-shards against a set of destination
/// accumulators.
///
/// `shards[j]` (when present) is the sub-shard from the current source
/// interval into destination interval `j`; `accs[j]` (when present) is that
/// interval's accumulator. Only pairs where both are present are processed.
#[allow(clippy::too_many_arguments)] // mirrors absorb_chunk's explicit data-path signature
pub fn absorb_row<P: VertexProgram>(
    prog: &P,
    shards: &[Option<Arc<SubShardView>>],
    src_vals: &[P::Value],
    src_base: VertexId,
    accs: &mut [Option<Mutex<AccBuf<P>>>],
    threads: usize,
    edges_per_task: usize,
    sync: SyncMode,
) {
    match sync {
        SyncMode::Callback => {
            // Fine-grained: chunk every sub-shard by destination ranges and
            // run all chunks of the row concurrently.
            let mut tasks = Vec::new();
            for (buf_opt, ss_opt) in accs.iter_mut().zip(shards.iter()) {
                let (Some(ss), Some(buf)) = (ss_opt, buf_opt.as_mut()) else {
                    continue;
                };
                if ss.is_empty() {
                    continue;
                }
                let chunks = ss.chunk_by_edges(edges_per_task);
                tasks.extend(carve_tasks(ss, chunks, buf.get_mut()));
            }
            run_tasks(threads, tasks, |t: ChunkTask<'_, P>| {
                absorb_chunk(
                    prog,
                    &t.ss,
                    t.pos_range,
                    src_vals,
                    src_base,
                    t.acc,
                    t.has,
                    t.slice_base,
                );
            });
        }
        SyncMode::Lock => {
            // Coarse-grained: one task per sub-shard, locking the whole
            // destination interval for its duration.
            let mut tasks = Vec::new();
            for (j, ss) in shards.iter().enumerate() {
                if let (Some(ss), Some(_)) = (ss, accs.get(j).and_then(|b| b.as_ref())) {
                    if !ss.is_empty() {
                        tasks.push((j, Arc::clone(ss)));
                    }
                }
            }
            let accs = &*accs;
            run_tasks(threads, tasks, |(j, ss): (usize, Arc<SubShardView>)| {
                let mut guard = accs[j].as_ref().expect("checked above").lock();
                let buf = &mut *guard;
                let base = buf.base;
                absorb_chunk(
                    prog,
                    &ss,
                    0..ss.num_dsts(),
                    src_vals,
                    src_base,
                    &mut buf.acc,
                    &mut buf.has,
                    base,
                );
            });
        }
    }
}

/// Fold one sub-shard into one accumulator with chunk-level parallelism.
///
/// Used by the hub-producing passes (DPU ToHub, MPU phase B/C) where a
/// single `(i, j)` pair is updated at a time; hub targets never conflict,
/// so fine-grained chunking applies under either sync mode ("DPU can
/// overlap the four sub-shards … since their write destinations, i.e.
/// their hubs, do not overlap", §III-B2).
pub fn absorb_single<P: VertexProgram>(
    prog: &P,
    ss: &Arc<SubShardView>,
    src_vals: &[P::Value],
    src_base: VertexId,
    buf: &mut AccBuf<P>,
    threads: usize,
    edges_per_task: usize,
) {
    if ss.is_empty() {
        return;
    }
    let chunks = ss.chunk_by_edges(edges_per_task);
    let tasks = carve_tasks(ss, chunks, buf);
    run_tasks(threads, tasks, |t: ChunkTask<'_, P>| {
        absorb_chunk(
            prog,
            &t.ss,
            t.pos_range,
            src_vals,
            src_base,
            t.acc,
            t.has,
            t.slice_base,
        );
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsss::SubShard;

    struct Sum;

    impl VertexProgram for Sum {
        type Value = f64;
        type Accum = f64;
        const APPLY_NEEDS_OLD: bool = false;
        const ALWAYS_APPLY: bool = true;

        fn init(&self, _v: VertexId) -> f64 {
            0.0
        }

        fn zero(&self) -> f64 {
            0.0
        }

        fn absorb(&self, _s: VertexId, sv: &f64, _d: VertexId, acc: &mut f64) -> bool {
            *acc += sv;
            true
        }

        fn combine(&self, a: &mut f64, b: &f64) {
            *a += b;
        }

        fn apply(&self, _v: VertexId, _old: &f64, acc: &f64, _got: bool) -> f64 {
            *acc
        }
    }

    /// Sub-shard from interval [0,4) into [4,8): every src → every dst.
    fn dense_shard() -> Arc<SubShardView> {
        let mut edges = Vec::new();
        for s in 0..4u32 {
            for d in 4..8u32 {
                edges.push((s, d));
            }
        }
        Arc::new(SubShardView::from(&SubShard::from_edges(0, 1, edges)))
    }

    fn run_mode(sync: SyncMode, threads: usize, edges_per_task: usize) -> Vec<f64> {
        let prog = Sum;
        let ss = dense_shard();
        let src_vals = vec![1.0, 2.0, 3.0, 4.0];
        let mut accs: Vec<Option<Mutex<AccBuf<Sum>>>> = vec![
            None,
            Some(Mutex::new(AccBuf::new(&prog, 4, 4))),
        ];
        let shards = vec![None, Some(ss)];
        absorb_row(
            &prog, &shards, &src_vals, 0, &mut accs, threads, edges_per_task, sync,
        );
        accs[1].take().unwrap().into_inner().acc
    }

    #[test]
    fn callback_and_lock_agree() {
        // Every dst receives 1+2+3+4 = 10.
        for threads in [1, 4] {
            for ept in [1, 2, 100] {
                assert_eq!(run_mode(SyncMode::Callback, threads, ept), vec![10.0; 4]);
            }
            assert_eq!(run_mode(SyncMode::Lock, threads, 8), vec![10.0; 4]);
        }
    }

    #[test]
    fn absorb_chunk_respects_pos_range() {
        let prog = Sum;
        let ss = dense_shard();
        let src_vals = vec![1.0; 4];
        let mut acc = vec![0.0; 4];
        let mut has = vec![0u8; 4];
        // Only destination slots 1..3 (ids 5 and 6).
        absorb_chunk(&prog, &ss, 1..3, &src_vals, 0, &mut acc, &mut has, 4);
        assert_eq!(acc, vec![0.0, 4.0, 4.0, 0.0]);
        assert_eq!(has, vec![0, 1, 1, 0]);
    }

    #[test]
    fn carve_handles_gaps() {
        // Destinations 10 and 14 within an interval starting at 8:
        // slices must skip the gap correctly.
        let prog = Sum;
        let ss = Arc::new(SubShardView::from(&SubShard::from_edges(
            0,
            1,
            vec![(0, 10), (1, 14)],
        )));
        let mut buf = AccBuf::<Sum>::new(&prog, 8, 8);
        let chunks = ss.chunk_by_edges(1);
        assert_eq!(chunks.len(), 2);
        let tasks = carve_tasks(&ss, chunks, &mut buf);
        assert_eq!(tasks.len(), 2);
        assert_eq!(tasks[0].slice_base, 10);
        assert_eq!(tasks[0].acc.len(), 1);
        assert_eq!(tasks[1].slice_base, 14);
        assert_eq!(tasks[1].acc.len(), 1);
    }

    #[test]
    fn source_active_filter_is_respected() {
        struct Gated;
        impl VertexProgram for Gated {
            type Value = f64;
            type Accum = f64;
            const APPLY_NEEDS_OLD: bool = false;
            const ALWAYS_APPLY: bool = true;
            fn init(&self, _v: VertexId) -> f64 {
                0.0
            }
            fn zero(&self) -> f64 {
                0.0
            }
            fn source_active(&self, _s: VertexId, v: &f64) -> bool {
                *v > 2.0
            }
            fn absorb(&self, _s: VertexId, sv: &f64, _d: VertexId, acc: &mut f64) -> bool {
                *acc += sv;
                true
            }
            fn combine(&self, a: &mut f64, b: &f64) {
                *a += b;
            }
            fn apply(&self, _v: VertexId, _o: &f64, acc: &f64, _g: bool) -> f64 {
                *acc
            }
        }
        let prog = Gated;
        let ss = dense_shard();
        let src_vals = vec![1.0, 2.0, 3.0, 4.0];
        let mut acc = vec![0.0; 4];
        let mut has = vec![0u8; 4];
        absorb_chunk(&prog, &ss, 0..4, &src_vals, 0, &mut acc, &mut has, 4);
        // Only sources 3.0 and 4.0 pass the gate.
        assert_eq!(acc, vec![7.0; 4]);
        assert_eq!(has, vec![1; 4]);

        // When no source passes, the run contributes nothing and the
        // per-destination has flag must stay clear.
        let low_vals = vec![1.0; 4];
        let mut acc = vec![0.0; 4];
        let mut has = vec![0u8; 4];
        absorb_chunk(&prog, &ss, 0..4, &low_vals, 0, &mut acc, &mut has, 4);
        assert_eq!(acc, vec![0.0; 4]);
        assert_eq!(has, vec![0; 4]);
    }
}
