//! The intra-block data-parallel seam: [`ParallelExecutor`].
//!
//! Historically the simulator only *cost-modeled* intra-block
//! parallelism — an op over `n` items was charged `ceil(n/B)` cycles
//! but executed serially on the block's OS thread. This module makes
//! the seam real: flat passes over index ranges (`0..n`) go through a
//! [`ParallelExecutor`], which either runs them inline
//! ([`SerialExec`], exactly the old behavior) or splits them into
//! warp-multiple chunks spread over a persistent worker pool
//! ([`PooledExec`]).
//!
//! ## The conformance contract
//!
//! Executors change *wall-clock*, never *results* or *accounting*:
//!
//! * Model-cycle charges are computed from instance quantities (item
//!   counts, degrees), never from which executor ran the pass or how
//!   it was chunked — so `BlockCounters` are the cross-backend oracle:
//!   a pooled run must bit-match a serial run's counters.
//! * To keep results identical, every pass written against this seam
//!   must be **chunking-invariant**: per-chunk partial results are
//!   combined in ascending chunk order, and the combination must give
//!   the same answer for any chunk partition of `0..n` (concatenating
//!   ascending per-chunk index lists, layer-synchronous frontier
//!   expansion, associative max with a fixed tie-break, ...).
//!   [`gather_indices`] packages the most common such pass.
//!
//! Chunks are sized in multiples of [`WARP`] (the per-warp-equivalent
//! granularity), and passes shorter than a few thousand items skip
//! dispatch entirely — the pool only ever sees work big enough to
//! amortize the handoff.

use std::sync::atomic::{AtomicI32, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Threads per warp — the chunk-size granularity of pooled passes.
pub const WARP: usize = 32;

/// Below this many items a pass always runs as a single inline chunk:
/// dispatch overhead would swamp any parallel win.
pub const MIN_PARALLEL: usize = 4096;

/// How a flat index pass `0..n` gets executed inside a block.
///
/// The chunk partition for a given `n` is deterministic (it depends
/// only on `n` and the executor's thread count), and
/// [`dispatch`](Self::dispatch) invokes `task(chunk, start, end)`
/// exactly once per chunk, possibly concurrently. See the module docs
/// for the chunking-invariance contract callers must uphold.
pub trait ParallelExecutor: Send + Sync + std::fmt::Debug {
    /// Worker threads available to a pass (1 = everything inline).
    fn threads(&self) -> usize;

    /// The number of chunks a pass over `n` items will be split into.
    /// Callers size per-chunk scratch (e.g. [`ChunkSlots`]) from this.
    fn chunks_for(&self, n: usize) -> usize;

    /// Runs `task(chunk_index, start, end)` over a partition of
    /// `0..n`. Chunks may run on any thread in any order; the
    /// partition itself is the deterministic one
    /// [`chunks_for`](Self::chunks_for) describes. Returns after every
    /// chunk has completed.
    fn dispatch(&self, n: usize, task: &(dyn Fn(usize, usize, usize) + Sync));
}

/// Warp-aligned chunk plan: `(chunk_size, chunk_count)` for a pass of
/// `n` items on `threads` workers.
fn plan(n: usize, threads: usize) -> (usize, usize) {
    if threads <= 1 || n < MIN_PARALLEL {
        return (n.max(1), 1);
    }
    // Two chunks per worker keeps the tail of an uneven pass from
    // idling the pool, without flooding it with tiny jobs.
    let target = threads * 2;
    let size = n.div_ceil(target).div_ceil(WARP) * WARP;
    (size, n.div_ceil(size))
}

/// Today's behavior: every pass runs inline on the calling (block)
/// thread as one chunk.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialExec;

/// The always-available serial executor, for contexts that want a
/// `&'static dyn ParallelExecutor` without owning one.
pub static SERIAL: SerialExec = SerialExec;

impl ParallelExecutor for SerialExec {
    fn threads(&self) -> usize {
        1
    }

    fn chunks_for(&self, _n: usize) -> usize {
        1
    }

    fn dispatch(&self, n: usize, task: &(dyn Fn(usize, usize, usize) + Sync)) {
        task(0, 0, n);
    }
}

/// A chunked worker pool: passes big enough to amortize the handoff
/// are split into warp-multiple chunks and spread over persistent
/// worker threads.
///
/// The pool is shared opportunistically: if another block is mid-
/// dispatch (the lock is held), the pass runs its chunks inline
/// instead of queuing — blocks already saturate the machine in that
/// case, and chunking-invariance makes the fallback indistinguishable
/// in results and counters.
pub struct PooledExec {
    pool: Mutex<scoped_threadpool::Pool>,
    threads: usize,
}

impl std::fmt::Debug for PooledExec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PooledExec")
            .field("threads", &self.threads)
            .finish()
    }
}

impl PooledExec {
    /// A pool with `threads` workers (`≥ 1`; 1 degenerates to serial).
    pub fn new(threads: usize) -> Self {
        PooledExec {
            pool: Mutex::new(scoped_threadpool::Pool::new(threads.max(1) as u32)),
            threads: threads.max(1),
        }
    }
}

impl ParallelExecutor for PooledExec {
    fn threads(&self) -> usize {
        self.threads
    }

    fn chunks_for(&self, n: usize) -> usize {
        plan(n, self.threads).1
    }

    fn dispatch(&self, n: usize, task: &(dyn Fn(usize, usize, usize) + Sync)) {
        let (size, chunks) = plan(n, self.threads);
        if chunks == 1 {
            task(0, 0, n);
            return;
        }
        let mut pool = match self.pool.try_lock() {
            Ok(pool) => pool,
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => {
                // Pool busy (another block dispatching): same chunks,
                // inline — identical results by chunking-invariance.
                for c in 0..chunks {
                    task(c, c * size, ((c + 1) * size).min(n));
                }
                return;
            }
        };
        pool.scoped(|scope| {
            for c in 0..chunks {
                let start = c * size;
                let end = ((c + 1) * size).min(n);
                scope.execute(move || task(c, start, end));
            }
        });
    }
}

/// Per-chunk output buffers for gather passes, reusable across calls
/// so the hot loop never allocates. Each chunk locks only its own
/// slot (uncontended — the lock exists to satisfy the borrow checker
/// across worker threads, not to serialize).
#[derive(Debug, Default)]
pub struct ChunkSlots {
    slots: Vec<Mutex<Vec<u32>>>,
}

impl ChunkSlots {
    /// Empty slot set; grows on first pooled pass.
    pub fn new() -> Self {
        ChunkSlots { slots: Vec::new() }
    }

    fn ensure(&mut self, k: usize) {
        while self.slots.len() < k {
            self.slots.push(Mutex::new(Vec::new()));
        }
        for s in &mut self.slots[..k] {
            s.get_mut().unwrap_or_else(PoisonError::into_inner).clear();
        }
    }
}

/// The flat classify-and-gather pass: collects every `i in 0..n` with
/// `pred(i)` into `out`, in ascending order — bit-identical to the
/// serial `(0..n).filter(pred).collect()` under any executor, because
/// per-chunk ascending runs concatenated in chunk order are the
/// ascending whole.
///
/// `slots` is caller-owned scratch (per-block, reused across calls);
/// `out` is cleared first.
pub fn gather_indices(
    exec: &dyn ParallelExecutor,
    n: usize,
    pred: &(dyn Fn(u32) -> bool + Sync),
    slots: &mut ChunkSlots,
    out: &mut Vec<u32>,
) {
    out.clear();
    let chunks = exec.chunks_for(n);
    if chunks <= 1 {
        out.extend((0..n as u32).filter(|&v| pred(v)));
        return;
    }
    slots.ensure(chunks);
    let slots_ref: &[Mutex<Vec<u32>>] = &slots.slots;
    exec.dispatch(n, &|c, start, end| {
        let mut slot = slots_ref[c].lock().unwrap_or_else(PoisonError::into_inner);
        slot.extend((start as u32..end as u32).filter(|&v| pred(v)));
    });
    for s in &mut slots.slots[..chunks] {
        out.extend_from_slice(s.get_mut().unwrap_or_else(PoisonError::into_inner));
    }
}

/// The flat range-classify pass over a value array: collects every
/// index `i` with `lo <= values[i] <= hi` into `out`, in ascending
/// order, and returns the maximum of the values it did *not* collect
/// (`i32::MIN` when there are none) — both bit-identical to the
/// serial pass under any executor (ascending per-chunk runs
/// concatenate in chunk order; max is associative). The reduce
/// fixpoint uses it to seed its degree pools and to gather its
/// high-degree candidates, keeping an exact bound on the degrees it
/// left behind.
///
/// `slots` is caller-owned scratch (per-block, reused across calls);
/// `out` is cleared first.
pub fn gather_in_range(
    exec: &dyn ParallelExecutor,
    values: &[i32],
    lo: i32,
    hi: i32,
    slots: &mut ChunkSlots,
    out: &mut Vec<u32>,
) -> i32 {
    fn scan(values: &[i32], base: u32, lo: i32, hi: i32, out: &mut Vec<u32>) -> i32 {
        let mut rest_max = i32::MIN;
        for (i, &d) in values.iter().enumerate() {
            if d >= lo && d <= hi {
                out.push(base + i as u32);
            } else {
                rest_max = rest_max.max(d);
            }
        }
        rest_max
    }
    out.clear();
    let n = values.len();
    let chunks = exec.chunks_for(n);
    if chunks <= 1 {
        return scan(values, 0, lo, hi, out);
    }
    slots.ensure(chunks);
    let slots_ref: &[Mutex<Vec<u32>>] = &slots.slots;
    let rest_max = AtomicI32::new(i32::MIN);
    exec.dispatch(n, &|c, start, end| {
        let mut slot = slots_ref[c].lock().unwrap_or_else(PoisonError::into_inner);
        let chunk_max = scan(&values[start..end], start as u32, lo, hi, &mut slot);
        rest_max.fetch_max(chunk_max, Ordering::Relaxed);
    });
    for s in &mut slots.slots[..chunks] {
        out.extend_from_slice(s.get_mut().unwrap_or_else(PoisonError::into_inner));
    }
    rest_max.into_inner()
}

/// Which [`ParallelExecutor`] a solve should use — the configuration
/// surface behind `SolverBuilder::executor(...)` and the CLI's
/// `--exec serial|pooled[:threads]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutorSpec {
    /// Intra-block passes run inline on the block thread (default).
    #[default]
    Serial,
    /// Chunked worker pool.
    Pooled {
        /// Worker threads; `None` = the host's available parallelism.
        threads: Option<u32>,
    },
}

impl ExecutorSpec {
    /// Parses `serial`, `pooled`, or `pooled:N`.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "serial" => Ok(ExecutorSpec::Serial),
            "pooled" => Ok(ExecutorSpec::Pooled { threads: None }),
            _ => match s.strip_prefix("pooled:") {
                Some(t) => match t.parse::<u32>() {
                    Ok(k) if k >= 1 => Ok(ExecutorSpec::Pooled { threads: Some(k) }),
                    _ => Err(format!("invalid pooled thread count '{t}'")),
                },
                None => Err(format!(
                    "unknown executor '{s}' (expected serial | pooled[:threads])"
                )),
            },
        }
    }

    /// Builds the executor this spec describes.
    pub fn build(self) -> Arc<dyn ParallelExecutor> {
        match self {
            ExecutorSpec::Serial => Arc::new(SerialExec),
            ExecutorSpec::Pooled { threads } => {
                let t = threads
                    .map(|t| t as usize)
                    .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get()));
                Arc::new(PooledExec::new(t))
            }
        }
    }
}

impl std::fmt::Display for ExecutorSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecutorSpec::Serial => write!(f, "serial"),
            ExecutorSpec::Pooled { threads: None } => write!(f, "pooled"),
            ExecutorSpec::Pooled { threads: Some(t) } => write!(f, "pooled:{t}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn serial_is_one_inline_chunk() {
        let calls = AtomicUsize::new(0);
        SERIAL.dispatch(100, &|c, s, e| {
            assert_eq!((c, s, e), (0, 0, 100));
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(SERIAL.chunks_for(1 << 20), 1);
    }

    #[test]
    fn plan_is_warp_aligned_and_covers() {
        for n in [0, 1, 100, MIN_PARALLEL, 10_000, 100_001] {
            for threads in [1, 2, 3, 8] {
                let (size, chunks) = plan(n, threads);
                assert!(chunks >= 1);
                if chunks > 1 {
                    assert_eq!(size % WARP, 0, "n={n} t={threads}");
                    assert!(n >= MIN_PARALLEL);
                }
                // The partition exactly covers 0..n.
                assert!(size * (chunks - 1) < n.max(1) && size * chunks >= n);
            }
        }
    }

    #[test]
    fn pooled_partition_covers_every_index_once() {
        let exec = PooledExec::new(3);
        let n = 50_000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        assert!(exec.chunks_for(n) > 1);
        exec.dispatch(n, &|_, start, end| {
            for h in &hits[start..end] {
                h.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn gather_matches_serial_filter_on_any_executor() {
        let pred = |v: u32| v.is_multiple_of(7) || v % 11 == 3;
        let n = 30_000;
        let expect: Vec<u32> = (0..n as u32).filter(|&v| pred(v)).collect();
        for exec in [
            &SERIAL as &dyn ParallelExecutor,
            &PooledExec::new(2),
            &PooledExec::new(5),
        ] {
            let mut slots = ChunkSlots::new();
            let mut out = Vec::new();
            gather_indices(exec, n, &pred, &mut slots, &mut out);
            assert_eq!(out, expect, "{exec:?}");
            // Scratch reuse must not leak previous results.
            gather_indices(exec, 100, &pred, &mut slots, &mut out);
            assert_eq!(out, (0..100).filter(|&v| pred(v)).collect::<Vec<_>>());
        }
    }

    #[test]
    fn gather_in_range_matches_serial_scan_on_any_executor() {
        let values: Vec<i32> = (0..30_000u32)
            .map(|v| (v.wrapping_mul(2_654_435_761) % 9) as i32 - 1)
            .collect();
        let expect: Vec<u32> = (0..values.len() as u32)
            .filter(|&v| (1..=2).contains(&values[v as usize]))
            .collect();
        for exec in [
            &SERIAL as &dyn ParallelExecutor,
            &PooledExec::new(2),
            &PooledExec::new(5),
        ] {
            let mut slots = ChunkSlots::new();
            let mut out = Vec::new();
            let rest = gather_in_range(exec, &values, 1, 2, &mut slots, &mut out);
            assert_eq!((rest, &out), (7, &expect), "{exec:?}");
            // Everything above 6 gathered: the rest tops out at 6.
            let rest = gather_in_range(exec, &values, 7, i32::MAX, &mut slots, &mut out);
            assert_eq!(rest, 6, "{exec:?}");
            assert!(out.iter().all(|&v| values[v as usize] == 7));
            let rest = gather_in_range(exec, &values[..5], -1, 8, &mut slots, &mut out);
            assert_eq!((rest, out.len()), (i32::MIN, 5), "scratch reuse leaked");
            let rest = gather_in_range(exec, &[], 1, 2, &mut slots, &mut out);
            assert_eq!((rest, out.len()), (i32::MIN, 0));
        }
    }

    #[test]
    fn pooled_runs_inline_when_contended() {
        let exec = PooledExec::new(2);
        let n = 20_000;
        // Hold the pool lock: dispatch must fall back inline and still
        // produce the full partition.
        let guard = exec.pool.lock().unwrap();
        let count = AtomicUsize::new(0);
        exec.dispatch(n, &|_, start, end| {
            count.fetch_add(end - start, Ordering::Relaxed);
        });
        drop(guard);
        assert_eq!(count.load(Ordering::Relaxed), n);
    }

    #[test]
    fn spec_parses_and_builds() {
        assert_eq!(ExecutorSpec::parse("serial"), Ok(ExecutorSpec::Serial));
        assert_eq!(
            ExecutorSpec::parse("pooled"),
            Ok(ExecutorSpec::Pooled { threads: None })
        );
        assert_eq!(
            ExecutorSpec::parse("pooled:4"),
            Ok(ExecutorSpec::Pooled { threads: Some(4) })
        );
        assert!(ExecutorSpec::parse("pooled:0").is_err());
        assert!(ExecutorSpec::parse("gpu").is_err());
        assert_eq!(
            ExecutorSpec::parse("pooled:4").unwrap().to_string(),
            "pooled:4"
        );
        assert_eq!(ExecutorSpec::Serial.build().threads(), 1);
        assert_eq!(
            ExecutorSpec::Pooled { threads: Some(3) }.build().threads(),
            3
        );
    }
}
