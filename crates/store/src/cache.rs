//! The byte-budgeted resident-block cache.
//!
//! [`BlockCache`] mirrors `pa-batch`'s `ModelCache::with_budget`
//! semantics at block granularity: blocks page in on demand (a *fault*,
//! verified against their written digest, so a reload is bitwise identical
//! to the original bytes), stay resident while any caller still holds
//! their [`std::sync::Arc`] (a *pin* — pinned blocks are never evicted),
//! and a fault first drops least-recently-used unpinned blocks until the
//! incoming block fits the budget. The incoming block is admitted even
//! when nothing more can be dropped, so any budget — down to a single
//! byte — leaves exactly the block being swept resident and the engines
//! still terminate. Because eviction comes first, the fault reads into
//! the largest victim's buffer (and reuses its `Arc`): a sweep at a
//! one-block budget pages every block into the same allocation.
//!
//! Telemetry: `mdp.store.faults`, `mdp.store.hits`, `mdp.store.evictions`
//! counters and the `mdp.store.resident_bytes` /
//! `mdp.store.peak_resident_bytes` gauges, plus process-wide totals via
//! [`crate::stats`] (what `pa-serve`'s `stats` verb reports).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use pa_mdp::fxhash::FxHashMap;

use crate::error::StoreError;
use crate::format::{MappedBlock, StoreFile};

static RESIDENT: AtomicU64 = AtomicU64::new(0);
static PEAK_RESIDENT: AtomicU64 = AtomicU64::new(0);
static FAULTS: AtomicU64 = AtomicU64::new(0);
static HITS: AtomicU64 = AtomicU64::new(0);
static EVICTIONS: AtomicU64 = AtomicU64::new(0);
static BUDGET: AtomicU64 = AtomicU64::new(0);
static CACHES: AtomicU64 = AtomicU64::new(0);

/// A process-wide snapshot of block-cache activity, summed over every live
/// [`BlockCache`] (counters also include caches that have since dropped).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Bytes of block payload currently resident across all caches.
    pub resident_bytes: u64,
    /// High-water mark of `resident_bytes` over the process lifetime.
    pub peak_resident_bytes: u64,
    /// Blocks paged in from disk.
    pub faults: u64,
    /// Block requests served from residency.
    pub hits: u64,
    /// Blocks dropped to enforce a budget.
    pub evictions: u64,
    /// Sum of the byte budgets of all live caches.
    pub budget_bytes: u64,
    /// Number of live caches.
    pub caches: u64,
}

/// The process-wide [`StoreStats`] snapshot.
pub fn stats() -> StoreStats {
    StoreStats {
        resident_bytes: RESIDENT.load(Ordering::Relaxed),
        peak_resident_bytes: PEAK_RESIDENT.load(Ordering::Relaxed),
        faults: FAULTS.load(Ordering::Relaxed),
        hits: HITS.load(Ordering::Relaxed),
        evictions: EVICTIONS.load(Ordering::Relaxed),
        budget_bytes: BUDGET.load(Ordering::Relaxed),
        caches: CACHES.load(Ordering::Relaxed),
    }
}

fn add_resident(bytes: u64) {
    let now = RESIDENT.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_RESIDENT.fetch_max(now, Ordering::Relaxed);
    if pa_telemetry::enabled() {
        pa_telemetry::gauge("mdp.store.resident_bytes").set(now as i64);
        pa_telemetry::gauge("mdp.store.peak_resident_bytes").set_max(now as i64);
    }
}

fn sub_resident(bytes: u64) {
    let now = RESIDENT.fetch_sub(bytes, Ordering::Relaxed) - bytes;
    if pa_telemetry::enabled() {
        pa_telemetry::gauge("mdp.store.resident_bytes").set(now as i64);
    }
}

struct Slot {
    block: Arc<MappedBlock>,
    last_use: u64,
    bytes: u64,
}

struct Inner {
    resident: FxHashMap<usize, Slot>,
    clock: u64,
    resident_bytes: u64,
    faults: u64,
    hits: u64,
    evictions: u64,
    peak_resident: u64,
}

/// An LRU cache of paged-in blocks with a byte budget. A block stays
/// resident while any caller holds its `Arc` (a pin); a fault first drops
/// least-recently-used unpinned blocks until the incoming block fits, and
/// admits it even if none is left to drop, so any budget down to one byte
/// terminates with peak residency at most the budget plus one block
/// beyond those pinned.
pub struct BlockCache {
    budget: u64,
    inner: Mutex<Inner>,
}

impl BlockCache {
    /// An empty cache that evicts past `budget` resident payload bytes.
    pub fn with_budget(budget: u64) -> BlockCache {
        BUDGET.fetch_add(budget, Ordering::Relaxed);
        CACHES.fetch_add(1, Ordering::Relaxed);
        BlockCache {
            budget,
            inner: Mutex::new(Inner {
                resident: FxHashMap::default(),
                clock: 0,
                resident_bytes: 0,
                faults: 0,
                hits: 0,
                evictions: 0,
                peak_resident: 0,
            }),
        }
    }

    /// The configured byte budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Returns block `idx` of `file`, faulting it in if not resident, then
    /// enforces the budget. The returned [`Arc`] pins the block: it cannot
    /// be evicted while the caller holds it.
    pub fn block(&self, file: &StoreFile, idx: usize) -> Result<Arc<MappedBlock>, StoreError> {
        let mut inner = self.inner.lock().expect("block cache poisoned");
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(slot) = inner.resident.get_mut(&idx) {
            slot.last_use = clock;
            let block = Arc::clone(&slot.block);
            inner.hits += 1;
            HITS.fetch_add(1, Ordering::Relaxed);
            if pa_telemetry::enabled() {
                pa_telemetry::counter("mdp.store.hits").inc();
            }
            return Ok(block);
        }
        // Fault: evict until the incoming block fits, then load and
        // digest-verify under the lock (the workspace's solvers are
        // single-threaded per model, so there is no concurrent load to
        // overlap with).
        let bytes = file.blocks()[idx].payload_len;
        let mut spare: Option<Arc<MappedBlock>> = None;
        while inner.resident_bytes + bytes > self.budget {
            // LRU victim among unpinned blocks: a count of one is the
            // slot's own `Arc`, and only this lock clones it.
            let victim = inner
                .resident
                .iter()
                .filter(|(_, s)| Arc::strong_count(&s.block) == 1)
                .min_by_key(|(_, s)| s.last_use)
                .map(|(&k, _)| k);
            let Some(victim) = victim else { break };
            let slot = inner.resident.remove(&victim).expect("victim resident");
            inner.resident_bytes -= slot.bytes;
            inner.evictions += 1;
            EVICTIONS.fetch_add(1, Ordering::Relaxed);
            sub_resident(slot.bytes);
            if pa_telemetry::enabled() {
                pa_telemetry::counter("mdp.store.evictions").inc();
            }
            if spare
                .as_ref()
                .is_none_or(|s| s.buffer_bytes() < slot.block.buffer_bytes())
            {
                spare = Some(slot.block);
            }
        }
        let block = match spare {
            Some(mut block) => {
                let reused = Arc::get_mut(&mut block).expect("an evicted block is unpinned");
                let buf = reused.take_buffer();
                *reused = file.load_block_into(idx, buf)?;
                block
            }
            None => Arc::new(file.load_block(idx)?),
        };
        inner.faults += 1;
        FAULTS.fetch_add(1, Ordering::Relaxed);
        if pa_telemetry::enabled() {
            pa_telemetry::counter("mdp.store.faults").inc();
        }
        inner.resident.insert(
            idx,
            Slot {
                block: Arc::clone(&block),
                last_use: clock,
                bytes,
            },
        );
        inner.resident_bytes += bytes;
        inner.peak_resident = inner.peak_resident.max(inner.resident_bytes);
        add_resident(bytes);
        Ok(block)
    }

    /// This cache's own activity snapshot (budget totals in
    /// `budget_bytes`, `caches == 1`).
    pub fn local_stats(&self) -> StoreStats {
        let inner = self.inner.lock().expect("block cache poisoned");
        StoreStats {
            resident_bytes: inner.resident_bytes,
            peak_resident_bytes: inner.peak_resident,
            faults: inner.faults,
            hits: inner.hits,
            evictions: inner.evictions,
            budget_bytes: self.budget,
            caches: 1,
        }
    }
}

impl Drop for BlockCache {
    fn drop(&mut self) {
        let inner = self.inner.get_mut().expect("block cache poisoned");
        if inner.resident_bytes > 0 {
            sub_resident(inner.resident_bytes);
        }
        BUDGET.fetch_sub(self.budget, Ordering::Relaxed);
        CACHES.fetch_sub(1, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for BlockCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.local_stats();
        f.debug_struct("BlockCache")
            .field("budget", &self.budget)
            .field("resident_bytes", &s.resident_bytes)
            .field("faults", &s.faults)
            .field("evictions", &s.evictions)
            .finish()
    }
}
