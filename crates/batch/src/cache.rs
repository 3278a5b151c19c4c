//! The shared model cache: explored fault-wrapped round models built once
//! per `(ring size, fault plan)` key and reused by every job that queries
//! them.
//!
//! # Why sharing is sound
//!
//! The per-analysis pipelines (`check_arrow_under`, `max_expected_time`)
//! each build a model whose starts are the analysis's *from*-set and whose
//! *to*-set is absorbing. The cache instead builds one [`SharedModel`] per
//! key with **every** reachable configuration as a start and **no**
//! absorption, then lets each query pick its own start subset and target
//! mask:
//!
//! * Bounded reachability clamps target states to their value (1) at every
//!   budget level, so a target state's outgoing transitions — the only
//!   thing absorption removes — never influence any value. Every state of
//!   the per-analysis model appears in the shared model with an identical
//!   successor distribution, so per-state value arithmetic is the same
//!   f64 operations in the same order: the results are bitwise equal,
//!   which the cross-check tests pin.
//! * Expected-cost analyses clamp target states to 0 the same way; states
//!   from which an adversary avoids the target get `∞`, and
//!   [`pa_mdp::Analysis::worst_over`] only faults on *queried* infinite
//!   states, so reading just the analysis's start subset is safe.
//!
//! # Concurrency and determinism
//!
//! Each cache slot is a `OnceLock`: the first job to need a key builds it
//! while any racing jobs block on the same slot, so a model is built
//! exactly once per key no matter how the scheduler interleaves jobs.
//! Misses therefore equal the number of distinct keys demanded and hits
//! equal `accesses − misses − rebuilds` — all independent of worker
//! count, which the determinism tests (and the exact cache counts pinned
//! by `pa-bench`'s `pinned_invariants` test) rely on.
//!
//! Build work runs inside the cache's own [`TelemetryScope`] (entered
//! *nested* over the building job's scope), so exploration metrics are
//! attributed to the cache rather than to whichever job happened to get
//! there first — keeping per-job scoped metrics deterministic.
//!
//! # Eviction
//!
//! A cache built with [`ModelCache::with_budget`] enforces a byte budget
//! over the resident model slots (full-space and quotient; the small
//! reachable-config vectors are not budgeted). Each successful build is
//! accounted at [`SharedModel::mem_bytes`] — the CSR model plus the state
//! store, which is all a slot keeps resident since exploration writes CSR
//! rows directly (no nested model exists to count). When the resident
//! total exceeds the
//! budget, least-recently-used slots are dropped (never the slot that was
//! just touched, and never an error slot) until the total fits or nothing
//! evictable remains.
//!
//! Eviction keeps the key's map entry as a tombstone, so the lifetime
//! accounting stays stable: *misses* still count first-ever builds of
//! distinct keys, a re-demand of an evicted key is a *rebuild* (counted
//! separately, [`ModelCache::rebuilds`]), and `accesses = hits + misses +
//! rebuilds` holds under any eviction schedule. A rebuild re-runs the
//! exact deterministic exploration pipeline of the first build, so the
//! rebuilt model is bitwise identical and eviction is never observable in
//! results — only in the [`ModelCache::evictions`] /
//! [`ModelCache::resident_bytes`] counters and their telemetry mirrors
//! (`batch.cache.evictions`, `batch.cache.rebuilds`,
//! `batch.cache.resident_bytes`).
//!
//! # Per-batch statistics
//!
//! With a long-lived cache (the `pa-serve` daemon), the lifetime counters
//! above depend on what previous batches warmed and what the budget
//! evicted. The canonical [`crate::BatchReport`] must not: its digest is
//! pinned bitwise across worker counts, cache warmth, and eviction
//! schedules. [`CacheSession`] is the per-batch view jobs actually get —
//! it forwards every lookup to the shared cache and derives
//! [`crate::CacheStats`] purely from the batch's own access sequence
//! (distinct keys demanded = misses, the rest hits), reproducing exactly
//! the numbers a cold dedicated cache would report.
//!
//! # Quotient models
//!
//! [`ModelCache::model_quotient`] caches the rotation-quotient model of
//! the fault-free ring, keyed by ring size alone: orbit representatives
//! under [`pa_mdp::RingRotation`], stored bit-packed
//! ([`pa_faults::FaultyStateCodec`]). Everything downstream of the store —
//! `starts_where`, `target_where`, CSR queries — is generic over
//! [`pa_mdp::StateSpace`], so the full-space and quotient models run the
//! same analysis code; the tests pin their arrow answers bitwise equal.
//!
//! # Stored (out-of-core) models
//!
//! A cache configured with [`ModelCache::with_spill`] can additionally
//! hold *stored* quotient models ([`ModelCache::model_quotient_stored`]):
//! the exploration is routed through [`pa_store::SpillTo::spill_to`], the
//! CSR rows live in a `pa-store/csr/v1` file, and queries page blocks in
//! through a budgeted [`pa_store::BlockCache`]. Crucially, a stored slot
//! is accounted at [`pa_store::StoredModel::mem_bytes`] — the resident
//! state-space tables plus the *block-cache budget*, i.e. what the model
//! costs while held — **not** at the (arbitrarily larger) on-disk model
//! size. That is the whole point of spilling: a model far beyond the
//! cache's byte budget occupies only its configured cache slice, so the
//! budget keeps bounding peak RSS rather than disk. Stored slots
//! participate in the same LRU eviction as in-core slots; evicting one
//! drops its space tables and block cache while the file stays on disk,
//! and a rebuild rewrites the file bitwise identically (serial streamed
//! exploration is deterministic).

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use pa_faults::{
    faulty_round_cost, start_crash_mask, FaultPlan, FaultyRoundMdp, FaultyRoundState,
    FaultyStateCodec,
};
use pa_lehmann_rabin::{reachable_configs, reachable_configs_quotient, Config, RoundConfig};
use pa_mdp::{BoxedSpace, Explore, Explored, PackedSpace, RingRotation, StateSpace};
use pa_store::{SpillTo, StoredModel};
use pa_telemetry::TelemetryScope;

use crate::report::CacheStats;

/// A fault-wrapped round model explored from **all** reachable
/// configurations, with no absorption — valid for every arrow and
/// expected-time query on its `(n, plan)` key (see the module docs).
///
/// The state store is pluggable: the default boxed representation for
/// full-space models, [`PackedSpace`] for the quotient models of
/// [`ModelCache::model_quotient`]. Queries are representation-agnostic —
/// they run on the CSR model `explored.mdp` and only touch the store through
/// [`pa_mdp::StateSpace`].
pub struct SharedModel<SP = BoxedSpace<FaultyRoundState>> {
    /// Ring size.
    pub n: usize,
    /// The crash mask already in force when the clock starts (round-1
    /// non-drop events), the same mask `check_arrow_under` filters
    /// from-sets with.
    pub mask0: u32,
    /// The explored model: states, index, and the CSR model queries run
    /// on (`explored.mdp`).
    pub explored: Explored<FaultyRoundState, SP>,
}

/// The quotient [`SharedModel`]: orbit representatives under ring
/// rotation, bit-packed. Fault-free by construction (fault plans name
/// processes and break the symmetry).
pub type QuotientModel = SharedModel<PackedSpace<FaultyStateCodec>>;

/// The stored (out-of-core) counterpart of [`QuotientModel`]: the same
/// bit-packed orbit space resident, the CSR rows spilled to a
/// `pa-store/csr/v1` file and paged in through a budgeted block cache.
///
/// Mirrors the [`SharedModel`] query surface the jobs use
/// ([`StoredQuotientModel::starts_where`] plus the
/// [`pa_store::StoredModel`] accessors via [`StoredQuotientModel::model`]);
/// the block-streamed engines answer bitwise identically to the in-core
/// CSR kernels, which the tests pin.
#[derive(Debug)]
pub struct StoredQuotientModel {
    /// Ring size.
    pub n: usize,
    /// The spilled model: packed orbit space + stored rows.
    pub model: StoredModel<FaultyRoundState, PackedSpace<FaultyStateCodec>>,
}

impl StoredQuotientModel {
    /// Initial-state indices whose start configuration satisfies `pred`.
    /// The quotient is fault-free by construction, so the crash mask
    /// argument is always 0 — kept for signature parity with
    /// [`SharedModel::starts_where`].
    pub fn starts_where(&self, mut pred: impl FnMut(&Config, u32) -> bool) -> Vec<usize> {
        pa_mdp::CsrSource::initial_states(self.model.store())
            .iter()
            .copied()
            .filter(|&i| pred(&self.model.state(i).inner.config, 0))
            .collect()
    }

    /// Bytes this model is accounted at while cached: the resident space
    /// tables plus the block-cache budget — *not* the on-disk model size
    /// (see the module docs).
    pub fn mem_bytes(&self) -> u64 {
        self.model.mem_bytes()
    }
}

impl<SP: StateSpace<FaultyRoundState>> SharedModel<SP> {
    /// Initial-state indices whose start configuration satisfies `pred`
    /// (judged under [`SharedModel::mask0`], mirroring the from-set filter
    /// of `check_arrow_under`). Order follows the initial-state order,
    /// which is the reachable-configuration order — so worst-state
    /// tie-breaking matches the unshared pipeline.
    pub fn starts_where(&self, mut pred: impl FnMut(&Config, u32) -> bool) -> Vec<usize> {
        self.explored
            .mdp
            .initial_states()
            .iter()
            .copied()
            .filter(|&i| pred(&self.explored.state(i).inner.config, self.mask0))
            .collect()
    }

    /// Heap bytes this model is accounted at when a cache enforces a byte
    /// budget: the CSR arrays plus the state store (its estimate from
    /// [`StateSpace::mem_bytes`]) — everything the slot keeps resident.
    pub fn mem_bytes(&self) -> u64 {
        self.explored.mdp.mem_bytes() + self.explored.mem_bytes()
    }
}

/// One keyed slot plus its build provenance: whether running its
/// initializer is the key's first-ever build (a lifetime *miss*) or a
/// post-eviction *rebuild*.
struct SlotCell<T> {
    once: OnceLock<Result<Arc<T>, String>>,
    first: bool,
}

impl<T> SlotCell<T> {
    fn new(first: bool) -> Arc<SlotCell<T>> {
        Arc::new(SlotCell {
            once: OnceLock::new(),
            first,
        })
    }
}

/// A map entry: the live slot (`None` once evicted — the entry itself is
/// kept as a tombstone so miss accounting survives eviction), the bytes
/// the slot is accounted at (0 while building, for error slots, and after
/// eviction), and the LRU stamp of the last access.
struct Entry<T> {
    slot: Option<Arc<SlotCell<T>>>,
    bytes: u64,
    last_use: u64,
}

/// Cumulative access counts of one cache map.
#[derive(Debug, Default)]
struct MapStats {
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Which budgeted map an eviction victim lives in.
enum Victim {
    Model((usize, FaultPlan)),
    Quotient(usize),
    Stored(usize),
}

/// Where and how a spill-enabled cache puts stored models (see
/// [`ModelCache::with_spill`]).
struct SpillConfig {
    /// Directory holding one `quotient-n{n}/model.pacsr` per ring size.
    dir: PathBuf,
    /// Block-cache budget (payload bytes) per stored model.
    cache_budget: u64,
}

/// The keyed model cache shared by every job of a batch run — or, under
/// `pa-serve`, by every batch of a daemon's lifetime.
pub struct ModelCache {
    configs: Mutex<HashMap<usize, Entry<Vec<Config>>>>,
    models: Mutex<HashMap<(usize, FaultPlan), Entry<SharedModel>>>,
    quotient_models: Mutex<HashMap<usize, Entry<QuotientModel>>>,
    stored_models: Mutex<HashMap<usize, Entry<StoredQuotientModel>>>,
    config_stats: MapStats,
    model_stats: MapStats,
    quotient_stats: MapStats,
    stored_stats: MapStats,
    /// Spill directory + per-model block-cache budget; `None` means
    /// [`ModelCache::model_quotient_stored`] is unavailable.
    spill: Option<SpillConfig>,
    /// Byte budget over resident model slots; `None` = unbounded.
    budget: Option<u64>,
    /// Bytes currently accounted across live model + quotient slots.
    resident: AtomicU64,
    /// Monotonic LRU clock; every access stamps its entry.
    clock: AtomicU64,
    evictions: AtomicU64,
    rebuilds: AtomicU64,
    scope: TelemetryScope,
}

impl Default for ModelCache {
    fn default() -> ModelCache {
        ModelCache::new()
    }
}

impl ModelCache {
    /// An unbounded cache with its own `"cache"` telemetry scope.
    pub fn new() -> ModelCache {
        ModelCache::with_budget_opt(None)
    }

    /// A cache that evicts least-recently-used model slots once their
    /// accounted bytes exceed `budget` (see the module docs for what is
    /// accounted and what eviction can — and cannot — change).
    pub fn with_budget(budget: u64) -> ModelCache {
        ModelCache::with_budget_opt(Some(budget))
    }

    fn with_budget_opt(budget: Option<u64>) -> ModelCache {
        ModelCache {
            configs: Mutex::new(HashMap::new()),
            models: Mutex::new(HashMap::new()),
            quotient_models: Mutex::new(HashMap::new()),
            stored_models: Mutex::new(HashMap::new()),
            config_stats: MapStats::default(),
            model_stats: MapStats::default(),
            quotient_stats: MapStats::default(),
            stored_stats: MapStats::default(),
            spill: None,
            budget,
            resident: AtomicU64::new(0),
            clock: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            rebuilds: AtomicU64::new(0),
            scope: TelemetryScope::new("cache"),
        }
    }

    /// Enables [`ModelCache::model_quotient_stored`]: spilled models live
    /// under `dir` (one `quotient-n{n}/model.pacsr` per ring size) and
    /// each pages its rows through a block cache of `cache_budget` payload
    /// bytes. Stored slots are accounted at space tables + `cache_budget`
    /// — not the on-disk size — so a [`ModelCache::with_budget`] cache can
    /// hold models far beyond its byte budget (see the module docs).
    #[must_use]
    pub fn with_spill(mut self, dir: impl Into<PathBuf>, cache_budget: u64) -> ModelCache {
        self.spill = Some(SpillConfig {
            dir: dir.into(),
            cache_budget,
        });
        self
    }

    /// Core lookup: find-or-create the key's slot (stamping LRU), run the
    /// build exactly once per slot, account the result's bytes, and tally
    /// hit / miss / rebuild. Returns `(result, lru_stamp)` so budgeted
    /// callers can protect the touched entry while enforcing the budget.
    #[allow(clippy::too_many_arguments)]
    fn get_or_build<K: Clone + Eq + std::hash::Hash, T>(
        &self,
        map: &Mutex<HashMap<K, Entry<T>>>,
        stats: &MapStats,
        key: &K,
        hit_metric: &'static str,
        miss_metric: &'static str,
        size_of: impl FnOnce(&T) -> u64,
        build: impl FnOnce() -> Result<T, String>,
    ) -> (Result<Arc<T>, String>, u64) {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let cell = {
            use std::collections::hash_map::Entry as MapEntry;
            let mut map = map.lock().expect("cache map poisoned");
            match map.entry(key.clone()) {
                MapEntry::Vacant(vacant) => {
                    let cell = SlotCell::new(true);
                    vacant.insert(Entry {
                        slot: Some(cell.clone()),
                        bytes: 0,
                        last_use: stamp,
                    });
                    cell
                }
                MapEntry::Occupied(mut occupied) => {
                    let entry = occupied.get_mut();
                    entry.last_use = stamp;
                    match &entry.slot {
                        Some(cell) => cell.clone(),
                        None => {
                            // The entry is a tombstone of an evicted
                            // slot: building it again is a rebuild, not
                            // a first-demand miss.
                            let cell = SlotCell::new(false);
                            entry.slot = Some(cell.clone());
                            cell
                        }
                    }
                }
            }
        };
        let mut built = false;
        let result = cell.once.get_or_init(|| {
            built = true;
            if cell.first {
                stats.misses.fetch_add(1, Ordering::Relaxed);
            } else {
                self.rebuilds.fetch_add(1, Ordering::Relaxed);
            }
            // Attribute build work (exploration, CSR flattening) to the
            // cache's scope, nested over the triggering job's scope.
            let _in_cache = self.scope.enter();
            if cell.first {
                pa_telemetry::counter(miss_metric).inc();
            } else {
                pa_telemetry::counter("batch.cache.rebuilds").inc();
            }
            let _span = pa_telemetry::span("batch.cache.build_seconds");
            build().map(Arc::new)
        });
        if built {
            if let Ok(value) = result {
                let bytes = size_of(value);
                if bytes > 0 {
                    let mut map = map.lock().expect("cache map poisoned");
                    if let Some(entry) = map.get_mut(key) {
                        // Only account while our cell is still the live
                        // slot (a racing eviction cannot have removed it:
                        // victims need bytes > 0, and ours still has 0).
                        if entry
                            .slot
                            .as_ref()
                            .is_some_and(|live| Arc::ptr_eq(live, &cell))
                        {
                            entry.bytes = bytes;
                            self.resident.fetch_add(bytes, Ordering::Relaxed);
                        }
                    }
                    let _in_cache = self.scope.enter();
                    pa_telemetry::gauge("batch.cache.resident_bytes")
                        .set(self.resident.load(Ordering::Relaxed) as i64);
                }
            }
        } else {
            stats.hits.fetch_add(1, Ordering::Relaxed);
            let _in_cache = self.scope.enter();
            pa_telemetry::counter(hit_metric).inc();
        }
        (result.clone(), stamp)
    }

    /// Evicts least-recently-used model slots (skipping the entry stamped
    /// `protect` and anything without accounted bytes — in-flight builds,
    /// error slots, tombstones) until the resident total fits the budget
    /// or no victim remains.
    fn enforce_budget(&self, protect: u64) {
        let Some(budget) = self.budget else { return };
        while self.resident.load(Ordering::Relaxed) > budget {
            let mut victim: Option<(u64, Victim)> = None;
            {
                let models = self.models.lock().expect("cache map poisoned");
                for (key, entry) in models.iter() {
                    if entry.bytes > 0
                        && entry.last_use != protect
                        && victim.as_ref().is_none_or(|(lu, _)| entry.last_use < *lu)
                    {
                        victim = Some((entry.last_use, Victim::Model(key.clone())));
                    }
                }
            }
            {
                let quotients = self.quotient_models.lock().expect("cache map poisoned");
                for (key, entry) in quotients.iter() {
                    if entry.bytes > 0
                        && entry.last_use != protect
                        && victim.as_ref().is_none_or(|(lu, _)| entry.last_use < *lu)
                    {
                        victim = Some((entry.last_use, Victim::Quotient(*key)));
                    }
                }
            }
            {
                let stored = self.stored_models.lock().expect("cache map poisoned");
                for (key, entry) in stored.iter() {
                    if entry.bytes > 0
                        && entry.last_use != protect
                        && victim.as_ref().is_none_or(|(lu, _)| entry.last_use < *lu)
                    {
                        victim = Some((entry.last_use, Victim::Stored(*key)));
                    }
                }
            }
            match victim {
                Some((_, Victim::Model(key))) => self.evict(&self.models, &key),
                Some((_, Victim::Quotient(key))) => self.evict(&self.quotient_models, &key),
                Some((_, Victim::Stored(key))) => self.evict(&self.stored_models, &key),
                None => break,
            }
        }
    }

    /// Drops one slot, leaving the entry as a tombstone (see module docs).
    fn evict<K: Eq + std::hash::Hash, T>(&self, map: &Mutex<HashMap<K, Entry<T>>>, key: &K) {
        let mut map = map.lock().expect("cache map poisoned");
        if let Some(entry) = map.get_mut(key) {
            if entry.bytes > 0 {
                self.resident.fetch_sub(entry.bytes, Ordering::Relaxed);
                entry.bytes = 0;
                entry.slot = None;
                self.evictions.fetch_add(1, Ordering::Relaxed);
                let _in_cache = self.scope.enter();
                pa_telemetry::counter("batch.cache.evictions").inc();
                pa_telemetry::gauge("batch.cache.resident_bytes")
                    .set(self.resident.load(Ordering::Relaxed) as i64);
            }
        }
    }

    /// The reachable user-model configurations of a ring of `n`, explored
    /// once per ring size. Config slots are small and never budgeted.
    ///
    /// # Errors
    ///
    /// Stringified ring-validation or exploration errors (shared verbatim
    /// with every waiter of the slot).
    pub fn reachable(&self, n: usize, limit: usize) -> Result<Arc<Vec<Config>>, String> {
        self.get_or_build(
            &self.configs,
            &self.config_stats,
            &n,
            "batch.cache.config_hits",
            "batch.cache.config_misses",
            |_| 0,
            || reachable_configs(n, limit).map_err(|e| e.to_string()),
        )
        .0
    }

    /// The shared model of `(n, plan)`, built on first demand (and rebuilt
    /// bitwise identically if the budget evicted it since).
    ///
    /// # Errors
    ///
    /// Stringified plan-validation or exploration errors.
    pub fn model(
        &self,
        n: usize,
        plan: &FaultPlan,
        limit: usize,
    ) -> Result<Arc<SharedModel>, String> {
        let key = (n, plan.clone());
        let (result, stamp) = self.get_or_build(
            &self.models,
            &self.model_stats,
            &key,
            "batch.cache.model_hits",
            "batch.cache.model_misses",
            SharedModel::mem_bytes,
            || {
                let configs = self.reachable(n, limit)?;
                let cfg = RoundConfig::new(n).map_err(|e| e.to_string())?;
                let mask0 = start_crash_mask(plan);
                let model = FaultyRoundMdp::new(cfg, plan.clone())
                    .map_err(|e| e.to_string())?
                    .with_starts(configs.as_ref().clone());
                let explored = Explore::new(&model)
                    .cost(faulty_round_cost)
                    .limit(limit)
                    .parallel()
                    .run()
                    .map_err(|e| e.to_string())?;
                Ok(SharedModel { n, mask0, explored })
            },
        );
        self.enforce_budget(stamp);
        result
    }

    /// The quotient model of the fault-free ring of `n`: explored from the
    /// canonical (lexicographically-least rotation) representatives of the
    /// reachable configurations, with every successor folded onto its
    /// orbit representative and states stored bit-packed. Up to `n`-fold
    /// smaller than [`ModelCache::model`] with [`FaultPlan::none`], and
    /// every query on it answers for the whole orbit — the soundness
    /// argument is on `pa_lehmann_rabin::check_arrow_quotient`.
    ///
    /// There is deliberately no plan parameter: fault plans name processes
    /// and break rotation symmetry, so only the fault-free model has a
    /// sound quotient (`pa_faults::FaultError::SymmetryBroken` guards the
    /// same boundary in the survival pipeline).
    ///
    /// # Errors
    ///
    /// Stringified ring-validation, codec, or exploration errors.
    pub fn model_quotient(&self, n: usize, limit: usize) -> Result<Arc<QuotientModel>, String> {
        let (result, stamp) = self.get_or_build(
            &self.quotient_models,
            &self.quotient_stats,
            &n,
            "batch.cache.quotient_hits",
            "batch.cache.quotient_misses",
            SharedModel::mem_bytes,
            || {
                let configs = reachable_configs_quotient(n, limit).map_err(|e| e.to_string())?;
                let cfg = RoundConfig::new(n).map_err(|e| e.to_string())?;
                let model = FaultyRoundMdp::new(cfg, FaultPlan::none())
                    .map_err(|e| e.to_string())?
                    .with_starts(configs);
                let codec =
                    FaultyStateCodec::new(n, model.round_cap()).map_err(|e| e.to_string())?;
                let explored = Explore::new(&model)
                    .cost(faulty_round_cost)
                    .limit(limit)
                    .parallel()
                    .symmetry(RingRotation::new(n))
                    .run_in(PackedSpace::new(codec))
                    .map_err(|e| e.to_string())?;
                Ok(SharedModel {
                    n,
                    mask0: 0,
                    explored,
                })
            },
        );
        self.enforce_budget(stamp);
        result
    }

    /// The stored (out-of-core) quotient model of the fault-free ring of
    /// `n`: the same exploration as [`ModelCache::model_quotient`], routed
    /// through [`pa_store::SpillTo::spill_to`] so the CSR rows live on
    /// disk and queries page them in through the configured block-cache
    /// budget. Requires [`ModelCache::with_spill`].
    ///
    /// The slot is accounted at [`StoredQuotientModel::mem_bytes`] —
    /// resident space tables plus the block-cache budget, not the on-disk
    /// model size — and participates in LRU eviction like any other slot.
    /// Answers are bitwise identical to the in-core quotient's for any
    /// budget (stored and in-core queries run the same solver kernels).
    ///
    /// # Errors
    ///
    /// `"cache has no spill directory"` if the cache was built without
    /// [`ModelCache::with_spill`]; otherwise stringified ring-validation,
    /// codec, exploration, or store I/O errors.
    pub fn model_quotient_stored(
        &self,
        n: usize,
        limit: usize,
    ) -> Result<Arc<StoredQuotientModel>, String> {
        let Some(spill) = &self.spill else {
            return Err("cache has no spill directory (ModelCache::with_spill)".to_string());
        };
        let dir = spill.dir.join(format!("quotient-n{n}"));
        let cache_budget = spill.cache_budget;
        let (result, stamp) = self.get_or_build(
            &self.stored_models,
            &self.stored_stats,
            &n,
            "batch.cache.stored_hits",
            "batch.cache.stored_misses",
            StoredQuotientModel::mem_bytes,
            || {
                let configs = reachable_configs_quotient(n, limit).map_err(|e| e.to_string())?;
                let cfg = RoundConfig::new(n).map_err(|e| e.to_string())?;
                let model = FaultyRoundMdp::new(cfg, FaultPlan::none())
                    .map_err(|e| e.to_string())?
                    .with_starts(configs);
                let codec =
                    FaultyStateCodec::new(n, model.round_cap()).map_err(|e| e.to_string())?;
                let stored = Explore::new(&model)
                    .cost(faulty_round_cost)
                    .limit(limit)
                    .symmetry(RingRotation::new(n))
                    .spill_to(&dir, cache_budget)
                    .run_in(PackedSpace::new(codec))
                    .map_err(|e| e.to_string())?;
                Ok(StoredQuotientModel { n, model: stored })
            },
        );
        self.enforce_budget(stamp);
        result
    }

    /// Model-map hits (accesses that found a built or in-flight slot).
    pub fn model_hits(&self) -> u64 {
        self.model_stats.hits.load(Ordering::Relaxed)
    }

    /// Model-map misses: first-ever builds, equal to the number of
    /// distinct `(n, plan)` keys demanded over the cache's lifetime
    /// (eviction does not reset them — a re-demand is a rebuild).
    pub fn model_misses(&self) -> u64 {
        self.model_stats.misses.load(Ordering::Relaxed)
    }

    /// Config-map hits.
    pub fn config_hits(&self) -> u64 {
        self.config_stats.hits.load(Ordering::Relaxed)
    }

    /// Config-map misses (distinct ring sizes explored).
    pub fn config_misses(&self) -> u64 {
        self.config_stats.misses.load(Ordering::Relaxed)
    }

    /// Quotient-map hits.
    pub fn quotient_hits(&self) -> u64 {
        self.quotient_stats.hits.load(Ordering::Relaxed)
    }

    /// Quotient-map misses (distinct ring sizes quotient-explored).
    pub fn quotient_misses(&self) -> u64 {
        self.quotient_stats.misses.load(Ordering::Relaxed)
    }

    /// Stored-map hits.
    pub fn stored_hits(&self) -> u64 {
        self.stored_stats.hits.load(Ordering::Relaxed)
    }

    /// Stored-map misses (distinct ring sizes spilled to disk).
    pub fn stored_misses(&self) -> u64 {
        self.stored_stats.misses.load(Ordering::Relaxed)
    }

    /// Slots dropped by the byte budget over the cache's lifetime.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Builds that replaced an evicted slot (bitwise identical to the
    /// original build — see the module docs).
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds.load(Ordering::Relaxed)
    }

    /// Bytes currently accounted across live model and quotient slots.
    pub fn resident_bytes(&self) -> u64 {
        self.resident.load(Ordering::Relaxed)
    }

    /// The configured byte budget (`None` = unbounded).
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// Number of full-space models currently live (tombstones of evicted
    /// keys are not counted).
    pub fn distinct_models(&self) -> usize {
        self.models
            .lock()
            .expect("cache map poisoned")
            .values()
            .filter(|e| e.slot.is_some())
            .count()
    }

    /// Number of quotient models currently live.
    pub fn distinct_quotient_models(&self) -> usize {
        self.quotient_models
            .lock()
            .expect("cache map poisoned")
            .values()
            .filter(|e| e.slot.is_some())
            .count()
    }

    /// Number of stored (out-of-core) models currently live.
    pub fn distinct_stored_models(&self) -> usize {
        self.stored_models
            .lock()
            .expect("cache map poisoned")
            .values()
            .filter(|e| e.slot.is_some())
            .count()
    }

    /// The cache's telemetry scope (exploration and flattening metrics of
    /// every build land here).
    pub fn scope(&self) -> &TelemetryScope {
        &self.scope
    }
}

/// The per-batch view of a shared [`ModelCache`] that jobs actually get
/// ([`crate::JobCtx::cache`]).
///
/// Every lookup forwards to the shared cache; alongside, the session
/// records the batch's own access sequence and derives the canonical
/// [`CacheStats`] from it alone: per map, *misses* are the distinct keys
/// this batch demanded and *hits* are the remaining accesses — exactly
/// what a cold, dedicated, unbounded cache would have reported for the
/// same job set. That keeps the [`crate::BatchReport`] digest invariant
/// under cache warmth, eviction schedules, and worker counts, which the
/// `pa-serve` determinism contract (and the bench `serve` block) pin.
pub struct CacheSession<'c> {
    cache: &'c ModelCache,
    state: Mutex<SessionState>,
}

#[derive(Default)]
struct SessionState {
    model_accesses: u64,
    model_keys: HashSet<(usize, FaultPlan)>,
    config_accesses: u64,
    config_keys: HashSet<usize>,
}

impl<'c> CacheSession<'c> {
    /// A fresh session over `cache` with zeroed per-batch statistics.
    pub fn new(cache: &'c ModelCache) -> CacheSession<'c> {
        CacheSession {
            cache,
            state: Mutex::new(SessionState::default()),
        }
    }

    /// The shared cache behind this session.
    pub fn cache(&self) -> &'c ModelCache {
        self.cache
    }

    /// [`ModelCache::model`], counted as one model access — and, on the
    /// key's first demand *this batch*, one config access too (a dedicated
    /// cache would have built the model, consuming the config slot once).
    ///
    /// # Errors
    ///
    /// As [`ModelCache::model`].
    pub fn model(
        &self,
        n: usize,
        plan: &FaultPlan,
        limit: usize,
    ) -> Result<Arc<SharedModel>, String> {
        {
            let mut st = self.state.lock().expect("session stats poisoned");
            st.model_accesses += 1;
            if st.model_keys.insert((n, plan.clone())) {
                st.config_accesses += 1;
                st.config_keys.insert(n);
            }
        }
        self.cache.model(n, plan, limit)
    }

    /// [`ModelCache::reachable`], counted as one config access.
    ///
    /// # Errors
    ///
    /// As [`ModelCache::reachable`].
    pub fn reachable(&self, n: usize, limit: usize) -> Result<Arc<Vec<Config>>, String> {
        {
            let mut st = self.state.lock().expect("session stats poisoned");
            st.config_accesses += 1;
            st.config_keys.insert(n);
        }
        self.cache.reachable(n, limit)
    }

    /// [`ModelCache::model_quotient`] (quotient demands have no canonical
    /// counter — the v1 canonical schema predates them).
    ///
    /// # Errors
    ///
    /// As [`ModelCache::model_quotient`].
    pub fn model_quotient(&self, n: usize, limit: usize) -> Result<Arc<QuotientModel>, String> {
        self.cache.model_quotient(n, limit)
    }

    /// The canonical per-batch statistics (see the type docs for why they
    /// are a function of the job set only).
    pub fn stats(&self) -> CacheStats {
        let st = self.state.lock().expect("session stats poisoned");
        CacheStats {
            model_hits: st.model_accesses - st.model_keys.len() as u64,
            model_misses: st.model_keys.len() as u64,
            config_hits: st.config_accesses - st.config_keys.len() as u64,
            config_misses: st.config_keys.len() as u64,
            distinct_models: st.model_keys.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_faults::FaultKind;

    #[test]
    fn second_access_hits_and_shares_the_arc() {
        let cache = ModelCache::new();
        let plan = FaultPlan::none();
        let a = cache.model(3, &plan, 1_000_000).unwrap();
        let b = cache.model(3, &plan, 1_000_000).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.model_misses(), 1);
        assert_eq!(cache.model_hits(), 1);
        // The model build consumed the config cache once.
        assert_eq!(cache.config_misses(), 1);
        assert_eq!(cache.distinct_models(), 1);
        // Unbounded cache: nothing evicted, nothing rebuilt.
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.rebuilds(), 0);
        assert_eq!(cache.resident_bytes(), a.mem_bytes());
    }

    #[test]
    fn distinct_plans_get_distinct_models() {
        let cache = ModelCache::new();
        let none = FaultPlan::none();
        let crash = FaultPlan::single(2, 0, FaultKind::CrashStop).unwrap();
        let a = cache.model(3, &none, 1_000_000).unwrap();
        let b = cache.model(3, &crash, 1_000_000).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.model_misses(), 2);
        assert_eq!(cache.distinct_models(), 2);
        // Both models reused the one reachable-config exploration.
        assert_eq!(cache.config_misses(), 1);
        assert_eq!(cache.config_hits(), 1);
        // Resident accounting sums the live slots.
        assert_eq!(cache.resident_bytes(), a.mem_bytes() + b.mem_bytes());
    }

    #[test]
    fn quotient_models_are_cached_per_ring_size() {
        let cache = ModelCache::new();
        let a = cache.model_quotient(3, 1_000_000).unwrap();
        let b = cache.model_quotient(3, 1_000_000).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.quotient_misses(), 1);
        assert_eq!(cache.quotient_hits(), 1);
        assert_eq!(cache.distinct_quotient_models(), 1);
        // The quotient map is independent of the full-space model map.
        assert_eq!(cache.model_misses(), 0);
        // And genuinely smaller than the full space.
        let full = cache.model(3, &FaultPlan::none(), 1_000_000).unwrap();
        assert!(a.explored.num_states() < full.explored.num_states());
    }

    /// Worst-case arrow probability on a shared model, representation- and
    /// quotient-agnostic — the same query `run_arrow` issues.
    fn arrow_worst<SP: StateSpace<FaultyRoundState>>(
        model: &SharedModel<SP>,
        arrow: &pa_core::Arrow,
    ) -> f64 {
        let from = pa_faults::set_pred_under(arrow.from()).unwrap();
        let to = pa_faults::set_pred_under(arrow.to()).unwrap();
        let starts = model.starts_where(|c, m| from(c, m));
        let n = model.n;
        let target = model
            .explored
            .target_where(|s| to(&s.inner.config, s.crashed_mask(n)));
        pa_mdp::Query::csr(&model.explored.mdp)
            .objective(pa_mdp::QueryObjective::MinProb)
            .target(target)
            .horizon(pa_lehmann_rabin::time_to_budget(arrow.time()))
            .run()
            .unwrap()
            .worst_over(&starts)
            .unwrap()
            .expect("arrow source must be reachable")
            .1
    }

    #[test]
    fn quotient_model_answers_match_the_full_model_bitwise_at_n3() {
        let cache = ModelCache::new();
        let full = cache.model(3, &FaultPlan::none(), 1_000_000).unwrap();
        let quot = cache.model_quotient(3, 1_000_000).unwrap();
        for (arrow, _why) in pa_lehmann_rabin::paper::all_arrows() {
            let on_full = arrow_worst(full.as_ref(), &arrow);
            let on_quot = arrow_worst(quot.as_ref(), &arrow);
            assert_eq!(
                on_full.to_bits(),
                on_quot.to_bits(),
                "{arrow}: full {on_full} vs quotient {on_quot}"
            );
        }
    }

    /// [`arrow_worst`] over the stored backend: same predicates, same
    /// query, block-streamed engines.
    fn arrow_worst_stored(model: &StoredQuotientModel, arrow: &pa_core::Arrow) -> f64 {
        let from = pa_faults::set_pred_under(arrow.from()).unwrap();
        let to = pa_faults::set_pred_under(arrow.to()).unwrap();
        let starts = model.starts_where(|c, m| from(c, m));
        let n = model.n;
        model
            .model
            .query_where(|s| to(&s.inner.config, s.crashed_mask(n)))
            .objective(pa_mdp::QueryObjective::MinProb)
            .horizon(pa_lehmann_rabin::time_to_budget(arrow.time()))
            .run()
            .unwrap()
            .worst_over(&starts)
            .unwrap()
            .expect("arrow source must be reachable")
            .1
    }

    fn spill_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("pa-batch-cache-spill-{}-{tag}", std::process::id()))
    }

    #[test]
    fn stored_quotient_answers_match_the_in_core_quotient_bitwise() {
        let dir = spill_dir("parity");
        // A one-byte block-cache budget: at most one block resident per
        // sweep, the harshest paging schedule.
        let cache = ModelCache::new().with_spill(&dir, 1);
        let quot = cache.model_quotient(3, 1_000_000).unwrap();
        let stored = cache.model_quotient_stored(3, 1_000_000).unwrap();
        assert_eq!(
            stored.model.num_states(),
            quot.explored.num_states(),
            "same orbit space"
        );
        for (arrow, _why) in pa_lehmann_rabin::paper::all_arrows() {
            assert_eq!(
                arrow_worst(quot.as_ref(), &arrow).to_bits(),
                arrow_worst_stored(stored.as_ref(), &arrow).to_bits(),
                "{arrow}: stored backend must answer bitwise identically"
            );
        }
        assert_eq!(cache.stored_misses(), 1);
        let again = cache.model_quotient_stored(3, 1_000_000).unwrap();
        assert!(Arc::ptr_eq(&stored, &again));
        assert_eq!(cache.stored_hits(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stored_models_are_accounted_at_cache_size_not_model_size() {
        let dir = spill_dir("accounting");
        let budget = 4096u64;
        let cache = ModelCache::new().with_spill(&dir, budget);
        let stored = cache.model_quotient_stored(3, 1_000_000).unwrap();
        // The contract: space tables + block-cache budget, independent of
        // how many bytes of CSR rows sit on disk.
        assert_eq!(
            stored.mem_bytes(),
            stored.model.space().mem_bytes() + budget
        );
        assert_eq!(cache.resident_bytes(), stored.mem_bytes());
        // And genuinely cheaper than holding the in-core quotient.
        let quot = cache.model_quotient(3, 1_000_000).unwrap();
        assert!(stored.mem_bytes() < quot.mem_bytes());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stored_slots_participate_in_eviction_and_rebuild_bitwise() {
        let dir = spill_dir("evict");
        let probe = ModelCache::new().with_spill(&dir, 4096);
        let reference = probe.model_quotient_stored(3, 1_000_000).unwrap();
        let one_slot = reference.mem_bytes();

        // Budget fits one stored slot but not two distinct maps' worth:
        // building the (larger) in-core quotient must evict the stored LRU.
        let cache = ModelCache::with_budget(one_slot + one_slot / 2).with_spill(&dir, 4096);
        let first = cache.model_quotient_stored(3, 1_000_000).unwrap();
        assert_eq!(cache.evictions(), 0);
        cache.model_quotient(3, 1_000_000).unwrap();
        assert!(cache.evictions() >= 1, "stored slot evicted to fit");
        assert_eq!(cache.distinct_stored_models(), 0, "tombstone is not live");

        // Re-demand rebuilds (not a miss) bitwise identically — the spill
        // file is rewritten by the same deterministic serial exploration.
        let rebuilt = cache.model_quotient_stored(3, 1_000_000).unwrap();
        assert!(!Arc::ptr_eq(&first, &rebuilt));
        assert_eq!(cache.stored_misses(), 1, "rebuild is not a miss");
        assert!(cache.rebuilds() >= 1);
        for (arrow, _why) in pa_lehmann_rabin::paper::all_arrows() {
            assert_eq!(
                arrow_worst_stored(reference.as_ref(), &arrow).to_bits(),
                arrow_worst_stored(rebuilt.as_ref(), &arrow).to_bits(),
                "{arrow}: rebuilt stored model must answer bitwise identically"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spill_less_cache_refuses_stored_lookups_with_a_named_error() {
        let cache = ModelCache::new();
        let err = cache.model_quotient_stored(3, 1_000_000).unwrap_err();
        assert!(err.contains("spill"), "{err}");
        assert_eq!(cache.stored_misses(), 0, "refusal is not a build");
    }

    #[test]
    fn errors_are_cached_and_shared() {
        let cache = ModelCache::new();
        let plan = FaultPlan::none();
        let first = cache.model(3, &plan, 2);
        let second = cache.model(3, &plan, 2);
        assert!(first.is_err());
        assert_eq!(first.err(), second.err());
        assert_eq!(cache.model_misses(), 1, "failed build is not retried");
        assert_eq!(cache.model_hits(), 1);
        // Error slots are never accounted or evicted.
        assert_eq!(cache.resident_bytes(), 0);
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn budget_evicts_lru_and_rebuilds_bitwise_identical() {
        // Budget fits one n=3 model but not two: demanding a second plan
        // must evict the least-recently-used first one.
        let unbounded = ModelCache::new();
        let none = FaultPlan::none();
        let crash = FaultPlan::single(2, 0, FaultKind::CrashStop).unwrap();
        let reference = unbounded.model(3, &none, 1_000_000).unwrap();
        let one_model = reference.mem_bytes();

        let cache = ModelCache::with_budget(one_model + one_model / 2);
        let first = cache.model(3, &none, 1_000_000).unwrap();
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.resident_bytes(), first.mem_bytes());

        let second = cache.model(3, &crash, 1_000_000).unwrap();
        assert_eq!(cache.evictions(), 1, "LRU slot evicted to fit");
        assert_eq!(cache.resident_bytes(), second.mem_bytes());
        assert_eq!(cache.distinct_models(), 1, "tombstone is not live");
        assert_eq!(cache.model_misses(), 2);
        assert_eq!(cache.rebuilds(), 0);

        // Re-demanding the evicted key rebuilds — not a miss, and the
        // rebuilt model is bitwise identical to the unbounded build.
        let rebuilt = cache.model(3, &none, 1_000_000).unwrap();
        assert!(!Arc::ptr_eq(&first, &rebuilt));
        assert_eq!(cache.rebuilds(), 1);
        assert_eq!(cache.model_misses(), 2, "rebuild is not a miss");
        assert_eq!(cache.evictions(), 2, "the other slot got evicted");
        assert_eq!(cache.resident_bytes(), rebuilt.mem_bytes());
        assert_eq!(rebuilt.mem_bytes(), reference.mem_bytes());
        assert_eq!(
            rebuilt.explored.num_states(),
            reference.explored.num_states()
        );
        for (arrow, _why) in pa_lehmann_rabin::paper::all_arrows() {
            assert_eq!(
                arrow_worst(rebuilt.as_ref(), &arrow).to_bits(),
                arrow_worst(reference.as_ref(), &arrow).to_bits(),
                "{arrow}: rebuilt model must answer bitwise identically"
            );
        }
        // Accesses decompose exactly: 3 calls = 2 misses + 1 rebuild.
        assert_eq!(cache.model_hits(), 0);
    }

    #[test]
    fn resident_bytes_tracks_the_sum_of_live_slots() {
        let cache = ModelCache::new();
        assert_eq!(cache.resident_bytes(), 0);
        let full = cache.model(3, &FaultPlan::none(), 1_000_000).unwrap();
        assert_eq!(cache.resident_bytes(), full.mem_bytes());
        let quot = cache.model_quotient(3, 1_000_000).unwrap();
        assert_eq!(cache.resident_bytes(), full.mem_bytes() + quot.mem_bytes());
        assert!(quot.mem_bytes() > 0, "quotient slots are accounted too");
    }

    #[test]
    fn oversized_budget_never_evicts_and_tiny_budget_keeps_newest() {
        let none = FaultPlan::none();
        // A budget of one byte cannot hold anything, but the just-built
        // slot is protected: the cache stays one-model resident, evicting
        // only when the next build displaces it.
        let cache = ModelCache::with_budget(1);
        let a = cache.model(3, &none, 1_000_000).unwrap();
        assert_eq!(cache.evictions(), 0, "sole slot is never self-evicted");
        assert_eq!(cache.resident_bytes(), a.mem_bytes());
        let crash = FaultPlan::single(2, 0, FaultKind::CrashStop).unwrap();
        let b = cache.model(3, &crash, 1_000_000).unwrap();
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.resident_bytes(), b.mem_bytes());
    }

    #[test]
    fn session_stats_are_warmth_and_eviction_invariant() {
        let none = FaultPlan::none();
        let crash = FaultPlan::single(2, 0, FaultKind::CrashStop).unwrap();
        let drive = |session: &CacheSession| {
            session.model(3, &none, 1_000_000).unwrap();
            session.model(3, &crash, 1_000_000).unwrap();
            session.model(3, &none, 1_000_000).unwrap();
            session.stats()
        };

        // Cold, unbounded — the baseline a dedicated cache would report.
        let cold = ModelCache::new();
        let baseline = drive(&CacheSession::new(&cold));
        assert_eq!(baseline.model_misses, 2);
        assert_eq!(baseline.model_hits, 1);
        assert_eq!(baseline.config_misses, 1);
        assert_eq!(baseline.config_hits, 1);
        assert_eq!(baseline.distinct_models, 2);

        // Warm: a second session over the same cache reports identically.
        assert_eq!(drive(&CacheSession::new(&cold)), baseline);

        // Evicting: a budget that thrashes reports identically too.
        let one = cold.model(3, &none, 1_000_000).unwrap().mem_bytes();
        let tight = ModelCache::with_budget(one + one / 2);
        assert_eq!(drive(&CacheSession::new(&tight)), baseline);
        assert!(tight.evictions() > 0, "budget did force evictions");
        assert_eq!(drive(&CacheSession::new(&tight)), baseline);
    }
}
