//! The shared model cache: explored fault-wrapped round models built once
//! per `(ring size, fault plan)` key, each held as the
//! [`pa_lehmann_rabin::ArrowChecker`] every job that queries it asks.
//!
//! # Why sharing is sound
//!
//! The per-analysis pipelines (`check_arrow_under`, `max_expected_time`)
//! each explore an arrow model whose starts are the analysis's *from*-set
//! and whose *to*-set is absorbing. The cache instead explores one shared
//! model per key with **every** reachable configuration as a start and
//! **no** absorption, and each query picks its own start subset and
//! target mask. The soundness argument, and why the answers are bitwise
//! equal, is in the module docs of `pa-lehmann-rabin`'s checker
//! ([`pa_lehmann_rabin::ArrowChecker`]).
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
//! over the resident model slots (the small reachable-config vectors are
//! not budgeted). Each successful build is accounted at its resident bytes —
//! the CSR rows, one region byte per state and the decoded starts, which
//! is all a slot keeps resident: exploration writes CSR rows directly, and
//! the state store is dropped once the checker has read its regions from
//! it. Rows dominate: a choice takes 5 bytes (a `u32` offset and a `u8`
//! cost) and a transition 5 (a `u32` target and a `u8` index into the
//! model's probability table), so the eight n = 3, 4 default-grid models
//! hold 48.1 MB of rows beside 7.8 MB of region bytes and starts. When
//! the resident total exceeds the budget, least-recently-used slots are
//! dropped (never the slot that was just touched, and never an error
//! slot) until the total fits or nothing evictable remains.
//!
//! The store is transient but sets the peak of a build: each model is
//! explored into a [`PackedSpace`] of [`FaultyStateCodec`] words, 32
//! bytes a state where a boxed `FaultyRoundState` takes 64, for every
//! round a plan can strike at up to n = 11. The eight models' stores
//! take 143.9 MB with their interner slots (239.9 MB boxed); the rows,
//! region bytes and starts are the same from either store.
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

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use pa_faults::{FaultChecker, FaultPlan, FaultyRoundMdp, FaultyStateCodec};
use pa_lehmann_rabin::{explore_checker, reachable_configs, Config, Quotient, RoundConfig};
use pa_mdp::PackedSpace;
use pa_telemetry::TelemetryScope;

use crate::report::CacheStats;

/// Heap bytes a shared model is accounted at when a cache enforces a byte
/// budget: the CSR rows plus the checker's region bytes and starts —
/// everything the slot keeps resident.
fn model_bytes(checker: &FaultChecker) -> u64 {
    checker.rows().mem_bytes() + checker.mem_bytes()
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

/// The keyed model cache shared by every job of a batch run — or, under
/// `pa-serve`, by every batch of a daemon's lifetime.
pub struct ModelCache {
    configs: Mutex<HashMap<usize, Entry<Vec<Config>>>>,
    models: Mutex<HashMap<(usize, FaultPlan), Entry<FaultChecker>>>,
    config_stats: MapStats,
    model_stats: MapStats,
    /// Byte budget over resident model slots; `None` = unbounded.
    budget: Option<u64>,
    /// Bytes currently accounted across live model slots.
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
            config_stats: MapStats::default(),
            model_stats: MapStats::default(),
            budget,
            resident: AtomicU64::new(0),
            clock: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            rebuilds: AtomicU64::new(0),
            scope: TelemetryScope::new("cache"),
        }
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
            let victim = {
                let models = self.models.lock().expect("cache map poisoned");
                models
                    .iter()
                    .filter(|(_, e)| e.bytes > 0 && e.last_use != protect)
                    .min_by_key(|(_, e)| e.last_use)
                    .map(|(key, _)| key.clone())
            };
            match victim {
                Some(key) => self.evict(&key),
                None => break,
            }
        }
    }

    /// Drops one slot, leaving the entry as a tombstone (see module docs).
    fn evict(&self, key: &(usize, FaultPlan)) {
        let mut map = self.models.lock().expect("cache map poisoned");
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
    /// Errors are stringified ring-validation or exploration errors,
    /// shared verbatim with every waiter of the slot.
    fn reachable(&self, n: usize, limit: usize) -> Result<Arc<Vec<Config>>, String> {
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

    /// The checker over the shared model of `(n, plan)`: explored from
    /// **all** reachable configurations, with no absorption, so valid for
    /// every arrow and expected-time query on the key (see the module
    /// docs). Built on first demand (and rebuilt bitwise identically if the budget evicted it
    /// since).
    ///
    /// # Errors
    ///
    /// Stringified plan-validation or exploration errors.
    pub fn model(
        &self,
        n: usize,
        plan: &FaultPlan,
        limit: usize,
    ) -> Result<Arc<FaultChecker>, String> {
        let key = (n, plan.clone());
        let (result, stamp) = self.get_or_build(
            &self.models,
            &self.model_stats,
            &key,
            "batch.cache.model_hits",
            "batch.cache.model_misses",
            model_bytes,
            || {
                let configs = self.reachable(n, limit)?;
                let cfg = RoundConfig::new(n).map_err(|e| e.to_string())?;
                let model = FaultyRoundMdp::new(cfg, plan.clone()).map_err(|e| e.to_string())?;
                let codec =
                    FaultyStateCodec::new(n, model.round_cap()).map_err(|e| e.to_string())?;
                // The state store is dropped here, before the slot is
                // filled: the checker keeps rows and region bytes only.
                let (_, checker, _) = explore_checker(
                    model,
                    &configs,
                    None,
                    limit,
                    Quotient::Full,
                    PackedSpace::new(codec),
                )
                .map_err(|e| e.to_string())?
                .expect("a shared model starts from every configuration");
                Ok(checker)
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

    /// Slots dropped by the byte budget over the cache's lifetime.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Builds that replaced an evicted slot (bitwise identical to the
    /// original build — see the module docs).
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds.load(Ordering::Relaxed)
    }

    /// Bytes currently accounted across live model slots.
    pub fn resident_bytes(&self) -> u64 {
        self.resident.load(Ordering::Relaxed)
    }

    /// The configured byte budget (`None` = unbounded).
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// Number of models currently live (tombstones of evicted keys are
    /// not counted).
    pub fn distinct_models(&self) -> usize {
        self.models
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
    ) -> Result<Arc<FaultChecker>, String> {
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
        assert_eq!(cache.resident_bytes(), model_bytes(&a));
    }

    /// A slot is accounted at what it keeps resident: the CSR rows, one
    /// region byte per state and the decoded starts (an id, a region byte
    /// and a state each), and no state store.
    #[test]
    fn resident_bytes_are_rows_region_bytes_and_starts() {
        let cache = ModelCache::new();
        let checker = cache.model(3, &FaultPlan::none(), 1_000_000).unwrap();
        let rows = checker.rows();
        let regions = rows.num_states() as u64;
        let start = std::mem::size_of::<(usize, u8, pa_faults::FaultyRoundState)>() as u64;
        let starts = rows.initial_states().len() as u64 * start;
        assert_eq!(checker.regions().len() as u64, regions);
        assert_eq!(cache.resident_bytes(), rows.mem_bytes() + regions + starts);
    }

    /// The n = 3 shared `none` model's rows at their compact width: a
    /// `u32` offset per state, an offset and a cost byte per choice, a
    /// target and a probability index byte per transition, a two-entry
    /// probability table (1/2 and 1) and the initial ids.
    #[test]
    fn n3_none_rows_take_five_bytes_per_choice_and_per_transition() {
        let cache = ModelCache::new();
        let checker = cache.model(3, &FaultPlan::none(), 1_000_000).unwrap();
        let rows = checker.rows();
        let (states, choices, trans) = (10_196, 18_309, 19_998);
        assert_eq!(
            (
                rows.num_states(),
                rows.num_choices(),
                rows.num_transitions()
            ),
            (states, choices, trans)
        );
        assert_eq!(rows.rows().prob_table, [1.0, 0.5]);
        let initial = rows.initial_states().len();
        let expected = 4 * (states + 1) + 5 * choices + 4 + 5 * trans + 2 * 8 + 8 * initial;
        assert_eq!(rows.mem_bytes(), expected as u64);
        assert_eq!(rows.mem_bytes(), 244_439);
    }

    /// The packed store the cache explores into hands the checker the
    /// same rows, region bytes and starts (id, region byte and state) as
    /// a boxed exploration of the same model: under every default plan,
    /// the checkers are equal field for field (their `Debug` forms).
    #[test]
    fn n3_shared_models_match_a_boxed_exploration() {
        const LIMIT: usize = 1_000_000;
        let cache = ModelCache::new();
        let configs = reachable_configs(3, LIMIT).unwrap();
        for (name, plan) in pa_faults::default_grid() {
            let packed = cache.model(3, &plan, LIMIT).unwrap();
            let model = FaultyRoundMdp::new(RoundConfig::new(3).unwrap(), plan).unwrap();
            let space = pa_mdp::BoxedSpace::default();
            let (_, boxed, _) =
                explore_checker(model, &configs, None, LIMIT, Quotient::Full, space)
                    .unwrap()
                    .unwrap();
            assert_eq!(packed.regions(), boxed.regions(), "{name}: region bytes");
            assert!(
                format!("{packed:?}") == format!("{boxed:?}"),
                "{name}: the packed and boxed checkers differ"
            );
        }
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
        assert_eq!(cache.resident_bytes(), model_bytes(&a) + model_bytes(&b));
    }

    /// Worst-case arrow probability on a shared model — the same question
    /// `run_arrow` asks.
    fn arrow_worst(checker: &FaultChecker, arrow: &pa_core::Arrow) -> f64 {
        let check = checker.arrow(arrow, |q| q).unwrap();
        assert!(check.states_checked > 0, "arrow source must be reachable");
        check.measured.lo().value()
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
        let one_model = model_bytes(&reference);

        let cache = ModelCache::with_budget(one_model + one_model / 2);
        let first = cache.model(3, &none, 1_000_000).unwrap();
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.resident_bytes(), model_bytes(&first));

        let second = cache.model(3, &crash, 1_000_000).unwrap();
        assert_eq!(cache.evictions(), 1, "LRU slot evicted to fit");
        assert_eq!(cache.resident_bytes(), model_bytes(&second));
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
        assert_eq!(cache.resident_bytes(), model_bytes(&rebuilt));
        assert_eq!(model_bytes(&rebuilt), model_bytes(&reference));
        assert_eq!(rebuilt.regions(), reference.regions());
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
    fn oversized_budget_never_evicts_and_tiny_budget_keeps_newest() {
        let none = FaultPlan::none();
        // A budget of one byte cannot hold anything, but the just-built
        // slot is protected: the cache stays one-model resident, evicting
        // only when the next build displaces it.
        let cache = ModelCache::with_budget(1);
        let a = cache.model(3, &none, 1_000_000).unwrap();
        assert_eq!(cache.evictions(), 0, "sole slot is never self-evicted");
        assert_eq!(cache.resident_bytes(), model_bytes(&a));
        let crash = FaultPlan::single(2, 0, FaultKind::CrashStop).unwrap();
        let b = cache.model(3, &crash, 1_000_000).unwrap();
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.resident_bytes(), model_bytes(&b));
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
        let one = model_bytes(&cold.model(3, &none, 1_000_000).unwrap());
        let tight = ModelCache::with_budget(one + one / 2);
        assert_eq!(drive(&CacheSession::new(&tight)), baseline);
        assert!(tight.evictions() > 0, "budget did force evictions");
        assert_eq!(drive(&CacheSession::new(&tight)), baseline);
    }
}
