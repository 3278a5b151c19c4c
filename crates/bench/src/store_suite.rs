//! The out-of-core probe behind `tables --store`.
//!
//! The `n = 4` rotation-quotient model is spilled to a multi-block
//! `pa-store/csr/v2` file (4 KiB blocks, so even this small model splits)
//! and re-queried through the block-streamed engines at two cache
//! budgets: unbounded and one byte (exactly one resident block). Every
//! paper arrow's full value vector is digested for all three backends.
//! [`StoreBench::check`] then holds the run to its pinned shape and
//! digest, eviction liveness, the paging-residency bound and the
//! one-pass-per-budget-level fault bound.

use std::time::Instant;

use pa_faults::{faulty_round_cost, FaultPlan};
use pa_lehmann_rabin::{paper, RoundConfig};
use pa_mdp::{Explore, Query, QueryObjective, RingRotation};

/// Orbit states of the spilled `n = 4` fault-free quotient.
pub const PINNED_STATES: u64 = 55_502;
/// CSR blocks of the spill file at [`PINNED_BLOCK_BYTES`].
pub const PINNED_CSR_BLOCKS: u64 = 377;
/// Target payload bytes per block the writer is configured with.
pub const PINNED_BLOCK_BYTES: u64 = 4096;
/// FNV-64 digest of the five arrows' value vectors, on every backend.
pub const PINNED_DIGEST: &str = "1fdd989c9731faba";

/// What one `tables --store` run measured.
#[derive(Debug, Clone)]
pub struct StoreBench {
    /// Ring size of the probe model.
    pub n: usize,
    /// Orbit states spilled.
    pub states: u64,
    /// CSR blocks in the spill file.
    pub csr_blocks: u64,
    /// Target payload bytes per block the writer was configured with.
    pub block_bytes: u64,
    /// On-disk bytes of the finished spill file.
    pub file_bytes: u64,
    /// Largest single CSR block payload, bytes.
    pub max_block_payload: u64,
    /// FNV-64 digest over the five paper arrows' full value vectors,
    /// in-core CSR engine.
    pub digest_in_core: String,
    /// The same digest from the stored backend, unbounded block cache.
    pub digest_unbounded: String,
    /// The same digest from the stored backend at a one-byte budget
    /// (exactly one resident block at a time).
    pub digest_one_block: String,
    /// Block faults of the tight-budget run.
    pub faults: u64,
    /// Budget levels the five arrows solve, `Σ (budget + 1)`. One paging
    /// pass per level bounds the tight-budget faults by
    /// `csr_blocks × levels`.
    pub levels: u64,
    /// Solver sweeps of the tight-budget run (one per level on a model
    /// whose zero-cost edges all point to higher state ids).
    pub sweeps: u64,
    /// Block-cache hits of the tight-budget run.
    pub hits: u64,
    /// Evictions of the tight-budget run.
    pub evictions: u64,
    /// Peak resident payload bytes of the tight-budget run's cache.
    pub peak_resident_bytes: u64,
    /// Wall seconds of the five tight-budget queries.
    pub query_seconds: f64,
}

impl StoreBench {
    /// Every way this run departs from its contract, one message each;
    /// empty means the probe passed.
    ///
    /// - The shape is pinned: [`PINNED_STATES`] states in
    ///   [`PINNED_CSR_BLOCKS`] blocks of [`PINNED_BLOCK_BYTES`].
    /// - All three digests equal [`PINNED_DIGEST`].
    /// - The one-block run faulted and evicted (otherwise its digest
    ///   passed without paging pressure).
    /// - Peak residency stayed within the one-byte budget plus one
    ///   block: a fault evicts before it reads the incoming block in.
    /// - The one-block run paged at most `csr_blocks × levels` blocks,
    ///   one pass per budget level.
    #[must_use]
    pub fn check(&self) -> Vec<String> {
        let mut failures = Vec::new();
        for (what, got, want) in [
            ("states", self.states, PINNED_STATES),
            ("CSR blocks", self.csr_blocks, PINNED_CSR_BLOCKS),
            ("block bytes", self.block_bytes, PINNED_BLOCK_BYTES),
        ] {
            if got != want {
                failures.push(format!("{what}: expected {want}, got {got}"));
            }
        }
        for (what, digest) in [
            ("in-core", &self.digest_in_core),
            ("unbounded", &self.digest_unbounded),
            ("one-block", &self.digest_one_block),
        ] {
            if digest != PINNED_DIGEST {
                failures.push(format!(
                    "{what} digest: expected {PINNED_DIGEST}, got {digest}"
                ));
            }
        }
        if self.faults == 0 || self.evictions == 0 {
            failures.push(format!(
                "one-block run was vacuous: {} faults, {} evictions",
                self.faults, self.evictions
            ));
        }
        if self.peak_resident_bytes > 1 + self.max_block_payload {
            failures.push(format!(
                "peak resident {} bytes exceeded budget + one block ({} max payload)",
                self.peak_resident_bytes, self.max_block_payload,
            ));
        }
        let fault_bound = self.csr_blocks * self.levels;
        if self.faults > fault_bound {
            failures.push(format!(
                "one-block run paged {} blocks, more than {} CSR blocks x {} levels = {}",
                self.faults, self.csr_blocks, self.levels, fault_bound,
            ));
        }
        failures
    }
}

/// Runs the probe; see the module docs. The spill directory lives under
/// the system temp dir and is removed before returning (verified — a
/// stale directory fails the run).
pub fn store_bench(limit: usize) -> Result<StoreBench, Box<dyn std::error::Error>> {
    use pa_faults::{set_pred_under, FaultyStateCodec};
    use pa_lehmann_rabin::{reachable_configs_quotient, time_to_budget};
    use pa_mdp::PackedSpace;
    use pa_store::{SpillTo, StoredCsr};

    let n = 4usize;
    let block_bytes = 4096usize;
    let configs = reachable_configs_quotient(n, limit)?;
    let cfg = RoundConfig::new(n)?;
    let model = pa_faults::FaultyRoundMdp::new(cfg, FaultPlan::none())?.with_starts(configs);
    let codec = FaultyStateCodec::new(n, model.round_cap())?;

    // In-core reference: the exact quotient pipeline the cache runs.
    let explored = Explore::new(&model)
        .cost(faulty_round_cost)
        .limit(limit)
        .symmetry(RingRotation::new(n))
        .run_in(PackedSpace::new(codec))?;
    let csr = &explored.mdp;

    let arrows = paper::all_arrows();
    let masks: Vec<(Vec<bool>, u32)> = arrows
        .iter()
        .map(|(arrow, _)| {
            let to = set_pred_under(arrow.to()).expect("paper arrows resolve");
            (
                explored.target_where(|s| to(&s.inner.config, s.crashed_mask(n))),
                time_to_budget(arrow.time()),
            )
        })
        .collect();

    let digest_of = |vectors: &[Vec<f64>]| {
        let mut bytes = Vec::with_capacity(vectors.iter().map(Vec::len).sum::<usize>() * 8);
        for values in vectors {
            for v in values {
                bytes.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        format!("{:016x}", pa_store::fnv1a_64(&bytes))
    };

    let mut in_core = Vec::new();
    for (mask, horizon) in &masks {
        in_core.push(
            Query::csr(csr)
                .objective(QueryObjective::MinProb)
                .target(mask.clone())
                .horizon(*horizon)
                .run()?
                .values,
        );
    }
    let digest_in_core = digest_of(&in_core);

    // Spill once (streamed, serial) with small blocks so the file splits.
    let dir = std::env::temp_dir().join(format!("pa-bench-store-{}", std::process::id()));
    let stored = Explore::new(&model)
        .cost(faulty_round_cost)
        .limit(limit)
        .symmetry(RingRotation::new(n))
        .spill_to(&dir, u64::MAX)
        .block_bytes(block_bytes)
        .run_in(PackedSpace::new(codec))?;
    let path = stored.store().file().path().to_path_buf();
    let file_bytes = std::fs::metadata(&path)?.len();
    let csr_metas: Vec<_> = stored
        .store()
        .file()
        .blocks()
        .iter()
        .filter(|m| m.kind == pa_store::BlockKind::Csr)
        .cloned()
        .collect();
    let max_block_payload = csr_metas.iter().map(|m| m.payload_len).max().unwrap_or(0);

    let mut unbounded = Vec::new();
    for (mask, horizon) in &masks {
        unbounded.push(
            Query::source(stored.store())
                .objective(QueryObjective::MinProb)
                .target(mask.clone())
                .horizon(*horizon)
                .run()?
                .values,
        );
    }
    let digest_unbounded = digest_of(&unbounded);

    // Reopen at a one-byte budget: exactly one resident block per access.
    let tight = StoredCsr::open(&path, 1)?;
    let t0 = Instant::now();
    let mut one_block = Vec::new();
    let mut sweeps = 0;
    for (mask, horizon) in &masks {
        let analysis = Query::source(&tight)
            .objective(QueryObjective::MinProb)
            .target(mask.clone())
            .horizon(*horizon)
            .run()?;
        sweeps += analysis.stats.sweeps;
        one_block.push(analysis.values);
    }
    let query_seconds = t0.elapsed().as_secs_f64();
    let digest_one_block = digest_of(&one_block);
    let stats = tight.cache().local_stats();
    drop(tight);
    drop(stored);
    std::fs::remove_dir_all(&dir)?;
    if dir.exists() {
        return Err(format!("spill dir {} survived cleanup", dir.display()).into());
    }

    Ok(StoreBench {
        n,
        states: explored.num_states() as u64,
        csr_blocks: csr_metas.len() as u64,
        block_bytes: block_bytes as u64,
        file_bytes,
        max_block_payload,
        digest_in_core,
        digest_unbounded,
        digest_one_block,
        faults: stats.faults,
        levels: masks.iter().map(|(_, h)| u64::from(*h) + 1).sum(),
        sweeps,
        hits: stats.hits,
        evictions: stats.evictions,
        peak_resident_bytes: stats.peak_resident_bytes,
        query_seconds,
    })
}
