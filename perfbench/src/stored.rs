//! `stored-one-block`: the fault-free rotation-quotient round model
//! spilled to `pa-store` in 4 KiB blocks during set-up, then reopened at
//! a one-byte cache budget (one resident block) and queried for the five
//! paper arrows with `Query::source`. Paging dominates; the value digest
//! must equal the in-core one.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use pa_faults::{faulty_round_cost, set_pred_under, FaultPlan, FaultyRoundMdp, FaultyStateCodec};
use pa_lehmann_rabin::{
    paper, reachable_configs_quotient, time_to_budget, RoundConfig, DEFAULT_STATE_LIMIT,
};
use pa_mdp::{Explore, Objective, PackedSpace, Query, RingRotation};
use pa_store::{BlockKind, SpillTo, StoreStats, StoredCsr};

use crate::{median, total_s, trace, traced_median, Ctx, Res, Shape, Workload};

/// Digest of the five arrows' value vectors computed in core at `n = 4`
/// (FNV-1a 64 over the little-endian `f64` bits, arrows in
/// `paper::all_arrows` order).
const DIGEST_N4: &str = "1fdd989c9731faba";
/// The same at `n = 3`.
const DIGEST_N3: &str = "ff93dee5ad59d845";
/// Target payload bytes per spilled block.
const BLOCK_BYTES: usize = 4096;

/// Paging counters and solver sweeps of one pass.
#[derive(Debug, Clone, Copy)]
struct PassStats {
    cache: StoreStats,
    sweeps: u64,
}

pub struct StoredOneBlock {
    n: usize,
    digest_pin: &'static str,
    /// Spill directory and file of the model the passes query.
    dir: Option<PathBuf>,
    path: Option<PathBuf>,
    /// Target mask and time budget of each arrow.
    masks: Vec<(Vec<bool>, u32)>,
    spill_s: Vec<f64>,
    file_bytes: u64,
    mean_block_payload: f64,
    answers: String,
    stats: BTreeMap<usize, PassStats>,
}

impl StoredOneBlock {
    pub fn new(shape: Shape) -> StoredOneBlock {
        let (n, digest_pin) = match shape {
            Shape::Full => (4, DIGEST_N4),
            Shape::N3 => (3, DIGEST_N3),
        };
        StoredOneBlock {
            n,
            digest_pin,
            dir: None,
            path: None,
            masks: Vec::new(),
            spill_s: Vec::new(),
            file_bytes: 0,
            mean_block_payload: 0.0,
            answers: String::new(),
            stats: BTreeMap::new(),
        }
    }
}

impl Workload for StoredOneBlock {
    /// Explores and spills the model (`Explore::spill_to`); every
    /// repetition but the last removes its spill again.
    fn setup(&mut self, ctx: &mut Ctx, rep: usize, reps: usize) -> Res<()> {
        let n = self.n;
        let limit = DEFAULT_STATE_LIMIT;
        let configs = reachable_configs_quotient(n, limit)?;
        let model =
            FaultyRoundMdp::new(RoundConfig::new(n)?, FaultPlan::none())?.with_starts(configs);
        let codec = FaultyStateCodec::new(n, model.round_cap())?;
        let dir = ctx.work.join(format!("spill-{rep}"));
        let t = Instant::now();
        let stored = Explore::new(&model)
            .cost(faulty_round_cost)
            .limit(limit)
            .symmetry(RingRotation::new(n))
            .spill_to(&dir, u64::MAX)
            .block_bytes(BLOCK_BYTES)
            .run_in(PackedSpace::new(codec))?;
        self.spill_s.push(t.elapsed().as_secs_f64());
        if rep + 1 < reps {
            drop(stored);
            std::fs::remove_dir_all(&dir)?;
            return Ok(());
        }
        for (arrow, _) in paper::all_arrows() {
            let to = set_pred_under(arrow.to())?;
            let mask = stored.target_where(|s| to(&s.inner.config, s.crashed_mask(n)));
            self.masks.push((mask, time_to_budget(arrow.time())));
        }
        let file = stored.store().file();
        let payloads: Vec<u64> = file
            .blocks()
            .iter()
            .filter(|m| m.kind == BlockKind::Csr)
            .map(|m| m.payload_len)
            .collect();
        self.mean_block_payload = payloads.iter().sum::<u64>() as f64 / payloads.len() as f64;
        let path = file.path().to_path_buf();
        self.file_bytes = std::fs::metadata(&path)?.len();
        self.path = Some(path);
        self.dir = Some(dir);
        Ok(())
    }

    fn pass(&mut self, ctx: &mut Ctx, pass: usize) -> Res<f64> {
        let path = self.path.clone().ok_or("stored: pass before set-up")?;
        let order = ctx.rng.order(self.masks.len());
        let mut values = vec![Vec::new(); self.masks.len()];
        let mut sweeps = 0;
        let t = Instant::now();
        let tight = trace::span("store.open", || StoredCsr::open(&path, 1))?;
        for &index in &order {
            let (mask, budget) = &self.masks[index];
            let analysis = trace::span("store.query", || {
                Query::source(&tight)
                    .objective(Objective::MinProb)
                    .target(mask.as_slice())
                    .horizon(*budget)
                    .run()
            })?;
            sweeps += analysis.stats.sweeps;
            values[index] = analysis.values;
        }
        let seconds = t.elapsed().as_secs_f64();
        let cache = tight.cache().local_stats();
        drop(tight);

        let bytes: Vec<u8> = values
            .iter()
            .flatten()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .collect();
        let digest = crate::fnv_hex(&bytes);
        let pinned = ctx.pin(self.digest_pin, "ffffffffffffffff");
        ctx.check(
            digest == pinned,
            format!("n = {} one-block digest {digest}, in-core {pinned}", self.n),
        );
        self.answers = digest;
        self.stats.insert(pass, PassStats { cache, sweeps });
        Ok(seconds)
    }

    fn layers(&mut self, ctx: &mut Ctx, traced: &[usize]) -> Res<()> {
        let stat = |f: fn(&PassStats) -> u64| {
            let values: Vec<f64> = traced
                .iter()
                .filter_map(|p| self.stats.get(p))
                .map(|s| f(s) as f64)
                .collect();
            median(&values)
        };
        let faults = stat(|s| s.cache.faults);
        let levels: u32 = self.masks.iter().map(|(_, budget)| budget).sum();
        ctx.layer("store.spill_s", median(&self.spill_s));
        ctx.layer("store.file_bytes", self.file_bytes as f64);
        ctx.layer(
            "store.open_s",
            traced_median(traced, |m| total_s(m, "store.open")),
        );
        ctx.layer(
            "store.query_s",
            traced_median(traced, |m| total_s(m, "store.query")),
        );
        ctx.layer("store.faults", faults);
        ctx.layer("store.hits", stat(|s| s.cache.hits));
        ctx.layer("store.evictions", stat(|s| s.cache.evictions));
        ctx.layer("store.faults_per_level", faults / f64::from(levels));
        ctx.layer("store.bytes_paged", faults * self.mean_block_payload);
        ctx.layer(
            "store.peak_resident_bytes",
            stat(|s| s.cache.peak_resident_bytes),
        );
        ctx.layer("store.solve_sweeps", stat(|s| s.sweeps));
        Ok(())
    }

    /// Removes the spill directory and checks that it is gone.
    fn finish(&mut self, ctx: &mut Ctx) -> Res<()> {
        if let Some(dir) = self.dir.take() {
            std::fs::remove_dir_all(&dir)?;
            ctx.check(
                !dir.exists(),
                format!("spill dir {} removed", dir.display()),
            );
        }
        Ok(())
    }

    fn answers(&self) -> String {
        self.answers.clone()
    }
}
