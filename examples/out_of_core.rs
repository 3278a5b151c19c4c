//! Out-of-core smoke: spill an n = 5 fault-wrapped round-model quotient
//! to disk and answer every paper arrow in bounded memory.
//!
//! The exploration is routed through [`timebounds::store::SpillTo`], so
//! CSR blocks land in an append-only, digest-checked file instead of the
//! heap; queries page blocks back through a cache whose byte budget is
//! deliberately tiny (64 KiB against a multi-megabyte model). After each
//! arrow the resident-bytes trajectory is printed — the point of the
//! subsystem is that `resident` never exceeds budget + two in-flight
//! blocks, no matter how large the model on disk grows.
//!
//! One arrow is re-answered with an *unbounded* cache over the same file
//! and must match bitwise: answers are budget-independent. Run with:
//!
//! ```text
//! cargo run --release --example out_of_core
//! ```
//!
//! Exits nonzero if paging exceeds its bound, the two budgets disagree,
//! or the spill directory survives cleanup.

use std::error::Error;

use timebounds::faults::{faulty_round_cost, FaultPlan, FaultyRoundMdp, FaultyStateCodec};
use timebounds::lehmann_rabin::{paper, reachable_configs_quotient, ArrowChecker, RoundConfig};
use timebounds::mdp::{Explore, PackedSpace, RingRotation};
use timebounds::store::{SpillTo, StoredCsr};

fn main() -> Result<(), Box<dyn Error>> {
    let n = 5;
    let limit = 5_000_000;
    let block_bytes = 64 * 1024;
    let budget = 64 * 1024;
    let dir = std::env::temp_dir().join(format!("pa-out-of-core-{}", std::process::id()));

    // Explore the quotient under ring rotation, streaming CSR blocks to
    // disk as the BFS closes them. Streamed exploration is serial and
    // deterministic: re-running rewrites the file bitwise identically.
    let configs = reachable_configs_quotient(n, limit)?;
    let model = FaultyRoundMdp::new(RoundConfig::new(n)?, FaultPlan::none())?.with_starts(configs);
    let codec = FaultyStateCodec::new(n, model.round_cap())?;
    let stored = Explore::new(&model)
        .cost(faulty_round_cost)
        .limit(limit)
        .symmetry(RingRotation::new(n))
        .spill_to(&dir, budget)
        .block_bytes(block_bytes)
        .run_in(PackedSpace::new(codec))?;

    let file = stored.store().file();
    let file_bytes = std::fs::metadata(file.path())?.len();
    let max_payload: u64 = file
        .blocks()
        .iter()
        .map(|b| b.payload_len)
        .max()
        .unwrap_or(0);
    println!(
        "n={n}: {} orbit states in {} CSR blocks, {} bytes on disk (cache budget {})",
        stored.num_states(),
        file.blocks().len(),
        file_bytes,
        budget,
    );

    // Answer every paper arrow on the stored backend, worst case over the
    // arrow's source states, and chart residency as the sweeps page. The
    // quotient is fault-free: no process is down when the clock starts.
    let checker = ArrowChecker::new(n, 0, stored.space(), stored.store());
    let mut first_value = None;
    for (arrow, _why) in paper::all_arrows() {
        let worst = checker.arrow(&arrow, |q| q)?.measured.lo().value();
        first_value.get_or_insert(worst.to_bits());
        let s = checker.rows().cache().local_stats();
        println!(
            "{arrow}: worst P = {worst:.6} | resident {} peak {} (faults {}, hits {}, evictions {})",
            s.resident_bytes, s.peak_resident_bytes, s.faults, s.hits, s.evictions,
        );
    }

    // Paging bound: budget plus at most two in-flight blocks (one pinned
    // by the sweep, one just faulted before eviction catches up).
    let s = stored.store().cache().local_stats();
    let bound = budget + 2 * max_payload;
    if s.peak_resident_bytes > bound {
        return Err(format!(
            "peak resident {} exceeds bound {bound} (budget {budget} + 2 x {max_payload})",
            s.peak_resident_bytes,
        )
        .into());
    }
    println!(
        "peak resident {} bytes <= bound {bound}: memory stayed budgeted",
        s.peak_resident_bytes
    );

    // Budget-independence: the same file behind an unbounded cache must
    // answer the first arrow bitwise identically.
    let roomy = StoredCsr::open(stored.store().file().path(), u64::MAX)?;
    let (arrow, _why) = paper::all_arrows().remove(0);
    let worst = ArrowChecker::new(n, 0, stored.space(), &roomy)
        .arrow(&arrow, |q| q)?
        .measured
        .lo()
        .value();
    if Some(worst.to_bits()) != first_value {
        return Err("tight and unbounded cache budgets disagreed bitwise".into());
    }
    println!("{arrow}: unbounded budget matches 64 KiB budget bitwise");

    drop(roomy);
    drop(checker);
    std::fs::remove_dir_all(&dir)?;
    if dir.exists() {
        return Err("spill directory survived cleanup".into());
    }
    println!("spill directory cleaned; out-of-core pipeline ok");
    Ok(())
}
