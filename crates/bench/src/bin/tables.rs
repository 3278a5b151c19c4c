//! Regenerates every experiment table of `EXPERIMENTS.md`.
//!
//! ```text
//! cargo run --release -p pa-bench --bin tables            # all experiments
//! cargo run --release -p pa-bench --bin tables -- e5 e7   # selected ones
//! cargo run --release -p pa-bench --bin tables -- --full  # larger rings
//! cargo run --release -p pa-bench --bin tables -- --solver scc
//!                                     # run the experiments on the
//!                                     # SCC-condensed solver
//! cargo run --release -p pa-bench --bin tables -- --batch --workers 4
//!                                     # full E1–E15 × n=3..5 through the
//!                                     # pa-batch driver (shared models)
//! cargo run --release -p pa-bench --bin tables -- --batch --smoke --workers 4
//!                                     # n=3 CI smoke shape
//! cargo run --release -p pa-bench --bin tables -- --mc --smoke --out BENCH_mc.json
//!                                     # sampled-tier cross-validation at
//!                                     # n=3; fails if the seed-42,
//!                                     # 4000-trajectory run's digest drifts
//! cargo run --release -p pa-bench --bin tables -- --store
//!                                     # out-of-core smoke: spill the n=4
//!                                     # quotient, re-query at a one-byte
//!                                     # cache budget, check pinned digests
//! cargo run --release -p pa-bench --bin tables -- --mc
//!                                     # + n=4..5 cross-validation and the
//!                                     # n=8 escape-hatch estimates
//! cargo run --release -p pa-bench --bin tables -- e18 --full
//!                                     # out-of-core headline: explore the
//!                                     # n=7 round-model quotient streamed
//!                                     # to disk and answer P —1→ C exactly
//!                                     # (e18 without --full = n=5 sanity)
//! ```

use std::error::Error;

use pa_bench::{batch_suite, experiments, mc_suite, render_table, store_suite, Row, Verdict};
use serde::Serialize;

fn main() -> Result<(), Box<dyn Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--solver") {
        let which = args.get(i + 1).map(String::as_str);
        match which {
            Some("jacobi") => pa_mdp::set_default_solver(pa_mdp::Solver::Jacobi),
            Some("scc") => pa_mdp::set_default_solver(pa_mdp::Solver::SccOrdered),
            other => return Err(format!("--solver needs 'jacobi' or 'scc', got {other:?}").into()),
        }
        println!("default solver: {}", which.expect("matched above"));
    }
    if args.iter().any(|a| a == "--batch") {
        let smoke = args.iter().any(|a| a == "--smoke");
        let workers = args
            .iter()
            .position(|a| a == "--workers")
            .and_then(|i| args.get(i + 1))
            .map(|w| w.parse::<usize>())
            .transpose()?
            .unwrap_or(4);
        let out = args
            .iter()
            .position(|a| a == "--out")
            .and_then(|i| args.get(i + 1))
            .map_or("BATCH_results.jsonl", String::as_str);
        let specs = batch_suite::suite_specs(!smoke);
        println!(
            "batch: {} jobs ({}), {workers} workers…",
            specs.len(),
            if smoke { "smoke, n=3" } else { "full, n=3..5" },
        );
        let report = pa_batch::run_batch(&specs, &pa_batch::BatchOptions::with_workers(workers))?;
        std::fs::write(out, report.jsonl())?;
        let tally = report.tally();
        println!(
            "batch: {} done / {} failed / {} timed-out / {} cancelled in {:.2}s; \
             {} claims violated",
            tally.done,
            tally.failed,
            tally.timed_out,
            tally.cancelled,
            report.wall_seconds,
            tally.violated,
        );
        println!(
            "cache: {} models built, {} hits / {} misses (hit rate {:.3}); digest {}",
            report.cache.distinct_models,
            report.cache.model_hits,
            report.cache.model_misses,
            report.cache.hit_rate(),
            report.digest(),
        );
        for job in report
            .jobs
            .iter()
            .filter(|j| !matches!(j.status, pa_batch::JobStatus::Done(_)))
        {
            println!("  {}: {:?}", job.key, job.status);
        }
        // Degraded faulted cells are expected (the survival map documents
        // them); a *fault-free* violation or any job failure is not.
        let fault_free_violation = report.jobs.iter().any(|j| {
            j.plan_name == "none"
                && matches!(&j.status, pa_batch::JobStatus::Done(v) if v.violated())
        });
        println!("wrote {out}");
        if tally.failed > 0 || tally.timed_out > 0 || fault_free_violation {
            return Err("batch run had failures or fault-free violations".into());
        }
        return Ok(());
    }
    if args.iter().any(|a| a == "--mc") {
        let smoke = args.iter().any(|a| a == "--smoke");
        let get = |flag: &str| {
            args.iter()
                .position(|a| a == flag)
                .and_then(|i| args.get(i + 1))
        };
        let trajectories = get("--trajectories")
            .map(|v| v.parse::<u64>())
            .transpose()?
            .unwrap_or(4_000);
        let seed = get("--seed")
            .map(|v| v.parse::<u64>())
            .transpose()?
            .unwrap_or(42);
        let out = get("--out").map_or("BENCH_mc.json", String::as_str);
        println!(
            "mc: cross-validating the sampled tier (n=3, {trajectories} trajectories, \
             seed {seed})…"
        );
        let block = mc_suite::mc_bench(3, trajectories, seed, 5_000_000)?;
        std::fs::write(out, block.to_json())?;
        println!("wrote {out}");
        let mut blocks = vec![block];
        if !smoke {
            for n in [4usize, 5] {
                println!("mc: cross-validating n={n}…");
                blocks.push(mc_suite::mc_bench(n, trajectories, seed, 20_000_000)?);
            }
        }
        let mut failures = Vec::new();
        for block in &blocks {
            println!(
                "n={}: {} cells ({} vacuous), all intervals contain exact: {}, \
                 max width {:.4}; uniform anchor contained: {}; worker invariant: {}; \
                 digest {}",
                block.n,
                block.rows.len(),
                block.skipped_vacuous,
                block.all_contain_exact,
                block.max_width,
                block.uniform.contains_exact,
                block.worker_invariant,
                block.digest,
            );
            failures.extend(
                block
                    .check()
                    .into_iter()
                    .map(|f| format!("n={}: {f}", block.n)),
            );
        }
        if !smoke {
            // The escape hatch: a ring the exact engine cannot hold
            // (n = 8 ≈ 17.7M projected states before fault wrapping),
            // estimated without any exploration.
            println!("mc: estimating n=8 (no exploration)…");
            let mc = pa_mc::McConfig::new(trajectories, seed, 0);
            for within in [13u32, 26, 39] {
                let est = pa_faults::estimate_reach_uniform(
                    8,
                    &pa_faults::FaultPlan::none(),
                    &pa_core::SetExpr::named("C"),
                    within,
                    &mc,
                )?;
                let interval = est.interval(pa_prob::stats::Z_99);
                println!(
                    "n=8: P(reach C within {within}) ~= {:.4} in [{:.4}, {:.4}] \
                     ({} of {} trajectories)",
                    est.point(),
                    interval.lo().value(),
                    interval.hi().value(),
                    est.hit_count(),
                    est.trials(),
                );
            }
        }
        if !failures.is_empty() {
            return Err(format!("sampled-tier check failed: {}", failures.join("; ")).into());
        }
        println!("mc: ok");
        return Ok(());
    }
    if args.iter().any(|a| a == "--store") {
        // The out-of-core smoke probe for CI: spill the n=4 quotient with
        // 4 KiB blocks, re-query through the block-streamed engines at an
        // unbounded and a one-byte cache budget, and print the digests in
        // a greppable shape. Exits nonzero on any pinned-value, liveness,
        // residency-bound or paging-bound failure; the spill directory
        // must be gone by then (store_bench fails if cleanup leaves it
        // behind).
        println!("store: spilling the n=4 quotient and re-querying out of core…");
        let store = store_suite::store_bench(5_000_000)?;
        println!(
            "store: n={} spilled {} states into {} CSR blocks ({} bytes on disk)",
            store.n, store.states, store.csr_blocks, store.file_bytes,
        );
        println!("store: in-core digest {}", store.digest_in_core);
        println!("store: unbounded digest {}", store.digest_unbounded);
        println!(
            "store: one-block digest {} ({} faults, {} hits, {} evictions, \
             peak resident {} bytes, {:.2}s)",
            store.digest_one_block,
            store.faults,
            store.hits,
            store.evictions,
            store.peak_resident_bytes,
            store.query_seconds,
        );
        println!(
            "store: one-block sweeps {} over {} budget levels",
            store.sweeps, store.levels,
        );
        let failures = store.check();
        if !failures.is_empty() {
            return Err(format!("store check failed: {}", failures.join("; ")).into());
        }
        println!("store: ok (spill dir cleaned)");
        return Ok(());
    }
    let full = args.iter().any(|a| a == "--full");
    // `--solver`'s value is a flag argument, not an experiment selection.
    let solver_value_idx = args.iter().position(|a| a == "--solver").map(|i| i + 1);
    let selected: Vec<String> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| !a.starts_with("--") && Some(*i) != solver_value_idx)
        .map(|(_, a)| a.to_lowercase())
        .collect();
    let want = |ids: &[&str]| {
        selected.is_empty() || ids.iter().any(|id| selected.contains(&id.to_lowercase()))
    };

    let exact_sizes: Vec<usize> = if full {
        vec![2, 3, 4, 5]
    } else {
        vec![2, 3, 4]
    };
    let invariant_sizes: Vec<usize> = if full {
        vec![2, 3, 4, 5]
    } else {
        vec![2, 3, 4]
    };

    let mut sections: Vec<(&str, Vec<Row>)> = Vec::new();

    if want(&["e1", "e2", "e3", "e4", "e5"]) {
        println!("running E1–E5 (arrow axioms)…");
        let mut rows = experiments::arrows(3, 1)?;
        rows.extend(experiments::arrows(4, 1)?);
        sections.push((
            "E1–E5 — the five arrow axioms, exact, all adversaries",
            rows,
        ));
    }
    if want(&["e6"]) {
        println!("running E6 (composition)…");
        sections.push((
            "E6 — Theorem 3.4 composition T —13→_{1/8} C",
            experiments::composition(3)?,
        ));
    }
    if want(&["e7"]) {
        println!("running E7 (expected time)…");
        sections.push((
            "E7 — expected-time bounds (60 / 63)",
            experiments::expected_time(3)?,
        ));
    }
    if want(&["e8"]) {
        println!("running E8 (independence)…");
        sections.push((
            "E8 — Proposition 4.2 and Example 4.1",
            experiments::independence()?,
        ));
    }
    if want(&["e9"]) {
        println!("running E9 (Lemma 6.1)…");
        sections.push((
            "E9 — Lemma 6.1 resource invariant",
            experiments::invariant(&invariant_sizes)?,
        ));
    }
    if want(&["e10"]) {
        println!("running E10 (soundness gap)…");
        sections.push((
            "E10 — conservatism of the composed bound",
            experiments::soundness_gap(3)?,
        ));
    }
    if want(&["e11"]) {
        println!("running E11 (scaling)…");
        sections.push((
            "E11 — scaling in the ring size",
            experiments::scaling(&exact_sizes)?,
        ));
    }
    if want(&["e12"]) {
        println!("running E12 (ablation + figure)…");
        sections.push((
            "E12 — adversary power ablation and time curve",
            experiments::ablation(3)?,
        ));
    }
    if want(&["e14"]) {
        println!("running E14 (appendix lemmas)…");
        let mut rows = experiments::appendix(3)?;
        if full {
            rows.extend(experiments::appendix(4)?);
        }
        sections.push((
            "E14 — appendix lemmas A.4–A.10 + progress-time lower bound",
            rows,
        ));
    }
    if want(&["e13"]) {
        println!("running E13 (concurrent implementation)…");
        let trials = if full { 100 } else { 30 };
        sections.push((
            "E13 — real threads with try-locks",
            experiments::concurrent_impl(&[3, 5, 8], trials)?,
        ));
    }
    if want(&["e15"]) {
        println!("running E15 (fault survival map)…");
        let mut rows = experiments::survival(3)?;
        if full {
            for n in 4..=5 {
                rows.extend(experiments::survival(n)?);
            }
        }
        sections.push((
            "E15 — claim survival under crash-stop / crash-restart / obligation-drop",
            rows,
        ));
    }

    if want(&["e17"]) {
        println!("running E17 (hybrid survival map past the full-space engine)…");
        let trials = if full { 4_000 } else { 400 };
        // The exact zero-fault column runs on the rotation quotient; its
        // frontier is the round model (n ≤ 6 in RAM), so the full run
        // anchors at n = 6 and adds the all-sampled n = 9 map where only
        // the protocol-space quotient is still tractable. The fault
        // wrapper's round counter multiplies the 17.4M-orbit n = 6
        // quotient, so the exact column needs headroom past the default
        // experiment cap (packed states keep it a few GiB).
        let (frontier_n, limit) = if full {
            (6, 150_000_000)
        } else {
            (4, experiments::STATE_LIMIT)
        };
        let mut rows = experiments::survival_hybrid(frontier_n, limit, trials)?;
        println!(
            "E17: hybrid map at n={frontier_n} done ({} rows)",
            rows.len()
        );
        if full {
            rows.extend(experiments::survival_sampled(9, limit, trials)?);
        }
        sections.push((
            "E17 — survival past the full-space engine: quotient-exact zero-fault column, sampled fault columns",
            rows,
        ));
    }

    // E18 is opt-in only: the full shape explores the 323M-orbit n = 7
    // round-model quotient out of core (35 GB of spill, an hour serial),
    // which has no place in the default everything run.
    if selected.iter().any(|s| s == "e18") {
        let (n, limit, budget) = if full {
            (7, 400_000_000, 256 * 1024 * 1024)
        } else {
            (5, experiments::STATE_LIMIT, 1024 * 1024)
        };
        println!("running E18 (out-of-core frontier, n={n}; spills to the temp dir)…");
        sections.push((
            "E18 — exact verdict past RAM comfort: the spilled round-model quotient",
            experiments::out_of_core_frontier(n, limit, budget)?,
        ));
    }

    let mut any_violated = false;
    for (title, rows) in &sections {
        println!("\n## {title}\n");
        println!("{}", render_table(rows));
        any_violated |= rows.iter().any(|r| r.verdict == Verdict::Violated);
    }

    if any_violated {
        Err("at least one paper claim failed to reproduce".into())
    } else {
        println!("\nall reproduced claims hold");
        Ok(())
    }
}
