//! # timebounds
//!
//! A reproduction of **Lynch, Saias & Segala, "Proving Time Bounds for
//! Randomized Distributed Algorithms" (PODC 1994)** as a Rust workspace.
//!
//! This facade crate re-exports the workspace members under stable names:
//!
//! * [`prob`] — probability substrate (distributions, statistics, RNG).
//! * [`core`] — the paper's probabilistic-automaton model, adversaries,
//!   event schemas, and the `U —t→_p U'` arrow calculus (Sections 2–4).
//! * [`mdp`] — explicit-state MDP model-checking substrate used to verify
//!   arrow claims exactly against *all* adversaries of a schema.
//! * [`mc`] — seeded deterministic Monte-Carlo estimation tier: one batch
//!   driver with per-trajectory RNG streams and worker-count-invariant
//!   accumulation, trajectory sampling of the implicit (faulty) round
//!   model and of the round simulator's concrete schedulers, and policy
//!   replay cross-validated against the exact engine.
//! * [`lehmann_rabin`] — the Lehmann–Rabin Dining Philosophers case study
//!   (Sections 5–6 and the appendix).
//! * [`faults`] — fault-injection layer (crash-stop, crash-restart,
//!   obligation-drop) and the claim survival maps that chart which paper
//!   claims survive which faults.
//! * [`store`] — out-of-core state spaces: explored CSR blocks spill to
//!   an append-only, digest-checked on-disk format and are mapped back on
//!   demand through a byte-budgeted block cache, so exploration and value
//!   iteration run in bounded memory with bitwise-identical answers.
//! * [`batch`] — deterministic concurrent batch driver: many
//!   (ring × query × fault plan) jobs over a bounded worker pool with a
//!   shared model cache and per-job telemetry scopes.
//! * [`serve`] — long-lived analysis service over the batch core:
//!   streamed JSONL jobs over a unix socket or stdio with admission
//!   control, bounded-queue backpressure, LRU model-cache eviction under
//!   a byte budget, per-batch report persistence, and graceful drain.
//!
//! # Quick start
//!
//! ```
//! use timebounds::lehmann_rabin::{check_arrow, paper, RoundConfig, RoundMdp};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Check the paper's G —5→_{1/4} P arrow exactly for a ring of 3.
//! let claim = paper::arrow_g_to_p();
//! let mdp = RoundMdp::new(RoundConfig::new(3)?);
//! let report = check_arrow(&mdp, &claim)?;
//! assert!(report.holds());
//! # Ok(())
//! # }
//! ```

pub use pa_batch as batch;
pub use pa_core as core;
pub use pa_faults as faults;
pub use pa_lehmann_rabin as lehmann_rabin;
pub use pa_mc as mc;
pub use pa_mdp as mdp;
pub use pa_prob as prob;
pub use pa_serve as serve;
pub use pa_store as store;
