//! `claims-quotient`: the six paper claims (the five axioms of
//! `paper::all_arrows` and the composed `T —13→_{1/8} C`) checked exactly
//! over all round adversaries on the rotation-quotient round model.
//!
//! Untraced passes call `check_arrow_quotient`. Traced passes replay it
//! step by step through the layers' public functions, with a span around
//! each step, and must give the same `f64` bits.

use std::collections::BTreeMap;
use std::time::Instant;

use pa_core::Arrow;
use pa_lehmann_rabin::{
    check_arrow, check_arrow_quotient, paper, reachable_configs_quotient, round_cost, set_pred,
    time_to_budget, Config, RoundConfig, RoundMdp, RoundStateCodec, DEFAULT_STATE_LIMIT,
};
use pa_mdp::{CsrMdp, Explore, Objective, PackedSpace, Query, RingRotation};
use pa_prob::Prob;

use crate::{median, total_s, trace, traced_median, Ctx, Res, Shape, Workload};

/// Measured worst-case probabilities, as `f64` bits, in claim order
/// (`paper::all_arrows` then the composed claim), at `n = 5`.
const PINS_N5: [u64; 6] = [
    0x3ff0_0000_0000_0000,
    0x3ff0_0000_0000_0000,
    0x3fe8_0000_0000_0000,
    0x3fe0_0000_0000_0000,
    0x3ff0_0000_0000_0000,
    0x3fef_db00_0000_0000,
];
/// The same at `n = 3` (the self-test shape and the set-up pre-flight),
/// where the full-space check must give them too.
const PINS_N3: [u64; 6] = [
    0x3ff0_0000_0000_0000,
    0x3ff0_0000_0000_0000,
    0x3ff0_0000_0000_0000,
    0x3fe0_0000_0000_0000,
    0x3ff0_0000_0000_0000,
    0x3fee_0000_0000_0000,
];

/// The six claims in canonical order.
fn claims() -> Vec<(Arrow, &'static str)> {
    let mut claims = paper::all_arrows();
    claims.push((paper::arrow_t_to_c(), "Section 6.2 composition"));
    claims
}

/// Work counters of one traced replay.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    states: u64,
    model_bytes: u64,
    sweeps: u64,
    state_updates: u64,
}

/// The pieces of one replayed check that the solve needs.
struct Prepared {
    csr: CsrMdp,
    target: Vec<bool>,
    budget: u32,
    states: u64,
    model_bytes: u64,
}

/// `check_arrow_quotient` up to the solve, one span per layer call.
/// `None` when no reachable configuration lies in the claim's source set.
fn prepare(mdp: &RoundMdp, arrow: &Arrow, n: usize) -> Res<Option<Prepared>> {
    let limit = DEFAULT_STATE_LIMIT;
    let from = set_pred(arrow.from())?;
    let to = set_pred(arrow.to())?;
    let reachable = trace::span("lr.reachable", || reachable_configs_quotient(n, limit))?;
    let starts: Vec<Config> = reachable.into_iter().filter(|c| from(c)).collect();
    if starts.is_empty() {
        return Ok(None);
    }
    let absorb = set_pred(arrow.to())?;
    let model = trace::span("lr.with_starts", || {
        mdp.clone()
            .with_starts(starts)
            .with_absorb(move |c| absorb(c))
    });
    let space = PackedSpace::new(RoundStateCodec::new(n)?);
    let explored = trace::span("mdp.explore", || {
        Explore::new(&model)
            .cost(round_cost)
            .limit(limit)
            .parallel()
            .symmetry(RingRotation::new(n))
            .run_in(space)
    })?;
    let target = trace::span("mdp.target_mask", || {
        explored.target_where(|rs| to(&rs.config))
    });
    let csr = trace::span("mdp.csr_build", || CsrMdp::from_explicit(&explored.mdp));
    let prepared = Prepared {
        states: explored.num_states() as u64,
        model_bytes: explored.mem_bytes() + explored.mdp.mem_bytes() + csr.mem_bytes(),
        budget: time_to_budget(arrow.time()),
        target,
        csr,
    };
    trace::span("mdp.drop", || drop(explored));
    Ok(Some(prepared))
}

/// The bounded min-probability solve and the worst start's value,
/// clamped as `check_arrow_quotient` reports it.
fn solve(p: &Prepared) -> Res<(f64, pa_mdp::SolveStats)> {
    let analysis = Query::csr(&p.csr)
        .objective(Objective::MinProb)
        .target(p.target.as_slice())
        .horizon(p.budget)
        .run()?;
    let worst = p
        .csr
        .initial_states()
        .iter()
        .map(|&i| analysis.values[i])
        .fold(f64::INFINITY, f64::min);
    Ok((Prob::clamped(worst).value(), analysis.stats))
}

/// The step-by-step replay of `check_arrow_quotient`.
fn replay(mdp: &RoundMdp, arrow: &Arrow, n: usize) -> Res<(f64, Counters)> {
    let Some(p) = prepare(mdp, arrow, n)? else {
        return Ok((1.0, Counters::default()));
    };
    let (value, stats) = trace::span("mdp.solve", || solve(&p))?;
    let (states, model_bytes) = (p.states, p.model_bytes);
    trace::span("mdp.drop", || drop(p));
    Ok((
        value,
        Counters {
            states,
            model_bytes,
            sweeps: stats.sweeps,
            state_updates: stats.state_updates,
        },
    ))
}

/// One claim through the library entry point.
fn check(mdp: &RoundMdp, arrow: &Arrow) -> Res<f64> {
    let result = check_arrow_quotient(mdp, arrow, DEFAULT_STATE_LIMIT)?;
    Ok(result.measured.lo().value())
}

pub struct Claims {
    n: usize,
    pins: [u64; 6],
    claims: Vec<(Arrow, &'static str)>,
    mdp: Option<RoundMdp>,
    /// Bits of the last pass's answers, in claim order.
    answers: Vec<u64>,
    /// Replay counters of each traced pass, summed over its claims
    /// (`model_bytes` is the largest single model).
    counters: BTreeMap<usize, Counters>,
}

impl Claims {
    pub fn new(shape: Shape) -> Claims {
        let (n, pins) = match shape {
            Shape::Full => (5, PINS_N5),
            Shape::N3 => (3, PINS_N3),
        };
        Claims {
            n,
            pins,
            claims: claims(),
            mdp: None,
            answers: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    fn verify(&self, ctx: &mut Ctx, n: usize, index: usize, bits: u64, pin: u64, how: &str) {
        let (arrow, source) = &self.claims[index];
        let pinned = ctx.pin(pin, pin ^ 1);
        ctx.check(
            bits == pinned,
            format!(
                "{how} n = {n} {arrow} ({source}): measured {} ({bits:#018x}), pinned {pinned:#018x}",
                f64::from_bits(bits)
            ),
        );
    }
}

impl Workload for Claims {
    /// The pre-flight: all six claims at `n = 3`, on the quotient and on
    /// the full space, against their pins; then (last repetition) the
    /// measured ring's model. The pre-flight stays at `n = 3`: larger
    /// models here measurably slowed the passes that follow.
    fn setup(&mut self, ctx: &mut Ctx, rep: usize, reps: usize) -> Res<()> {
        let mdp = RoundMdp::new(RoundConfig::new(3)?);
        for (index, pin) in PINS_N3.into_iter().enumerate() {
            let arrow = &self.claims[index].0;
            let quotient = check(&mdp, arrow)?.to_bits();
            self.verify(ctx, 3, index, quotient, pin, "pre-flight quotient");
            let full = check_arrow(&mdp, arrow)?.measured.lo().value().to_bits();
            self.verify(ctx, 3, index, full, pin, "pre-flight full space");
        }
        if rep + 1 == reps {
            self.mdp = Some(RoundMdp::new(RoundConfig::new(self.n)?));
        }
        Ok(())
    }

    fn pass(&mut self, ctx: &mut Ctx, pass: usize) -> Res<f64> {
        let mdp = self.mdp.clone().ok_or("claims: pass before set-up")?;
        let order = ctx.rng.order(self.claims.len());
        let traced = trace::enabled();
        let mut answers = vec![0u64; self.claims.len()];
        let mut sum = Counters::default();
        let t = Instant::now();
        for &index in &order {
            let arrow = &self.claims[index].0;
            let value = if traced {
                let (value, c) = trace::span("claim", || replay(&mdp, arrow, self.n))?;
                sum.states += c.states;
                sum.model_bytes = sum.model_bytes.max(c.model_bytes);
                sum.sweeps += c.sweeps;
                sum.state_updates += c.state_updates;
                value
            } else {
                check(&mdp, arrow)?
            };
            answers[index] = value.to_bits();
        }
        let seconds = t.elapsed().as_secs_f64();
        for (index, &bits) in answers.iter().enumerate() {
            let how = if traced {
                "replay"
            } else {
                "check_arrow_quotient"
            };
            self.verify(ctx, self.n, index, bits, self.pins[index], how);
        }
        if traced {
            self.counters.insert(pass, sum);
        }
        self.answers = answers;
        Ok(seconds)
    }

    fn layers(&mut self, ctx: &mut Ctx, traced: &[usize]) -> Res<()> {
        let span = |name: &'static str| traced_median(traced, |m| total_s(m, name));
        let calls = |name: &'static str| {
            traced_median(traced, |m| m.get(name).map_or(0.0, |t| t.calls as f64))
        };
        let counter = |f: fn(&Counters) -> u64| {
            let values: Vec<f64> = traced
                .iter()
                .filter_map(|p| self.counters.get(p))
                .map(|c| f(c) as f64)
                .collect();
            median(&values)
        };
        let explore_s = span("mdp.explore");
        let states = counter(|c| c.states);
        ctx.layer("lr.reachable_s", span("lr.reachable"));
        ctx.layer("lr.reachable_calls", calls("lr.reachable"));
        ctx.layer("lr.with_starts_s", span("lr.with_starts"));
        ctx.layer("mdp.explore_s", explore_s);
        ctx.layer("mdp.explore_calls", calls("mdp.explore"));
        ctx.layer("mdp.explore_states", states);
        ctx.layer("mdp.explore_states_per_s", states / explore_s);
        ctx.layer("mdp.model_bytes", counter(|c| c.model_bytes));
        ctx.layer("mdp.csr_build_s", span("mdp.csr_build"));
        ctx.layer("mdp.target_mask_s", span("mdp.target_mask"));
        ctx.layer("mdp.solve_s", span("mdp.solve"));
        ctx.layer("mdp.drop_s", span("mdp.drop"));
        ctx.layer("mdp.solve_sweeps", counter(|c| c.sweeps));
        ctx.layer("mdp.solve_state_updates", counter(|c| c.state_updates));
        let ratio = self.telemetry_ratio(ctx)?;
        ctx.layer("telemetry.overhead_ratio", ratio);
        Ok(())
    }

    fn answers(&self) -> String {
        let bytes: Vec<u8> = self.answers.iter().flat_map(|b| b.to_le_bytes()).collect();
        crate::fnv_hex(&bytes)
    }
}

impl Claims {
    /// Solve time of the composed claim's query with `pa-telemetry`
    /// recording on, divided by the same with it off (medians of three
    /// alternating solves each). Every solve must give the pinned value.
    fn telemetry_ratio(&self, ctx: &mut Ctx) -> Res<f64> {
        let mdp = self
            .mdp
            .clone()
            .ok_or("claims: telemetry probe before set-up")?;
        let index = self.claims.len() - 1;
        let prepared = prepare(&mdp, &self.claims[index].0, self.n)?
            .ok_or("the composed claim has start states")?;
        let (mut off, mut on) = (Vec::new(), Vec::new());
        for round in 0..6 {
            let enabled = round % 2 == 1;
            pa_telemetry::set_enabled(enabled);
            let t = Instant::now();
            let result = solve(&prepared);
            let seconds = t.elapsed().as_secs_f64();
            pa_telemetry::set_enabled(false);
            let bits = result?.0.to_bits();
            let how = if enabled {
                "telemetry on"
            } else {
                "telemetry off"
            };
            self.verify(ctx, self.n, index, bits, self.pins[index], how);
            if enabled { &mut on } else { &mut off }.push(seconds);
        }
        Ok(median(&on) / median(&off))
    }
}
