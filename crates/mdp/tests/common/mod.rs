//! Shared helpers of the `pa-mdp` integration tests.

use std::ops::Range;

use pa_mdp::{CsrMdp, CsrRows, CsrSource, MdpError};

/// A test-only backend: a [`CsrMdp`]'s rows cut into `k` contiguous
/// blocks of near-equal state counts (empty ones included when `k`
/// exceeds the state count), each with its own block-relative offset
/// arrays — the shape `pa-store` pages in.
pub struct Blocked {
    num_states: usize,
    num_choices: u64,
    num_transitions: u64,
    initial: Vec<usize>,
    blocks: Vec<Block>,
}

struct Block {
    first_state: usize,
    choice_offsets: Vec<u32>,
    trans_offsets: Vec<u32>,
    costs: Vec<u32>,
    targets: Vec<u32>,
    probs: Vec<f64>,
}

impl Blocked {
    pub fn split(csr: &CsrMdp, k: usize) -> Blocked {
        let n = csr.num_states();
        let blocks = (0..k)
            .map(|b| {
                let states = b * n / k..(b + 1) * n / k;
                let mut block = Block {
                    first_state: states.start,
                    choice_offsets: vec![0],
                    trans_offsets: vec![0],
                    costs: Vec::new(),
                    targets: Vec::new(),
                    probs: Vec::new(),
                };
                let rows = csr.rows();
                for s in states {
                    for c in rows.choice_range(s) {
                        block.costs.push(rows.costs[c]);
                        for i in rows.trans_range(c) {
                            block.targets.push(rows.targets[i]);
                            block.probs.push(rows.probs[i]);
                        }
                        block.trans_offsets.push(block.targets.len() as u32);
                    }
                    block.choice_offsets.push(block.costs.len() as u32);
                }
                block
            })
            .collect();
        Blocked {
            num_states: n,
            num_choices: csr.num_choices() as u64,
            num_transitions: csr.num_transitions() as u64,
            initial: csr.initial_states().to_vec(),
            blocks,
        }
    }
}

impl CsrSource for Blocked {
    fn num_states(&self) -> usize {
        self.num_states
    }

    fn num_choices(&self) -> u64 {
        self.num_choices
    }

    fn num_transitions(&self) -> u64 {
        self.num_transitions
    }

    fn initial_states(&self) -> &[usize] {
        &self.initial
    }

    fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    fn block_states(&self, block: usize) -> Range<usize> {
        let b = &self.blocks[block];
        b.first_state..b.first_state + b.choice_offsets.len() - 1
    }

    fn with_rows(&self, block: usize, f: &mut dyn FnMut(CsrRows<'_>)) -> Result<(), MdpError> {
        let b = &self.blocks[block];
        f(CsrRows {
            first_state: b.first_state,
            choice_offsets: &b.choice_offsets,
            trans_offsets: &b.trans_offsets,
            costs: &b.costs,
            targets: &b.targets,
            probs: &b.probs,
        });
        Ok(())
    }
}
