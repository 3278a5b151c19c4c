//! Shared helpers of the `pa-mdp` integration tests.

use std::ops::Range;

use pa_mdp::{CsrBuilder, CsrMdp, CsrRows, CsrSource, MdpError};

/// A test-only backend: a [`CsrMdp`]'s rows cut into `k` contiguous
/// blocks of near-equal state counts (empty ones included when `k`
/// exceeds the state count), each with its own block-relative offset
/// arrays and a copy of the model's probability table — the shape
/// `pa-store` pages in.
pub struct Blocked {
    num_states: usize,
    num_choices: u64,
    num_transitions: u64,
    initial: Vec<usize>,
    /// Each block's first state and rows.
    blocks: Vec<(usize, CsrBuilder)>,
}

impl Blocked {
    pub fn split(csr: &CsrMdp, k: usize) -> Blocked {
        let n = csr.num_states();
        let rows = csr.rows();
        let blocks = (0..k)
            .map(|b| {
                let states = b * n / k..(b + 1) * n / k;
                let mut block = CsrBuilder::with_table(rows.prob_table);
                for s in states.clone() {
                    block.copy_row(&rows, s, |t| t).unwrap();
                }
                (states.start, block)
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
        let (first, b) = &self.blocks[block];
        *first..first + b.num_states()
    }

    fn with_rows(&self, block: usize, f: &mut dyn FnMut(CsrRows<'_>)) -> Result<(), MdpError> {
        let (first, b) = &self.blocks[block];
        f(b.rows(*first));
        Ok(())
    }
}
