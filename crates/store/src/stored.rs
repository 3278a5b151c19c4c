//! Stored models: the [`CsrSource`] backend over a store file and the
//! [`StoredModel`] wrapper that pairs it with its in-memory state space.

use std::marker::PhantomData;
use std::ops::Range;
use std::path::Path;

use pa_mdp::{CsrRows, CsrSource, MdpError, Query, StateSpace};

use crate::cache::BlockCache;
use crate::error::StoreError;
use crate::format::{BlockKind, StoreFile};

/// A [`CsrSource`] over a `pa-store/csr/v2` file: each CSR block pages in
/// through a [`BlockCache`] on demand, so an analysis touches at most
/// `cache budget + one block` of payload at a time.
#[derive(Debug)]
pub struct StoredCsr {
    file: StoreFile,
    cache: BlockCache,
    /// Indices into `file.blocks()` of the CSR blocks, in state order.
    csr_blocks: Vec<usize>,
    /// Global state range of each CSR block.
    ranges: Vec<Range<usize>>,
}

impl StoredCsr {
    /// Wraps an opened file with a cache of `cache_budget` payload bytes.
    pub fn new(file: StoreFile, cache_budget: u64) -> StoredCsr {
        let csr_blocks: Vec<usize> = file
            .blocks()
            .iter()
            .enumerate()
            .filter(|(_, m)| m.kind == BlockKind::Csr)
            .map(|(i, _)| i)
            .collect();
        let ranges = csr_blocks
            .iter()
            .map(|&i| {
                let m = &file.blocks()[i];
                m.first_state as usize..(m.first_state + m.states) as usize
            })
            .collect();
        StoredCsr {
            file,
            cache: BlockCache::with_budget(cache_budget),
            csr_blocks,
            ranges,
        }
    }

    /// Opens `path` and wraps it; see [`StoredCsr::new`].
    pub fn open(path: impl AsRef<Path>, cache_budget: u64) -> Result<StoredCsr, StoreError> {
        Ok(StoredCsr::new(StoreFile::open(path)?, cache_budget))
    }

    /// The underlying file.
    pub fn file(&self) -> &StoreFile {
        &self.file
    }

    /// The block cache (budget, activity counters).
    pub fn cache(&self) -> &BlockCache {
        &self.cache
    }

    /// Starts a [`Query`] over this backend (block-streamed engines; see
    /// [`pa_mdp::Query::source`]).
    pub fn query(&self) -> Query<'_> {
        Query::source(self)
    }
}

impl CsrSource for StoredCsr {
    fn num_states(&self) -> usize {
        self.file.num_states()
    }

    fn num_choices(&self) -> u64 {
        self.file.num_choices()
    }

    fn num_transitions(&self) -> u64 {
        self.file.num_transitions()
    }

    fn initial_states(&self) -> &[usize] {
        self.file.initial()
    }

    fn num_blocks(&self) -> usize {
        self.csr_blocks.len()
    }

    fn block_states(&self, block: usize) -> Range<usize> {
        self.ranges[block].clone()
    }

    fn with_rows(&self, block: usize, f: &mut dyn FnMut(CsrRows<'_>)) -> Result<(), MdpError> {
        let mapped = self
            .cache
            .block(&self.file, self.csr_blocks[block])
            .map_err(MdpError::from)?;
        f(mapped.rows());
        Ok(())
    }
}

/// A spilled model: the state space (resident, for predicates and state
/// decoding) plus the [`StoredCsr`] rows (on disk, paged in per block).
///
/// The accessor surface mirrors [`pa_mdp::Explored`] so call sites switch
/// backends without restructuring: `target_where`, `states_where`,
/// `index_of`, `state`, and `query`/`query_where` behave identically —
/// except queries run on the block-streamed engines.
#[derive(Debug)]
pub struct StoredModel<S, SP> {
    space: SP,
    csr: StoredCsr,
    _state: PhantomData<fn() -> S>,
}

impl<S, SP: StateSpace<S>> StoredModel<S, SP> {
    /// Pairs a state space with its stored rows. The space must be the one
    /// the rows were explored with (ids must agree).
    pub fn new(space: SP, csr: StoredCsr) -> StoredModel<S, SP> {
        debug_assert_eq!(space.len(), pa_mdp::CsrSource::num_states(&csr));
        StoredModel {
            space,
            csr,
            _state: PhantomData,
        }
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.space.len()
    }

    /// Decodes state `i`.
    pub fn state(&self, i: usize) -> S {
        self.space.state(i)
    }

    /// The id of `state`, if explored.
    pub fn index_of(&self, state: &S) -> Option<usize> {
        self.space.get(state)
    }

    /// A target mask from a state predicate.
    pub fn target_where(&self, mut pred: impl FnMut(&S) -> bool) -> Vec<bool> {
        let mut mask = vec![false; self.space.len()];
        self.space.for_each_state(|i, s| mask[i] = pred(s));
        mask
    }

    /// The state indices satisfying `pred`.
    pub fn states_where(&self, mut pred: impl FnMut(&S) -> bool) -> Vec<usize> {
        let mut out = Vec::new();
        self.space.for_each_state(|i, s| {
            if pred(s) {
                out.push(i);
            }
        });
        out
    }

    /// Starts a [`Query`] over the stored rows.
    pub fn query(&self) -> Query<'_> {
        self.csr.query()
    }

    /// Starts a [`Query`] targeting the states satisfying `pred`.
    pub fn query_where(&self, pred: impl FnMut(&S) -> bool) -> Query<'_> {
        let target = self.target_where(pred);
        self.query().target(target)
    }

    /// The state space.
    pub fn space(&self) -> &SP {
        &self.space
    }

    /// The stored rows backend.
    pub fn store(&self) -> &StoredCsr {
        &self.csr
    }

    /// Resident footprint: the state space's tables plus the block cache
    /// budget. This is what a model *costs while held*: the spilled rows
    /// are excluded by design.
    pub fn mem_bytes(&self) -> u64 {
        self.space.mem_bytes() + self.csr.cache().budget()
    }
}
