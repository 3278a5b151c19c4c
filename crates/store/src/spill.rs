//! Spilled exploration: the [`SpillTo`] extension on [`Explore`] and the
//! key-word bridge from state spaces to the store's keys blocks.

use std::hash::Hash;
use std::path::{Path, PathBuf};

use pa_core::Automaton;
use pa_mdp::{BoxedSpace, Explore, PackedSpace, StateCodec, StateSpace};

use crate::error::StoreError;
use crate::format::{StoreWriter, DEFAULT_BLOCK_BYTES};
use crate::stored::{StoredCsr, StoredModel};

/// A fixed-width packed word that can dump itself as `u64`s — what a
/// [`PackedSpace`] needs so its interned keys can be spilled alongside the
/// rows.
pub trait KeyWord: Copy {
    /// Width in `u64` words.
    const WORDS: usize;
    /// Appends the word's `u64`s to `out`.
    fn append_to(&self, out: &mut Vec<u64>);
}

impl KeyWord for u64 {
    const WORDS: usize = 1;
    fn append_to(&self, out: &mut Vec<u64>) {
        out.push(*self);
    }
}

impl<const N: usize> KeyWord for [u64; N] {
    const WORDS: usize = N;
    fn append_to(&self, out: &mut Vec<u64>) {
        out.extend_from_slice(self);
    }
}

/// A state space whose interned keys can be written to keys blocks.
/// `key_words() == 0` means the space has no fixed-width encoding (boxed
/// spaces) and no keys blocks are written — the space itself stays the
/// only id → state record.
pub trait KeySource {
    /// Per-state key width in `u64` words.
    fn key_words(&self) -> usize;
    /// Appends state `id`'s key words to `out`.
    fn append_key(&self, id: usize, out: &mut Vec<u64>);
}

impl<C: StateCodec> KeySource for PackedSpace<C>
where
    C::Word: KeyWord,
{
    fn key_words(&self) -> usize {
        C::Word::WORDS
    }

    fn append_key(&self, id: usize, out: &mut Vec<u64>) {
        self.words()[id].append_to(out);
    }
}

impl<S: Clone + Eq + Hash> KeySource for BoxedSpace<S> {
    fn key_words(&self) -> usize {
        0
    }

    fn append_key(&self, _id: usize, _out: &mut Vec<u64>) {}
}

/// Adds [`SpillTo::spill_to`] to [`Explore`]: route the exploration
/// through a disk store instead of materializing the model.
pub trait SpillTo: Sized {
    /// Spills explored CSR blocks into `dir/model.pacsr` and serves
    /// queries through a block cache of `cache_budget` payload bytes.
    ///
    /// The exploration itself holds one pending block plus the state space
    /// and BFS frontier; analyses hold the cache budget plus their value
    /// vectors. Results are bitwise identical to the in-core pipeline for
    /// every budget (see the [`pa_mdp::source`] module docs).
    fn spill_to(self, dir: impl AsRef<Path>, cache_budget: u64) -> Spilling<Self> {
        Spilling {
            explore: self,
            dir: dir.as_ref().to_path_buf(),
            cache_budget,
            block_bytes: DEFAULT_BLOCK_BYTES,
        }
    }
}

impl<M: Automaton, F> SpillTo for Explore<'_, M, F> {}

/// An [`Explore`] routed to disk; built by [`SpillTo::spill_to`].
#[derive(Debug)]
pub struct Spilling<E> {
    explore: E,
    dir: PathBuf,
    cache_budget: u64,
    block_bytes: usize,
}

impl<E> Spilling<E> {
    /// Overrides the target payload bytes per block (default 8 MiB).
    /// Smaller blocks let tighter cache budgets stay within RSS bounds;
    /// larger blocks make sweeps more sequential.
    pub fn block_bytes(mut self, bytes: usize) -> Spilling<E> {
        self.block_bytes = bytes;
        self
    }
}

impl<M, F> Spilling<Explore<'_, M, F>>
where
    M: Automaton,
    F: Fn(&M::State, &M::Action) -> u32,
{
    /// Runs the spilled exploration with a [`BoxedSpace`].
    pub fn run(self) -> Result<StoredModel<M::State, BoxedSpace<M::State>>, StoreError>
    where
        M::State: Clone + Eq + Hash,
    {
        self.run_in(BoxedSpace::default())
    }

    /// Runs the spilled exploration with the given state space, writing
    /// CSR blocks as the BFS closes them and (for packed spaces) the
    /// interned key words afterwards.
    ///
    /// # Errors
    ///
    /// Exploration errors ([`pa_mdp::MdpError`], wrapped) and store I/O
    /// errors.
    pub fn run_in<SP>(self, space: SP) -> Result<StoredModel<M::State, SP>, StoreError>
    where
        SP: StateSpace<M::State> + KeySource,
    {
        std::fs::create_dir_all(&self.dir).map_err(StoreError::io("create spill directory"))?;
        let path = self.dir.join("model.pacsr");
        let mut writer = StoreWriter::create(&path, space.key_words(), self.block_bytes)?;
        let (space, summary) = self.explore.run_streamed(space, &mut writer)?;
        let kw = space.key_words();
        if kw > 0 {
            let chunk = (self.block_bytes / (kw * 8)).max(1);
            let mut words = Vec::with_capacity(chunk.min(summary.num_states) * kw);
            let mut first = 0usize;
            while first < summary.num_states {
                let count = chunk.min(summary.num_states - first);
                words.clear();
                for id in first..first + count {
                    space.append_key(id, &mut words);
                }
                writer.push_keys(first, count, &words)?;
                first += count;
            }
        }
        let file = writer.finish(
            &summary.initial,
            summary.num_choices,
            summary.num_transitions,
        )?;
        Ok(StoredModel::new(
            space,
            StoredCsr::new(file, self.cache_budget),
        ))
    }
}
