//! The `pa-store/csr/v2` on-disk format: writer, reader, and block views.
//!
//! ```text
//! offset 0     header   magic "PACSRv2\0" · version u32 · key_words u32
//! offset 4096  blocks   each page-aligned (4096); payload layouts below
//! ...          footer   counts · initial ids · one 72-byte meta per block
//! end-16       trailer  footer_offset u64 · magic "PACSRFTR"
//! ```
//!
//! Every multi-byte value is little-endian; [`StoreFile::open`] rejects
//! big-endian hosts rather than byte-swap on every access. A *CSR* block
//! holds a contiguous run of states' rows with block-relative `u32`
//! offsets, its own probability table and a `u8` table index per
//! transition: the in-memory [`CsrRows`] shape, dumped, so a paged-in
//! block is read where it lies, with no conversion.
//!
//! ```text
//! prob_table     f64 × table   (8-aligned: first section, page-aligned base)
//! choice_offsets u32 × states+1
//! trans_offsets  u32 × choices+1
//! targets        u32 × trans   (global state ids)
//! costs          u8  × choices
//! prob_ids       u8  × trans   (indices into prob_table)
//! ```
//!
//! A block's meta records `table`, its table length (at most
//! [`pa_mdp::PROB_TABLE_MAX`]). Version 1 files, which stored an `f64`
//! per transition and a `u32` per cost, are refused as
//! [`StoreError::Unsupported`]; re-spill the model to read it.
//!
//! A *keys* block holds the packed state words of a run of states
//! (`u64 × states × key_words`), so the interned id → state mapping
//! round-trips through disk alongside the rows. Each block's payload is
//! FNV-1a-64 digested at write time; the digest is re-verified on every
//! page-in, so a corrupt block surfaces as a named
//! [`StoreError::DigestMismatch`] — never as silently wrong probabilities.
//! A CSR block whose digest matches is then checked for the row invariants
//! the solvers index by (monotone offsets, in-range targets, choices that
//! are distributions), so a crafted or buggy block surfaces as a named
//! [`StoreError::BadBlock`] — never as a panic inside a solver.

use std::fs::File;
use std::io::{BufWriter, ErrorKind, Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use pa_mdp::{CsrBuilder, CsrRow, CsrRows, MdpError, RowSink, PROB_TABLE_MAX};

use crate::error::StoreError;

/// File magic: the first 8 bytes of every store file.
pub const HEADER_MAGIC: [u8; 8] = *b"PACSRv2\0";
/// Trailer magic: the last 8 bytes of every store file.
pub const FOOTER_MAGIC: [u8; 8] = *b"PACSRFTR";
/// Format version written into the header.
pub const VERSION: u32 = 2;
/// Block alignment: every block payload starts on a 4096-byte boundary, so
/// a page-in reads whole pages of the file.
pub const BLOCK_ALIGN: u64 = 4096;
/// Default target payload size per block (8 MiB). Small enough that a
/// one-block cache budget stays modest, large enough that sweeps are
/// sequential I/O.
pub const DEFAULT_BLOCK_BYTES: usize = 8 << 20;

/// What a block stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKind {
    /// A run of states' CSR rows.
    Csr,
    /// A run of states' packed key words.
    Keys,
}

/// One block's footer entry: geometry, file location, and payload digest.
#[derive(Debug, Clone, Copy)]
pub struct BlockMeta {
    /// What the block stores.
    pub kind: BlockKind,
    /// Global id of the first state covered.
    pub first_state: u64,
    /// Number of states covered.
    pub states: u64,
    /// Number of choices (0 for key blocks).
    pub choices: u64,
    /// Number of transitions (0 for key blocks).
    pub trans: u64,
    /// Entries of the block's probability table (0 for key blocks).
    pub table: u64,
    /// Byte offset of the payload (multiple of [`BLOCK_ALIGN`]).
    pub offset: u64,
    /// Payload length in bytes.
    pub payload_len: u64,
    /// FNV-1a 64 digest of the payload bytes.
    pub digest: u64,
}

impl BlockMeta {
    fn expected_payload(&self, key_words: usize) -> u64 {
        match self.kind {
            BlockKind::Csr => {
                self.table * 8
                    + (self.states + 1) * 4
                    + (self.choices + 1) * 4
                    + self.trans * 4
                    + self.choices
                    + self.trans
            }
            BlockKind::Keys => self.states * key_words as u64 * 8,
        }
    }
}

/// FNV-1a 64 over raw bytes — the same constants as the workspace's other
/// digests (`pa-batch`'s report digest, `pa_mdp::csr_digest`).
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn push_u32s(out: &mut Vec<u8>, vals: &[u32]) {
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Appends CSR blocks to a new store file as rows stream in; implements
/// [`RowSink`] so [`pa_mdp::Explore::run_streamed`] can drive it directly.
///
/// Rows accumulate in a [`CsrBuilder`] — the row builder the in-core
/// explorer fills too — until the pending payload reaches the block
/// target, then the builder's arrays are flushed as one block and cleared:
/// peak writer memory is one block plus buffered-writer overhead,
/// independent of model size.
#[derive(Debug)]
pub struct StoreWriter {
    file: BufWriter<File>,
    path: PathBuf,
    key_words: usize,
    block_bytes: usize,
    pos: u64,
    blocks: Vec<BlockMeta>,
    first_state: usize,
    /// The pending block's rows.
    pending: CsrBuilder,
}

impl StoreWriter {
    /// Creates `path` (truncating any existing file) and writes the
    /// header. `key_words` is the per-state packed-key width in `u64`s
    /// (0: no key blocks will be written).
    pub fn create(
        path: impl AsRef<Path>,
        key_words: usize,
        block_bytes: usize,
    ) -> Result<StoreWriter, StoreError> {
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path).map_err(StoreError::io("create store file"))?;
        let mut w = StoreWriter {
            file: BufWriter::new(file),
            path,
            key_words,
            block_bytes: block_bytes.max(4096),
            pos: 0,
            blocks: Vec::new(),
            first_state: 0,
            pending: CsrBuilder::new(),
        };
        let mut header = Vec::with_capacity(16);
        header.extend_from_slice(&HEADER_MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        header.extend_from_slice(&(key_words as u32).to_le_bytes());
        w.write_all(&header)?;
        w.pad_to_align()?;
        Ok(w)
    }

    /// The file being written.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn write_all(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.file
            .write_all(bytes)
            .map_err(StoreError::io("write store file"))?;
        self.pos += bytes.len() as u64;
        Ok(())
    }

    fn pad_to_align(&mut self) -> Result<(), StoreError> {
        let rem = self.pos % BLOCK_ALIGN;
        if rem != 0 {
            let pad = vec![0u8; (BLOCK_ALIGN - rem) as usize];
            self.write_all(&pad)?;
        }
        Ok(())
    }

    /// The next state id the writer expects.
    fn next_state(&self) -> usize {
        self.first_state + self.pending.num_states()
    }

    /// Appends state `id`'s row to the pending block, flushing first if
    /// the block target is reached.
    ///
    /// # Errors
    ///
    /// I/O errors of the flush.
    pub fn push_row(&mut self, id: usize, row: CsrRow<'_>) -> Result<(), StoreError> {
        debug_assert_eq!(id, self.next_state(), "rows must arrive in dense-id order");
        if self.pending.payload_bytes() >= self.block_bytes && self.pending.num_states() > 0 {
            self.flush_csr_block()?;
        }
        self.pending.push_row(row)?;
        Ok(())
    }

    fn flush_csr_block(&mut self) -> Result<(), StoreError> {
        let states = self.pending.num_states();
        if states == 0 {
            return Ok(());
        }
        let rows = self.pending.rows(self.first_state);
        let mut payload = Vec::with_capacity(self.pending.payload_bytes());
        for p in rows.prob_table {
            payload.extend_from_slice(&p.to_bits().to_le_bytes());
        }
        push_u32s(&mut payload, rows.choice_offsets);
        push_u32s(&mut payload, rows.trans_offsets);
        push_u32s(&mut payload, rows.targets);
        payload.extend_from_slice(rows.costs);
        payload.extend_from_slice(rows.prob_ids);
        let meta = BlockMeta {
            kind: BlockKind::Csr,
            first_state: self.first_state as u64,
            states: states as u64,
            choices: rows.costs.len() as u64,
            trans: rows.targets.len() as u64,
            table: rows.prob_table.len() as u64,
            offset: self.pos,
            payload_len: payload.len() as u64,
            digest: fnv1a_64(&payload),
        };
        self.write_all(&payload)?;
        self.pad_to_align()?;
        self.blocks.push(meta);
        self.first_state += states;
        self.pending.clear();
        Ok(())
    }

    /// Writes the packed key words of states `first..first + count` as one
    /// keys block. Callers chunk so each block stays near the block
    /// target; `words` must hold exactly `count * key_words` values.
    pub fn push_keys(
        &mut self,
        first: usize,
        count: usize,
        words: &[u64],
    ) -> Result<(), StoreError> {
        assert_eq!(words.len(), count * self.key_words);
        let mut payload = Vec::with_capacity(words.len() * 8);
        for w in words {
            payload.extend_from_slice(&w.to_le_bytes());
        }
        let meta = BlockMeta {
            kind: BlockKind::Keys,
            first_state: first as u64,
            states: count as u64,
            choices: 0,
            trans: 0,
            table: 0,
            offset: self.pos,
            payload_len: payload.len() as u64,
            digest: fnv1a_64(&payload),
        };
        self.write_all(&payload)?;
        self.pad_to_align()?;
        self.blocks.push(meta);
        Ok(())
    }

    /// Flushes the pending block, writes the footer and trailer, syncs,
    /// and reopens the finished file through the reader (so every write
    /// path exercises the open-time validation).
    ///
    /// `initial`, `num_choices`, and `num_transitions` are the exploration
    /// totals (a [`pa_mdp::StreamSummary`] carries them).
    pub fn finish(
        mut self,
        initial: &[usize],
        num_choices: u64,
        num_transitions: u64,
    ) -> Result<StoreFile, StoreError> {
        self.flush_csr_block()?;
        let num_states = self.first_state as u64;
        let mut footer = Vec::new();
        footer.extend_from_slice(&num_states.to_le_bytes());
        footer.extend_from_slice(&num_choices.to_le_bytes());
        footer.extend_from_slice(&num_transitions.to_le_bytes());
        footer.extend_from_slice(&(self.key_words as u64).to_le_bytes());
        footer.extend_from_slice(&(initial.len() as u64).to_le_bytes());
        for &s in initial {
            footer.extend_from_slice(&(s as u64).to_le_bytes());
        }
        footer.extend_from_slice(&(self.blocks.len() as u64).to_le_bytes());
        for b in &self.blocks {
            let kind: u64 = match b.kind {
                BlockKind::Csr => 0,
                BlockKind::Keys => 1,
            };
            for v in [
                kind,
                b.first_state,
                b.states,
                b.choices,
                b.trans,
                b.table,
                b.offset,
                b.payload_len,
                b.digest,
            ] {
                footer.extend_from_slice(&v.to_le_bytes());
            }
        }
        let footer_offset = self.pos;
        self.write_all(&footer)?;
        let mut trailer = Vec::with_capacity(16);
        trailer.extend_from_slice(&footer_offset.to_le_bytes());
        trailer.extend_from_slice(&FOOTER_MAGIC);
        self.write_all(&trailer)?;
        self.file
            .flush()
            .map_err(StoreError::io("flush store file"))?;
        self.file
            .get_ref()
            .sync_all()
            .map_err(StoreError::io("sync store file"))?;
        StoreFile::open(&self.path)
    }
}

impl RowSink for StoreWriter {
    fn state_row(&mut self, id: usize, row: CsrRow<'_>) -> Result<(), MdpError> {
        self.push_row(id, row).map_err(MdpError::from)
    }
}

/// A validated, opened store file: parsed footer plus the file handle
/// blocks are read from. Open-time validation checks the header, the
/// trailer, footer bounds, every block's geometry arithmetic, and that the
/// CSR blocks partition `0..num_states` consecutively; payload digests are
/// checked lazily, on each page-in.
#[derive(Debug)]
pub struct StoreFile {
    file: File,
    path: PathBuf,
    num_states: usize,
    num_choices: u64,
    num_transitions: u64,
    key_words: usize,
    initial: Vec<usize>,
    blocks: Vec<BlockMeta>,
}

struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
    what: &'static str,
}

impl Cursor<'_> {
    fn u64(&mut self) -> Result<u64, StoreError> {
        let end = self.at + 8;
        if end > self.buf.len() {
            return Err(StoreError::Truncated {
                what: self.what.to_string(),
            });
        }
        let v = u64::from_le_bytes(self.buf[self.at..end].try_into().expect("8 bytes"));
        self.at = end;
        Ok(v)
    }
}

impl StoreFile {
    /// Opens and validates `path`.
    pub fn open(path: impl AsRef<Path>) -> Result<StoreFile, StoreError> {
        if cfg!(target_endian = "big") {
            return Err(StoreError::Unsupported {
                reason: "pa-store/csr/v2 files are little-endian; this host is big-endian".into(),
            });
        }
        let path = path.as_ref().to_path_buf();
        let mut file = File::open(&path).map_err(StoreError::io("open store file"))?;
        let len = file
            .metadata()
            .map_err(StoreError::io("stat store file"))?
            .len();
        if len < BLOCK_ALIGN + 16 {
            return Err(StoreError::Truncated {
                what: "header and trailer".into(),
            });
        }
        let mut header = [0u8; 16];
        file.read_exact(&mut header)
            .map_err(StoreError::io("read header"))?;
        // Magic and version move together; a file of another version is
        // named as such, not as a foreign file.
        if header[..5] != HEADER_MAGIC[..5] {
            return Err(StoreError::BadMagic);
        }
        let version = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
        if version != VERSION || header[..8] != HEADER_MAGIC {
            return Err(StoreError::Unsupported {
                reason: format!("format version {version} (this reader speaks {VERSION})"),
            });
        }
        let key_words = u32::from_le_bytes(header[12..16].try_into().expect("4 bytes")) as usize;
        let mut trailer = [0u8; 16];
        file.seek(SeekFrom::Start(len - 16))
            .map_err(StoreError::io("seek to trailer"))?;
        file.read_exact(&mut trailer)
            .map_err(StoreError::io("read trailer"))?;
        if trailer[8..] != FOOTER_MAGIC {
            return Err(StoreError::BadMagic);
        }
        let footer_offset = u64::from_le_bytes(trailer[..8].try_into().expect("8 bytes"));
        if footer_offset < BLOCK_ALIGN || footer_offset > len - 16 {
            return Err(StoreError::Truncated {
                what: "footer".into(),
            });
        }
        let mut footer = vec![0u8; (len - 16 - footer_offset) as usize];
        file.seek(SeekFrom::Start(footer_offset))
            .map_err(StoreError::io("seek to footer"))?;
        file.read_exact(&mut footer)
            .map_err(StoreError::io("read footer"))?;
        let mut cur = Cursor {
            buf: &footer,
            at: 0,
            what: "footer",
        };
        let num_states = cur.u64()? as usize;
        let num_choices = cur.u64()?;
        let num_transitions = cur.u64()?;
        let footer_key_words = cur.u64()? as usize;
        if footer_key_words != key_words {
            return Err(StoreError::Unsupported {
                reason: format!(
                    "header says {key_words} key words, footer says {footer_key_words}"
                ),
            });
        }
        let initial_count = cur.u64()? as usize;
        let mut initial = Vec::with_capacity(initial_count);
        for _ in 0..initial_count {
            let s = cur.u64()? as usize;
            if s >= num_states {
                return Err(StoreError::BadBlock {
                    block: 0,
                    reason: format!("initial state {s} out of range ({num_states} states)"),
                });
            }
            initial.push(s);
        }
        let num_blocks = cur.u64()? as usize;
        let mut blocks = Vec::with_capacity(num_blocks);
        let mut next_csr_state = 0u64;
        for i in 0..num_blocks {
            let kind = match cur.u64()? {
                0 => BlockKind::Csr,
                1 => BlockKind::Keys,
                other => {
                    return Err(StoreError::BadBlock {
                        block: i,
                        reason: format!("unknown block kind {other}"),
                    })
                }
            };
            let meta = BlockMeta {
                kind,
                first_state: cur.u64()?,
                states: cur.u64()?,
                choices: cur.u64()?,
                trans: cur.u64()?,
                table: cur.u64()?,
                offset: cur.u64()?,
                payload_len: cur.u64()?,
                digest: cur.u64()?,
            };
            if meta.kind == BlockKind::Csr && meta.table > PROB_TABLE_MAX as u64 {
                return Err(StoreError::BadBlock {
                    block: i,
                    reason: format!(
                        "probability table of {} entries (at most {PROB_TABLE_MAX})",
                        meta.table
                    ),
                });
            }
            if !meta.offset.is_multiple_of(BLOCK_ALIGN) {
                return Err(StoreError::BadBlock {
                    block: i,
                    reason: format!("offset {} not {BLOCK_ALIGN}-aligned", meta.offset),
                });
            }
            if meta.offset + meta.payload_len > footer_offset {
                return Err(StoreError::Truncated {
                    what: format!("block {i} payload"),
                });
            }
            if meta.payload_len != meta.expected_payload(key_words) {
                return Err(StoreError::BadBlock {
                    block: i,
                    reason: format!(
                        "payload length {} does not match geometry (expected {})",
                        meta.payload_len,
                        meta.expected_payload(key_words)
                    ),
                });
            }
            if meta.kind == BlockKind::Csr {
                if meta.first_state != next_csr_state {
                    return Err(StoreError::BadBlock {
                        block: i,
                        reason: format!(
                            "CSR blocks must partition the state space consecutively \
                             (expected first state {next_csr_state}, found {})",
                            meta.first_state
                        ),
                    });
                }
                next_csr_state += meta.states;
            }
            blocks.push(meta);
        }
        if next_csr_state != num_states as u64 {
            return Err(StoreError::BadBlock {
                block: blocks.len().saturating_sub(1),
                reason: format!(
                    "CSR blocks cover {next_csr_state} states, footer declares {num_states}"
                ),
            });
        }
        Ok(StoreFile {
            file,
            path,
            num_states,
            num_choices,
            num_transitions,
            key_words,
            initial,
            blocks,
        })
    }

    /// Path the file was opened from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Total number of choices.
    pub fn num_choices(&self) -> u64 {
        self.num_choices
    }

    /// Total number of transitions.
    pub fn num_transitions(&self) -> u64 {
        self.num_transitions
    }

    /// Per-state packed-key width in `u64` words (0: no keys stored).
    pub fn key_words(&self) -> usize {
        self.key_words
    }

    /// The initial state indices.
    pub fn initial(&self) -> &[usize] {
        &self.initial
    }

    /// All block metadata, in file order.
    pub fn blocks(&self) -> &[BlockMeta] {
        &self.blocks
    }

    /// Pages block `idx` in: one positioned read of its payload into an
    /// owned, 8-byte-aligned buffer, then the payload digest and, for a CSR
    /// block, the row invariants the solver kernels index by (see
    /// [`StoreError::BadBlock`]). A file that ends inside the block (it
    /// was truncated after [`StoreFile::open`]) fails as
    /// [`StoreError::Truncated`].
    pub fn load_block(&self, idx: usize) -> Result<MappedBlock, StoreError> {
        self.load_block_into(idx, Vec::new())
    }

    /// [`StoreFile::load_block`] into `buf`, whose allocation the block
    /// takes over: a buffer recycled from an evicted block of at least
    /// this block's size makes the page-in allocate nothing.
    pub(crate) fn load_block_into(
        &self,
        idx: usize,
        mut buf: Vec<u64>,
    ) -> Result<MappedBlock, StoreError> {
        let meta = self.blocks[idx];
        // The stale words a recycled buffer keeps are overwritten by the
        // read; only growth past its old length is zeroed.
        buf.resize((meta.payload_len as usize).div_ceil(8), 0);
        let mut block = MappedBlock {
            buf,
            meta,
            key_words: self.key_words,
        };
        self.file
            .read_exact_at(block.bytes_mut(), meta.offset)
            .map_err(|source| match source.kind() {
                ErrorKind::UnexpectedEof => StoreError::Truncated {
                    what: format!(
                        "block {idx} payload at offset {} ({} bytes)",
                        meta.offset, meta.payload_len
                    ),
                },
                _ => StoreError::Io {
                    op: format!("read block {idx}"),
                    source,
                },
            })?;
        let got = fnv1a_64(block.bytes());
        if got != meta.digest {
            return Err(StoreError::DigestMismatch {
                block: idx,
                expected: meta.digest,
                got,
            });
        }
        if meta.kind == BlockKind::Csr {
            check_rows(&block.rows(), &meta, self.num_states)
                .map_err(|reason| StoreError::BadBlock { block: idx, reason })?;
        }
        Ok(block)
    }

    /// Reads every keys block back into one id-ordered word vector (states
    /// with ids below the first keys block, if any, are absent). Intended
    /// for round-trip verification and re-opening stored models.
    pub fn read_keys(&self) -> Result<Vec<u64>, StoreError> {
        let mut words = Vec::new();
        for (i, meta) in self.blocks.iter().enumerate() {
            if meta.kind == BlockKind::Keys {
                let block = self.load_block(i)?;
                words.extend_from_slice(block.keys());
            }
        }
        Ok(words)
    }
}

/// Checks the CSR invariants of a paged-in block whose digest matched: both
/// offset arrays start at 0, never decrease, and end at the declared
/// geometry; every target is a state of the model; every table entry is a
/// probability in [0, 1] and every index names an entry; every choice is
/// a distribution, its probabilities summing to 1 within the `1e-6` that
/// `ExplicitMdp::new` allows. A digest only proves the bytes are the ones
/// written, so these checks are what keep a crafted or buggy block from
/// panicking inside a solver kernel.
fn check_rows(rows: &CsrRows<'_>, meta: &BlockMeta, num_states: usize) -> Result<(), String> {
    let (co, to) = (rows.choice_offsets, rows.trans_offsets);
    let (co_last, to_last) = (co[co.len() - 1], to[to.len() - 1]);
    if co[0] != 0
        || to[0] != 0
        || u64::from(co_last) != meta.choices
        || u64::from(to_last) != meta.trans
    {
        return Err(format!(
            "offset arrays span ({}, {})..({co_last}, {to_last}), geometry says (0, 0)..({}, {})",
            co[0], to[0], meta.choices, meta.trans
        ));
    }
    if let Some(i) = co.windows(2).position(|w| w[0] > w[1]) {
        return Err(format!(
            "choice offsets decrease at state {}",
            meta.first_state + i as u64
        ));
    }
    if let Some(c) = to.windows(2).position(|w| w[0] > w[1]) {
        return Err(format!("transition offsets decrease at choice {c}"));
    }
    if let Some(t) = rows.targets.iter().find(|&&t| t as usize >= num_states) {
        return Err(format!("target {t} out of range ({num_states} states)"));
    }
    let table = rows.prob_table;
    if let Some(k) = table.iter().position(|p| !(0.0..=1.0).contains(p)) {
        return Err(format!("probability table entry {k} is {}", table[k]));
    }
    if let Some(i) = rows
        .prob_ids
        .iter()
        .position(|&k| usize::from(k) >= table.len())
    {
        return Err(format!(
            "transition {i} names probability {} of a {}-entry table",
            rows.prob_ids[i],
            table.len()
        ));
    }
    for c in 0..co_last as usize {
        let sum: f64 = rows.trans_range(c).map(|i| rows.prob(i)).sum();
        if (sum - 1.0).abs() > 1e-6 {
            return Err(format!("choice {c} probabilities sum to {sum}"));
        }
    }
    Ok(())
}

/// One resident block: its payload, read into an owned buffer, plus its
/// parsed geometry. CSR blocks expose [`MappedBlock::rows`]; keys blocks
/// expose [`MappedBlock::keys`], both as typed views of the buffer.
pub struct MappedBlock {
    /// The payload in its first `meta.payload_len` bytes. `u64` words
    /// keep the base 8-byte aligned, which the typed views rely on.
    buf: Vec<u64>,
    meta: BlockMeta,
    key_words: usize,
}

impl MappedBlock {
    fn bytes(&self) -> &[u8] {
        let len = self.meta.payload_len as usize;
        assert!(len <= self.buf.len() * 8);
        // SAFETY: the buffer owns at least `len` initialized bytes.
        unsafe { std::slice::from_raw_parts(self.buf.as_ptr().cast::<u8>(), len) }
    }

    fn bytes_mut(&mut self) -> &mut [u8] {
        let len = self.meta.payload_len as usize;
        assert!(len <= self.buf.len() * 8);
        // SAFETY: as in `bytes`, borrowed uniquely; u8 accepts any value.
        unsafe { std::slice::from_raw_parts_mut(self.buf.as_mut_ptr().cast::<u8>(), len) }
    }

    /// Hands the block's buffer back for the next page-in to read into.
    pub(crate) fn take_buffer(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.buf)
    }

    /// Capacity of the block's buffer in bytes: what a page-in reusing it
    /// can read without allocating.
    pub(crate) fn buffer_bytes(&self) -> usize {
        self.buf.capacity() * 8
    }

    fn u8s(&self, off: usize, len: usize) -> &[u8] {
        &self.bytes()[off..off + len]
    }

    fn u32s(&self, off: usize, len: usize) -> &[u32] {
        let b = &self.bytes()[off..off + len * 4];
        debug_assert_eq!(b.as_ptr() as usize % 4, 0);
        // SAFETY: the range is in bounds, 4-aligned (8-aligned base, all
        // section offsets are multiples of 4), and u32 has no invalid bit
        // patterns.
        unsafe { std::slice::from_raw_parts(b.as_ptr().cast::<u32>(), len) }
    }

    /// The block's geometry and location.
    pub fn meta(&self) -> &BlockMeta {
        &self.meta
    }

    /// Payload size in bytes — what the block costs while resident.
    pub fn resident_bytes(&self) -> u64 {
        self.meta.payload_len
    }

    /// The block's rows. Panics if called on a keys block.
    pub fn rows(&self) -> CsrRows<'_> {
        assert_eq!(self.meta.kind, BlockKind::Csr);
        let states = self.meta.states as usize;
        let choices = self.meta.choices as usize;
        let trans = self.meta.trans as usize;
        let table = self.meta.table as usize;
        let prob_table = {
            let b = &self.bytes()[..table * 8];
            debug_assert_eq!(b.as_ptr() as usize % 8, 0);
            // SAFETY: in bounds, 8-aligned base, f64 accepts any bit
            // pattern (probabilities were written as raw to_bits).
            unsafe { std::slice::from_raw_parts(b.as_ptr().cast::<f64>(), table) }
        };
        let mut off = table * 8;
        let choice_offsets = self.u32s(off, states + 1);
        off += (states + 1) * 4;
        let trans_offsets = self.u32s(off, choices + 1);
        off += (choices + 1) * 4;
        let targets = self.u32s(off, trans);
        off += trans * 4;
        let costs = self.u8s(off, choices);
        off += choices;
        let prob_ids = self.u8s(off, trans);
        CsrRows {
            first_state: self.meta.first_state as usize,
            choice_offsets,
            trans_offsets,
            targets,
            costs,
            prob_ids,
            prob_table,
        }
    }

    /// The block's packed key words. Panics if called on a CSR block.
    pub fn keys(&self) -> &[u64] {
        assert_eq!(self.meta.kind, BlockKind::Keys);
        // The payload is the words themselves: `buf` holds them as read
        // (little-endian, which `StoreFile::open` requires of the host).
        &self.buf[..self.meta.states as usize * self.key_words]
    }
}

impl std::fmt::Debug for MappedBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedBlock")
            .field("meta", &self.meta)
            .field("key_words", &self.key_words)
            .field("buffer_bytes", &self.buffer_bytes())
            .finish()
    }
}
