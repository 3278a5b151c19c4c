//! Property tests for the `pa-store/csr/v2` format: serialize → (mmap)
//! → deserialize is the identity on arbitrary blocks, and damaged files —
//! truncation anywhere, a flipped payload bit, malformed rows behind a
//! matching digest — surface as *named* errors, never as UB, panics or
//! silently zeroed rows.

mod common;

use proptest::prelude::*;

use common::write_store;
use pa_mdp::{Choice, CsrSource, Query, QueryObjective};
use pa_store::{fnv1a_64, StoreError, StoredCsr};

/// The block size every property writes at: the writer's smallest
/// (`StoreWriter::create` raises any smaller target to 4 KiB).
const BLOCK_BYTES: usize = 4096;

/// An arbitrary model of `states` states as nested rows: per state, a
/// list of up to three choices, each a cost in {0,1} and a normalized
/// support of up to three transitions over the state ids. A state takes
/// about 26 payload bytes on average, so a model of more than about 160
/// states spans several blocks of [`BLOCK_BYTES`].
fn arb_rows(states: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = Vec<Vec<Choice>>> {
    let max_states = *states.end();
    prop::collection::vec(
        prop::collection::vec(
            (
                0u32..=1,
                prop::collection::vec((0usize..max_states, 1u32..=8), 1..4),
            ),
            0..4,
        ),
        states,
    )
    .prop_map(|rows| {
        let n = rows.len();
        rows.into_iter()
            .map(|choices| {
                choices
                    .into_iter()
                    .map(|(cost, support)| {
                        let total: u32 = support.iter().map(|&(_, w)| w).sum();
                        let transitions = support
                            .into_iter()
                            .map(|(t, w)| (t % n, f64::from(w) / f64::from(total)))
                            .collect();
                        Choice { cost, transitions }
                    })
                    .collect()
            })
            .collect()
    })
}

/// The models the properties draw: mostly several blocks, sometimes one.
fn arb_model() -> impl Strategy<Value = Vec<Vec<Choice>>> {
    arb_rows(1..=800)
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("pa-store-props-{}-{tag}", std::process::id()))
}

proptest! {
    /// Round trip: every row read back from disk equals what was written,
    /// across every block of the file.
    #[test]
    fn round_trip_is_identity(rows in arb_model()) {
        let dir = tmpdir("roundtrip");
        let file = write_store(&dir, &rows, BLOCK_BYTES);
        let stored = StoredCsr::new(file, u64::MAX);
        prop_assert_eq!(CsrSource::num_states(&stored), rows.len());
        let mut seen = vec![false; rows.len()];
        for b in 0..stored.num_blocks() {
            stored.with_rows(b, &mut |r| {
                for s in r.states() {
                    seen[s] = true;
                    let want = &rows[s];
                    let cr = r.choice_range(s);
                    assert_eq!(cr.len(), want.len(), "state {s} choice count");
                    for (c, choice) in cr.zip(want) {
                        assert_eq!(r.cost(c), choice.cost);
                        let tr = r.trans_range(c);
                        assert_eq!(tr.len(), choice.transitions.len());
                        for (i, &(t, p)) in tr.zip(&choice.transitions) {
                            assert_eq!(r.targets[i] as usize, t);
                            assert_eq!(r.prob(i).to_bits(), p.to_bits());
                        }
                    }
                }
            }).unwrap();
        }
        prop_assert!(seen.iter().all(|&s| s));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Truncating the file anywhere strictly inside it yields a named
    /// StoreError from open (or, for cuts inside a late block whose footer
    /// is gone too, still from open — the footer is always behind the cut).
    #[test]
    fn truncation_is_a_named_error(rows in arb_model(), frac in 0.0f64..1.0) {
        let dir = tmpdir("truncate");
        let file = write_store(&dir, &rows, BLOCK_BYTES);
        let path = file.path().to_path_buf();
        drop(file);
        let full = std::fs::read(&path).unwrap();
        let cut = ((full.len() as f64 * frac) as usize).min(full.len() - 1);
        std::fs::write(&path, &full[..cut]).unwrap();
        match pa_store::StoreFile::open(&path) {
            Err(
                StoreError::Truncated { .. }
                | StoreError::BadMagic
                | StoreError::Unsupported { .. }
                | StoreError::BadBlock { .. },
            ) => {}
            Err(other) => prop_assert!(false, "unexpected error kind: {other}"),
            Ok(_) => prop_assert!(false, "opened a truncated file"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Flipping one bit of one block's payload is caught by the digest on
    /// page-in — a named DigestMismatch naming the block.
    #[test]
    fn corrupted_payload_is_a_digest_mismatch(rows in arb_model(), seed in 0usize..4096) {
        let dir = tmpdir("corrupt");
        let file = write_store(&dir, &rows, BLOCK_BYTES);
        let path = file.path().to_path_buf();
        let metas: Vec<_> = file.blocks().to_vec();
        drop(file);
        let meta = metas[seed % metas.len()];
        let mut bytes = std::fs::read(&path).unwrap();
        let victim = meta.offset as usize + seed % meta.payload_len as usize;
        bytes[victim] ^= 1 << (seed % 8);
        std::fs::write(&path, &bytes).unwrap();
        let stored = StoredCsr::open(&path, u64::MAX).unwrap();
        let mut hit_bad_block = false;
        for b in 0..stored.num_blocks() {
            if let Err(e) = stored.with_rows(b, &mut |_| {}) {
                let msg = e.to_string();
                prop_assert!(
                    msg.contains("digest mismatch") || msg.contains("inconsistent"),
                    "unexpected error: {msg}"
                );
                hit_bad_block = true;
            }
        }
        // The flipped bit sat in *some* block; if it was a keys block (none
        // here: key_words = 0) or exactly cancelled nothing — every block is
        // CSR, so one with_rows must have failed.
        prop_assert!(hit_bad_block, "bit flip in block payload went unnoticed");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Damages block `meta` of the store file image `bytes` so that its rows
/// break one CSR invariant, then rewrites the footer digest to match the
/// damaged payload. `pick % 6` selects the damage, `pick / 6` where it
/// lands.
fn craft_block(bytes: &mut [u8], meta: &pa_store::BlockMeta, num_states: usize, pick: u64) {
    let (states, choices, trans, table) = (
        meta.states as usize,
        meta.choices as usize,
        meta.trans as usize,
        meta.table as usize,
    );
    let prob_table = meta.offset as usize;
    let choice_offsets = prob_table + table * 8;
    let trans_offsets = choice_offsets + (states + 1) * 4;
    let targets = trans_offsets + (choices + 1) * 4;
    let prob_ids = targets + trans * 4 + choices;
    let at = (pick / 6) as usize;
    let (pos, value) = match pick % 6 {
        // A successor past the last state.
        0 if trans > 0 => (
            targets + 4 * (at % trans),
            (num_states as u32 + (pick % 7) as u32)
                .to_le_bytes()
                .to_vec(),
        ),
        // A table entry outside [0, 1], or one that breaks the sums of
        // the choices that use it (every entry is used: it was interned at
        // its first use).
        1 if table > 0 => {
            let i = prob_table + 8 * (at % table);
            let p = f64::from_le_bytes(bytes[i..i + 8].try_into().unwrap());
            let bad = [f64::NAN, 2.0, -0.25, p / 2.0][at % 4];
            (i, bad.to_le_bytes().to_vec())
        }
        // An index at or past the table's end.
        2 if trans > 0 => (
            prob_ids + at % trans,
            vec![(table + at % (256 - table)) as u8],
        ),
        // An index to another entry: entries are distinct, so the
        // choice's sum moves off 1.
        3 if trans > 0 && table > 1 => {
            let i = prob_ids + at % trans;
            let other = (bytes[i] as usize + 1 + at % (table - 1)) % table;
            (i, vec![other as u8])
        }
        // A transition offset that runs backwards or past the end.
        4 if choices > 0 => (
            trans_offsets + 4 * (at % (choices + 1)),
            u32::MAX.to_le_bytes().to_vec(),
        ),
        // A choice offset that starts late, runs backwards or past the end.
        _ => (
            choice_offsets + 4 * (at % (states + 1)),
            u32::MAX.to_le_bytes().to_vec(),
        ),
    };
    bytes[pos..pos + value.len()].copy_from_slice(&value);
    let payload = &bytes[prob_table..prob_table + meta.payload_len as usize];
    let digest = fnv1a_64(payload).to_le_bytes();
    // The footer sits behind every payload, so the last occurrence of the
    // old digest is its footer entry.
    let old = meta.digest.to_le_bytes();
    let entry = bytes
        .windows(8)
        .rposition(|w| w == old)
        .expect("footer records the block digest");
    bytes[entry..entry + 8].copy_from_slice(&digest);
}

proptest! {
    /// Malformed rows behind a digest that matches are caught at page-in as
    /// a named BadBlock, and every query over the file returns an error
    /// instead of panicking inside a solver kernel.
    #[test]
    fn crafted_block_with_valid_digest_is_a_named_error(rows in arb_model(), pick in any::<u64>()) {
        let dir = tmpdir("crafted");
        let file = write_store(&dir, &rows, BLOCK_BYTES);
        let path = file.path().to_path_buf();
        let metas: Vec<_> = file.blocks().to_vec();
        drop(file);
        let victim = (pick % metas.len() as u64) as usize;
        let mut bytes = std::fs::read(&path).unwrap();
        craft_block(&mut bytes, &metas[victim], rows.len(), pick / 8);
        std::fs::write(&path, &bytes).unwrap();

        let stored = StoredCsr::open(&path, u64::MAX).unwrap();
        match stored.file().load_block(victim) {
            Err(StoreError::BadBlock { block, .. }) => prop_assert_eq!(block, victim),
            Err(other) => prop_assert!(false, "unexpected error kind: {other}"),
            Ok(_) => prop_assert!(false, "crafted block paged in"),
        }
        let target: Vec<bool> = (0..rows.len()).map(|s| s + 1 == rows.len()).collect();
        for (objective, horizon) in [
            (QueryObjective::MinProb, Some(2)),
            (QueryObjective::MaxProb, None),
            (QueryObjective::MinCost, None),
            (QueryObjective::MaxCost, None),
        ] {
            let query = Query::source(&stored).objective(objective).target(target.clone());
            let result = match horizon {
                Some(budget) => query.horizon(budget),
                None => query,
            }
            .run();
            prop_assert!(result.is_err(), "{objective:?} answered over a crafted block");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// At least three in four of the models the properties draw span several
/// blocks, so round trip, truncation, digests and crafted damage run on
/// multi-block files (256 draws of the properties' own generator).
#[test]
fn most_drawn_models_span_several_blocks() {
    let mut rng = proptest::TestRng::for_test("most_drawn_models_span_several_blocks");
    let draws = 256;
    let multi = (0..draws)
        .filter(|&i| {
            let rows = arb_model().sample(&mut rng);
            let dir = tmpdir(&format!("share-{i}"));
            let blocks = write_store(&dir, &rows, BLOCK_BYTES).blocks().len();
            std::fs::remove_dir_all(&dir).unwrap();
            blocks > 1
        })
        .count();
    assert!(
        4 * multi >= 3 * draws,
        "{multi} of {draws} drawn models span several blocks"
    );
}

/// Every kind of damage `craft_block` makes, on a fixed model of several
/// 4 KiB blocks with four-entry tables, is refused at page-in as a
/// named BadBlock.
#[test]
fn every_crafted_damage_is_a_named_bad_block() {
    let n = 400;
    let rows: Vec<Vec<Choice>> = (0..n)
        .map(|s| {
            let p = if s % 2 == 0 { 0.5 } else { 0.25 };
            vec![
                Choice::dist(1, vec![((s + 1) % n, p), (0, 1.0 - p)]),
                Choice::to(0, s),
            ]
        })
        .collect();
    for pick in 0..48 {
        let dir = tmpdir(&format!("damage-{pick}"));
        let file = write_store(&dir, &rows, 4096);
        let path = file.path().to_path_buf();
        let metas: Vec<_> = file.blocks().to_vec();
        drop(file);
        assert!(metas.len() >= 2, "the model splits into blocks");
        assert!(metas.iter().all(|m| m.table == 4));
        let mut bytes = std::fs::read(&path).unwrap();
        let victim = pick as usize % metas.len();
        craft_block(&mut bytes, &metas[victim], rows.len(), pick);
        std::fs::write(&path, &bytes).unwrap();
        let file = pa_store::StoreFile::open(&path).unwrap();
        match file.load_block(victim) {
            Err(StoreError::BadBlock { block, .. }) => assert_eq!(block, victim, "pick {pick}"),
            Err(other) => panic!("pick {pick}: unexpected error kind: {other}"),
            Ok(_) => panic!("pick {pick}: crafted block paged in"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A block directory entry claiming a table past 256 probabilities is
/// refused at open, before any payload arithmetic uses it.
#[test]
fn an_oversized_table_is_refused_at_open() {
    let dir = tmpdir("table");
    let file = write_store(&dir, &[vec![Choice::to(0, 0)]], 4096);
    let path = file.path().to_path_buf();
    let meta = file.blocks()[0];
    drop(file);
    let mut bytes = std::fs::read(&path).unwrap();
    // The entry's fields run kind, first state, states, choices,
    // transitions, table, offset, payload length, digest: the table sits
    // three words before the digest, the last occurrence of its bytes.
    let digest = bytes
        .windows(8)
        .rposition(|w| w == meta.digest.to_le_bytes())
        .unwrap();
    let table = digest - 24;
    assert_eq!(bytes[table..table + 8], meta.table.to_le_bytes());
    bytes[table..table + 8].copy_from_slice(&257u64.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    match pa_store::StoreFile::open(&path) {
        Err(StoreError::BadBlock { block: 0, reason }) => {
            assert!(reason.contains("257"), "{reason}")
        }
        other => panic!("an oversized table opened as {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A file written by the version 1 format (`PACSRv1\0`, version 1) is
/// refused with the version error, not read as version 2 rows.
#[test]
fn a_v1_header_is_refused_with_the_version_error() {
    let dir = tmpdir("v1");
    let file = write_store(&dir, &[vec![Choice::to(0, 0)]], 4096);
    let path = file.path().to_path_buf();
    drop(file);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[..8].copy_from_slice(b"PACSRv1\0");
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    match pa_store::StoreFile::open(&path) {
        Err(StoreError::Unsupported { reason }) => {
            assert!(reason.contains("version 1"), "{reason}")
        }
        other => panic!("a v1 file opened as {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn wrong_magic_is_rejected() {
    let dir = tmpdir("magic");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.pacsr");
    std::fs::write(&path, vec![0u8; 8192]).unwrap();
    assert!(matches!(
        pa_store::StoreFile::open(&path),
        Err(StoreError::BadMagic)
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn empty_file_is_truncated_not_a_panic() {
    let dir = tmpdir("empty");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.pacsr");
    std::fs::write(&path, b"").unwrap();
    assert!(matches!(
        pa_store::StoreFile::open(&path),
        Err(StoreError::Truncated { .. })
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}
