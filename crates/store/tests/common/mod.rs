//! Helpers shared by the `pa-store` integration tests.

use pa_mdp::{Choice, CsrRow};
use pa_store::StoreWriter;

/// Writes `rows` (state 0 initial) to `dir/model.pacsr`, cutting blocks at
/// `block_bytes` of payload.
pub fn write_store(
    dir: &std::path::Path,
    rows: &[Vec<Choice>],
    block_bytes: usize,
) -> pa_store::StoreFile {
    std::fs::create_dir_all(dir).unwrap();
    let path = dir.join("model.pacsr");
    let mut w = StoreWriter::create(&path, 0, block_bytes).unwrap();
    let mut choices = 0u64;
    let mut trans = 0u64;
    for (id, cs) in rows.iter().enumerate() {
        choices += cs.len() as u64;
        trans += cs.iter().map(|c| c.transitions.len() as u64).sum::<u64>();
        let costs: Vec<u32> = cs.iter().map(|c| c.cost).collect();
        let flat = cs.iter().flat_map(|c| c.transitions.iter());
        let targets: Vec<u32> = flat.clone().map(|&(t, _)| t as u32).collect();
        let probs: Vec<f64> = flat.map(|&(_, p)| p).collect();
        let trans_ends: Vec<u32> = cs
            .iter()
            .scan(0u32, |end, c| {
                *end += c.transitions.len() as u32;
                Some(*end)
            })
            .collect();
        let row = CsrRow {
            costs: &costs,
            trans_ends: &trans_ends,
            targets: &targets,
            probs: &probs,
        };
        w.push_row(id, row).unwrap();
    }
    w.finish(&[0], choices, trans).unwrap()
}
