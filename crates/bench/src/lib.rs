//! Shared workloads for the criterion suites under `benches/`: the
//! paper-core experiments (parse, query, edit, round-trip, pipeline, memory,
//! store, prevalidation) and the diagnostics-overhead ablations. The served
//! stack — wire, cluster, WAL, replication, faults — is measured end to end
//! by `cxbench/`, not here.

use corpus::{generate, Manuscript, Params};

/// Standard workload sizes (words of content). Chosen so the full suite
/// runs in minutes while the scaling shape is visible over two decades.
pub const SIZES: &[usize] = &[1_000, 4_000, 16_000];

/// A manuscript plus its serialized forms, built once per configuration.
pub struct Workload {
    /// The generated manuscript.
    pub ms: Manuscript,
    /// Distributed documents (hierarchy name, xml).
    pub distributed: Vec<(String, String)>,
    /// Total XML bytes across the distributed docs.
    pub xml_bytes: usize,
}

/// Build the standard 3-hierarchy workload at `words`.
pub fn workload(words: usize) -> Workload {
    let ms = generate(&Params { words, seed: 2005, ..Params::default() });
    let distributed = ms.distributed();
    let xml_bytes = distributed.iter().map(|(_, x)| x.len()).sum();
    Workload { ms, distributed, xml_bytes }
}

/// Build a workload with a specific number of hierarchies (1–3).
pub fn workload_hierarchies(words: usize, nh: usize) -> Workload {
    let ms = generate(&Params {
        words,
        seed: 2005,
        physical: nh >= 1,
        linguistic: nh >= 2,
        damage_density: if nh >= 3 { 0.08 } else { 0.0 },
        restoration_density: if nh >= 3 { 0.05 } else { 0.0 },
        ..Params::default()
    });
    let distributed = ms.distributed();
    let xml_bytes = distributed.iter().map(|(_, x)| x.len()).sum();
    Workload { ms, distributed, xml_bytes }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_build() {
        let w = workload(1_000);
        assert_eq!(w.distributed.len(), 3);
        assert!(w.xml_bytes > 10_000);
        let w1 = workload_hierarchies(1_000, 1);
        assert_eq!(w1.distributed.len(), 1);
    }
}
