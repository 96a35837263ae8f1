//! The benchmark's inputs, pinned byte for byte. `cxbench` builds its
//! workloads from `corpus::generate`, the two prevalidation hosts and
//! `WordGen`'s stream, so a change to corpus's PRNG or generators that
//! moves one byte of them changes what the benchmark measures. Each digest
//! is FNV-1a over the generated text.

use corpus::text::WordGen;
use corpus::{bare_host, generate, mixed_host, Params};

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x1000_0000_01b3))
}

fn manuscript(seed: u64, words: usize) -> (u64, u64) {
    let ms = generate(&Params { words, seed, ..Params::default() });
    let xml: String = ms.distributed().iter().map(|(h, doc)| format!("{h}\n{doc}\n")).collect();
    (fnv1a(&xml), fnv1a(&sacx::export_standoff(&ms.goddag)))
}

fn host(h: (goddag::Goddag, goddag::HierarchyId, Vec<(usize, usize)>)) -> u64 {
    let (g, ling, ranges) = h;
    fnv1a(&format!("{ling}\n{}\n{ranges:?}", sacx::export_standoff(&g)))
}

#[test]
fn generated_manuscripts_are_pinned() {
    let pinned = [
        (2005, 300, (0x5eb4_0a68_25e0_c744, 0x0d76_8da2_22f2_7539)),
        (2005, 2_000, (0xfb6b_0b56_613c_2f4e, 0x537c_0aa6_9233_9a78)),
        (7919, 300, (0xec4f_ce90_e95f_96b1, 0xd97b_b668_5096_43e1)),
        (7919, 2_000, (0x6d61_1442_3c2d_2dae, 0xe961_a791_10a1_0fbc)),
    ];
    for (seed, words, digests) in pinned {
        assert_eq!(manuscript(seed, words), digests, "seed {seed}, {words} words");
    }
}

#[test]
fn prevalidation_hosts_are_pinned() {
    assert_eq!(host(mixed_host(200)), 0x45b4_0eaf_23b2_73af);
    assert_eq!(host(bare_host(200)), 0xd717_ebb0_f0ce_855a);
}

#[test]
fn the_word_stream_is_pinned() {
    assert_eq!(fnv1a(&WordGen::new(2005).words(1_000).join(" ")), 0xf860_9f6c_bee8_448d);
}
