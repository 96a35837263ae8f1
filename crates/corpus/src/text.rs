//! Pseudo-Old-English text generation.
//!
//! The paper demos on the 10th-century OE manuscript of Boethius'
//! *Consolation of Philosophy* (British Library MS Cotton Otho A. vi), which
//! we cannot ship. The framework's behaviour depends only on the *shape* of
//! the text (word/sentence lengths, markup positions), so we synthesize
//! OE-looking words from a syllable inventory drawn from the period's
//! phonology — enough to make examples readable and encodings realistic.

/// The workspace's one seeded stream (splitmix64): it makes every corpus
/// document and, through [`crate::gen::Source`], every randomised test's
/// choices. Statistical quality is irrelevant here: only determinism per
/// seed and a roughly uniform spread matter. The benchmark's documents
/// come from it, so `tests/digests.rs` pins what it draws.
pub(crate) struct SplitMix64(pub(crate) u64);

impl SplitMix64 {
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, n)`; `n` must be nonzero.
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform `f64` in `[0, 1)`.
    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Onsets, nuclei and codas sampled from Old English orthography.
const ONSETS: &[&str] = &[
    "", "b", "c", "d", "f", "g", "h", "hl", "hr", "hw", "l", "m", "n", "r", "s", "sc", "st", "sw",
    "t", "th", "þ", "ð", "w", "wr",
];
const NUCLEI: &[&str] = &["a", "æ", "e", "ea", "eo", "i", "ie", "o", "u", "y"];
const CODAS: &[&str] = &[
    "", "", "d", "f", "g", "l", "ld", "m", "n", "nd", "ng", "nn", "r", "rd", "s", "st", "t", "ð",
    "þ",
];

/// A deterministic pseudo-Old-English word source.
pub struct WordGen {
    rng: SplitMix64,
}

impl WordGen {
    /// Seeded construction — the same seed yields the same corpus.
    pub fn new(seed: u64) -> WordGen {
        WordGen { rng: SplitMix64(seed) }
    }

    /// One word of 1–3 syllables.
    pub fn word(&mut self) -> String {
        let syllables = 1 + self.rng.below(3);
        let mut w = String::new();
        for _ in 0..syllables {
            w.push_str(ONSETS[self.rng.below(ONSETS.len())]);
            w.push_str(NUCLEI[self.rng.below(NUCLEI.len())]);
            w.push_str(CODAS[self.rng.below(CODAS.len())]);
        }
        w
    }

    /// `n` words.
    pub fn words(&mut self, n: usize) -> Vec<String> {
        (0..n).map(|_| self.word()).collect()
    }

    /// Random number in a range (shared RNG for structure jitter).
    pub fn jitter(&mut self, lo: usize, hi: usize) -> usize {
        if lo >= hi {
            lo
        } else {
            lo + self.rng.below(hi - lo)
        }
    }

    /// Bernoulli draw.
    pub fn chance(&mut self, p: f64) -> bool {
        self.rng.unit_f64() < p.clamp(0.0, 1.0)
    }
}

/// Join words with single spaces, returning the content and each word's
/// byte range.
pub fn join_words(words: &[String]) -> (String, Vec<(usize, usize)>) {
    let mut content = String::new();
    let mut ranges = Vec::with_capacity(words.len());
    for (i, w) in words.iter().enumerate() {
        if i > 0 {
            content.push(' ');
        }
        let start = content.len();
        content.push_str(w);
        ranges.push((start, content.len()));
    }
    (content, ranges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<String> = WordGen::new(7).words(20);
        let b: Vec<String> = WordGen::new(7).words(20);
        let c: Vec<String> = WordGen::new(8).words(20);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn words_are_nonempty_and_wordlike() {
        let words = WordGen::new(1).words(200);
        for w in &words {
            assert!(!w.is_empty());
            assert!(w.chars().all(|c| c.is_alphabetic()), "{w:?}");
        }
    }

    #[test]
    fn join_words_ranges_are_exact() {
        let words = vec!["swa".to_string(), "hwa".into(), "ðe".into()];
        let (content, ranges) = join_words(&words);
        assert_eq!(content, "swa hwa ðe");
        for (w, &(s, e)) in words.iter().zip(&ranges) {
            assert_eq!(&content[s..e], w);
        }
    }

    #[test]
    fn jitter_bounds() {
        let mut g = WordGen::new(3);
        for _ in 0..100 {
            let v = g.jitter(2, 5);
            assert!((2..5).contains(&v));
        }
        assert_eq!(g.jitter(4, 4), 4);
    }
}
