//! The synthetic manuscript generator: parameterized concurrent hierarchies
//! over pseudo-Old-English text.
//!
//! Reproduces exactly the feature classes the paper lists (§2: "manuscript
//! physical structure (lines, pages), document structure (words, sentences,
//! verses), text restorations, manuscript damages") with controlled size and
//! overlap density — the workload for every experiment in EXPERIMENTS.md.

use crate::text::{join_words, WordGen};
use goddag::{Goddag, GoddagBuilder, HierarchyId};
use xmlcore::{Attribute, QName};

/// Generator parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Number of words of content.
    pub words: usize,
    /// RNG seed (same seed ⇒ same manuscript).
    pub seed: u64,
    /// Mean words per physical line.
    pub words_per_line: usize,
    /// Lines per page.
    pub lines_per_page: usize,
    /// Mean words per sentence.
    pub words_per_sentence: usize,
    /// Probability that a word gets a `<w>` element.
    pub word_markup_prob: f64,
    /// Fraction of words covered by damage ranges (0 disables the editorial
    /// hierarchy).
    pub damage_density: f64,
    /// Fraction of words covered by restoration ranges.
    pub restoration_density: f64,
    /// Include the physical hierarchy.
    pub physical: bool,
    /// Include the linguistic hierarchy.
    pub linguistic: bool,
}

impl Default for Params {
    fn default() -> Params {
        Params {
            words: 500,
            seed: 42,
            words_per_line: 8,
            lines_per_page: 20,
            words_per_sentence: 12,
            word_markup_prob: 1.0,
            damage_density: 0.08,
            restoration_density: 0.05,
            physical: true,
            linguistic: true,
        }
    }
}

impl Params {
    /// Sized constructor with defaults otherwise.
    pub fn sized(words: usize) -> Params {
        Params { words, ..Params::default() }
    }

    /// How many hierarchies this parameter set produces.
    pub fn hierarchy_count(&self) -> usize {
        usize::from(self.physical)
            + usize::from(self.linguistic)
            + usize::from(self.damage_density > 0.0 || self.restoration_density > 0.0)
    }
}

/// A generated manuscript: the GODDAG plus the word inventory.
pub struct Manuscript {
    /// The document.
    pub goddag: Goddag,
    /// Byte range of every word.
    pub word_ranges: Vec<(usize, usize)>,
    /// Names of the hierarchies generated, in id order.
    pub hierarchy_names: Vec<String>,
}

impl Manuscript {
    /// The distributed-documents view (one XML document per hierarchy).
    pub fn distributed(&self) -> Vec<(String, String)> {
        self.goddag.to_distributed().expect("generated documents serialize")
    }
}

/// Generate a manuscript.
pub fn generate(params: &Params) -> Manuscript {
    let mut gen = WordGen::new(params.seed);
    let words = gen.words(params.words);
    let (content, word_ranges) = join_words(&words);

    let mut b = GoddagBuilder::new(QName::parse("r").unwrap());
    b.content(content.clone());
    let mut hierarchy_names = Vec::new();

    if params.physical {
        let phys = b.hierarchy("phys");
        hierarchy_names.push("phys".to_string());
        build_physical(&mut b, phys, params, &mut gen, &word_ranges);
    }
    if params.linguistic {
        let ling = b.hierarchy("ling");
        hierarchy_names.push("ling".to_string());
        build_linguistic(&mut b, ling, params, &mut gen, &word_ranges);
    }
    if params.damage_density > 0.0 || params.restoration_density > 0.0 {
        let edit = b.hierarchy("edit");
        hierarchy_names.push("edit".to_string());
        build_editorial(&mut b, edit, params, &mut gen, &word_ranges, &content);
    }

    let goddag = b.finish().expect("generator emits well-nested per-hierarchy ranges");
    Manuscript { goddag, word_ranges, hierarchy_names }
}

/// Pages of lines; lines end mid-content relative to sentences, which is the
/// overlap the paper's Figure 1 shows.
fn build_physical(
    b: &mut GoddagBuilder,
    h: HierarchyId,
    params: &Params,
    gen: &mut WordGen,
    word_ranges: &[(usize, usize)],
) {
    let n = word_ranges.len();
    let mut line_bounds: Vec<(usize, usize)> = Vec::new(); // word index ranges
    let mut w = 0usize;
    while w < n {
        let jitter = params.words_per_line.max(2) / 2;
        let len =
            params.words_per_line.max(1) + gen.jitter(0, jitter.max(1) * 2).saturating_sub(jitter);
        let end = (w + len.max(1)).min(n);
        line_bounds.push((w, end));
        w = end;
    }
    let mut line_no = 0usize;
    let mut page_no = 0usize;
    let mut i = 0usize;
    while i < line_bounds.len() {
        page_no += 1;
        let page_end = (i + params.lines_per_page.max(1)).min(line_bounds.len());
        let page_start_byte = word_ranges[line_bounds[i].0].0;
        let page_end_byte = word_ranges[line_bounds[page_end - 1].1 - 1].1;
        b.range(
            h,
            "page",
            vec![Attribute::new("no", page_no.to_string())],
            page_start_byte,
            page_end_byte,
        )
        .expect("page ranges are word-aligned");
        for &(ws, we) in &line_bounds[i..page_end] {
            line_no += 1;
            b.range(
                h,
                "line",
                vec![Attribute::new("n", line_no.to_string())],
                word_ranges[ws].0,
                word_ranges[we - 1].1,
            )
            .expect("line ranges are word-aligned");
        }
        i = page_end;
    }
}

/// Sentences of words (sentence boundaries independent of line boundaries).
fn build_linguistic(
    b: &mut GoddagBuilder,
    h: HierarchyId,
    params: &Params,
    gen: &mut WordGen,
    word_ranges: &[(usize, usize)],
) {
    let n = word_ranges.len();
    let mut s_no = 0usize;
    let mut w = 0usize;
    while w < n {
        let jitter = params.words_per_sentence.max(2) / 2;
        let len = params.words_per_sentence.max(1)
            + gen.jitter(0, jitter.max(1) * 2).saturating_sub(jitter);
        let end = (w + len.max(1)).min(n);
        s_no += 1;
        b.range(
            h,
            "s",
            vec![Attribute::new("n", s_no.to_string())],
            word_ranges[w].0,
            word_ranges[end - 1].1,
        )
        .expect("sentence ranges are word-aligned");
        for (wi, &(ws, we)) in word_ranges[w..end].iter().enumerate() {
            if gen.chance(params.word_markup_prob) {
                b.range(h, "w", vec![Attribute::new("n", (w + wi + 1).to_string())], ws, we)
                    .expect("word ranges are word-aligned");
            }
        }
        w = end;
    }
}

/// Damage/restoration ranges that *deliberately* start and end mid-word, so
/// they overlap both the physical and linguistic hierarchies.
fn build_editorial(
    b: &mut GoddagBuilder,
    h: HierarchyId,
    params: &Params,
    gen: &mut WordGen,
    word_ranges: &[(usize, usize)],
    content: &str,
) {
    let n = word_ranges.len();
    if n == 0 {
        return;
    }
    let mut spans: Vec<(usize, usize, &'static str)> = Vec::new();
    let mut place = |density: f64, tag: &'static str, gen: &mut WordGen| {
        if density <= 0.0 {
            return;
        }
        let target_words = ((n as f64) * density).ceil() as usize;
        let mut covered = 0usize;
        let mut attempt = 0usize;
        while covered < target_words && attempt < n * 4 {
            attempt += 1;
            let start_word = gen.jitter(0, n);
            let span_words = 1 + gen.jitter(0, 4);
            let end_word = (start_word + span_words).min(n - 1);
            // Mid-word start/end to force overlap with <w> markup.
            let (ws, we) = (word_ranges[start_word], word_ranges[end_word]);
            let start = mid_char(content, ws.0, ws.1);
            let end = mid_char(content, we.0, we.1).min(content.len());
            if start >= end {
                continue;
            }
            // Editorial ranges must not cross each other (same hierarchy).
            if spans.iter().any(|&(s, e, _)| start < e && s < end) {
                continue;
            }
            spans.push((start, end, tag));
            covered += end_word - start_word + 1;
        }
    };
    place(params.damage_density, "dmg", gen);
    place(params.restoration_density, "res", gen);
    spans.sort();
    for (i, (start, end, tag)) in spans.into_iter().enumerate() {
        b.range(h, tag, vec![Attribute::new("id", format!("{tag}{}", i + 1))], start, end)
            .expect("editorial ranges are disjoint");
    }
}

/// A single mixed-content host: one `<s>` spanning `words` `<w>` elements
/// with a non-whitespace run (` · `) between consecutive words, under a
/// `ling` hierarchy — `2·words − 1` child items. This is the shape overlap
/// annotation produces on dense hosts and the standard workload for the
/// prevalidation benchmarks, the `prevalid_repro` example, and the CI perf
/// smoke test. Returns the document, the hierarchy, and each word's byte
/// range.
pub fn mixed_host(words: usize) -> (Goddag, HierarchyId, Vec<(usize, usize)>) {
    word_host(words, true)
}

/// [`mixed_host`] without the `<s>`: the words and the runs between them
/// sit directly under the root `<r>`. Under the `ling` DTD, `r` does not
/// hold `phrase` itself, so a `phrase` insertion here is only potentially
/// valid by wrapping it into an `s`: the prevalidation case a linear pass
/// cannot decide.
pub fn bare_host(words: usize) -> (Goddag, HierarchyId, Vec<(usize, usize)>) {
    word_host(words, false)
}

fn word_host(words: usize, sentence: bool) -> (Goddag, HierarchyId, Vec<(usize, usize)>) {
    assert!(words > 0, "a host needs at least one word");
    let mut content = String::new();
    let mut ranges = Vec::new();
    for i in 0..words {
        if i > 0 {
            content.push_str(" · ");
        }
        let word = format!("word{i}");
        let s = content.len();
        content.push_str(&word);
        ranges.push((s, content.len()));
    }
    let mut b = GoddagBuilder::new(QName::parse("r").unwrap());
    b.content(content);
    let h = b.hierarchy("ling");
    if sentence {
        b.range(h, "s", vec![], ranges[0].0, ranges.last().unwrap().1)
            .expect("sentence range is word-aligned");
    }
    for &(s, e) in &ranges {
        b.range(h, "w", vec![], s, e).expect("word ranges are word-aligned");
    }
    (b.finish().expect("generator emits well-nested ranges"), h, ranges)
}

/// A char boundary near the middle of `[s, e)`.
fn mid_char(content: &str, s: usize, e: usize) -> usize {
    let mut m = s + (e - s) / 2;
    while m < e && !content.is_char_boundary(m) {
        m += 1;
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use goddag::check_invariants;

    #[test]
    fn generates_valid_goddag() {
        let ms = generate(&Params::default());
        check_invariants(&ms.goddag).unwrap();
        assert_eq!(ms.goddag.hierarchy_count(), 3);
        assert!(ms.goddag.element_count() > 500); // words + lines + pages + ...
    }

    #[test]
    fn deterministic() {
        let a = generate(&Params::default());
        let b = generate(&Params::default());
        assert_eq!(a.goddag.content(), b.goddag.content());
        assert_eq!(a.goddag.element_count(), b.goddag.element_count());
    }

    #[test]
    fn sized_scaling() {
        let small = generate(&Params::sized(100));
        let large = generate(&Params::sized(1000));
        assert!(large.goddag.content_len() > small.goddag.content_len() * 5);
        assert!(large.goddag.element_count() > small.goddag.element_count() * 5);
    }

    #[test]
    fn produces_real_overlap() {
        let ms = generate(&Params::default());
        let g = &ms.goddag;
        // At least one damage/restoration overlaps a word or line.
        let ev = expath::Evaluator::with_index(g);
        let hits = ev.select("//dmg/overlapping::* | //res/overlapping::*").unwrap();
        assert!(!hits.is_empty(), "editorial markup must overlap other hierarchies");
        // And sentences overlap lines somewhere.
        let s_lines = ev.select("//s/overlapping::phys:line").unwrap();
        assert!(!s_lines.is_empty());
    }

    #[test]
    fn hierarchies_togglable() {
        let p = Params {
            physical: false,
            damage_density: 0.0,
            restoration_density: 0.0,
            ..Params::default()
        };
        let ms = generate(&p);
        assert_eq!(ms.goddag.hierarchy_count(), 1);
        assert_eq!(ms.hierarchy_names, ["ling"]);
    }

    #[test]
    fn distributed_docs_reparse() {
        let ms = generate(&Params::sized(120));
        let docs = ms.distributed();
        assert_eq!(docs.len(), 3);
        let g2 = sacx::parse_distributed(&docs).unwrap();
        assert_eq!(g2.content(), ms.goddag.content());
        assert_eq!(g2.element_count(), ms.goddag.element_count());
    }

    #[test]
    fn mixed_host_shape() {
        let (g, h, ranges) = mixed_host(5);
        check_invariants(&g).unwrap();
        assert_eq!(ranges.len(), 5);
        let s = g.find_elements("s")[0];
        // 5 <w> children + 4 non-whitespace text runs between them.
        assert_eq!(g.children_in(s, h).len(), 9);
        assert_eq!(g.find_elements("w").len(), 5);
    }

    #[test]
    fn bare_host_shape() {
        let (g, h, _) = bare_host(5);
        check_invariants(&g).unwrap();
        assert!(g.find_elements("s").is_empty());
        assert_eq!(g.children_in(g.root(), h).len(), 9);
    }

    #[test]
    fn word_ranges_match_content() {
        let ms = generate(&Params::sized(50));
        let content = ms.goddag.content();
        for &(s, e) in &ms.word_ranges {
            assert!(content.is_char_boundary(s) && content.is_char_boundary(e));
            assert!(!content[s..e].contains(' '));
        }
    }
}
