//! The seeded op-stream generator. `--seed` is the only input a workload
//! takes: the corpus and every client's stream of [`Unit`]s derive from it,
//! and the served program sees nothing but the generated operations.
//!
//! Edits are generated as **do/undo pairs** so document size is stationary
//! and operation N costs what operation 1 did. Documents are chosen
//! Zipf(0.99) *within* each client's disjoint slice, so guarded edits from
//! different clients never conflict and any conflict is a failure.

use goddag::{Goddag, NodeId};

/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 2005;
/// Hold-out seed: never used while tuning; later claims are verified on it.
pub const HOLDOUT_SEED: u64 = 7919;

/// splitmix64 (Steele, Lea & Flood): tiny, seedable, good enough to shape
/// a workload.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One stream per `(seed, lane)`: lanes are clients, corpus documents, …
pub fn lane_seed(seed: u64, lane: u64) -> u64 {
    SplitMix64::new(seed ^ lane.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

/// Zipf(0.99) over `n` ranks by inverse-CDF lookup.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(0.99);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// What the generator knows about one document: where its words and
/// sentences are, and which nodes can carry an attribute edit.
#[derive(Debug, Clone)]
pub struct DocShape {
    /// Byte range of every word.
    pub words: Vec<(usize, usize)>,
    /// Word-index range `[first, last]` of every sentence with ≥ 2 words.
    pub sentences: Vec<(usize, usize)>,
    /// `ling:w` elements (attribute targets).
    pub attr_nodes: Vec<NodeId>,
}

impl DocShape {
    pub fn of(g: &Goddag, words: &[(usize, usize)]) -> DocShape {
        let ling = g.hierarchy_by_name("ling").expect("corpus documents carry a ling hierarchy");
        let mut sentences = Vec::new();
        let mut attr_nodes = Vec::new();
        for n in g.elements_in(ling) {
            match g.name(n).map(|q| q.local.as_str()) {
                Some("s") => {
                    let (cs, ce) = g.char_range(n);
                    let first = words.partition_point(|w| w.0 < cs);
                    let end = words.partition_point(|w| w.1 <= ce);
                    if end >= first + 2 {
                        sentences.push((first, end - 1));
                    }
                }
                Some("w") => attr_nodes.push(n),
                _ => {}
            }
        }
        DocShape { words: words.to_vec(), sentences, attr_nodes }
    }
}

/// A reversible edit: the do half; [`crate::target::run_unit`] derives the
/// undo from the reply.
#[derive(Debug, Clone, PartialEq)]
pub enum PairEdit {
    /// `InsertElement phrase` over two adjacent words → `RemoveElement` of
    /// the returned node.
    Element { start: usize, end: usize },
    /// `InsertText` → `DeleteText` of the same bytes.
    Text { offset: usize, text: String },
    /// `SetAttr type=…` on a word → `RemoveAttr`.
    Attr { node: NodeId, value: String },
}

/// One closed-loop step of a client. The clock is only read between units,
/// so a run never ends with a do without its undo.
#[derive(Debug, Clone, PartialEq)]
pub enum Unit {
    /// Per-document query.
    Query { doc: usize, expr: usize },
    /// Fan-out query over every document.
    QueryAll { expr: usize },
    /// A do/undo pair of guarded edits (two operations).
    Pair { doc: usize, edit: PairEdit },
    /// `suggest_tags(range)` → guarded `InsertElement phrase` →
    /// `RemoveElement` (three operations).
    TagCycle { doc: usize, start: usize, end: usize },
    /// Parse a document's distributed XML and insert it under its name.
    Import { doc: usize },
}

/// The operation mix of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 100 % pairs: 60 % element, 25 % text, 15 % attribute.
    Edits,
    /// Read-only: palette queries, every 200th unit a fan-out.
    Queries,
    /// 80 % queries / 20 % edits by operation count (a pair is two edits,
    /// so one unit in nine is a pair).
    Mixed,
    /// Tag cycles only.
    Tags,
}

/// The eight editorial queries of `crates/bench/benches/query.rs` (Q7's
/// `count()` recast as its node-set) plus `containing::`/`contained::`/
/// `co-extensive::` variants: 16 expressions, far fewer than the store's
/// 1 024-entry compiled-query cache.
pub const QUERY_PALETTE: [&str; 16] = [
    "//ling:w",
    "//line[@n='5']",
    "//s/overlapping::phys:line",
    "//dmg/overlapping::ling:w",
    "//dmg/contained::ling:w",
    "//dmg/containing::*",
    "//s[overlapping::phys:line]",
    "//ling:w[contains(string(.), 'th')]",
    "//res/overlapping::ling:w",
    "//res/containing::*",
    "//line/contained::ling:w",
    "//page/contained::ling:s",
    "//s/containing::phys:page",
    "//line/co-extensive::*",
    "//dmg/co-extensive::*",
    "//line[@n='17']/overlapping::ling:s",
];

/// 4 096 distinct parametrised expressions — four times the compiled-query
/// cache, so its LRU overflows.
pub fn mixed_palette() -> Vec<String> {
    let mut out = Vec::with_capacity(4096);
    for k in 1..=1024 {
        out.push(format!("//line[@n='{k}']"));
        out.push(format!("//ling:w[@n='{k}']"));
        out.push(format!("//s[@n='{k}']/overlapping::phys:line"));
        out.push(format!("//ling:w[position()={k}]"));
    }
    out
}

/// One client's stream of units.
pub struct OpGen<'a> {
    rng: SplitMix64,
    zipf: Zipf,
    /// The client's slice of the corpus: `docs[first_doc..first_doc + zipf ranks]`.
    first_doc: usize,
    shapes: &'a [DocShape],
    mix: Mix,
    palette_len: usize,
    made: u64,
}

impl<'a> OpGen<'a> {
    /// The stream of client `client` of `clients`, which owns the
    /// `client`-th contiguous slice of `shapes`.
    pub fn new(
        seed: u64,
        client: usize,
        clients: usize,
        shapes: &'a [DocShape],
        mix: Mix,
        palette_len: usize,
    ) -> OpGen<'a> {
        let per = shapes.len() / clients;
        assert!(per > 0, "every client needs at least one document");
        OpGen {
            rng: SplitMix64::new(lane_seed(seed, 1000 + client as u64)),
            zipf: Zipf::new(per),
            first_doc: client * per,
            shapes,
            mix,
            palette_len,
            made: 0,
        }
    }

    fn doc(&mut self) -> usize {
        self.first_doc + self.zipf.sample(&mut self.rng)
    }

    /// Two adjacent words inside one sentence of `doc`, as a byte range.
    fn phrase_range(&mut self, doc: usize) -> (usize, usize) {
        let shape = &self.shapes[doc];
        let (first, last) = shape.sentences[self.rng.below(shape.sentences.len())];
        let w = first + self.rng.below(last - first);
        (shape.words[w].0, shape.words[w + 1].1)
    }

    fn pair(&mut self) -> Unit {
        let doc = self.doc();
        let roll = self.rng.below(100);
        let edit = if roll < 60 {
            let (start, end) = self.phrase_range(doc);
            PairEdit::Element { start, end }
        } else if roll < 85 {
            let shape = &self.shapes[doc];
            let offset = shape.words[self.rng.below(shape.words.len())].0;
            PairEdit::Text { offset, text: format!("x{} ", self.rng.below(1000)) }
        } else {
            let shape = &self.shapes[doc];
            let node = shape.attr_nodes[self.rng.below(shape.attr_nodes.len())];
            PairEdit::Attr { node, value: format!("t{}", self.rng.below(1000)) }
        };
        Unit::Pair { doc, edit }
    }

    fn query(&mut self) -> Unit {
        Unit::Query { doc: self.doc(), expr: self.rng.below(self.palette_len) }
    }
}

impl Iterator for OpGen<'_> {
    type Item = Unit;

    fn next(&mut self) -> Option<Unit> {
        self.made += 1;
        Some(match self.mix {
            Mix::Edits => self.pair(),
            Mix::Queries if self.made.is_multiple_of(200) => {
                Unit::QueryAll { expr: self.rng.below(self.palette_len) }
            }
            Mix::Queries => self.query(),
            Mix::Mixed if self.rng.below(9) == 0 => self.pair(),
            Mix::Mixed => self.query(),
            Mix::Tags => {
                let doc = self.doc();
                let (start, end) = self.phrase_range(doc);
                Unit::TagCycle { doc, start, end }
            }
        })
    }
}

/// FNV-1a over the first `units` units of every client's stream: two runs
/// with the same hash drove the same work.
pub fn stream_hash(
    seed: u64,
    clients: usize,
    shapes: &[DocShape],
    mix: Mix,
    palette: usize,
) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for client in 0..clients {
        for unit in OpGen::new(seed, client, clients, shapes, mix, palette).take(512) {
            for b in format!("{unit:?}").bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shapes() -> Vec<DocShape> {
        (0..4)
            .map(|i| {
                let ms =
                    corpus::generate(&corpus::Params { words: 120, seed: i, ..Default::default() });
                DocShape::of(&ms.goddag, &ms.word_ranges)
            })
            .collect()
    }

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        let shapes = shapes();
        for mix in [Mix::Edits, Mix::Queries, Mix::Mixed, Mix::Tags] {
            let a = stream_hash(DEFAULT_SEED, 2, &shapes, mix, 16);
            assert_eq!(a, stream_hash(DEFAULT_SEED, 2, &shapes, mix, 16), "{mix:?}");
            assert_ne!(a, stream_hash(HOLDOUT_SEED, 2, &shapes, mix, 16), "{mix:?}");
        }
    }

    #[test]
    fn clients_stay_inside_their_own_documents() {
        let shapes = shapes();
        for client in 0..2 {
            for unit in OpGen::new(1, client, 2, &shapes, Mix::Mixed, 16).take(2000) {
                if let Unit::Query { doc, .. } | Unit::Pair { doc, .. } = unit {
                    assert_eq!(doc / 2, client);
                }
            }
        }
    }

    #[test]
    fn zipf_prefers_low_ranks_and_mixed_is_one_pair_in_nine() {
        let z = Zipf::new(32);
        let mut rng = SplitMix64::new(3);
        let mut hits = [0usize; 32];
        for _ in 0..20_000 {
            hits[z.sample(&mut rng)] += 1;
        }
        assert!(hits[0] > 3 * hits[7] && hits[7] > hits[31]);

        let shapes = shapes();
        let pairs = OpGen::new(9, 0, 2, &shapes, Mix::Mixed, 16)
            .take(9000)
            .filter(|u| matches!(u, Unit::Pair { .. }))
            .count();
        assert!((800..1200).contains(&pairs), "{pairs}");
    }

    #[test]
    fn palettes_are_distinct_and_parse() {
        let mixed = mixed_palette();
        let mut sorted = mixed.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 4096);
        for e in QUERY_PALETTE.iter().copied().chain(mixed.iter().map(String::as_str).take(8)) {
            expath::parse(e).unwrap_or_else(|err| panic!("{e}: {err}"));
        }
    }
}
