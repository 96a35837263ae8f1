//! One-shot timing repro for the prevalidation editor services. Builds a
//! mixed-content host with N words — `<w>` elements with real text runs
//! between them, `2N − 1` child items — and times the editor services.
//!
//! Two classes of check are timed. On the `<s>` host every check is
//! decided by the engine's linear pass (the host consumes the new `phrase`
//! itself). On a bare `<r>` host the same `phrase` insertion is only
//! potentially valid by wrapping it into an `<s>`, so the check falls back
//! to the cubic wrap table.
//!
//! Pre-rewrite (set-based engine, release): 200 words took ~387 s per
//! `check_insertion`; post-rewrite the whole series is interactive.

use corpus::{bare_host, mixed_host};
use prevalid::{check_insertion, suggest_tags, Item, PrevalidEngine};
use std::time::Instant;

fn main() {
    let engine = PrevalidEngine::new(corpus::dtds::ling());
    for &words in &[25usize, 50, 100, 200] {
        let (g, h, ranges) = mixed_host(words);
        let (s, _) = ranges[words / 2];
        let (_, e) = ranges[words / 2 + 1];

        let t = Instant::now();
        let v = check_insertion(&engine, &g, h, "phrase", s, e);
        let d_ins = t.elapsed();
        assert!(v.ok, "{:?}", v.reason);

        let mut items = Vec::new();
        for i in 0..words {
            if i > 0 {
                items.push(Item::Text);
            }
            items.push(Item::elem("w"));
        }
        let t = Instant::now();
        let v = engine.check_sequence("s", &items);
        let d_seq = t.elapsed();
        assert!(v.ok);

        let t = Instant::now();
        let tags = suggest_tags(&engine, &g, h, s, e);
        let d_sug = t.elapsed();
        assert!(!tags.is_empty());

        let (g, h, _) = bare_host(words);
        let t = Instant::now();
        let v = check_insertion(&engine, &g, h, "phrase", s, e);
        let d_und = t.elapsed();
        assert!(v.ok, "{:?}", v.reason);
        println!(
            "{words:>4} words: check_insertion {d_ins:>10.3?}  check_sequence {d_seq:>10.3?}  suggest_tags {d_sug:>10.3?}  undecided check_insertion {d_und:>10.3?}"
        );
    }
}
