//! An Edition Production Technology (EPT)-style workflow over a full
//! synthetic manuscript (paper §4 / Figure 4): generate a manuscript-scale
//! document, parse it from distributed documents, validate every hierarchy,
//! answer editorial queries, and report the memory story (one GODDAG vs N
//! DOM trees — experiment B5).
//!
//! Run with: `cargo run --release --example manuscript_edition`

use corpus::{dtds, generate, Params};
use expath::Evaluator;
use xmlcore::dom::Document;

fn main() {
    // ------------------------------------------------------------------
    // Generate the edition's source: three hierarchies over ~2000 words.
    // ------------------------------------------------------------------
    let params = Params { words: 2000, seed: 36, ..Params::default() };
    let ms = generate(&params);
    println!("== Synthetic manuscript ==");
    println!(
        "  {} words, {} bytes of text, hierarchies: {:?}",
        params.words,
        ms.goddag.content_len(),
        ms.hierarchy_names
    );

    // ------------------------------------------------------------------
    // The archival form is distributed documents; parse them back (SACX).
    // ------------------------------------------------------------------
    let docs = ms.distributed();
    let mut g = sacx::parse_distributed(&docs).expect("distributed documents agree");
    let stats = g.stats();
    println!("\n== Parsed GODDAG ==");
    println!(
        "  elements per hierarchy: {:?}, shared leaves: {}",
        stats.elements_per_hierarchy, stats.leaves
    );

    // ------------------------------------------------------------------
    // Validate each hierarchy against its DTD.
    // ------------------------------------------------------------------
    dtds::attach_standard(&mut g);
    println!("\n== DTD validation ==");
    for (h, report) in goddag::validate_all(&g) {
        println!(
            "  {}: {}",
            g.hierarchy(h).unwrap().name,
            if report.is_valid() {
                "valid".to_string()
            } else {
                format!("{} errors (first: {})", report.errors.len(), report.errors[0])
            }
        );
    }

    // ------------------------------------------------------------------
    // Editorial queries an edition actually needs.
    // ------------------------------------------------------------------
    let ev = Evaluator::with_index(&g);
    println!("\n== Editorial queries ==");
    let damaged_words = ev.select("//dmg/overlapping::ling:w").unwrap();
    println!("  words cut by damage boundaries: {}", damaged_words.len());
    let damaged_lines =
        ev.select("//dmg/overlapping::phys:line | //dmg/contained::phys:line").unwrap();
    println!("  lines touched by damage:        {}", damaged_lines.len());
    let cross_line_sentences = ev.select("//s/overlapping::phys:line").unwrap();
    println!("  sentence/line conflicts:        {}", cross_line_sentences.len());
    let cross_page_sentences = ev.select("//s/overlapping::phys:page").unwrap();
    println!("  sentences crossing pages:       {}", cross_page_sentences.len());

    // A content question: text of the first damaged region, with the words
    // it clips.
    if let Some(&dmg) = ev.select("//dmg").unwrap().first() {
        println!("  first damage covers {:?}", g.text_of(dmg));
        for w in ev.select_from("overlapping::ling:w", dmg).unwrap() {
            println!("    clips word {:?}", g.text_of(w));
        }
    }

    // ------------------------------------------------------------------
    // Experiment B5: one GODDAG vs N separate DOM trees.
    // ------------------------------------------------------------------
    println!("\n== Memory: GODDAG vs N DOMs (experiment B5) ==");
    let goddag_bytes = g.stats().estimated_bytes;
    let mut dom_bytes = 0usize;
    for (name, xml) in &docs {
        let dom = Document::parse(xml).expect("exported documents reparse");
        let b = dom.estimated_bytes();
        dom_bytes += b;
        println!("  DOM[{name}]: {b} bytes");
    }
    println!("  N DOMs total: {dom_bytes} bytes");
    println!("  one GODDAG:   {goddag_bytes} bytes");
    println!(
        "  GODDAG/DOMs = {:.2}; the GODDAG stores the text once, so adding \
         hierarchies grows it by markup only — `tests/cost_ledger.rs` sweeps \
         N and holds the GODDAG to at most half the DOMs",
        goddag_bytes as f64 / dom_bytes as f64
    );

    // ------------------------------------------------------------------
    // Export a reading view: the physical hierarchy only.
    // ------------------------------------------------------------------
    let phys = g.hierarchy_by_name("phys").unwrap();
    let filtered = xtagger::export_filtered(&g, &[phys]).unwrap();
    println!("\n== Filtered export (physical view, first 120 chars) ==");
    println!("  {}", &filtered[0].1[..filtered[0].1.len().min(120)]);
}
