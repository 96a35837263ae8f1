//! Property tests on the XML substrate: random document trees serialized by
//! the writer must re-parse to the same tree, with content and structure
//! preserved — the foundation every representation driver stands on.

use corpus::gen::{check, Source};
use xmlcore::dom::{Document, DomNode};
use xmlcore::{Attribute, QName};

/// A recursive random XML tree description.
#[derive(Debug, Clone)]
enum Tree {
    Element { name: String, attrs: Vec<(String, String)>, children: Vec<Tree> },
    Text(String),
}

fn name(src: &mut Source) -> String {
    src.pick(&["r", "line", "w", "s", "dmg", "res", "page", "pb", "phrase", "seg"]).to_string()
}

/// 1–11 characters, XML-hostile ones included.
fn text(src: &mut Source) -> String {
    let chars = ['a', 'b', ' ', '<', '>', '&', '\'', '"', 'æ', 'þ', '\n', '\t', ']', '!'];
    (0..1 + src.index(11)).map(|_| src.pick(&chars)).collect()
}

fn attrs(src: &mut Source) -> Vec<(String, String)> {
    (0..src.index(3)).map(|_| (name(src), text(src))).collect()
}

/// A leaf (text, or an element without children) or, while `depth`
/// allows, an element with up to three subtrees.
fn tree(src: &mut Source, depth: u32) -> Tree {
    if depth == 0 || src.below(2) == 0 {
        if src.below(2) == 0 {
            Tree::Text(text(src))
        } else {
            Tree::Element { name: name(src), attrs: attrs(src), children: vec![] }
        }
    } else {
        let (name, attrs) = (name(src), attrs(src));
        let children = (0..src.index(4)).map(|_| tree(src, depth - 1)).collect();
        Tree::Element { name, attrs, children }
    }
}

fn build_dom(tree: &Tree) -> Document {
    fn add(doc: &mut Document, parent: xmlcore::dom::DomId, tree: &Tree) {
        match tree {
            Tree::Text(t) => {
                doc.append(parent, DomNode::Text(t.clone()));
            }
            Tree::Element { name, attrs, children } => {
                // Attribute names must be unique on an element: keep the
                // first occurrence of each generated name.
                let mut seen = std::collections::HashSet::new();
                let attrs: Vec<Attribute> = attrs
                    .iter()
                    .filter(|(n, _)| seen.insert(n.clone()))
                    .map(|(n, v)| Attribute::new(n.as_str(), v.clone()))
                    .collect();
                let id = doc
                    .append(parent, DomNode::Element { name: QName::parse(name).unwrap(), attrs });
                for c in children {
                    add(doc, id, c);
                }
            }
        }
    }
    let mut doc = Document::with_root(QName::parse("r").unwrap(), vec![]);
    let root = doc.root();
    add(&mut doc, root, tree);
    doc
}

/// Structure signature: element names, attrs and merged text runs in order.
fn signature(doc: &Document, id: xmlcore::dom::DomId, out: &mut Vec<String>) {
    match doc.node(id) {
        DomNode::Element { name, attrs } => {
            let mut sig = format!("<{name}");
            for a in attrs {
                sig.push_str(&format!(" {}={:?}", a.name, a.value));
            }
            out.push(sig);
            // Merge adjacent text children (the reader coalesces them).
            let mut pending_text = String::new();
            for &c in doc.children(id) {
                if let DomNode::Text(t) = doc.node(c) {
                    pending_text.push_str(t);
                } else {
                    if !pending_text.is_empty() {
                        out.push(format!("T{pending_text:?}"));
                        pending_text.clear();
                    }
                    signature(doc, c, out);
                }
            }
            if !pending_text.is_empty() {
                out.push(format!("T{pending_text:?}"));
            }
            out.push(format!("</{name}"));
        }
        DomNode::Text(t) => out.push(format!("T{t:?}")),
        _ => {}
    }
}

#[test]
fn writer_reader_roundtrip() {
    check("writer_reader_roundtrip", 128, |src| {
        let doc = build_dom(&tree(src, 4));
        let xml = doc.to_xml().unwrap();
        let reparsed = Document::parse(&xml)
            .unwrap_or_else(|e| panic!("serialized XML failed to parse: {e}\n{xml}"));
        let mut sig_a = Vec::new();
        let mut sig_b = Vec::new();
        signature(&doc, doc.root(), &mut sig_a);
        signature(&reparsed, reparsed.root(), &mut sig_b);
        assert_eq!(sig_a, sig_b, "{xml}");
        // Content identical.
        assert_eq!(reparsed.text_content(reparsed.root()), doc.text_content(doc.root()));
    });
}

#[test]
fn double_roundtrip_is_fixpoint() {
    check("double_roundtrip_is_fixpoint", 128, |src| {
        let once = build_dom(&tree(src, 4)).to_xml().unwrap();
        let twice = Document::parse(&once).unwrap().to_xml().unwrap();
        assert_eq!(once, twice);
    });
}

#[test]
fn escaped_text_never_breaks_wellformedness() {
    check("escaped_text_never_breaks_wellformedness", 128, |src| {
        let t = text(src);
        let escaped = xmlcore::escape::escape_text(&t);
        let doc = format!("<r>{escaped}</r>");
        let parsed = Document::parse(&doc).unwrap();
        assert_eq!(parsed.text_content(parsed.root()), t);
    });
}

#[test]
fn escaped_attrs_never_break_wellformedness() {
    check("escaped_attrs_never_break_wellformedness", 128, |src| {
        let v = text(src);
        let escaped = xmlcore::escape::escape_attr(&v);
        let doc = format!("<r a=\"{escaped}\"/>");
        let parsed = Document::parse(&doc).unwrap();
        assert_eq!(parsed.attr(parsed.root(), "a").unwrap(), v);
    });
}
