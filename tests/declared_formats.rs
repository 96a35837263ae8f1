//! Declaration-driven refusal: every line and directive a format declares
//! (`sacx::Line::SHAPES`, `sacx::Directives::SPEC`) is walked, and three
//! mutations of a valid sample must each be refused, under a recomputed
//! CRC wherever the format has one:
//!
//! * a trailing token added to the line;
//! * the last field dropped (its last token, or its body when the field is
//!   a whole body);
//! * a singleton directive repeated (for lines, every field is a
//!   singleton: repeating the last one is a trailing token).
//!
//! Each declared shape and directive must have a sample here, so a new
//! keyword without one fails the walk. The samples keep attribute lists
//! (an optional tail) empty, so the last token is a fixed field.

use cxml::cxobs::trace::TraceContext;
use cxml::cxpersist::{self, DocBlob, Manifest, ManifestDoc, StoreSnapshot, WalOp};
use cxml::cxstore::{DocId, EditOp, Store};
use cxml::cxwire::{FetchResponse, Request, Response, TraceQuery, TraceSummaryWire, WireError};
use cxml::goddag::NodeId;
use cxml::sacx::{Directives, Line, Shape, StandoffDoc};
use cxml::xtagger::{Command, EditionBundle};

fn doc(raw: u64) -> DocId {
    DocId::from_raw(raw)
}

fn blob() -> DocBlob {
    DocBlob::capture(&cxml::corpus::figure1::goddag())
}

fn ops() -> Vec<EditOp> {
    vec![
        EditOp::InsertElement {
            hierarchy: "ling".into(),
            tag: "w".into(),
            attrs: Vec::new(),
            start: 0,
            end: 3,
        },
        EditOp::RemoveElement(NodeId(4)),
        EditOp::InsertText { offset: 7, text: "x y".into() },
        EditOp::DeleteText { start: 2, end: 5 },
        EditOp::SetAttr { node: NodeId(3), name: "n".into(), value: "1".into() },
        EditOp::RemoveAttr { node: NodeId(3), name: "n".into() },
    ]
}

fn errors() -> Vec<WireError> {
    vec![
        WireError::Store("refused".into()),
        WireError::Stale { current: 12 },
        WireError::ShardDown(1),
        WireError::Timeout { shard: 2, ms: 900 },
        WireError::Unavailable { shard: 0, detail: "outage".into() },
        WireError::WrongShard { owner: 2 },
        WireError::Deadline { ms: 5000 },
        WireError::Injected("serve.request".into()),
        WireError::BadRequest("x".into()),
        WireError::Busy,
        WireError::Server("panicked".into()),
        WireError::Diverged("split".into()),
        WireError::TooLarge("big".into()),
    ]
}

fn traces() -> Vec<TraceQuery> {
    vec![
        TraceQuery::Recent { limit: 5 },
        TraceQuery::Slow { limit: 1 },
        TraceQuery::Get { trace_id: 255 },
    ]
}

fn fetches() -> Vec<FetchResponse> {
    vec![
        FetchResponse::CaughtUp { head: 12 },
        FetchResponse::Records { head: 40, bytes: b"rec\n".to_vec() },
        FetchResponse::Snapshot { head: 7, bytes: b"snap\n".to_vec() },
    ]
}

fn requests() -> Vec<Request> {
    let mut out = vec![
        Request::Ping,
        Request::Insert { name: None, blob: blob() },
        Request::Insert { name: Some("ms".into()), blob: blob() },
        Request::Query { doc: doc(2), expr: "//w".into() },
        Request::QueryAll { expr: "//w".into() },
        Request::QueryPartial { timeout_ms: 250, expr: "//w".into() },
        Request::Suggest { doc: doc(5), hierarchy: "phys".into(), start: 0, end: 10 },
        Request::Export { doc: doc(8) },
        Request::IdByName { name: "ms".into() },
        Request::Epoch { doc: doc(3) },
        Request::Remove { doc: doc(4) },
        Request::Metrics,
        Request::Routes,
        Request::Fetch { after: 1, max_bytes: 1024 },
    ];
    out.extend(traces().into_iter().map(Request::Trace));
    out.extend(ops().into_iter().map(|op| Request::Edit { doc: doc(1), guard: Some(3), op }));
    out
}

fn responses() -> Vec<Response> {
    let mut out = vec![
        Response::Pong,
        Response::Id(doc(17)),
        Response::Edited { node: Some(NodeId(40)), epoch: 9 },
        Response::Nodes(vec![NodeId(1), NodeId(5)]),
        Response::Hits(vec![(doc(0), vec![NodeId(2)])]),
        Response::Partial {
            hits: vec![(doc(1), vec![NodeId(7)])],
            errors: vec![(2, WireError::ShardDown(2))],
        },
        Response::Tags(vec!["sp".into()]),
        Response::Text("line one\n".into()),
        Response::Epoch(88),
        Response::Removed(true),
        Response::Routes { shards: 3, overrides: vec![(7, 2)] },
        Response::Traces(vec![TraceSummaryWire {
            trace_id: 1,
            root: "serve.request".into(),
            start_ns: 10,
            duration_ns: 2_000,
            spans: 4,
            slow: false,
            error: true,
        }]),
    ];
    out.extend(errors().into_iter().map(Response::Err));
    out.extend(fetches().into_iter().map(Response::Fetch));
    out
}

fn wal_ops() -> Vec<WalOp> {
    vec![
        WalOp::Edit { doc: doc(0), epoch: 5, op: EditOp::DeleteText { start: 0, end: 1 } },
        WalOp::DocInsert { doc: doc(1), name: None, blob: blob() },
        WalOp::DocInsert { doc: doc(2), name: Some("ms".into()), blob: blob() },
        WalOp::DocRemove { doc: doc(1) },
        WalOp::BindName { doc: doc(2), name: "ms".into() },
        WalOp::UnbindName { name: "ms".into() },
    ]
}

/// The line of a payload and its body (from the first `\n`, kept).
fn split(payload: &[u8]) -> (String, Vec<u8>) {
    let at = payload.iter().position(|&b| b == b'\n').unwrap_or(payload.len());
    (String::from_utf8(payload[..at].to_vec()).unwrap(), payload[at..].to_vec())
}

/// The shape whose keyword the line starts with (the longest match: a
/// keyword may be several tokens).
fn shape_of<'a>(shapes: &'a [Shape], line: &str) -> Option<&'a Shape> {
    shapes
        .iter()
        .filter(|s| line == s.keyword || line.starts_with(&format!("{} ", s.keyword)))
        .max_by_key(|s| s.keyword.len())
}

/// The three mutations of one payload (a trailing token, the last field
/// dropped, the last field repeated), as far as the shape has fields.
fn mutations(payload: &[u8], shape: Option<&Shape>) -> Vec<Vec<u8>> {
    let (line, body) = split(payload);
    let join = |line: &str, body: &[u8]| [line.as_bytes(), body].concat();
    let mut out = vec![join(&format!("{line} 0"), &body)];
    let Some(last) = shape.and_then(|s| s.fields.last()) else { return out };
    if last.1.contains("Body") {
        out.push(line.clone().into_bytes());
    } else {
        let (head, tok) = line.rsplit_once(' ').unwrap();
        out.push(join(head, &body));
        out.push(join(&format!("{line} {tok}"), &body));
    }
    out
}

/// Walk `samples` against `shapes`: every shape covered, every mutation
/// refused by `decode`.
fn walk(
    what: &str,
    shapes: &[Shape],
    samples: Vec<Vec<u8>>,
    decode: impl Fn(&[u8]) -> bool,
) -> usize {
    let mut covered = vec![false; shapes.len()];
    let mut refused = 0;
    for payload in samples {
        let shown = String::from_utf8_lossy(&payload).into_owned();
        assert!(decode(&payload), "{what}: the sample {shown:?} does not decode");
        let shape = shape_of(shapes, &split(&payload).0);
        if let Some(s) = shape {
            covered[shapes.iter().position(|t| t == s).unwrap()] = true;
        }
        for bad in mutations(&payload, shape) {
            let bad_shown = String::from_utf8_lossy(&bad);
            assert!(!decode(&bad), "{what}: {bad_shown:?} (from {shown:?}) decodes");
            refused += 1;
        }
    }
    for (s, seen) in shapes.iter().zip(covered) {
        assert!(seen || s.keyword.is_empty(), "{what}: no sample for {:?}", s.keyword);
    }
    refused
}

fn encoded<T: Line>(values: Vec<T>) -> Vec<Vec<u8>> {
    values.iter().map(Line::encode).collect()
}

#[test]
fn every_declared_line_refuses_its_mutations() {
    let mut refused = 0;
    refused += walk("EditOp", EditOp::SHAPES, encoded(ops()), |p| EditOp::decode(p).is_ok());
    refused +=
        walk("WireError", WireError::SHAPES, encoded(errors()), |p| WireError::decode(p).is_ok());
    refused += walk("TraceQuery", TraceQuery::SHAPES, encoded(traces()), |p| {
        TraceQuery::decode(p).is_ok()
    });
    refused += walk("FetchResponse", FetchResponse::SHAPES, encoded(fetches()), |p| {
        FetchResponse::decode(p).is_ok()
    });
    refused +=
        walk("Response", Response::SHAPES, encoded(responses()), |p| Response::decode(p).is_ok());
    let commands = [Command::Undo, Command::Redo, Command::Edit(EditOp::RemoveElement(NodeId(3)))];
    refused += walk("Command", Command::SHAPES, encoded(commands.to_vec()), |p| {
        Command::decode(p).is_ok()
    });
    // Requests lead with the protocol version, and may end with a trace
    // context: the shapes are matched after the version.
    let ctx = TraceContext { trace_id: 1, span_id: 2, parent_id: 0 };
    let strip = |p: &[u8]| p.strip_prefix(b"cxq1 ").unwrap().to_vec();
    let with_version = |p: &[u8]| [&b"cxq1 "[..], p].concat();
    let mut samples: Vec<Vec<u8>> = requests().iter().map(|r| strip(&r.encode())).collect();
    samples.push(strip(&Request::Ping.encode_traced(Some(ctx))));
    refused +=
        walk("Request", Request::SHAPES, samples, |p| Request::decode(&with_version(p)).is_ok());
    // WAL records are framed by an LSN and a CRC, recomputed for each
    // mutation so only the mutation can fail it.
    let seal = |body: &[u8]| {
        let (line, block) = split(body);
        let line = format!("7 {line}");
        let crc = cxpersist::crc32(line.as_bytes());
        [format!("{line} {crc:08x}").as_bytes(), &block[..], b"\n"].concat()
    };
    let samples = wal_ops()
        .iter()
        .map(|op| {
            let rec = cxpersist::encode_record(1, op);
            let (line, block) = split(rec.as_bytes());
            let body = line.split_once(' ').unwrap().1.rsplit_once(' ').unwrap().0;
            [body.as_bytes(), block.strip_suffix(b"\n").unwrap_or(&block)].concat()
        })
        .collect();
    refused += walk("WalOp", WalOp::SHAPES, samples, |p| {
        let record = seal(p);
        matches!(cxpersist::decode_record(&record, 1), Ok((_, used)) if used == record.len())
    });
    assert!(refused > 100, "{refused} mutations refused");
}

/// Walk one directive file's declaration over a valid sample; the footer
/// (a CRC or the `end` line) is recomputed for every mutation.
fn walk_file<T: Directives>(sample: &str, accepts: impl Fn(&str) -> bool) -> usize {
    let spec = T::SPEC;
    let body = match spec.footer {
        cxml::sacx::token::Footer::Crc => &sample[..sample.rfind("crc ").unwrap()],
        cxml::sacx::token::Footer::End => sample.strip_suffix("end\n").unwrap(),
        cxml::sacx::token::Footer::None => sample,
    };
    let seal = |body: &str| match spec.footer {
        cxml::sacx::token::Footer::Crc => {
            format!("{body}crc {:08x}\n", cxml::sacx::crc32(body.as_bytes()))
        }
        cxml::sacx::token::Footer::End => format!("{body}end\n"),
        cxml::sacx::token::Footer::None => body.to_string(),
    };
    assert!(accepts(&seal(body)), "{}: the sample does not decode", spec.magic);
    let mut refused = 0;
    for d in spec.directives {
        // The directive's first line, and where its block (if any) ends.
        let start = body
            .match_indices(&format!("\n{} ", d.keyword))
            .next()
            .unwrap_or_else(|| panic!("{}: no sample for {:?}", spec.magic, d.keyword))
            .0
            + 1;
        let end = start + body[start..].find('\n').unwrap();
        let line = &body[start..end];
        let mut segment_end = end + 1;
        if d.fields.iter().any(|f| f.1.contains("Block") || f.1.contains("DocBlob")) {
            let len: usize = line.rsplit(' ').next().unwrap().parse().unwrap();
            segment_end += len;
            if !body[end + 1..segment_end].ends_with('\n') || d.fields[0].1.contains("true") {
                segment_end += 1;
            }
        }
        let (head, tok) = line.rsplit_once(' ').unwrap();
        let mut bad = vec![
            format!("{}{line} 0{}", &body[..start], &body[end..]),
            format!("{}{head}{}", &body[..start], &body[end..]),
        ];
        bad.push(format!("{}{line} {tok}{}", &body[..start], &body[end..]));
        if d.once {
            let segment = &body[start..segment_end];
            bad.push(format!("{}{segment}{}", &body[..segment_end], &body[segment_end..]));
        }
        for b in bad {
            assert!(!accepts(&seal(&b)), "{}: {b:?} decodes", spec.magic);
            refused += 1;
        }
    }
    refused
}

#[test]
fn every_declared_directive_refuses_its_mutations() {
    let g = {
        let mut g = cxml::corpus::figure1::goddag();
        cxml::corpus::dtds::attach_standard(&mut g);
        g
    };
    // Stand-off without attributes, so every line ends in a fixed field.
    let standoff = "#cxml-standoff v1\nroot r\nhierarchy a\ncontent 3\nxyz\nannot 0 w 0 3\n";
    let mut refused = walk_file::<StandoffDoc>(standoff, |t| StandoffDoc::parse_text(t).is_ok());
    refused +=
        walk_file::<DocBlob>(&DocBlob::capture(&g).to_text(), |t| DocBlob::parse_text(t).is_ok());
    let manifest = Manifest {
        lsn: 9,
        next_doc: 2,
        docs: vec![ManifestDoc { doc: 0, epoch: 2, file: "doc-0.blob".into() }],
        names: vec![("ms".into(), 0)],
    };
    refused += walk_file::<Manifest>(&manifest.to_text(), |t| Manifest::parse_text(t).is_ok());
    let store = Store::new();
    store.insert_named("ms", g.clone());
    let snapshot = StoreSnapshot::capture(&store, 3).unwrap().to_text();
    refused += walk_file::<StoreSnapshot>(&snapshot, |t| StoreSnapshot::parse_text(t).is_ok());
    refused += walk_file::<EditionBundle>(&cxml::xtagger::save_edition(&g), |t| {
        cxml::xtagger::load_edition(t).is_ok()
    });
    assert!(refused > 40, "{refused} mutations refused");
}
