//! The text formats did not move: every fixture under `fixtures/` was
//! written by the hand-written encoders of commit `5118faf`, before each
//! format was declared once in `sacx::token`. Each one must decode to
//! exactly the values built below and re-encode to exactly its bytes.
//!
//! * `manifest_v1.txt` — a snapshot manifest (`cxpersist::Manifest`);
//! * `snapshot_v1.cxsnap` — a wire snapshot (`cxpersist::StoreSnapshot`);
//! * `standoff_v1.txt` — stand-off text (`sacx::StandoffDoc`);
//! * `edition_v1.txt` — an xTagger edition bundle;
//! * `cxq1_requests.bin`, `cxq1_responses.bin` — one `cxq1` request and
//!   response payload of every shape, each framed as `<len>\n<payload>\n`.
//!
//! (`golden.wal` and `blob_v1.*` are pinned the same way in `cxpersist`.)

use cxml::cxobs::trace::TraceContext;
use cxml::cxpersist::{DocBlob, Manifest, ManifestDoc, StoreSnapshot};
use cxml::cxstore::{DocId, EditOp};
use cxml::cxwire::{FetchResponse, Request, Response, TraceQuery, TraceSummaryWire, WireError};
use cxml::goddag::{Goddag, NodeId};
use cxml::sacx::{Annotation, StandoffDoc};

/// Empty, separators, escapes, newlines, control and non-ASCII bytes.
const HOSTILE: &[&str] =
    &["", " ", "two words", "=", "a=b", "%", "%25", "line\nbreak\r", "swā þæt"];

fn doc(raw: u64) -> DocId {
    DocId::from_raw(raw)
}

fn blob() -> DocBlob {
    DocBlob::capture(&cxml::corpus::figure1::goddag())
}

fn manifest() -> Manifest {
    Manifest {
        lsn: 4_000_000_007,
        next_doc: 12,
        docs: vec![
            ManifestDoc { doc: 0, epoch: 0, file: "doc-0.blob".into() },
            ManifestDoc { doc: 7, epoch: u64::MAX, file: "doc 7 %.blob".into() },
            ManifestDoc { doc: 11, epoch: 3, file: String::new() },
        ],
        names: HOSTILE.iter().enumerate().map(|(i, s)| (s.to_string(), i as u64)).collect(),
    }
}

fn snapshot() -> StoreSnapshot {
    let mut g = cxml::sacx::parse_distributed(&[
        ("phys", "<r id=\"\"><line n=\"1 = one\">swā hwa</line> <line>nu</line></r>"),
        ("ling", "<r id=\"\"><w>swā</w> <s note=\"100%\nsure\"><w>hwa</w> <w>nu</w></s></r>"),
    ])
    .unwrap();
    let ling = g.hierarchy_by_name("ling").unwrap();
    g.set_dtd(ling, cxml::corpus::dtds::ling()).unwrap();
    g.split_leaf_at(2).unwrap();
    StoreSnapshot {
        lsn: 17,
        next_doc: 9,
        docs: vec![(0, blob()), (8, DocBlob::capture(&g))],
        names: vec![("a ms".into(), 0), (String::new(), 8), ("%".into(), 8)],
    }
}

fn standoff() -> StandoffDoc {
    let attrs = |list: &[&str]| -> Vec<(String, String)> {
        list.iter().map(|s| (format!("k{}", s.len()), s.to_string())).collect()
    };
    StandoffDoc {
        root: "r".into(),
        root_attrs: attrs(HOSTILE),
        hierarchies: vec!["phys".into(), "ling".into(), "my hier".into()],
        content: "swā hwa\nswe nu\n".into(),
        annotations: vec![
            Annotation { hierarchy: 0, tag: "line".into(), start: 0, end: 8, attrs: attrs(&["1"]) },
            Annotation { hierarchy: 1, tag: "w".into(), start: 0, end: 4, attrs: Vec::new() },
            Annotation { hierarchy: 2, tag: "pb".into(), start: 4, end: 4, attrs: attrs(HOSTILE) },
            Annotation { hierarchy: 0, tag: "line".into(), start: 9, end: 17, attrs: Vec::new() },
        ],
    }
}

fn edition() -> Goddag {
    let mut g = cxml::corpus::figure1::goddag();
    cxml::corpus::dtds::attach_standard(&mut g);
    let h = g.add_hierarchy("my hier");
    g.set_dtd(h, cxml::corpus::dtds::edit()).unwrap();
    g
}

fn ctx() -> TraceContext {
    TraceContext { trace_id: 0x0123_4567_89ab_cdef, span_id: 0xfedc_ba98_7654_3210, parent_id: 0 }
}

fn ops() -> Vec<EditOp> {
    vec![
        EditOp::InsertElement {
            hierarchy: "ling".into(),
            tag: "w".into(),
            attrs: HOSTILE.iter().map(|s| (s.to_string(), s.to_string())).collect(),
            start: 0,
            end: 3,
        },
        EditOp::RemoveElement(NodeId(u32::MAX)),
        EditOp::InsertText { offset: 7, text: "x y\nz %".into() },
        EditOp::DeleteText { start: 2, end: 5 },
        EditOp::SetAttr { node: NodeId(3), name: "n".into(), value: String::new() },
        EditOp::RemoveAttr { node: NodeId(3), name: "tc".into() },
    ]
}

/// Every request shape, and whether it travels with a trace context.
fn requests() -> Vec<(Request, Option<TraceContext>)> {
    let mut out = vec![
        (Request::Ping, None),
        (Request::Ping, Some(ctx())),
        (Request::Insert { name: None, blob: blob() }, None),
        (Request::Insert { name: Some("a name %/\n ok".into()), blob: blob() }, Some(ctx())),
        (Request::Insert { name: Some(String::new()), blob: blob() }, None),
        (Request::Query { doc: doc(2), expr: "//w[@n='3']".into() }, None),
        (Request::QueryAll { expr: "//sp//w".into() }, Some(ctx())),
        (Request::QueryPartial { timeout_ms: 250, expr: "//del".into() }, None),
        (Request::Suggest { doc: doc(5), hierarchy: "phys".into(), start: 0, end: 10 }, None),
        (Request::Export { doc: doc(8) }, None),
        (Request::IdByName { name: String::new() }, None),
        (Request::Epoch { doc: doc(3) }, None),
        (Request::Remove { doc: doc(u64::MAX) }, None),
        (Request::Metrics, None),
        (Request::Routes, None),
        (Request::Trace(TraceQuery::Recent { limit: 5 }), None),
        (Request::Trace(TraceQuery::Slow { limit: 0 }), None),
        (Request::Trace(TraceQuery::Get { trace_id: 255 }), None),
        (Request::Trace(TraceQuery::Get { trace_id: u64::MAX }), Some(ctx())),
        (Request::Fetch { after: 0, max_bytes: u64::MAX }, None),
    ];
    for (i, op) in ops().into_iter().enumerate() {
        let guard = (i % 2 == 0).then_some(i as u64 * 10);
        let traced = (i % 3 == 0).then(ctx);
        out.push((Request::Edit { doc: doc(i as u64), guard, op }, traced));
    }
    out
}

fn responses() -> Vec<Response> {
    let all_errors = vec![
        WireError::Store("gate rejected <dmg> under ling".into()),
        WireError::Stale { current: 12 },
        WireError::ShardDown(1),
        WireError::Timeout { shard: 2, ms: 900 },
        WireError::Unavailable { shard: 0, detail: "injected outage".into() },
        WireError::WrongShard { owner: 2 },
        WireError::Deadline { ms: 5000 },
        WireError::Injected("serve.request".into()),
        WireError::BadRequest(String::new()),
        WireError::Busy,
        WireError::Server("handler panicked".into()),
        WireError::Diverged("follower claims LSN 9, log ends at 4".into()),
        WireError::TooLarge("response of 70000000 bytes".into()),
    ];
    let mut out = vec![
        Response::Pong,
        Response::Id(doc(17)),
        Response::Edited { node: Some(NodeId(40)), epoch: 9 },
        Response::Edited { node: None, epoch: 0 },
        Response::Nodes(vec![NodeId(1), NodeId(5), NodeId(9)]),
        Response::Nodes(Vec::new()),
        Response::Hits(vec![
            (doc(0), vec![NodeId(2)]),
            (doc(3), Vec::new()),
            (doc(6), vec![NodeId(1), NodeId(2), NodeId(3)]),
        ]),
        Response::Hits(Vec::new()),
        Response::Partial {
            hits: vec![(doc(1), vec![NodeId(7)])],
            errors: all_errors.iter().cloned().enumerate().collect(),
        },
        Response::Partial { hits: Vec::new(), errors: Vec::new() },
        Response::Tags(vec!["sp".into(), "stage dir".into(), String::new()]),
        Response::Tags(Vec::new()),
        Response::Text("line one\nline two\n  indented, with % and spaces\n".into()),
        Response::Text(String::new()),
        Response::Epoch(88),
        Response::Removed(true),
        Response::Removed(false),
        Response::Routes { shards: 3, overrides: vec![(7, 2), (12, 0)] },
        Response::Routes { shards: 1, overrides: Vec::new() },
        Response::Traces(vec![
            TraceSummaryWire {
                trace_id: 1,
                root: "serve.request".into(),
                start_ns: 10,
                duration_ns: 2_000,
                spans: 4,
                slow: false,
                error: true,
            },
            TraceSummaryWire {
                trace_id: u64::MAX,
                root: String::new(),
                start_ns: 0,
                duration_ns: 0,
                spans: 0,
                slow: true,
                error: false,
            },
        ]),
        Response::Traces(Vec::new()),
        Response::Fetch(FetchResponse::CaughtUp { head: 12 }),
        Response::Fetch(FetchResponse::Records {
            head: 40,
            bytes: b"rec 1\n\x00\xff\r\ncut \xc3\n\n".to_vec(),
        }),
        Response::Fetch(FetchResponse::Records { head: 0, bytes: Vec::new() }),
        Response::Fetch(FetchResponse::Snapshot { head: 7, bytes: b"snap\n\xa9\n".to_vec() }),
    ];
    out.extend(all_errors.into_iter().map(Response::Err));
    out
}

/// Split a `<len>\n<payload>\n` sequence.
fn frames(mut bytes: &[u8]) -> Vec<&[u8]> {
    let mut out = Vec::new();
    while !bytes.is_empty() {
        let nl = bytes.iter().position(|&b| b == b'\n').unwrap();
        let len: usize = std::str::from_utf8(&bytes[..nl]).unwrap().parse().unwrap();
        let (payload, rest) = bytes[nl + 1..].split_at(len);
        assert_eq!(rest[0], b'\n');
        out.push(payload);
        bytes = &rest[1..];
    }
    out
}

fn fixture(name: &str) -> Vec<u8> {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn text_fixture(name: &str) -> String {
    String::from_utf8(fixture(name)).unwrap()
}

#[test]
fn the_manifest_fixture_decodes_and_re_encodes() {
    let text = text_fixture("manifest_v1.txt");
    assert_eq!(Manifest::parse_text(&text).unwrap(), manifest());
    assert_eq!(manifest().to_text(), text);
}

#[test]
fn the_wire_snapshot_fixture_decodes_and_re_encodes() {
    let text = text_fixture("snapshot_v1.cxsnap");
    assert_eq!(StoreSnapshot::parse_text(&text).unwrap(), snapshot());
    assert_eq!(snapshot().to_text(), text);
}

#[test]
fn the_standoff_fixture_decodes_and_re_encodes() {
    let text = text_fixture("standoff_v1.txt");
    assert_eq!(StandoffDoc::parse_text(&text).unwrap(), standoff());
    assert_eq!(standoff().to_text(), text);
}

#[test]
fn the_edition_fixture_decodes_and_re_encodes() {
    let text = text_fixture("edition_v1.txt");
    let g = cxml::xtagger::load_edition(&text).unwrap();
    let want = edition();
    assert_eq!(cxml::sacx::export_standoff(&g), cxml::sacx::export_standoff(&want));
    for h in want.hierarchy_ids() {
        let dtd = |g: &Goddag| g.hierarchy(h).unwrap().dtd.as_ref().map(|d| d.to_text());
        assert_eq!(dtd(&g), dtd(&want), "hierarchy {h}");
    }
    assert_eq!(cxml::xtagger::save_edition(&want), text);
}

#[test]
fn the_cxq1_request_fixtures_decode_and_re_encode() {
    let bytes = fixture("cxq1_requests.bin");
    let payloads = frames(&bytes);
    let expected = requests();
    assert_eq!(payloads.len(), expected.len());
    for (payload, (req, ctx)) in payloads.iter().zip(expected) {
        let shown = String::from_utf8_lossy(payload);
        assert_eq!(Request::decode(payload).unwrap(), req, "{shown}");
        assert_eq!(
            Request::trace_context(payload).map(|c| (c.trace_id, c.span_id)),
            ctx.map(|c| (c.trace_id, c.span_id)),
            "{shown}"
        );
        assert_eq!(req.encode_traced(ctx), *payload, "{shown}");
    }
}

#[test]
fn the_cxq1_response_fixtures_decode_and_re_encode() {
    let bytes = fixture("cxq1_responses.bin");
    let payloads = frames(&bytes);
    let expected = responses();
    assert_eq!(payloads.len(), expected.len());
    for (payload, resp) in payloads.iter().zip(expected) {
        let shown = String::from_utf8_lossy(payload);
        assert_eq!(Response::decode(payload).unwrap(), resp, "{shown}");
        assert_eq!(resp.encode(), *payload, "{shown}");
    }
}
