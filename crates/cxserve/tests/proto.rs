//! Wire-codec roundtrips: every request and response shape survives
//! encode → decode bit-exact, hostile payloads decode to typed
//! `bad_request` errors (never panics), and version drift fails loudly.

mod common;

use cxpersist::DocBlob;
use cxserve::{Request, Response, TraceQuery, WireError};
use cxstore::{DocId, EditOp};
use cxwire::FetchResponse;
use goddag::NodeId;

fn rt_req(req: Request) {
    let decoded = Request::decode(&req.encode()).expect("request decodes");
    assert_eq!(decoded, req);
}

fn rt_resp(resp: Response) {
    let decoded = Response::decode(&resp.encode()).expect("response decodes");
    assert_eq!(decoded, resp);
}

fn doc(raw: u64) -> DocId {
    DocId::from_raw(raw)
}

#[test]
fn every_request_shape_roundtrips() {
    let blob = DocBlob::capture(&corpus::figure1::goddag());
    rt_req(Request::Ping);
    rt_req(Request::Insert { name: None, blob: blob.clone() });
    rt_req(Request::Insert { name: Some("a name with spaces %/\n ok".into()), blob });
    // The op itself is `EditOp::write_tokens` (round-tripped for every kind
    // by cxstore's `op_tokens` property); what this codec adds is the guard
    // around it.
    let op = EditOp::InsertText { offset: 3, text: "x y\nz %".into() };
    rt_req(Request::Edit { doc: doc(7), guard: None, op: op.clone() });
    rt_req(Request::Edit { doc: doc(9), guard: Some(41), op });
    rt_req(Request::Query { doc: doc(2), expr: "//w[@n='3']".into() });
    rt_req(Request::QueryAll { expr: "//sp//w".into() });
    rt_req(Request::QueryPartial { timeout_ms: 250, expr: "//del".into() });
    rt_req(Request::Suggest { doc: doc(5), hierarchy: "phys".into(), start: 0, end: 10 });
    rt_req(Request::Export { doc: doc(8) });
    rt_req(Request::IdByName { name: String::new() });
    rt_req(Request::Epoch { doc: doc(3) });
    rt_req(Request::Remove { doc: doc(4) });
    rt_req(Request::Metrics);
    rt_req(Request::Routes);
    rt_req(Request::Trace(TraceQuery::Recent { limit: 5 }));
    rt_req(Request::Trace(TraceQuery::Slow { limit: 0 }));
    rt_req(Request::Trace(TraceQuery::Get { trace_id: u64::MAX }));
    rt_req(Request::Fetch { after: 0, max_bytes: u64::MAX });
    rt_req(Request::Fetch { after: u64::MAX, max_bytes: 0 });
}

/// The attribute list of an `insel` op ends at the first token without a
/// raw `=`; the trace pair is the next thing on the line. If the attribute
/// scan ever swallowed it, the request would lose its trace (or its
/// attributes would gain one).
#[test]
fn a_traced_insert_element_keeps_its_attributes_and_its_trace() {
    let req = Request::Edit {
        doc: doc(9),
        guard: Some(41),
        op: EditOp::InsertElement {
            hierarchy: "ling".into(),
            tag: "phrase".into(),
            attrs: vec![
                ("n".into(), "p 1".into()),
                ("empty".into(), String::new()),
                ("tc".into(), "0000000000000001-0000000000000002".into()),
            ],
            start: 4,
            end: 19,
        },
    };
    let ctx = cxobs::trace::TraceContext::mint();
    let bytes = req.encode_traced(Some(ctx));
    assert_eq!(Request::decode(&bytes).unwrap(), req);
    let seen = Request::trace_context(&bytes).expect("the pair is found");
    assert_eq!((seen.trace_id, seen.span_id), (ctx.trace_id, ctx.span_id));
    // Untraced, the same request carries no context — not even the
    // context-shaped value of its `tc` attribute.
    assert_eq!(Request::trace_context(&req.encode()), None);
    assert_eq!(Request::decode(&req.encode()).unwrap(), req);
    // A body-carrying verb keeps the pair on the token line.
    let ins = Request::Insert {
        name: Some("tc".into()),
        blob: DocBlob::capture(&corpus::figure1::goddag()),
    };
    let bytes = ins.encode_traced(Some(ctx));
    assert_eq!(Request::decode(&bytes).unwrap(), ins);
    assert_eq!(Request::trace_context(&bytes).map(|c| c.trace_id), Some(ctx.trace_id));
    assert_eq!(Request::trace_context(&ins.encode()), None);
}

#[test]
fn every_response_shape_roundtrips() {
    rt_resp(Response::Pong);
    rt_resp(Response::Id(doc(17)));
    rt_resp(Response::Edited { node: Some(NodeId(40)), epoch: 9 });
    rt_resp(Response::Edited { node: None, epoch: 10 });
    rt_resp(Response::Nodes(vec![NodeId(1), NodeId(5), NodeId(9)]));
    rt_resp(Response::Nodes(Vec::new()));
    rt_resp(Response::Hits(vec![
        (doc(0), vec![NodeId(2)]),
        (doc(3), Vec::new()),
        (doc(6), vec![NodeId(1), NodeId(2), NodeId(3)]),
    ]));
    rt_resp(Response::Partial {
        hits: vec![(doc(1), vec![NodeId(7)])],
        errors: vec![(0, WireError::ShardDown(0)), (2, WireError::Timeout { shard: 2, ms: 250 })],
    });
    rt_resp(Response::Tags(vec!["sp".into(), "stage dir".into(), String::new()]));
    rt_resp(Response::Text("line one\nline two\n  indented, with % and spaces\n".into()));
    rt_resp(Response::Text(String::new()));
    rt_resp(Response::Epoch(88));
    rt_resp(Response::Removed(true));
    rt_resp(Response::Removed(false));
    rt_resp(Response::Routes { shards: 3, overrides: vec![(7, 2), (12, 0)] });
    rt_resp(Response::Routes { shards: 1, overrides: Vec::new() });
    rt_resp(Response::Fetch(FetchResponse::CaughtUp { head: 12 }));
    // Record bodies are raw bytes: newlines, a CRLF, half of a multibyte
    // UTF-8 character (`é` is C3 A9) and an empty last line come back
    // byte-identical.
    let records = b"rec 1\n\x00\xff\r\ncut \xc3\n\n".to_vec();
    rt_resp(Response::Fetch(FetchResponse::Records { head: 40, bytes: records }));
    rt_resp(Response::Fetch(FetchResponse::Records { head: 0, bytes: Vec::new() }));
    rt_resp(Response::Fetch(FetchResponse::Snapshot { head: 7, bytes: b"snap\n\xa9\n".to_vec() }));
}

#[test]
fn every_error_kind_roundtrips() {
    for err in [
        WireError::Store("gate rejected <dmg> under ling".into()),
        WireError::Stale { current: 12 },
        WireError::ShardDown(1),
        WireError::Timeout { shard: 2, ms: 900 },
        WireError::Unavailable { shard: 0, detail: "injected outage".into() },
        WireError::WrongShard { owner: 2 },
        WireError::Deadline { ms: 5000 },
        WireError::Injected("serve.request".into()),
        WireError::BadRequest("expected verb".into()),
        WireError::Busy,
        WireError::Server("handler panicked".into()),
        WireError::Diverged("follower claims LSN 9, log ends at 4".into()),
        WireError::TooLarge("response of 70000000 bytes".into()),
    ] {
        rt_resp(Response::Err(err));
    }
}

#[test]
fn a_document_blob_survives_the_wire() {
    let g = common::manuscript(40, 17);
    let before = sacx::export_standoff(&g);
    let req = Request::Insert { name: Some("ms".into()), blob: DocBlob::capture(&g) };
    let Request::Insert { blob, .. } = Request::decode(&req.encode()).unwrap() else {
        panic!("wrong request shape");
    };
    let after = sacx::export_standoff(&blob.restore().unwrap());
    assert_eq!(before, after, "the export is byte-identical across the wire");
}

#[test]
fn hostile_request_payloads_decode_to_typed_errors_never_panics() {
    let cases: &[&[u8]] = &[
        b"",
        b"\n",
        b"cxq1",
        b"cxq1 ",
        b"cxq1 frobnicate",
        b"cxq2 ping", // version drift
        b"ping",      // missing version
        b"cxq1 edit not-a-number g0 instext 0 x",
        b"cxq1 edit 3 g instext",      // truncated op
        b"cxq1 edit 3 gX instext 0 x", // bad guard token
        b"cxq1 insel",                 // op verb as request verb
        b"cxq1 query 1",               // missing expr
        b"cxq1 suggest 1 phys 0",      // missing end
        b"cxq1 insert\n<<<not a blob>>>",
        b"cxq1 insertn name-without-body",
        b"\xff\xfe\x00\x80garbage",                 // not UTF-8 at all
        b"cxq1 edit 1 1 insel h t 0 5 999999999",   // the old count-prefixed spelling
        b"cxq1 edit 1 1 insel h t 0 5 2 k v k2 v2", // ditto, with its attributes
        b"cxq1 remove 7 8",                         // trailing junk after the arguments
        b"cxq1 remove +5",                          // a second spelling of 5
        b"cxq1 ping x y",
        b"cxq1 ping tc",                         // half a trace pair
        b"cxq1 ping tc not-a-context",           // malformed trace pair
        b"cxq1 ping tc 1-2 tc 1-2",              // two of them
        b"cxq1 edit 1 - rmel 4 a=b",             // attributes on an op that has none
        b"cxq1 fetch",                           // no arguments
        b"cxq1 fetch 0",                         // a missing budget
        b"cxq1 fetch x 1024",                    // a non-numeric `after`
        b"cxq1 fetch 0 -1",                      // a negative budget
        b"cxq1 fetch 18446744073709551616 1024", // an `after` past u64
        b"cxq1 fetch 0 1024 5",                  // a trailing token
        b"cxq2 fetch 0 1024",                    // version drift
    ];
    for payload in cases {
        match Request::decode(payload) {
            Err(WireError::BadRequest(_)) => {}
            other => panic!("{:?} decoded to {other:?}", String::from_utf8_lossy(payload)),
        }
    }
}

#[test]
fn hostile_response_payloads_decode_to_typed_errors_never_panics() {
    let cases: &[&[u8]] = &[
        b"",
        b"nope",
        b"ok",
        b"ok wat",
        b"ok id",         // missing id token
        b"ok edited x 1", // bad node token
        b"err",
        b"err weird-kind detail",
        b"\xff\xff\xff",
        b"ok caught_up",       // missing head
        b"ok records x\nbody", // bad head
        b"ok snapshot",        // missing head
        b"err diverged",       // missing detail
        b"err too_large",      // missing detail
        b"\xff records 1\nbody",
    ];
    for payload in cases {
        assert!(
            Response::decode(payload).is_err(),
            "{:?} should not decode",
            String::from_utf8_lossy(payload)
        );
    }
}

#[test]
fn trailing_response_tokens_and_body_lines_are_refused() {
    let cases: &[&[u8]] = &[
        b"ok pong x",
        b"ok epoch 5 6",
        b"ok removed 1 1",
        b"err busy now",
        b"ok hits 1\n5 0\n6 0\n",     // a hit past the count
        b"ok hits 1\n5 1 2 9\n",      // a node past the hit's own count
        b"ok routes 2 1\n7 1\n8 0\n", // a route past the count
        b"ok partial 0 0\n1 busy\n",  // an error past the count
        b"ok traces 0\nx\n",
        b"ok pong\nstray body",
        b"ok caught_up 5 6",
        b"ok caught_up 5\nstray body",
        b"ok records 5 6\nbody",
        b"ok hits 0\n\xc3", // a counted body that is not UTF-8
        b"err diverged split history",
    ];
    for payload in cases {
        match Response::decode(payload) {
            Err(WireError::BadRequest(_)) => {}
            other => panic!("{:?} decoded to {other:?}", String::from_utf8_lossy(payload)),
        }
    }
}

#[test]
fn version_sentinel_is_checked_first() {
    let mut good = Request::Ping.encode();
    assert!(good.starts_with(cxserve::VERSION.as_bytes()));
    // Flip one version byte: the refusal names the version problem.
    good[3] = b'9';
    let err = Request::decode(&good).unwrap_err();
    let WireError::BadRequest(detail) = &err else { panic!("{err:?}") };
    assert!(detail.contains("version"), "{detail}");
}
