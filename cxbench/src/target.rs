//! Everything a [`Unit`] can be run against. The end-to-end runs drive
//! [`RouterT`]; the ladder replays the same units against each rung below
//! it ([`ClusterT`], [`DurableT`], [`StoreT`], [`Bare`]) and against the two
//! wire pieces measured in isolation ([`WirePiece`]).
//!
//! Every target times its own call, so a rung reports only the layer call
//! itself: cloning the operation for a by-value API, mapping `DocId`s back
//! to document indexes and building the reply are outside the interval.

use crate::gen::{PairEdit, Unit};
use cxcluster::Cluster;
use cxpersist::{DocBlob, DurableStore};
use cxserve::{Request, Response, RouterClient};
use cxstore::{DocId, EditOp, Store};
use expath::{Evaluator, OverlapIndex, Value};
use goddag::{Goddag, NodeId};
use prevalid::PrevalidEngine;
use std::collections::HashMap;
use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;
use xmlcore::{Attribute, QName};

/// Nanoseconds since the first call — the time base of every span.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A layer call's result and the interval it ran in.
pub struct Timed<T> {
    pub out: T,
    pub start_ns: u64,
    pub nanos: u64,
}

fn timed<T>(f: impl FnOnce() -> T) -> Timed<T> {
    let start_ns = now_ns();
    let out = f();
    Timed { out, start_ns, nanos: now_ns() - start_ns }
}

impl<T> Timed<T> {
    fn map<U>(self, f: impl FnOnce(T) -> U) -> Timed<U> {
        Timed { out: f(self.out), start_ns: self.start_ns, nanos: self.nanos }
    }
}

pub type Res<T> = Result<T, String>;
/// Fan-out hits keyed by document index (targets mint different `DocId`s).
pub type Hits = Vec<(usize, Vec<NodeId>)>;

fn err<T, E: std::fmt::Display>(r: Result<T, E>) -> Res<T> {
    r.map_err(|e| e.to_string())
}

/// The hierarchy every generated markup edit targets.
pub const HIERARCHY: &str = "ling";
/// The element every generated markup edit inserts.
pub const TAG: &str = "phrase";

pub trait Target {
    /// One (guarded, where the layer has guards) edit; the created node.
    fn edit(&mut self, doc: usize, op: EditOp) -> Timed<Res<Option<NodeId>>>;
    fn query(&mut self, doc: usize, expr: &str) -> Timed<Res<Vec<NodeId>>>;
    fn query_all(&mut self, expr: &str) -> Timed<Res<Hits>>;
    fn suggest(&mut self, doc: usize, start: usize, end: usize) -> Timed<Res<Vec<String>>>;
    /// Parse `xml` (one document per hierarchy), attach the standard DTDs
    /// and insert the result as document `doc` under `name`.
    fn import(&mut self, doc: usize, name: &str, xml: &[(String, String)]) -> Timed<Res<()>>;
}

/// The paper-core half of an import, identical at every rung.
fn parse_doc(xml: &[(String, String)]) -> Res<Goddag> {
    let mut g = err(sacx::parse_distributed(xml))?;
    corpus::dtds::attach_standard(&mut g);
    Ok(g)
}

/// Document handles of one store-shaped target, by document index.
pub struct Docs {
    pub ids: Vec<DocId>,
    epochs: Vec<u64>,
    index: HashMap<DocId, usize>,
}

impl Docs {
    /// `ids[i]` is document `i`; `epoch(id)` reads its current edit epoch.
    pub fn new(ids: Vec<DocId>, epoch: impl Fn(DocId) -> u64) -> Docs {
        let epochs = ids.iter().map(|&id| epoch(id)).collect();
        let index = ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        Docs { ids, epochs, index }
    }

    /// Room for `n` documents that [`Target::import`] will fill in.
    pub fn empty(n: usize) -> Docs {
        Docs { ids: vec![DocId::from_raw(u64::MAX); n], epochs: vec![0; n], index: HashMap::new() }
    }

    fn bind(&mut self, doc: usize, id: DocId) {
        self.ids[doc] = id;
        self.index.insert(id, doc);
    }

    fn edited(&mut self, doc: usize, out: cxstore::EditOutcome) -> Option<NodeId> {
        self.epochs[doc] = out.epoch;
        out.node
    }

    fn hits(&self, hits: Vec<(DocId, Vec<NodeId>)>) -> Hits {
        hits.into_iter().filter_map(|(id, nodes)| Some((*self.index.get(&id)?, nodes))).collect()
    }
}

/// The top rung and the end-to-end path: `RouterClient` over loopback TCP.
pub struct RouterT {
    pub router: RouterClient,
    pub docs: Docs,
}

impl Target for RouterT {
    fn edit(&mut self, doc: usize, op: EditOp) -> Timed<Res<Option<NodeId>>> {
        let (id, guard) = (self.docs.ids[doc], self.docs.epochs[doc]);
        let t = timed(|| self.router.edit_guarded(id, guard, op));
        t.map(|r| err(r).map(|out| self.docs.edited(doc, out)))
    }

    fn query(&mut self, doc: usize, expr: &str) -> Timed<Res<Vec<NodeId>>> {
        timed(|| self.router.query(self.docs.ids[doc], expr)).map(err)
    }

    fn query_all(&mut self, expr: &str) -> Timed<Res<Hits>> {
        timed(|| self.router.query_all(expr)).map(|r| err(r).map(|h| self.docs.hits(h)))
    }

    fn suggest(&mut self, doc: usize, start: usize, end: usize) -> Timed<Res<Vec<String>>> {
        timed(|| self.router.suggest_tags(self.docs.ids[doc], HIERARCHY, start, end)).map(err)
    }

    fn import(&mut self, doc: usize, name: &str, xml: &[(String, String)]) -> Timed<Res<()>> {
        let t = timed(|| err(self.router.insert_named(name, &parse_doc(xml)?)));
        t.map(|r| r.map(|id| self.docs.bind(doc, id)))
    }
}

pub struct ClusterT {
    pub cluster: Arc<Cluster>,
    pub docs: Docs,
}

impl Target for ClusterT {
    fn edit(&mut self, doc: usize, op: EditOp) -> Timed<Res<Option<NodeId>>> {
        let (id, guard) = (self.docs.ids[doc], self.docs.epochs[doc]);
        let t = timed(|| self.cluster.edit_guarded(id, guard, op));
        t.map(|r| err(r).map(|out| self.docs.edited(doc, out)))
    }

    fn query(&mut self, doc: usize, expr: &str) -> Timed<Res<Vec<NodeId>>> {
        timed(|| self.cluster.query(self.docs.ids[doc], expr)).map(err)
    }

    fn query_all(&mut self, expr: &str) -> Timed<Res<Hits>> {
        timed(|| self.cluster.query_all(expr)).map(|r| err(r).map(|h| self.docs.hits(h)))
    }

    fn suggest(&mut self, doc: usize, start: usize, end: usize) -> Timed<Res<Vec<String>>> {
        timed(|| self.cluster.suggest_tags(self.docs.ids[doc], HIERARCHY, start, end)).map(err)
    }

    fn import(&mut self, doc: usize, name: &str, xml: &[(String, String)]) -> Timed<Res<()>> {
        let t = timed(|| err(self.cluster.insert_named(name, parse_doc(xml)?)));
        t.map(|r| r.map(|id| self.docs.bind(doc, id)))
    }
}

pub struct DurableT {
    pub durable: DurableStore,
    pub docs: Docs,
}

impl Target for DurableT {
    fn edit(&mut self, doc: usize, op: EditOp) -> Timed<Res<Option<NodeId>>> {
        let (id, guard) = (self.docs.ids[doc], self.docs.epochs[doc]);
        let t = timed(|| self.durable.edit_guarded(id, guard, op));
        t.map(|r| err(r).map(|out| self.docs.edited(doc, out)))
    }

    fn query(&mut self, doc: usize, expr: &str) -> Timed<Res<Vec<NodeId>>> {
        timed(|| self.durable.store().query(self.docs.ids[doc], expr)).map(err)
    }

    fn query_all(&mut self, expr: &str) -> Timed<Res<Hits>> {
        timed(|| self.durable.store().query_all(expr)).map(|r| err(r).map(|h| self.docs.hits(h)))
    }

    fn suggest(&mut self, doc: usize, start: usize, end: usize) -> Timed<Res<Vec<String>>> {
        let id = self.docs.ids[doc];
        timed(|| self.durable.store().suggest_tags(id, HIERARCHY, start, end)).map(err)
    }

    fn import(&mut self, doc: usize, name: &str, xml: &[(String, String)]) -> Timed<Res<()>> {
        let t = timed(|| err(self.durable.insert_named(name, parse_doc(xml)?)));
        t.map(|r| r.map(|id| self.docs.bind(doc, id)))
    }
}

/// The in-memory store: a ladder rung, the oracle's control, and the reply
/// source of the codec and frame passes.
pub struct StoreT {
    pub store: Store,
    pub docs: Docs,
}

impl StoreT {
    /// A fresh store holding `corpus` in order.
    pub fn holding(corpus: &[Goddag]) -> StoreT {
        let store = Store::new();
        let ids = corpus.iter().map(|g| store.insert(g.clone())).collect();
        let docs = Docs::new(ids, |id| store.epoch(id).expect("just inserted"));
        StoreT { store, docs }
    }

    pub fn empty(n: usize) -> StoreT {
        StoreT { store: Store::new(), docs: Docs::empty(n) }
    }
}

impl Target for StoreT {
    fn edit(&mut self, doc: usize, op: EditOp) -> Timed<Res<Option<NodeId>>> {
        let id = self.docs.ids[doc];
        let t = timed(|| self.store.edit(id, op));
        t.map(|r| err(r).map(|out| self.docs.edited(doc, out)))
    }

    fn query(&mut self, doc: usize, expr: &str) -> Timed<Res<Vec<NodeId>>> {
        timed(|| self.store.query(self.docs.ids[doc], expr)).map(err)
    }

    fn query_all(&mut self, expr: &str) -> Timed<Res<Hits>> {
        timed(|| self.store.query_all(expr)).map(|r| err(r).map(|h| self.docs.hits(h)))
    }

    fn suggest(&mut self, doc: usize, start: usize, end: usize) -> Timed<Res<Vec<String>>> {
        timed(|| self.store.suggest_tags(self.docs.ids[doc], HIERARCHY, start, end)).map(err)
    }

    fn import(&mut self, doc: usize, name: &str, xml: &[(String, String)]) -> Timed<Res<()>> {
        let t = timed(|| parse_doc(xml).map(|g| self.store.insert_named(name, g)));
        t.map(|r| r.map(|id| self.docs.bind(doc, id)))
    }
}

/// One timed call into a paper-core crate, made by [`Bare`].
pub struct Part {
    pub layer: &'static str,
    pub start_ns: u64,
    pub nanos: u64,
    /// Which of the target's operations (since [`Bare::settle`]) made it.
    pub request: usize,
}

/// The bottom rung: the paper-core crates called directly on bare
/// documents — no store, no lock, no log. Each call is recorded as a
/// [`Part`] under its crate's name.
///
/// `expath::parse` is timed on *every* query; the ladder charges it at the
/// store's measured compiled-query miss rate. The overlap index is rebuilt
/// exactly when the store would rebuild it: when the document's edit epoch
/// has moved.
#[derive(Default)]
pub struct Bare {
    docs: Vec<Goddag>,
    engines: Vec<Option<PrevalidEngine>>,
    indexes: Vec<Option<(u64, Arc<OverlapIndex>)>>,
    pub parts: Vec<Part>,
    ops: usize,
}

impl Bare {
    pub fn holding(corpus: &[Goddag]) -> Bare {
        let mut bare = Bare::default();
        for g in corpus {
            bare.push(g.clone());
        }
        bare
    }

    fn push(&mut self, g: Goddag) {
        let engine = g
            .hierarchy_by_name(HIERARCHY)
            .and_then(|h| g.hierarchy(h).ok()?.dtd.clone())
            .map(PrevalidEngine::new);
        self.docs.push(g);
        self.engines.push(engine);
        self.indexes.push(None);
    }

    /// End of warm-up: every index is built (the store rungs start with
    /// warm indexes too) and what was recorded so far is forgotten.
    pub fn settle(&mut self) {
        for doc in 0..self.docs.len() {
            self.index(doc);
        }
        self.parts.clear();
        self.ops = 0;
    }

    fn part<T>(&mut self, layer: &'static str, f: impl FnOnce(&mut Bare) -> T) -> T {
        let t = timed(|| f(self));
        self.parts.push(Part { layer, start_ns: t.start_ns, nanos: t.nanos, request: self.ops });
        t.out
    }

    fn index(&mut self, doc: usize) -> Arc<OverlapIndex> {
        let epoch = self.docs[doc].edit_epoch();
        if let Some((at, idx)) = &self.indexes[doc] {
            if *at == epoch {
                return Arc::clone(idx);
            }
        }
        let idx = self.part("expath.index_build", |b| Arc::new(OverlapIndex::build(&b.docs[doc])));
        self.indexes[doc] = Some((epoch, Arc::clone(&idx)));
        idx
    }

    fn eval(&mut self, doc: usize, ast: &expath::Expr) -> Res<Vec<NodeId>> {
        let idx = self.index(doc);
        self.part("expath.eval", |b| {
            let g = &b.docs[doc];
            match err(Evaluator::with_shared_index(g, idx).evaluate(ast, g.root()))? {
                Value::Nodes(nodes) => Ok(nodes),
                other => Err(format!("expected a node-set, got {other:?}")),
            }
        })
    }

    fn whole<T>(&mut self, f: impl FnOnce(&mut Bare) -> T) -> Timed<T> {
        let t = timed(|| f(self));
        self.ops += 1;
        t
    }
}

impl Target for Bare {
    fn edit(&mut self, doc: usize, op: EditOp) -> Timed<Res<Option<NodeId>>> {
        self.whole(|b| match op {
            EditOp::InsertElement { hierarchy, tag, attrs, start, end } => {
                let h = b.docs[doc].hierarchy_by_name(&hierarchy).ok_or("no such hierarchy")?;
                if b.engines[doc].is_some() {
                    let verdict = b.part("prevalid.check", |b| {
                        let engine = b.engines[doc].as_ref().expect("checked above");
                        prevalid::check_insertion(engine, &b.docs[doc], h, &tag, start, end)
                    });
                    if !verdict.ok {
                        return Err(verdict.reason.unwrap_or_default());
                    }
                }
                b.part("goddag.apply", |b| {
                    let name = err(QName::parse(&tag))?;
                    let attrs = attrs.iter().map(|(n, v)| Attribute::new(n.as_str(), v)).collect();
                    err(b.docs[doc].insert_element(h, name, attrs, start, end)).map(Some)
                })
            }
            op => b.part("goddag.apply", |b| {
                let g = &mut b.docs[doc];
                err(match op {
                    EditOp::RemoveElement(n) => g.remove_element(n),
                    EditOp::InsertText { offset, text } => g.insert_text(offset, &text),
                    EditOp::DeleteText { start, end } => g.delete_text(start, end),
                    EditOp::SetAttr { node, name, value } => g.set_attr(node, &name, &value),
                    EditOp::RemoveAttr { node, name } => g.remove_attr(node, &name).map(|_| ()),
                    EditOp::InsertElement { .. } => unreachable!("matched above"),
                })
                .map(|()| None)
            }),
        })
    }

    fn query(&mut self, doc: usize, expr: &str) -> Timed<Res<Vec<NodeId>>> {
        self.whole(|b| {
            let ast = err(b.part("expath.parse", |_| expath::parse(expr)))?;
            b.eval(doc, &ast)
        })
    }

    fn query_all(&mut self, expr: &str) -> Timed<Res<Hits>> {
        self.whole(|b| {
            let ast = err(b.part("expath.parse", |_| expath::parse(expr)))?;
            (0..b.docs.len()).map(|doc| Ok((doc, b.eval(doc, &ast)?))).collect()
        })
    }

    fn suggest(&mut self, doc: usize, start: usize, end: usize) -> Timed<Res<Vec<String>>> {
        self.whole(|b| {
            let h = b.docs[doc].hierarchy_by_name(HIERARCHY).ok_or("no such hierarchy")?;
            Ok(b.part("prevalid.suggest", |b| match &b.engines[doc] {
                Some(engine) => prevalid::suggest_tags(engine, &b.docs[doc], h, start, end),
                None => Vec::new(),
            }))
        })
    }

    /// `parse_distributed` split by crate: the XML reader alone, what
    /// `sacx::extract` adds on top of it, and what building the GODDAG adds
    /// on top of that. The pieces are measured by running the narrower
    /// function on the same input, so the import runs the parse three times;
    /// only the widest run is the rung's time.
    fn import(&mut self, doc: usize, _name: &str, xml: &[(String, String)]) -> Timed<Res<()>> {
        assert_eq!(doc, self.docs.len(), "bare documents are imported in order");
        let read = timed(|| {
            xml.iter().try_for_each(|(_, x)| {
                let mut reader = xmlcore::Reader::new(x);
                while !matches!(reader.next_event()?, xmlcore::Event::Eof) {}
                Ok::<(), xmlcore::XmlError>(())
            })
        });
        let extract = timed(|| xml.iter().try_for_each(|(h, x)| sacx::extract(x, h).map(drop)));
        let whole = timed(|| parse_doc(xml));
        let (at, request) = (whole.start_ns, self.ops);
        self.ops += 1;
        let mut part = |layer, nanos| self.parts.push(Part { layer, start_ns: at, nanos, request });
        part("xmlcore.parse", read.nanos);
        part("sacx.extract", extract.nanos.saturating_sub(read.nanos));
        part("goddag.build", whole.nanos.saturating_sub(extract.nanos));
        whole.map(|g| {
            err(read.out)?;
            err(extract.out)?;
            self.push(g?);
            Ok(())
        })
    }
}

/// Which piece of the wire path a [`WirePiece`] times.
enum Piece {
    /// `Request::encode` + `decode` + `Response::encode` + `decode`.
    Codec,
    /// `write_frame` + `read_frame` against a loopback echo thread.
    Frame { stream: TcpStream, echo: Option<JoinHandle<()>> },
}

/// One piece of the wire path in isolation, fed each operation's *actual*
/// `cxq1` request and reply: the reply comes from a real in-memory store,
/// so payload sizes and shapes are the served ones. Only the piece is
/// timed, never the store call.
pub struct WirePiece {
    inner: StoreT,
    piece: Piece,
    request_bytes: u64,
    reply_bytes: u64,
    calls: u64,
}

impl WirePiece {
    pub fn codec(inner: StoreT) -> WirePiece {
        WirePiece { inner, piece: Piece::Codec, request_bytes: 0, reply_bytes: 0, calls: 0 }
    }

    pub fn frame(inner: StoreT) -> std::io::Result<WirePiece> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let stream = TcpStream::connect(listener.local_addr()?)?;
        stream.set_nodelay(true)?;
        let echo = std::thread::spawn(move || {
            let Ok((mut peer, _)) = listener.accept() else { return };
            let _ = peer.set_nodelay(true);
            let mut reply = Vec::new();
            // The first four payload bytes carry the reply length wanted.
            while let Ok(payload) = cxwire::read_frame(&mut peer) {
                let want = u32::from_be_bytes(payload[..4].try_into().expect("4 bytes")) as usize;
                reply.resize(want, 0u8);
                if cxwire::write_frame(&mut peer, &reply).is_err() {
                    break;
                }
            }
        });
        let piece = Piece::Frame { stream, echo: Some(echo) };
        Ok(WirePiece { inner, piece, request_bytes: 0, reply_bytes: 0, calls: 0 })
    }

    /// Mean request and reply payload bytes per operation.
    pub fn bytes_per_op(&self) -> (f64, f64) {
        let n = self.calls.max(1) as f64;
        (self.request_bytes as f64 / n, self.reply_bytes as f64 / n)
    }

    fn exchange<T>(
        &mut self,
        request: Request,
        run: impl FnOnce(&mut StoreT) -> Timed<Res<T>>,
        ok: impl FnOnce(&T) -> Response,
    ) -> Timed<Res<T>> {
        let ran = run(&mut self.inner);
        let response = match &ran.out {
            Ok(v) => ok(v),
            Err(e) => Response::Err(cxserve::WireError::Store(e.clone())),
        };
        let (sizes, spent) = match &mut self.piece {
            Piece::Codec => {
                let up = timed(|| {
                    let bytes = request.encode();
                    Request::decode(&bytes).map(|_| bytes.len())
                });
                let down = timed(|| {
                    let bytes = response.encode();
                    Response::decode(&bytes).map(|_| bytes.len())
                });
                let sizes = up.out.and_then(|u| Ok((u, down.out?))).map_err(|e| e.to_string());
                (sizes, Timed { out: (), start_ns: up.start_ns, nanos: up.nanos + down.nanos })
            }
            Piece::Frame { stream, .. } => {
                let reply_len = response.encode().len();
                let mut payload = request.encode();
                payload[..4].copy_from_slice(&(reply_len as u32).to_be_bytes());
                let trip = timed(|| {
                    cxwire::write_frame(stream, &payload)?;
                    stream.flush()?;
                    cxwire::read_frame(stream)
                });
                let sizes = match &trip.out {
                    Ok(echoed) if echoed.len() == reply_len => Ok((payload.len(), reply_len)),
                    Ok(_) => Err("echo returned the wrong length".to_string()),
                    Err(e) => Err(e.to_string()),
                };
                (sizes, trip.map(drop))
            }
        };
        if let Ok((up, down)) = sizes {
            self.request_bytes += up as u64;
            self.reply_bytes += down as u64;
            self.calls += 1;
        }
        spent.map(|()| ran.out.and_then(|v| sizes.map(|_| v)))
    }
}

impl Drop for WirePiece {
    fn drop(&mut self) {
        if let Piece::Frame { stream, echo } = &mut self.piece {
            let _ = stream.shutdown(std::net::Shutdown::Both);
            if let Some(echo) = echo.take() {
                let _ = echo.join();
            }
        }
    }
}

impl Target for WirePiece {
    fn edit(&mut self, doc: usize, op: EditOp) -> Timed<Res<Option<NodeId>>> {
        let (id, epoch) = (self.inner.docs.ids[doc], self.inner.docs.epochs[doc]);
        self.exchange(
            Request::Edit { doc: id, guard: Some(epoch), op: op.clone() },
            |s| s.edit(doc, op),
            |&node| Response::Edited { node, epoch: epoch + 1 },
        )
    }

    fn query(&mut self, doc: usize, expr: &str) -> Timed<Res<Vec<NodeId>>> {
        let request = Request::Query { doc: self.inner.docs.ids[doc], expr: expr.into() };
        self.exchange(request, |s| s.query(doc, expr), |n| Response::Nodes(n.clone()))
    }

    fn query_all(&mut self, expr: &str) -> Timed<Res<Hits>> {
        let ids = self.inner.docs.ids.clone();
        self.exchange(
            Request::QueryAll { expr: expr.into() },
            |s| s.query_all(expr),
            |hits| Response::Hits(hits.iter().map(|(d, n)| (ids[*d], n.clone())).collect()),
        )
    }

    fn suggest(&mut self, doc: usize, start: usize, end: usize) -> Timed<Res<Vec<String>>> {
        let id = self.inner.docs.ids[doc];
        self.exchange(
            Request::Suggest { doc: id, hierarchy: HIERARCHY.into(), start, end },
            |s| s.suggest(doc, start, end),
            |tags| Response::Tags(tags.clone()),
        )
    }

    fn import(&mut self, doc: usize, name: &str, xml: &[(String, String)]) -> Timed<Res<()>> {
        let blob = match parse_doc(xml) {
            Ok(g) => DocBlob::capture(&g),
            Err(e) => return timed(|| Err(e)),
        };
        self.exchange(
            Request::Insert { name: Some(name.into()), blob },
            |s| s.import(doc, name, xml),
            |()| Response::Id(DocId::from_raw(doc as u64)),
        )
    }
}

/// What one operation of a unit was, for latency classes and span names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpKind {
    Edit,
    Query,
    QueryAll,
    Suggest,
    TagInsert,
    TagRemove,
    Import,
}

impl OpKind {
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Edit => "edit",
            OpKind::Query => "query",
            OpKind::QueryAll => "query_all",
            OpKind::Suggest => "suggest",
            OpKind::TagInsert => "tag_insert",
            OpKind::TagRemove => "tag_remove",
            OpKind::Import => "import",
        }
    }
}

/// One completed operation.
#[derive(Debug, Clone, Copy)]
pub struct OpRecord {
    pub kind: OpKind,
    pub start_ns: u64,
    pub nanos: u64,
    pub ok: bool,
}

/// A reply worth checking against the control.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    Nodes(Vec<NodeId>),
    Hits(Hits),
    Tags(Vec<String>),
}

/// The documents' distributed XML, for [`Unit::Import`].
#[derive(Clone, Copy)]
pub struct ImportSource<'a> {
    pub names: &'a [String],
    pub xml: &'a [Vec<(String, String)>],
}

fn phrase(start: usize, end: usize) -> EditOp {
    EditOp::InsertElement {
        hierarchy: HIERARCHY.into(),
        tag: TAG.into(),
        attrs: Vec::new(),
        start,
        end,
    }
}

/// Run one unit against `target`, reporting every operation to `sink`. An
/// undo is only attempted after its do succeeded. Returns the unit's
/// checkable reply, if it has one.
pub fn run_unit(
    target: &mut (impl Target + ?Sized),
    unit: &Unit,
    palette: &[String],
    source: Option<&ImportSource>,
    sink: &mut impl FnMut(OpRecord),
) -> Option<Reply> {
    fn note<T>(sink: &mut impl FnMut(OpRecord), kind: OpKind, t: Timed<Res<T>>) -> Option<T> {
        sink(OpRecord { kind, start_ns: t.start_ns, nanos: t.nanos, ok: t.out.is_ok() });
        t.out.ok()
    }
    match unit {
        Unit::Query { doc, expr } => {
            note(sink, OpKind::Query, target.query(*doc, &palette[*expr])).map(Reply::Nodes)
        }
        Unit::QueryAll { expr } => {
            note(sink, OpKind::QueryAll, target.query_all(&palette[*expr])).map(Reply::Hits)
        }
        Unit::Pair { doc, edit } => {
            let doc = *doc;
            let (do_op, undo) = match edit.clone() {
                PairEdit::Element { start, end } => (phrase(start, end), None),
                PairEdit::Text { offset, text } => {
                    let end = offset + text.len();
                    (
                        EditOp::InsertText { offset, text },
                        Some(EditOp::DeleteText { start: offset, end }),
                    )
                }
                PairEdit::Attr { node, value } => (
                    EditOp::SetAttr { node, name: "type".into(), value },
                    Some(EditOp::RemoveAttr { node, name: "type".into() }),
                ),
            };
            let done = note(sink, OpKind::Edit, target.edit(doc, do_op))?;
            // An inserted element is undone by removing the node it came
            // back as; the other undos are known beforehand.
            match undo.or(done.map(EditOp::RemoveElement)) {
                Some(op) => {
                    note(sink, OpKind::Edit, target.edit(doc, op));
                }
                // An InsertElement that came back without its node cannot
                // be undone: the pair failed.
                None => {
                    sink(OpRecord { kind: OpKind::Edit, start_ns: now_ns(), nanos: 0, ok: false })
                }
            }
            None
        }
        Unit::TagCycle { doc, start, end } => {
            let tags = note(sink, OpKind::Suggest, target.suggest(*doc, *start, *end))?;
            let node = note(sink, OpKind::TagInsert, target.edit(*doc, phrase(*start, *end)))?;
            match node {
                Some(n) => {
                    note(sink, OpKind::TagRemove, target.edit(*doc, EditOp::RemoveElement(n)));
                }
                None => sink(OpRecord {
                    kind: OpKind::TagRemove,
                    start_ns: now_ns(),
                    nanos: 0,
                    ok: false,
                }),
            }
            Some(Reply::Tags(tags))
        }
        Unit::Import { doc } => {
            let source = source.expect("import units come with their source");
            // More names than documents: the corpus is imported round and round.
            let xml = &source.xml[*doc % source.xml.len()];
            note(sink, OpKind::Import, target.import(*doc, &source.names[*doc], xml));
            None
        }
    }
}
