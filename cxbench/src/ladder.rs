//! The traced run (`--trace 1`): where one operation's time goes, measured
//! from outside.
//!
//! The first N units of the workload's stream are replayed single-threaded
//! against a fresh copy of the corpus **at each rung**: the served cluster
//! through `RouterClient` (the top rung — single-client end-to-end
//! latency), then `Cluster`, `DurableStore`, `Store` and the bare
//! paper-core crates, plus the two wire pieces in isolation (`cxq1` codec,
//! `cxwire` framing). A layer's self time is its rung minus the rung below,
//! so the rows sum to the top rung by construction.
//!
//! Every timed call is a span `{id, name, start_ns, end_ns, parent,
//! request}` kept in memory and written to
//! `.cxbench/<workload>.trace.jsonl` when the run ends. The top rung is
//! run once more without keeping spans; the ratio of the two is
//! `trace_overhead`.

use crate::gen::{Mix, OpGen, Unit};
use crate::harness::{out_dir, Corpus, Scratch, Served, Spec, INGEST};
use crate::ingest;
use crate::oracle::Tally;
use crate::report::{Report, Value};
use crate::served::{palette_of, rate};
use crate::target::{
    now_ns, run_unit, Bare, ClusterT, Docs, DurableT, ImportSource, OpRecord, StoreT, Target,
    WirePiece,
};
use cxpersist::{DocBlob, DurableStore, Options};
use cxrepl::{FetchResponse, Primary, ReplicaStore};
use cxstore::StoreStats;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Most units replayed per rung: enough for steady means, and a span file
/// of a few megabytes.
const MAX_UNITS: usize = 4096;
/// Rungs that share `--seconds` (a calibration pass comes on top).
const PASSES: f64 = 8.0;
/// Most documents an import ladder inserts per rung.
const MAX_IMPORTS: usize = 1024;
/// Turns each rung takes over the stream.
const CHUNKS: usize = 8;

struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    /// Index of the span that caused this one, plus one; 0 for a root.
    parent: usize,
    /// Position of the operation in the replayed stream.
    request: usize,
}

/// One rung's pass over the units.
#[derive(Default, Clone, Copy)]
struct Pass {
    calls: u64,
    busy_ns: u64,
}

impl Pass {
    fn us_per(&self, ops: u64) -> f64 {
        self.busy_ns as f64 / 1e3 / ops.max(1) as f64
    }
}

/// One rung: a target holding its own copy of the corpus, and what its
/// turns have cost so far.
struct Rung<'t> {
    name: &'static str,
    target: &'t mut dyn Target,
    pass: Pass,
    /// Index of the rung's root span plus one; 0 for a rung that keeps none.
    root: usize,
    request: usize,
}

impl<'t> Rung<'t> {
    fn traced(name: &'static str, target: &'t mut dyn Target, spans: &mut Vec<Span>) -> Rung<'t> {
        let at = now_ns();
        spans.push(Span { name: name.into(), start_ns: at, end_ns: at, parent: 0, request: 0 });
        Rung { name, target, pass: Pass::default(), root: spans.len(), request: 0 }
    }

    fn untraced(name: &'static str, target: &'t mut dyn Target) -> Rung<'t> {
        Rung { name, target, pass: Pass::default(), root: 0, request: 0 }
    }
}

/// What every rung replays.
struct Replay<'a> {
    units: Vec<Unit>,
    warm: &'a [Unit],
    palette: &'a [String],
    source: Option<ImportSource<'a>>,
}

impl Replay<'_> {
    /// The unrecorded head of the stream: first-use costs (engine compiles,
    /// dialled connections, parsed expressions) are paid here at every rung.
    fn warm_up(&self, target: &mut dyn Target) {
        for unit in self.warm {
            run_unit(target, unit, self.palette, self.source.as_ref(), &mut |_| {});
        }
    }

    /// Replay the units at every rung. The rungs take turns, a chunk of the
    /// stream at a time, so that slow drift of the machine (clock speed,
    /// neighbours) falls on all of them alike and cancels in the
    /// differences. One span per operation, under the rung's root span.
    fn run(&self, rungs: &mut [Rung], spans: &mut Vec<Span>, tally: &mut Tally) {
        for chunk in self.units.chunks(self.units.len().div_ceil(CHUNKS).max(1)) {
            for rung in rungs.iter_mut() {
                let Rung { name, target, pass, root, request } = rung;
                for unit in chunk {
                    run_unit(
                        &mut **target,
                        unit,
                        self.palette,
                        self.source.as_ref(),
                        &mut |r: OpRecord| {
                            tally.check(r.ok);
                            pass.calls += 1;
                            pass.busy_ns += r.nanos;
                            if *root > 0 {
                                spans.push(Span {
                                    name: format!("{name}/{}", r.kind.name()),
                                    start_ns: r.start_ns,
                                    end_ns: r.start_ns + r.nanos,
                                    parent: *root,
                                    request: *request,
                                });
                                spans[*root - 1].end_ns = r.start_ns + r.nanos;
                            }
                            *request += 1;
                        },
                    );
                }
            }
        }
    }
}

fn write_spans(workload: &str, spans: &[Span]) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(out_dir())?;
    let path = out_dir().join(format!("{workload}.trace.jsonl"));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for (i, s) in spans.iter().enumerate() {
        writeln!(
            out,
            "{{\"id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"request\": {}}}",
            i + 1,
            s.name,
            s.start_ns,
            s.end_ns,
            s.parent,
            s.request
        )?;
    }
    out.flush()?;
    Ok(path)
}

fn delta(after: &StoreStats, before: &StoreStats) -> StoreStats {
    StoreStats {
        index_hits: after.index_hits - before.index_hits,
        index_builds: after.index_builds - before.index_builds,
        query_cache_hits: after.query_cache_hits - before.query_cache_hits,
        query_cache_misses: after.query_cache_misses - before.query_cache_misses,
        wal_bytes: after.wal_bytes - before.wal_bytes,
        wal_fsyncs: after.wal_fsyncs - before.wal_fsyncs,
        edits_rejected: after.edits_rejected - before.edits_rejected,
        ..StoreStats::default()
    }
}

/// `cx_server_busy_total` summed over both listeners' metrics pages.
fn server_busy(served: &Served) -> f64 {
    let client = served.client();
    (0..served.addrs.len())
        .filter_map(|s| client.router.metrics(s).ok())
        .flat_map(|page| {
            page.lines()
                .filter(|l| l.starts_with("cx_server_busy_total"))
                .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
                .collect::<Vec<_>>()
        })
        .sum()
}

/// A served cluster, a bare cluster, a durable store and a plain store,
/// each holding a fresh copy of the corpus (or nothing, for imports).
struct Fresh<'a> {
    spec: &'a Spec,
    corpus: &'a Corpus,
    /// `Some(slots)` for imports: targets start empty, with room for this
    /// many documents.
    import: Option<usize>,
}

impl Fresh<'_> {
    fn served(&self) -> Served {
        if self.import.is_some() {
            Served::open(self.spec.fsync)
        } else {
            Served::holding(self.corpus, self.spec.fsync)
        }
    }

    fn router(&self, served: &Served) -> crate::target::RouterT {
        if let Some(slots) = self.import {
            served.importer(slots)
        } else {
            served.client()
        }
    }

    fn cluster(&self) -> (ClusterT, Scratch) {
        let served = self.served();
        let docs = if let Some(slots) = self.import {
            Docs::empty(slots)
        } else {
            let cluster = &served.cluster;
            Docs::new(served.ids.clone(), |id| cluster.epoch(id).expect("held"))
        };
        let (cluster, scratch) = served.stop();
        (ClusterT { cluster, docs }, scratch)
    }

    fn durable(&self) -> (DurableT, Scratch) {
        let scratch = Scratch::new("durable");
        let options = Options { fsync: self.spec.fsync };
        let durable = DurableStore::open_with(scratch.path(), options).expect("open durable store");
        let docs = if let Some(slots) = self.import {
            Docs::empty(slots)
        } else {
            let ids = self
                .corpus
                .docs
                .iter()
                .map(|g| durable.insert(g.clone()).expect("insert"))
                .collect();
            durable.store().warm_all();
            Docs::new(ids, |id| durable.store().epoch(id).expect("held"))
        };
        (DurableT { durable, docs }, scratch)
    }

    fn store(&self) -> StoreT {
        if let Some(slots) = self.import {
            StoreT::empty(slots)
        } else {
            let store = StoreT::holding(&self.corpus.docs);
            store.store.warm_all();
            store
        }
    }

    fn bare(&self) -> Bare {
        if self.import.is_some() {
            Bare::default()
        } else {
            Bare::holding(&self.corpus.docs)
        }
    }
}

pub fn run(spec: &Spec, seed: u64, seconds: f64) -> Report {
    let mut report = Report::new(spec, seed);
    let import = spec.name == INGEST;
    let inputs = import.then(|| ingest::inputs(spec, seed));
    let generated;
    let corpus = match &inputs {
        Some(inputs) => &inputs.corpus,
        None => {
            generated = Corpus::generate(spec, seed);
            &generated
        }
    };
    let palette = palette_of(spec.mix);
    // Imports go round the corpus again and again under fresh names.
    let import_names: Vec<String> = (0..MAX_IMPORTS).map(|i| format!("doc-{i}")).collect();
    let fresh = Fresh { spec, corpus, import: import.then_some(MAX_IMPORTS) };

    // One client over the whole corpus.
    let stream: Vec<Unit> = if import {
        (0..MAX_IMPORTS).map(|doc| Unit::Import { doc }).collect()
    } else {
        // Fan-outs run in parallel inside the program, so rung differences
        // would not be self times; they get their own row below.
        OpGen::new(seed, 0, 1, &corpus.shapes, spec.mix, palette.len())
            .filter(|u| !matches!(u, Unit::QueryAll { .. }))
            .take(spec.warm_units.min(64) + MAX_UNITS)
            .collect()
    };
    let warm = if import { 0 } else { spec.warm_units.min(64) };
    let mut replay = Replay {
        warm: &stream[..warm],
        units: stream[warm..].to_vec(),
        palette: &palette,
        source: inputs.as_ref().map(|i| ImportSource { names: &import_names, xml: &i.xml }),
    };

    // Calibration: how many units fit one rung's share of `--seconds`.
    {
        let budget = std::time::Duration::from_secs_f64(seconds / (PASSES + 1.0));
        let served = fresh.served();
        let mut router = fresh.router(&served);
        replay.warm_up(&mut router);
        let started = Instant::now();
        let fit = replay.units.iter().take_while(|unit| {
            run_unit(&mut router, unit, &palette, replay.source.as_ref(), &mut |_| {});
            started.elapsed() < budget
        });
        let fit = fit.count() + 1;
        replay.units.truncate(fit);
    }

    // Every rung gets a fresh copy of the corpus and the same warm-up.
    let (served, served_untraced) = (fresh.served(), fresh.served());
    let (mut router, mut router_untraced) = (fresh.router(&served), fresh.router(&served_untraced));
    let (mut cluster_t, cluster_scratch) = fresh.cluster();
    let (mut durable_t, durable_scratch) = fresh.durable();
    let mut store_t = fresh.store();
    let mut bare = fresh.bare();
    let mut codec_t = WirePiece::codec(fresh.store());
    let mut frame_t = WirePiece::frame(fresh.store()).expect("loopback echo");
    let targets: [&mut dyn Target; 8] = [
        &mut router,
        &mut router_untraced,
        &mut cluster_t,
        &mut durable_t,
        &mut store_t,
        &mut bare,
        &mut codec_t,
        &mut frame_t,
    ];
    for target in targets {
        replay.warm_up(target);
    }
    bare.settle();

    let (mut spans, mut tally) = (Vec::new(), Tally::default());
    let (served_before, store_before) = (served.cluster.stats(), store_t.store.stats());
    let mut rungs = [
        Rung::traced("cxserve.router", &mut router, &mut spans),
        Rung::untraced("cxserve.router (no spans)", &mut router_untraced),
        Rung::traced("cxcluster.cluster", &mut cluster_t, &mut spans),
        Rung::traced("cxpersist.durable", &mut durable_t, &mut spans),
        Rung::traced("cxstore.store", &mut store_t, &mut spans),
        Rung::traced("core", &mut bare, &mut spans),
        Rung::traced("cxserve.codec", &mut codec_t, &mut spans),
        Rung::traced("cxwire.frame", &mut frame_t, &mut spans),
    ];
    replay.run(&mut rungs, &mut spans, &mut tally);
    let core_root = rungs[5].root;
    let [top, untraced, cluster, durable, store, _, codec, frame] = rungs.map(|r| r.pass);
    let ops = top.calls;

    let stats = delta(&served.cluster.stats(), &served_before);
    let store_stats = delta(&store_t.store.stats(), &store_before);
    let busy = server_busy(&served);
    let fanout = (spec.mix == Mix::Queries).then(|| fanout_row(&served, &mut router, &palette));
    let (request_bytes, reply_bytes) = codec_t.bytes_per_op();
    drop((router, router_untraced, served, served_untraced, durable_t, durable_scratch));
    drop((store_t, codec_t, frame_t));
    let lifecycle =
        inputs.as_ref().map(|i| lifecycle_rows(spec, seed, i, cluster_t, &cluster_scratch));
    drop(cluster_scratch);

    let mut parts: BTreeMap<&'static str, Pass> = BTreeMap::new();
    for p in &bare.parts {
        let row = parts.entry(p.layer).or_default();
        row.calls += 1;
        row.busy_ns += p.nanos;
        spans.push(Span {
            name: p.layer.into(),
            start_ns: p.start_ns,
            end_ns: p.start_ns + p.nanos,
            parent: core_root,
            request: p.request,
        });
    }
    drop(bare);
    // `expath::parse` ran on every query; the store only parses on a
    // compiled-query cache miss, so charge it at the measured miss rate.
    let miss_rate = 1.0 - rate(store_stats.query_cache_hits, store_stats.query_cache_misses);
    if let Some(parse) = parts.get_mut("expath.parse") {
        parse.busy_ns = (parse.busy_ns as f64 * miss_rate) as u64;
    }

    // -- self times ------------------------------------------------------
    let core_us: f64 = parts.values().map(|p| p.us_per(ops)).sum();
    let rows = [
        (
            "cxserve.rpc_us",
            top.us_per(ops) - cluster.us_per(ops) - codec.us_per(ops) - frame.us_per(ops),
        ),
        ("cxwire.frame_us", frame.us_per(ops)),
        ("cxserve.codec_us", codec.us_per(ops)),
        ("cxcluster.route_us", cluster.us_per(ops) - durable.us_per(ops)),
        ("cxpersist.wal_us", durable.us_per(ops) - store.us_per(ops)),
        ("cxstore.self_us", store.us_per(ops) - core_us),
        ("core_us", core_us),
    ];
    let top_us = top.us_per(ops);
    report.metric("top_us", Value::new(top_us, "us"));
    for (name, us) in rows {
        report.metric(name, Value::new(us, "us"));
    }
    for (krate, metric) in [
        ("goddag.", "goddag.share"),
        ("prevalid.", "prevalid.share"),
        ("expath.", "expath.share"),
        ("sacx.", "sacx.share"),
        ("xmlcore.", "xmlcore.share"),
    ] {
        let us: f64 =
            parts.iter().filter(|(l, _)| l.starts_with(krate)).map(|(_, p)| p.us_per(ops)).sum();
        // `+ 0.0`: an empty `f64` sum is -0.0, which would print as "-0".
        report.metric(metric, Value::new(100.0 * us / top_us + 0.0, "%"));
    }
    let per_op = |n: u64| n as f64 / ops.max(1) as f64;
    report.metric("request_bytes_per_op", Value::new(request_bytes, "B"));
    report.metric("reply_bytes_per_op", Value::new(reply_bytes, "B"));
    report.metric("wal_bytes_per_op", Value::new(per_op(stats.wal_bytes), "B"));
    report.metric("fsyncs_per_op", Value::new(per_op(stats.wal_fsyncs), "count"));
    report.metric("index_hit_rate", Value::new(stats.index_hit_rate(), "ratio"));
    let cache_rate = rate(stats.query_cache_hits, stats.query_cache_misses);
    report.metric("query_cache_hit_rate", Value::new(cache_rate, "ratio"));
    report.metric("edits_rejected", Value::new(stats.edits_rejected as f64, "count"));
    report.metric("server_busy", Value::new(busy, "count"));
    report.metric(
        "trace_overhead",
        Value::new(top.busy_ns as f64 / untraced.busy_ns.max(1) as f64, "ratio"),
    );

    // -- the tables ------------------------------------------------------
    report.note(format!(
        "ladder over {} units = {ops} operations per rung, single client, fsync={}",
        replay.units.len(),
        spec.fsync_label()
    ));
    report.note(format!("{:<22} {:>8} {:>14} {:>12}", "rung", "calls", "busy_us", "us/op"));
    let rung_rows = [
        ("cxserve.router (top)", top),
        ("cxserve.router, no spans", untraced),
        ("cxcluster.cluster", cluster),
        ("cxpersist.durable", durable),
        ("cxstore.store", store),
        ("cxserve.codec", codec),
        ("cxwire.frame", frame),
    ];
    for (name, p) in rung_rows {
        report.note(format!(
            "{name:<22} {:>8} {:>14.1} {:>12.3}",
            p.calls,
            p.busy_ns as f64 / 1e3,
            p.us_per(ops)
        ));
    }
    report.note(format!(
        "{:<22} {:>8} {:>14} {:>12} {:>8}",
        "layer", "calls", "busy_us", "self us/op", "share"
    ));
    // `core_us`, the last row, is printed call by call instead.
    for (name, us) in &rows[..rows.len() - 1] {
        report.note(format!(
            "{name:<22} {ops:>8} {:>14.1} {us:>12.3} {:>7.1}%",
            us * ops as f64,
            100.0 * us / top_us
        ));
    }
    for (layer, p) in &parts {
        let us = p.us_per(ops);
        report.note(format!(
            "  {layer:<20} {:>8} {:>14.1} {us:>12.3} {:>7.1}%",
            p.calls,
            p.busy_ns as f64 / 1e3,
            100.0 * us / top_us
        ));
    }
    let sum: f64 = rows.iter().map(|(_, us)| us).sum();
    report.note(format!(
        "{:<22} {:>8} {:>14} {sum:>12.3} {:>7.1}% of top_us={top_us:.3}",
        "sum",
        "",
        "",
        100.0 * sum / top_us
    ));
    if spec.mix == Mix::Tags && !import {
        report.note(session_row(corpus, &replay.units));
    }
    report.notes_extend(fanout);
    report.notes_extend(lifecycle.into_iter().flatten());
    match write_spans(spec.name, &spans) {
        Ok(path) => report.note(format!("{} spans written to {}", spans.len(), path.display())),
        Err(e) => {
            report.note(format!("span file not written: {e}"));
            tally.check(false);
        }
    }
    report.tally = tally;
    report
}

/// `RouterClient::query_all` against the slower shard's own
/// `Store::query_all`: what fanning out over the wire adds. The reply waits
/// for the slower shard, so the maximum is the base, not the mean.
fn fanout_row(served: &Served, router: &mut crate::target::RouterT, palette: &[String]) -> String {
    let (mut wire_us, mut shard_us) = (0.0, 0.0);
    for expr in palette {
        wire_us += router.query_all(expr).nanos as f64 / 1e3;
        let slowest = served.cluster.shards().iter().map(|shard| {
            let started = Instant::now();
            std::hint::black_box(shard.store().query_all(expr).is_ok());
            started.elapsed().as_secs_f64() * 1e6
        });
        shard_us += slowest.fold(0.0, f64::max);
    }
    let n = palette.len() as f64;
    format!(
        "cxserve.fanout_us = {:.1} us per query_all (router {:.1} us - slower shard's store {:.1} us), n={n}",
        (wire_us - shard_us) / n,
        wire_us / n,
        shard_us / n
    )
}

/// `xtagger::Session` — the paper's single-user path — through the same
/// cycles: `suggest` + `insert_markup` + `undo`. A reference rung, not part
/// of the sum: it is the in-process floor for `tag.wide`.
fn session_row(corpus: &Corpus, units: &[Unit]) -> String {
    let mut sessions: Vec<_> =
        corpus.docs.iter().map(|g| xtagger::Session::new(g.clone())).collect();
    let (started, mut cycles) = (Instant::now(), 0u32);
    for unit in units {
        if let Unit::TagCycle { doc, start, end } = *unit {
            let session = &mut sessions[doc];
            let h = session.goddag().hierarchy_by_name(crate::target::HIERARCHY).expect("ling");
            std::hint::black_box(session.suggest(h, start, end));
            if session.insert_markup(h, crate::target::TAG, Vec::new(), start, end).is_ok() {
                let _ = session.undo();
            }
            cycles += 1;
        }
    }
    let us = started.elapsed().as_secs_f64() * 1e6 / f64::from(cycles.max(1));
    format!("xtagger.session_us = {us:.1} us per suggest+insert_markup+undo cycle, n={cycles} (reference rung)")
}

fn dir_bytes(path: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(path) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The rest of the operator's lifecycle, layer by layer, on the cluster the
/// import rung just filled: blob codec, checkpoint, per-shard recovery, and
/// replication fetch and apply.
fn lifecycle_rows(
    spec: &Spec,
    seed: u64,
    inputs: &ingest::Inputs,
    imported: ClusterT,
    scratch: &Scratch,
) -> Vec<String> {
    let ClusterT { cluster, docs: imported_docs } = imported;
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    let mut rows = Vec::new();

    let started = Instant::now();
    for g in &inputs.corpus.docs {
        let text = DocBlob::capture(g).to_text();
        let restored = DocBlob::parse_text(&text).and_then(|b| b.restore());
        std::hint::black_box(restored.is_ok());
    }
    let docs = inputs.corpus.docs.len() as f64;
    rows.push(format!(
        "cxpersist.blob_us = {:.1} us per document (DocBlob capture+to_text+parse_text+restore), n={docs}",
        us(started) / docs
    ));

    let started = Instant::now();
    let checkpointed = cluster.checkpoint_all().is_ok();
    rows.push(format!(
        "cxpersist.checkpoint_us = {:.1} us (checkpoint_all, ok={checkpointed})",
        us(started)
    ));

    // The same WAL tail the end-to-end cycle leaves behind.
    let docs = Docs::new(imported_docs.ids, |id| cluster.epoch(id).unwrap_or(u64::MAX));
    let mut filler = ClusterT { cluster: Arc::clone(&cluster), docs };
    for unit in OpGen::new(seed, 0, 1, &inputs.corpus.shapes, Mix::Edits, 0).take(800) {
        run_unit(&mut filler, &unit, &[], None, &mut |_| {});
    }
    drop(filler);
    let _ = cluster.sync_all();
    let disk = dir_bytes(scratch.path());
    let imported = cluster.len();
    let user = inputs.xml_bytes * imported / inputs.corpus.docs.len();
    rows.push(format!(
        "disk_bytes_per_user_byte = {:.3} ({disk} B on disk for {user} B of XML in {imported} documents)",
        disk as f64 / user as f64
    ));
    drop(cluster);

    for (s, dir) in scratch.shard_dirs().into_iter().enumerate() {
        let started = Instant::now();
        let opened = DurableStore::open_with(&dir, Options { fsync: spec.fsync });
        let took = us(started);
        let Ok(durable) = opened else {
            rows.push(format!("cxpersist.recover_us: shard {s} failed to reopen"));
            continue;
        };
        let r = durable.recovery();
        rows.push(format!(
            "cxpersist.recover_us = {took:.1} us (shard {s}: recovered_docs={} replayed_ops={})",
            r.recovered_docs, r.replayed_ops
        ));

        let primary = Primary::new(Arc::new(durable));
        let replica = ReplicaStore::new();
        let (mut fetch_us, mut apply_us, mut records) = (0.0, 0.0, 0u64);
        loop {
            let started = Instant::now();
            let fetched = primary.handle_fetch(replica.last_applied(), 1 << 20);
            fetch_us += us(started);
            let started = Instant::now();
            match fetched {
                Ok(FetchResponse::Records { bytes, .. }) => match replica.apply_batch(&bytes) {
                    Ok(b) => records += b.applied,
                    Err(_) => break,
                },
                Ok(FetchResponse::Snapshot { bytes, .. }) => {
                    let snap = std::str::from_utf8(&bytes)
                        .ok()
                        .and_then(|t| cxpersist::StoreSnapshot::parse_text(t).ok());
                    if snap.and_then(|s| replica.install_snapshot(&s).ok()).is_none() {
                        break;
                    }
                }
                Ok(FetchResponse::CaughtUp { .. }) | Err(_) => break,
            }
            apply_us += us(started);
        }
        rows.push(format!(
            "cxrepl.fetch_us = {fetch_us:.1} us, cxrepl.apply_us = {apply_us:.1} us (shard {s}: \
             records={records} snapshots_installed={})",
            replica.snapshots_installed()
        ));
    }
    rows
}
