//! `ingest.recover` — the operator's lifecycle, cycled for `seconds`:
//!
//! 1. **import**: two importer threads each `sacx::parse_distributed` their
//!    half of the distributed XML and `insert_named` it over the wire
//!    (`FsyncPolicy::Never`, closed by a `sync_all` inside the timed part);
//! 2. `checkpoint_all`, then an untimed fill of do/undo edits, so part of
//!    the state lives in snapshots and part in the WAL tail;
//! 3. drop everything and `Cluster::open` the directories, [`REOPENS`] times
//!    (the page cache is warm: this is a restart, not a cold boot);
//! 4. an empty `Follower` per shard over `TcpReplServer`/`TcpTransport`
//!    catches up;
//! 5. the exports taken over the wire before the drop must equal the
//!    control's, the recovered cluster's and the followers'.

use crate::gen::{Mix, OpGen, Unit};
use crate::harness::{median, peak_rss_mb, set_up, Corpus, Served, Spec, CLIENTS, SHARDS};
use crate::oracle::{compare_exports, Control, Tally};
use crate::report::{Report, Value};
use crate::target::{run_unit, ClusterT, Docs, ImportSource, OpRecord};
use cxcluster::{Cluster, ShardId};
use cxpersist::Options;
use cxrepl::{Follower, ReplicaStore, TcpReplServer, TcpTransport};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Do/undo pairs each of the two fill lanes applies after the checkpoint.
const FILL_UNITS: usize = 400;
/// `Cluster::open` calls per cycle.
const REOPENS: usize = 3;

/// The corpus as an importer meets it (distributed XML, one document per
/// hierarchy) and as the control holds it (parsed, DTDs attached).
pub struct Inputs {
    pub corpus: Corpus,
    pub xml: Vec<Vec<(String, String)>>,
    pub xml_bytes: usize,
}

pub fn inputs(spec: &Spec, seed: u64) -> Inputs {
    let generated = Corpus::generate(spec, seed);
    let mut corpus = Corpus { docs: Vec::new(), shapes: Vec::new(), names: Vec::new() };
    let mut xml = Vec::new();
    for (g, shape) in generated.docs.iter().zip(&generated.shapes) {
        let distributed = g.to_distributed().expect("generated documents serialize");
        let mut parsed = sacx::parse_distributed(&distributed).expect("and parse back");
        corpus::dtds::attach_standard(&mut parsed);
        corpus.push(parsed, &shape.words);
        xml.push(distributed);
    }
    let xml_bytes = xml.iter().flatten().map(|(_, x)| x.len()).sum();
    Inputs { corpus, xml, xml_bytes }
}

/// The timed parts of one cycle.
#[derive(Default)]
struct Timings {
    import_s: Vec<f64>,
    import_us: Vec<f64>,
    checkpoint_s: Vec<f64>,
    recover_s: Vec<f64>,
    catchup_s: Vec<f64>,
    catchup_records: Vec<f64>,
}

fn cycle(
    spec: &Spec,
    seed: u64,
    inputs: &Inputs,
    control_exports: &[String],
    t: &mut Timings,
    tally: &mut Tally,
) {
    let n = inputs.corpus.docs.len();
    let source = ImportSource { names: &inputs.corpus.names, xml: &inputs.xml };
    let mut served = Served::open(spec.fsync);

    // 1. import over the wire.
    let importers: Vec<_> = (0..CLIENTS).map(|_| served.importer(n)).collect();
    let started = Instant::now();
    let imported: Vec<(Vec<OpRecord>, Docs)> = std::thread::scope(|scope| {
        let handles: Vec<_> = importers
            .into_iter()
            .enumerate()
            .map(|(c, mut importer)| {
                let source = &source;
                scope.spawn(move || {
                    let mut records = Vec::new();
                    for doc in (c * n / CLIENTS)..((c + 1) * n / CLIENTS) {
                        let unit = Unit::Import { doc };
                        run_unit(&mut importer, &unit, &[], Some(source), &mut |r| records.push(r));
                    }
                    (records, importer.docs)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("importer thread")).collect()
    });
    tally.check(served.cluster.sync_all().is_ok());
    t.import_s.push(started.elapsed().as_secs_f64());
    for (c, (records, docs)) in imported.iter().enumerate() {
        for r in records {
            tally.check(r.ok);
            t.import_us.push(r.nanos as f64 / 1e3);
        }
        served.ids.extend(&docs.ids[(c * n / CLIENTS)..((c + 1) * n / CLIENTS)]);
    }

    // 2. checkpoint, then fill the WAL tail.
    let started = Instant::now();
    tally.check(served.cluster.checkpoint_all().is_ok());
    t.checkpoint_s.push(started.elapsed().as_secs_f64());
    let cluster = &served.cluster;
    let docs = Docs::new(served.ids.clone(), |id| cluster.epoch(id).unwrap_or(u64::MAX));
    let mut filler = ClusterT { cluster: Arc::clone(cluster), docs };
    for lane in 0..CLIENTS {
        for unit in fill(seed, lane, inputs) {
            run_unit(&mut filler, &unit, &[], None, &mut |r| tally.check(r.ok));
        }
    }
    drop(filler);

    // 5a. what a client sees before the drop is what the control holds.
    let client = served.client();
    let before: Vec<Result<String, String>> =
        served.ids.iter().map(|&id| client.router.export(id).map_err(|e| e.to_string())).collect();
    compare_exports(&before, control_exports, tally);
    drop(client);

    // 3. drop everything, reopen.
    let ids = served.ids.clone();
    let (cluster, scratch) = served.stop();
    drop(cluster);
    let mut cluster = None;
    for _ in 0..REOPENS {
        drop(cluster.take());
        let started = Instant::now();
        let opened = Cluster::open(scratch.shard_dirs(), Options { fsync: spec.fsync });
        t.recover_s.push(started.elapsed().as_secs_f64());
        cluster = opened.ok();
    }
    let Some(cluster) = cluster else {
        tally.check(false);
        return;
    };
    let recovered: Vec<_> = ids
        .iter()
        .map(|&id| cluster.with_doc(id, sacx::export_standoff).map_err(|e| e.to_string()))
        .collect();
    compare_exports(&recovered, control_exports, tally);

    // 4. one empty follower per shard catches up over TCP.
    let started = Instant::now();
    let mut replicas = Vec::new();
    let mut records = 0;
    for s in 0..SHARDS {
        let primary = cluster.primary(ShardId(s)).expect("shard exists");
        let server =
            TcpReplServer::bind(primary, "127.0.0.1:0").expect("bind replication listener");
        let replica = Arc::new(ReplicaStore::new());
        let transport = TcpTransport::connect(server.addr()).expect("dial replication listener");
        let caught_up = Follower::new(Arc::clone(&replica), transport).catch_up();
        tally.check(caught_up.is_ok());
        records += caught_up.unwrap_or(0);
        server.shutdown();
        replicas.push(replica);
    }
    t.catchup_s.push(started.elapsed().as_secs_f64());
    t.catchup_records.push(records as f64);
    let followed: Vec<_> = ids
        .iter()
        .map(|&id| {
            let store = replicas[cluster.shard_of(id).0].store();
            store.with_doc(id, sacx::export_standoff).map_err(|e| e.to_string())
        })
        .collect();
    compare_exports(&followed, control_exports, tally);
}

fn fill(seed: u64, lane: usize, inputs: &Inputs) -> impl Iterator<Item = Unit> + '_ {
    OpGen::new(seed, lane, CLIENTS, &inputs.corpus.shapes, Mix::Edits, 0).take(FILL_UNITS)
}

pub fn run(spec: &Spec, seed: u64, seconds: f64) -> Report {
    let mut report = Report::new(spec, seed);
    let (inputs, setup_s) = set_up(|| inputs(spec, seed));

    // The control: the parsed corpus after the same fill. Every cycle does
    // identical work, so its exports are computed once.
    let mut tally = Tally::default();
    let mut control = Control::holding(&inputs.corpus.docs);
    for lane in 0..CLIENTS {
        control.replay(fill(seed, lane, &inputs), &[], &HashMap::new(), &mut tally);
    }
    let control_exports = control.exports();
    drop(control);

    // One cycle off the clock warms the page cache and the allocator.
    cycle(spec, seed, &inputs, &control_exports, &mut Timings::default(), &mut tally);

    let mut t = Timings::default();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds {
        cycle(spec, seed, &inputs, &control_exports, &mut t, &mut tally);
    }
    // Every cycle does the same work and frees it, so the high-water mark
    // does not grow with the number of cycles a faster program fits in.
    let rss = peak_rss_mb();

    let docs = inputs.corpus.docs.len() as f64;
    let mb = inputs.xml_bytes as f64 / 1e6;
    let import_s = median(&mut t.import_s);
    let recover_s = median(&mut t.recover_s);
    let records = median(&mut t.catchup_records);
    report.note(format!(
        "docs={} words={} xml_mb={mb:.3} fsync={} fill_edits={} cycles={} (page cache warm: \
         recover_s is a restart, not a cold boot)",
        spec.docs,
        spec.words,
        spec.fsync_label(),
        FILL_UNITS * CLIENTS * 2,
        t.import_s.len()
    ));
    report.note(format!(
        "import_mb_s={:.3} import_p50_us={:.1} n={}",
        mb / import_s,
        median(&mut t.import_us),
        t.import_us.len()
    ));
    report.note(format!(
        "checkpoint_s={:.5} n={}",
        median(&mut t.checkpoint_s),
        t.checkpoint_s.len()
    ));
    report.note(format!("recover_s={recover_s:.5} n={}", t.recover_s.len()));
    report.note(format!(
        "catchup_rec_s={:.1} records={records} n={}",
        records / median(&mut t.catchup_s),
        t.catchup_s.len()
    ));
    report.metric("ops_s", Value::new(docs / import_s, "1/s"));
    report.metric("p50_us", Value::new(recover_s * 1e6, "us"));
    report.metric("setup_s", Value::new(setup_s, "s"));
    report.metric("peak_rss_mb", Value::new(rss, "MB"));
    report.tally = tally;
    report
}
