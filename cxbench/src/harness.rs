//! What every workload shares: the workload table, the seeded corpus, the
//! served cluster (2 shards behind two `bind_shard` listeners in this
//! process), order statistics and the process's own vital signs.

use crate::gen::{lane_seed, DocShape, Mix};
use crate::target::{Docs, OpKind, RouterT};
use cxcluster::{Cluster, ShardId};
use cxpersist::{FsyncPolicy, Options};
use cxserve::{ClientOptions, ClusterServer, RouterClient, ServerOptions};
use cxstore::DocId;
use goddag::Goddag;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Shards of the served cluster, one `bind_shard` listener each.
pub const SHARDS: usize = 2;
/// Closed-loop client threads: each waits for its reply before sending the
/// next request, as an editor does. Equal to the sandbox's `nproc`.
pub const CLIENTS: usize = 2;

/// What the documents of a workload look like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Host {
    /// `corpus::generate`: three overlapping hierarchies, ~12-word sentences.
    Manuscript,
    /// `corpus::mixed_host`: one mixed-content sentence of `words` words.
    MixedHost,
}

/// One workload. `docs`/`words` are frozen here; a comparison runs the same
/// sizes on both sides.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub docs: usize,
    pub words: usize,
    pub host: Host,
    pub fsync: FsyncPolicy,
    pub mix: Mix,
    /// Units each client runs before the clock starts (and before
    /// `peak_rss_mb` is read, so that metric covers a fixed amount of work).
    pub warm_units: usize,
    /// The operation whose median latency is `p50_us`. (`ingest.recover`
    /// times its own phases; there `p50_us` is `Cluster::open` after a drop.)
    pub headline: OpKind,
    /// What `ops_s` counts.
    pub counted: &'static str,
}

pub const INGEST: &str = "ingest.recover";

pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "edit.served",
        why: "narrow hosts make prevalidation cheap, so codec, framing, hand-off and WAL append+fsync (EveryOp) do most of the work; expath does nothing",
        docs: 64,
        words: 300,
        host: Host::Manuscript,
        fsync: FsyncPolicy::EveryOp,
        mix: Mix::Edits,
        warm_units: 500,
        headline: OpKind::Edit,
        counted: "guarded edits",
    },
    Spec {
        name: "query.served",
        why: "read-only 16-expression palette on warm indexes: expath evaluation and node-list reply encoding dominate; WAL, gate and prevalid do nothing",
        docs: 64,
        words: 2000,
        host: Host::Manuscript,
        fsync: FsyncPolicy::EveryOp,
        mix: Mix::Queries,
        warm_units: 500,
        headline: OpKind::Query,
        counted: "queries (per-document and fan-out)",
    },
    Spec {
        name: "mixed.served",
        why: "80/20 queries/edits on the same hot documents with 4096 distinct expressions: every edit invalidates an index and the compiled-query LRU overflows",
        docs: 64,
        words: 1000,
        host: Host::Manuscript,
        fsync: FsyncPolicy::Never,
        mix: Mix::Mixed,
        warm_units: 1000,
        headline: OpKind::Query,
        counted: "queries and guarded edits",
    },
    Spec {
        name: "tag.wide",
        why: "suggest, insert, remove on 199-item mixed-content hosts: prevalidation is nearly all of the time and wire and WAL work is noise",
        docs: 32,
        words: 100,
        host: Host::MixedHost,
        fsync: FsyncPolicy::Never,
        mix: Mix::Tags,
        warm_units: 8,
        headline: OpKind::Suggest,
        counted: "suggest-insert-remove cycles",
    },
    Spec {
        name: INGEST,
        why: "operator lifecycle: parse and import over the wire, checkpoint, recover by reopening, follower catch-up over TCP; layers no served workload touches",
        docs: 24,
        words: 500,
        host: Host::Manuscript,
        fsync: FsyncPolicy::Never,
        mix: Mix::Edits,
        warm_units: 0,
        headline: OpKind::Import,
        counted: "documents imported",
    },
];

pub fn spec(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|s| s.name == name)
}

impl Spec {
    /// `--scale tiny`: a corpus small enough for a debug-build smoke test.
    pub fn tiny(mut self) -> Spec {
        self.docs = 8;
        self.words = self.words.min(if self.host == Host::MixedHost { 24 } else { 160 });
        self.warm_units = self.warm_units.min(4);
        self
    }

    pub fn fsync_label(&self) -> String {
        format!("{:?}", self.fsync)
    }
}

/// A generated corpus: the documents, what the generator needs to know
/// about them, and their names in the cluster directory.
pub struct Corpus {
    pub docs: Vec<Goddag>,
    pub shapes: Vec<DocShape>,
    pub names: Vec<String>,
}

impl Corpus {
    /// `spec.docs` documents, each from its own lane of `seed`.
    pub fn generate(spec: &Spec, seed: u64) -> Corpus {
        let mut corpus = Corpus { docs: Vec::new(), shapes: Vec::new(), names: Vec::new() };
        for i in 0..spec.docs {
            let (mut g, words) = match spec.host {
                Host::Manuscript => {
                    let ms = corpus::generate(&corpus::Params {
                        words: spec.words,
                        seed: lane_seed(seed, i as u64),
                        ..corpus::Params::default()
                    });
                    (ms.goddag, ms.word_ranges)
                }
                Host::MixedHost => {
                    let (g, _, words) = corpus::mixed_host(spec.words);
                    (g, words)
                }
            };
            corpus::dtds::attach_standard(&mut g);
            corpus.push(g, &words);
        }
        corpus
    }

    pub fn push(&mut self, g: Goddag, words: &[(usize, usize)]) {
        self.shapes.push(DocShape::of(&g, words));
        self.names.push(format!("doc-{}", self.docs.len()));
        self.docs.push(g);
    }
}

/// A directory under `./.cxbench/` removed on drop. The benchmark reads and
/// writes nowhere else.
pub struct Scratch(PathBuf);

pub fn out_dir() -> PathBuf {
    PathBuf::from(".cxbench")
}

impl Scratch {
    pub fn new(tag: &str) -> Scratch {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = out_dir().join(format!("scratch-{}-{tag}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create scratch directory under ./.cxbench");
        Scratch(path)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    pub fn shard_dirs(&self) -> Vec<PathBuf> {
        (0..SHARDS).map(|i| self.0.join(format!("shard-{i}"))).collect()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The program under test as a user meets it: a 2-shard `Cluster` on disk
/// behind one shard-scoped `ClusterServer` per shard, on loopback TCP.
/// `cxobs` and `cxtrace` stay at their shipped defaults.
pub struct Served {
    pub cluster: Arc<Cluster>,
    servers: Vec<ClusterServer>,
    pub addrs: Vec<SocketAddr>,
    pub ids: Vec<DocId>,
    pub scratch: Scratch,
}

impl Served {
    /// An empty served cluster in a fresh scratch directory.
    pub fn open(fsync: FsyncPolicy) -> Served {
        let scratch = Scratch::new("served");
        let cluster = Cluster::open(scratch.shard_dirs(), Options { fsync }).expect("open cluster");
        Served::serve(Arc::new(cluster), scratch)
    }

    /// Put `cluster` (already holding whatever it holds) behind listeners.
    pub fn serve(cluster: Arc<Cluster>, scratch: Scratch) -> Served {
        let servers: Vec<ClusterServer> = (0..SHARDS)
            .map(|s| {
                let options = ServerOptions::default();
                ClusterServer::bind_shard(Arc::clone(&cluster), ShardId(s), "127.0.0.1:0", options)
                    .expect("bind a loopback listener")
            })
            .collect();
        let addrs = servers.iter().map(ClusterServer::addr).collect();
        Served { cluster, servers, addrs, ids: Vec::new(), scratch }
    }

    /// A served cluster holding `corpus`, indexes warm.
    pub fn holding(corpus: &Corpus, fsync: FsyncPolicy) -> Served {
        let mut served = Served::open(fsync);
        for (name, g) in corpus.names.iter().zip(&corpus.docs) {
            let id = served.cluster.insert_named(name.clone(), g.clone()).expect("insert");
            served.ids.push(id);
        }
        for shard in served.cluster.shards() {
            shard.store().warm_all();
        }
        served
    }

    /// A connected client that knows the documents' ids and epochs.
    pub fn client(&self) -> RouterT {
        let router =
            RouterClient::connect(&self.addrs, ClientOptions::default()).expect("dial the shards");
        let cluster = &self.cluster;
        let docs = Docs::new(self.ids.clone(), |id| cluster.epoch(id).expect("served document"));
        RouterT { router, docs }
    }

    /// A connected client for documents it will import itself.
    pub fn importer(&self, docs: usize) -> RouterT {
        let router =
            RouterClient::connect(&self.addrs, ClientOptions::default()).expect("dial the shards");
        RouterT { router, docs: Docs::empty(docs) }
    }

    /// Stop the listeners and hand back the cluster and its directory.
    pub fn stop(self) -> (Arc<Cluster>, Scratch) {
        for server in self.servers {
            server.shutdown();
        }
        (self.cluster, self.scratch)
    }
}

/// Set up repeatedly — at least [`MIN_SETUPS`] times, and until a second has
/// gone into it or [`MAX_SETUPS`] are done — dropping each stage before the
/// next is built. Returns the last stage and the median set-up time, which
/// is `setup_s`: a single short set-up does not time steadily.
pub fn set_up<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    const MIN_SETUPS: usize = 5;
    const MAX_SETUPS: usize = 9;
    let (mut times, mut spent) = (Vec::new(), 0.0);
    loop {
        let started = Instant::now();
        let stage = build();
        times.push(started.elapsed().as_secs_f64());
        spent += times[times.len() - 1];
        if times.len() >= MAX_SETUPS || (times.len() >= MIN_SETUPS && spent >= 1.0) {
            return (stage, median(&mut times));
        }
    }
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// `q`-quantile of sorted `values`, nearest rank.
pub fn quantile_sorted(values: &[f64], q: f64) -> f64 {
    let rank = ((values.len() as f64 * q).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the default "exclusive" method).
pub fn quartiles(values: &mut [f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    [1usize, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        values[j - 1] + (values[j] - values[j - 1]) * delta
    })
}

/// High-water resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok());
    kb.map_or(f64::NAN, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type of the mount holding `path` (longest mount-point prefix
/// in `/proc/self/mounts`).
fn filesystem_of(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, kind) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point).then_some((point.len(), kind))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".into(), |(_, kind)| kind.to_string())
}

/// Where and on what a result was measured; printed with every run.
pub fn environment() -> String {
    let _ = std::fs::create_dir_all(out_dir());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "env: nproc={nproc} clients={CLIENTS} (closed loop) shards={SHARDS} transport=\"loopback TCP\" \
         scratch_fs={} rustc=\"{}\" commit={} (reads and fsyncs hit the sandbox's page cache)",
        filesystem_of(&out_dir()),
        command_line("rustc", &["--version"]),
        // Only a checkout that is itself a repository has a commit to name.
        if Path::new(".git").exists() {
            command_line("git", &["rev-parse", "--short", "HEAD"])
        } else {
            "unknown".into()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&mut v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4)
        assert_eq!(quartiles(&mut [3.0, 1.0, 4.0, 1.0, 5.0]), [1.0, 3.0, 4.5]);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile_sorted(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
    }

    #[test]
    fn workload_names_are_the_five_of_the_issue() {
        let names: Vec<_> = WORKLOADS.iter().map(|s| s.name).collect();
        assert_eq!(names, ["edit.served", "query.served", "mixed.served", "tag.wide", INGEST]);
        assert!(WORKLOADS.iter().all(|s| s.why.len() <= 200 && !s.why.contains('\n')));
    }
}
