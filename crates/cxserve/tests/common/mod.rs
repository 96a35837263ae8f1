//! Shared test plumbing: self-cleaning temp directories (the environment
//! has no `tempfile` crate) and corpus/cluster scaffolding.

use cxcluster::Cluster;
use cxpersist::{FsyncPolicy, Options};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[allow(dead_code)] // not every test binary uses every helper
static NEXT: AtomicU64 = AtomicU64::new(0);

/// A unique directory under the system temp dir, removed on drop.
#[allow(dead_code)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    #[allow(dead_code)]
    pub fn new(tag: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!(
            "cxserve-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create temp dir");
        TempDir { path }
    }

    #[allow(dead_code)] // not every test file uses every helper
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// `n` shard directories under this temp dir, in index order.
    #[allow(dead_code)]
    pub fn shard_dirs(&self, n: usize) -> Vec<PathBuf> {
        (0..n).map(|i| self.path.join(format!("shard-{i}"))).collect()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// A standard-DTD manuscript of `words` words.
#[allow(dead_code)]
pub fn manuscript(words: usize, seed: u64) -> goddag::Goddag {
    let mut ms = corpus::generate(&corpus::Params { words, seed, ..corpus::Params::default() });
    corpus::dtds::attach_standard(&mut ms.goddag);
    ms.goddag
}

/// A fresh n-shard cluster under `dir`.
#[allow(dead_code)]
pub fn open_cluster(dir: &TempDir, shards: usize) -> Arc<Cluster> {
    Arc::new(
        Cluster::open(dir.shard_dirs(shards), Options { fsync: FsyncPolicy::Never })
            .expect("open cluster"),
    )
}
