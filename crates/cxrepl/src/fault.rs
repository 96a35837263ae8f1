//! [`FaultTransport`]: a fault-injecting [`LogTransport`] decorator.
//!
//! Wraps any transport and consults a `cxobs::fault` failpoint before every
//! fetch, so chaos tests inject outages, slow links, and torn batches at
//! the replication seam without touching primary or follower code. With
//! no site armed the decorator costs one relaxed atomic load per fetch.

use crate::error::{ReplError, Result};
use crate::transport::{FetchResponse, LogTransport};
use cxobs::fault::{self, Failpoint, Site};

/// A [`LogTransport`] that injects faults from the `cxobs::fault` registry at
/// [`Site::ReplFetch`].
///
/// * [`cxobs::fault::Fault::Io`] — the fetch fails outright (a dead peer, a
///   torn connection); the follower's backoff loop absorbs it.
/// * [`cxobs::fault::Fault::TornWrite`] — the fetch succeeds but a `Records`
///   batch is truncated in flight to the configured fraction; the
///   replica applies the whole-record prefix and re-requests the rest
///   (caught-up and snapshot responses pass through untorn — snapshots
///   are all-or-nothing artifacts, and tearing one merely yields a
///   transient parse error, a less interesting failure than the
///   mid-stream tear this exercises).
/// * [`cxobs::fault::Fault::Delay`] — the fetch stalls inside the failpoint
///   (a congested link), then proceeds.
pub struct FaultTransport<T: LogTransport> {
    inner: T,
    at: Failpoint,
}

impl<T: LogTransport> FaultTransport<T> {
    /// Wrap `inner`, consulting the shared [`Site::ReplFetch`] failpoint.
    pub fn new(inner: T) -> FaultTransport<T> {
        FaultTransport { inner, at: Site::ReplFetch.into() }
    }

    /// Wrap `inner` as link `link` (`repl.fetch.<link>`) — lets a
    /// multi-link test (one follower per shard) fault each link
    /// independently.
    pub fn for_link(inner: T, link: usize) -> FaultTransport<T> {
        FaultTransport { inner, at: Site::ReplFetch.link(link) }
    }

    /// Unwrap the inner transport.
    pub fn into_inner(self) -> T {
        self.inner
    }
}

impl<T: LogTransport> LogTransport for FaultTransport<T> {
    fn fetch(&mut self, after: u64, max_bytes: usize) -> Result<FetchResponse> {
        match fault::fire(self.at) {
            Some(fault::InjectedFault::Io) => Err(ReplError::Io(fault::io_error(self.at))),
            Some(fault::InjectedFault::Torn(frac)) => match self.inner.fetch(after, max_bytes)? {
                FetchResponse::Records { head, mut bytes } => {
                    bytes.truncate(fault::torn_len(bytes.len(), frac));
                    Ok(FetchResponse::Records { head, bytes })
                }
                other => Ok(other),
            },
            None => self.inner.fetch(after, max_bytes),
        }
    }
}
