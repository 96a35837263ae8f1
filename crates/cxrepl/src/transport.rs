//! The shipping abstraction: how a follower's fetch reaches a primary.
//!
//! A [`LogTransport`] carries exactly one request shape — "give me what
//! follows LSN `after`, up to `max_bytes`" — and one response shape,
//! [`FetchResponse`] (declared in [`cxwire`], where it is also one
//! [`cxwire::Response`] variant). Everything else (framing tolerance, gap
//! detection, epoch verification) lives in the replica, so a transport can
//! be as dumb as a function call ([`InProcessTransport`]) or a `cxq1`
//! `fetch` over a socket ([`TcpTransport`](crate::TcpTransport)) without
//! changing replication semantics.

use crate::error::Result;
use crate::primary::Primary;
pub use cxwire::FetchResponse;
use std::sync::Arc;

/// One hop from a follower to a primary's log.
pub trait LogTransport: Send {
    /// Request everything after `after`, up to roughly `max_bytes` of
    /// record payload per batch.
    fn fetch(&mut self, after: u64, max_bytes: usize) -> Result<FetchResponse>;
}

impl LogTransport for Box<dyn LogTransport> {
    fn fetch(&mut self, after: u64, max_bytes: usize) -> Result<FetchResponse> {
        (**self).fetch(after, max_bytes)
    }
}

/// The zero-copy transport: follower and primary share a process, the
/// fetch is a function call. This is the deployment shape for read
/// replicas inside one server process (and the test/bench harness on a
/// single-CPU container, where a socket would only add latency).
pub struct InProcessTransport {
    primary: Arc<Primary>,
}

impl InProcessTransport {
    /// A transport serving from `primary`.
    pub fn new(primary: Arc<Primary>) -> InProcessTransport {
        InProcessTransport { primary }
    }
}

impl LogTransport for InProcessTransport {
    fn fetch(&mut self, after: u64, max_bytes: usize) -> Result<FetchResponse> {
        self.primary.handle_fetch(after, max_bytes)
    }
}
