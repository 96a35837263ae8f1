//! Trace identity: three ids and the wire token that carries them.

use crate::process::{splitmix64, GAMMA};
use std::sync::atomic::{AtomicU64, Ordering};

/// The seeded id stream. The default seed is arbitrary but fixed, so a
/// freshly seeded process mints a reproducible id sequence — the same
/// determinism contract the failpoints' probability triggers offer.
static STATE: AtomicU64 = AtomicU64::new(0xc0de_d0c5_0000_0001);

/// Re-seed the process-wide id stream (deterministic tests).
pub fn seed(s: u64) {
    STATE.store(s, Ordering::Relaxed);
}

fn next_id() -> u64 {
    loop {
        // `fetch_add(GAMMA)` advances the shared state by exactly the
        // step `splitmix64` takes and hands each caller a distinct
        // pre-state; mixing a copy through `splitmix64` reproduces the
        // sequential stream without a lock. Ids must be nonzero (0 means
        // "none").
        let mut s = STATE.fetch_add(GAMMA, Ordering::Relaxed);
        let id = splitmix64(&mut s);
        if id != 0 {
            return id;
        }
    }
}

/// The identity a span carries and the wire propagates: which trace
/// this is (`trace_id`), which span (`span_id`), and whose child
/// (`parent_id`, 0 for a root).
///
/// On the wire the context rides as the token `tc
/// <trace_id>-<span_id>` appended to a `cxq1` request line; the
/// receiver adopts it by starting its handler span as a *child*
/// ([`TraceContext::child`]) of the carried span, which is what makes
/// one query render as one tree spanning both processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The trace every span of one request shares.
    pub trace_id: u64,
    /// This span.
    pub span_id: u64,
    /// The span this one hangs under (0 = root).
    pub parent_id: u64,
}

impl TraceContext {
    /// Mint a fresh root context (new trace, new span, no parent).
    pub fn mint() -> TraceContext {
        TraceContext { trace_id: next_id(), span_id: next_id(), parent_id: 0 }
    }

    /// A child context: same trace, fresh span id, parented here.
    pub fn child(&self) -> TraceContext {
        TraceContext { trace_id: self.trace_id, span_id: next_id(), parent_id: self.span_id }
    }

    /// The wire token: `<trace_id>-<span_id>` in fixed-width hex
    /// (the parent is implicit — a receiver always adopts a child).
    pub fn token(&self) -> String {
        format!("{:016x}-{:016x}", self.trace_id, self.span_id)
    }

    /// Parse a wire token. `None` on anything malformed — propagation
    /// is best-effort and a bad token must never fail the request.
    pub fn parse_token(tok: &str) -> Option<TraceContext> {
        let (t, s) = tok.split_once('-')?;
        let (trace_id, span_id) = (hex16(t)?, hex16(s)?);
        if trace_id == 0 || span_id == 0 {
            return None;
        }
        Some(TraceContext { trace_id, span_id, parent_id: 0 })
    }
}

/// `s` as exactly 16 ASCII hex digits, the width [`TraceContext::token`]
/// writes: no sign and no unpadded form, so an id has one spelling.
fn hex16(s: &str) -> Option<u64> {
    if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    #[expect(
        clippy::disallowed_methods,
        reason = "the trace token's one hex decode: `s` is checked to be 16 bare hex digits"
    )]
    u64::from_str_radix(s, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scenario;

    #[test]
    fn minted_ids_are_nonzero_and_distinct() {
        let _s = Scenario::setup();
        let a = TraceContext::mint();
        let b = TraceContext::mint();
        assert_ne!(a.trace_id, 0);
        assert_ne!(a.span_id, 0);
        assert_ne!(a.trace_id, b.trace_id);
        assert_eq!(a.parent_id, 0);
    }

    #[test]
    fn child_keeps_trace_and_links_parent() {
        let _s = Scenario::setup();
        let root = TraceContext::mint();
        let child = root.child();
        assert_eq!(child.trace_id, root.trace_id);
        assert_eq!(child.parent_id, root.span_id);
        assert_ne!(child.span_id, root.span_id);
    }

    #[test]
    fn token_round_trips() {
        let _s = Scenario::setup();
        let c = TraceContext::mint().child();
        let parsed = TraceContext::parse_token(&c.token()).unwrap();
        assert_eq!(parsed.trace_id, c.trace_id);
        assert_eq!(parsed.span_id, c.span_id);
        // The parent is deliberately not carried: the receiver adopts a
        // child of the carried span, never the span itself.
        assert_eq!(parsed.parent_id, 0);
    }

    #[test]
    fn malformed_tokens_parse_to_none() {
        for bad in ["", "zz", "12", "12-", "-12", "12-zz", "0-1", "1-0", "1-2-3x"] {
            assert!(TraceContext::parse_token(bad).is_none(), "{bad:?}");
        }
    }

    #[test]
    fn a_token_has_one_spelling() {
        let good = "000000000000001a-000000000000002b";
        assert!(TraceContext::parse_token(good).is_some());
        for bad in [
            "+1-+2",
            "1a-2b",
            "+00000000000001a-000000000000002b",
            "000000000000001a-+00000000000002b",
        ] {
            assert!(TraceContext::parse_token(bad).is_none(), "{bad:?}");
        }
    }

    #[test]
    fn seeded_stream_replays_pinned_ids() {
        // The stream is process-wide: every test here that mints holds
        // the guard, so no sibling draws from it in between.
        let _s = Scenario::setup();
        // Recorded before tracing moved into this crate: the id stream
        // must never change under a seed.
        let pinned: [(u64, u64); 8] = [
            (0xbdd7_3226_2feb_6e95, 0x28ef_e333_b266_f103),
            (0x4752_6757_130f_9f52, 0x581c_e1ff_0e4a_e394),
            (0x09bc_585a_2448_23f2, 0xde44_31fa_3c80_db06),
            (0x37e9_671c_4537_6d5d, 0xccf6_35ee_9e9e_2fa4),
            (0x5705_b877_0b3d_7dd5, 0x9e54_d738_297f_77ae),
            (0x3474_724a_775b_19bf, 0x7e34_8a0e_4516_50be),
            (0x836d_ed89_7f3e_46e6, 0x851f_9773_47ed_6db7),
            (0xaa47_e31c_02e7_8edc, 0x3414_52c5_4d7c_33f2),
        ];
        for _ in 0..2 {
            seed(42);
            let minted: Vec<(u64, u64)> =
                (0..8).map(|_| TraceContext::mint()).map(|c| (c.trace_id, c.span_id)).collect();
            assert_eq!(minted, pinned);
        }
    }
}
