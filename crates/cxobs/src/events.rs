//! The bounded recent-events ring: a structured log for post-mortems.

use crate::sync::{Level, Mutex};
use std::collections::VecDeque;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// One structured event: what happened (`kind` is a stable machine-
/// readable tag, `detail` the human-readable specifics) and when —
/// twice. `at_micros` is monotonic microseconds since the ring was
/// created (wall-clock-free, so a transcript replays meaningfully
/// across clock adjustments); `at_unix_micros` anchors the same
/// monotonic offset to the wall clock sampled once at ring creation,
/// so events correlate with external timelines (flight-recorder
/// traces, other processes' logs) yet stay strictly monotone even if
/// the system clock steps mid-run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Monotone sequence number (1-based; gaps never occur — overflow
    /// drops the *oldest* entries, not numbers).
    pub seq: u64,
    /// Microseconds since the ring was created.
    pub at_micros: u64,
    /// Microseconds since the Unix epoch: the ring's creation wall
    /// time plus this event's monotonic offset.
    pub at_unix_micros: u64,
    /// Stable tag, e.g. `"checkpoint"`, `"gate.reject"`,
    /// `"follower.parked"`.
    pub kind: &'static str,
    /// Free-form specifics.
    pub detail: String,
}

#[derive(Default)]
struct Inner {
    next_seq: u64,
    dropped: u64,
    buf: VecDeque<Event>,
}

/// A bounded ring of recent [`Event`]s. Recording takes one short mutex
/// (events are rare — state transitions, errors, generations — never
/// per-operation); overflow drops the oldest entry and counts it, so
/// the ring can never grow without bound and loss is always visible.
pub struct EventRing {
    on: bool,
    cap: usize,
    start: Instant,
    /// Wall clock at creation — sampled exactly once, so
    /// `at_unix_micros` inherits the monotonic clock's ordering.
    epoch_unix_micros: u64,
    inner: Mutex<Inner>,
}

impl EventRing {
    /// A ring keeping at most `cap` events (`cap` 0 records nothing).
    pub fn new(cap: usize) -> EventRing {
        let epoch_unix_micros = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_micros().min(u64::MAX as u128) as u64);
        EventRing {
            on: cap > 0,
            cap,
            start: Instant::now(),
            epoch_unix_micros,
            inner: Mutex::new(Level::Events, Inner::default()),
        }
    }

    /// Append an event, evicting (and counting) the oldest on overflow.
    pub fn record(&self, kind: &'static str, detail: impl Into<String>) {
        if !self.on {
            return;
        }
        let at_micros = self.start.elapsed().as_micros().min(u64::MAX as u128) as u64;
        let at_unix_micros = self.epoch_unix_micros.saturating_add(at_micros);
        let mut inner = self.inner.lock();
        inner.next_seq += 1;
        let seq = inner.next_seq;
        if inner.buf.len() >= self.cap {
            inner.buf.pop_front();
            inner.dropped += 1;
        }
        inner.buf.push_back(Event { seq, at_micros, at_unix_micros, kind, detail: detail.into() });
    }

    /// The retained events, oldest first (a copy — the ring keeps them).
    pub fn recent(&self) -> Vec<Event> {
        self.inner.lock().buf.iter().cloned().collect()
    }

    /// Take all retained events out of the ring, oldest first.
    pub fn drain(&self) -> Vec<Event> {
        self.inner.lock().buf.drain(..).collect()
    }

    /// The retained events of one kind, oldest first — the post-mortem
    /// question is almost always "show me every `store.degraded`", not
    /// the whole interleaved trail.
    pub fn of_kind(&self, kind: &str) -> Vec<Event> {
        self.inner.lock().buf.iter().filter(|e| e.kind == kind).cloned().collect()
    }

    /// Events evicted by overflow since creation.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().buf.len()
    }

    /// Whether the ring is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The retention bound.
    pub fn capacity(&self) -> usize {
        self.cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let ring = EventRing::new(4);
        for i in 0..10 {
            ring.record("tick", format!("event {i}"));
        }
        let kept = ring.recent();
        assert_eq!(kept.len(), 4);
        assert_eq!(ring.dropped(), 6);
        // The newest four survive, sequence numbers intact and ordered.
        assert_eq!(kept.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![7, 8, 9, 10]);
        assert_eq!(kept.last().unwrap().detail, "event 9");
        // Timestamps are monotone — the wall-anchored ones too, since
        // they are the same monotonic offset plus a fixed epoch.
        assert!(kept.windows(2).all(|w| w[0].at_micros <= w[1].at_micros));
        assert!(kept.windows(2).all(|w| w[0].at_unix_micros <= w[1].at_unix_micros));
        // Anchored = epoch + offset: differences agree exactly.
        let (a, b) = (&kept[0], &kept[3]);
        assert_eq!(b.at_unix_micros - a.at_unix_micros, b.at_micros - a.at_micros);
        // And the anchor is a plausible wall time (after 2020-01-01).
        assert!(a.at_unix_micros > 1_577_836_800_000_000);
    }

    #[test]
    fn drain_empties_but_keeps_numbering() {
        let ring = EventRing::new(8);
        ring.record("a", "1");
        ring.record("b", "2");
        assert_eq!(ring.drain().len(), 2);
        assert!(ring.is_empty());
        ring.record("c", "3");
        assert_eq!(ring.recent()[0].seq, 3, "sequence numbers continue across drains");
    }

    #[test]
    fn of_kind_filters_without_disturbing_the_ring() {
        let ring = EventRing::new(8);
        ring.record("degraded", "shard 0");
        ring.record("healed", "shard 0");
        ring.record("degraded", "shard 2");
        let degraded = ring.of_kind("degraded");
        assert_eq!(degraded.len(), 2);
        assert_eq!(degraded[0].detail, "shard 0");
        assert_eq!(degraded[1].detail, "shard 2");
        assert!(degraded.windows(2).all(|w| w[0].seq < w[1].seq));
        assert!(ring.of_kind("missing").is_empty());
        assert_eq!(ring.len(), 3, "filtering copies, never drains");
    }

    #[test]
    fn zero_capacity_records_nothing() {
        let ring = EventRing::new(0);
        ring.record("x", "y");
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 0);
    }
}
