//! The control: an in-process `cxstore::Store` that receives the identical
//! operation stream after the clock has stopped, and the failure accounting
//! every workload reports through.
//!
//! Three checks: every operation must succeed; a sample of query and
//! suggestion replies is re-evaluated with a direct `expath::Evaluator` (or
//! the control's own prevalidation) on the control's document *at that
//! point of the stream*; and at the end every document's stand-off export
//! over the wire must be byte-identical to the control's.

use crate::gen::Unit;
use crate::target::{run_unit, OpRecord, Reply, StoreT, Target as _, HIERARCHY};
use expath::Evaluator;
use goddag::Goddag;
use std::collections::HashMap;

/// Operations and checks attempted, and how many of them failed. Refused,
/// errored, guard-conflicted and mismatching operations all count.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The process exit code a run with this tally ends with.
    pub fn exit_code(&self) -> i32 {
        i32::from(!self.correct())
    }
}

/// Which replies of a client's stream are kept for checking: one in
/// `every`, by unit index.
pub fn sampled(unit_index: u64, every: u64) -> bool {
    unit_index.is_multiple_of(every)
}

pub struct Control {
    store: StoreT,
}

impl Control {
    pub fn holding(corpus: &[Goddag]) -> Control {
        Control { store: StoreT::holding(corpus) }
    }

    /// What `unit` must answer on the control's current state.
    fn expected(&mut self, unit: &Unit, palette: &[String]) -> Result<Reply, String> {
        let select = |store: &StoreT, doc: usize, expr: &str| {
            store
                .store
                .with_doc(store.docs.ids[doc], |g| Evaluator::with_index(g).select(expr))
                .map_err(|e| e.to_string())?
                .map_err(|e| e.to_string())
        };
        match unit {
            Unit::Query { doc, expr } => {
                select(&self.store, *doc, &palette[*expr]).map(Reply::Nodes)
            }
            Unit::QueryAll { expr } => (0..self.store.docs.ids.len())
                .map(|doc| Ok((doc, select(&self.store, doc, &palette[*expr])?)))
                .collect::<Result<_, String>>()
                .map(Reply::Hits),
            Unit::TagCycle { doc, start, end } => {
                self.store.suggest(*doc, *start, *end).out.map(Reply::Tags)
            }
            Unit::Pair { .. } | Unit::Import { .. } => Err("unit has no reply".into()),
        }
    }

    /// Replay a client's stream: edits are applied, and every reply in
    /// `samples` (keyed by unit index) is compared with what the control
    /// answers at that point.
    pub fn replay(
        &mut self,
        units: impl Iterator<Item = Unit>,
        palette: &[String],
        samples: &HashMap<u64, Reply>,
        tally: &mut Tally,
    ) {
        for (i, unit) in units.enumerate() {
            let sample = samples.get(&(i as u64));
            if let Some(got) = sample {
                tally.check(self.expected(&unit, palette).as_ref() == Ok(got));
            }
            match unit {
                Unit::Query { .. } | Unit::QueryAll { .. } | Unit::Import { .. } => {}
                Unit::Pair { .. } => {
                    run_unit(&mut self.store, &unit, palette, None, &mut |r: OpRecord| {
                        tally.check(r.ok)
                    });
                }
                // Only sampled cycles are replayed (see `sample_every`): the
                // suggestion was checked above, the two edits follow.
                Unit::TagCycle { .. } if sample.is_none() => {}
                Unit::TagCycle { doc, start, end } => {
                    let insert = cxstore::EditOp::InsertElement {
                        hierarchy: HIERARCHY.into(),
                        tag: crate::target::TAG.into(),
                        attrs: Vec::new(),
                        start,
                        end,
                    };
                    let node = self.store.edit(doc, insert).out;
                    tally.check(matches!(node, Ok(Some(_))));
                    if let Ok(Some(n)) = node {
                        let removed = self.store.edit(doc, cxstore::EditOp::RemoveElement(n)).out;
                        tally.check(removed.is_ok());
                    }
                }
            }
        }
    }

    /// The control's stand-off export of every document, in corpus order.
    pub fn exports(&self) -> Vec<String> {
        let store = &self.store;
        store
            .docs
            .ids
            .iter()
            .map(|&id| store.store.with_doc(id, sacx::export_standoff).expect("control document"))
            .collect()
    }
}

/// Byte-compare two export lists document by document.
pub fn compare_exports(got: &[Result<String, String>], want: &[String], tally: &mut Tally) {
    tally.check(got.len() == want.len());
    for (g, w) in got.iter().zip(want) {
        tally.check(g.as_ref() == Ok(w));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Mix, OpGen, QUERY_PALETTE};
    use crate::harness::{Corpus, WORKLOADS};

    fn palette() -> Vec<String> {
        QUERY_PALETTE.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn a_corrupted_reply_flips_the_exit_code() {
        let corpus = Corpus::generate(&WORKLOADS[1].tiny(), 5);
        let palette = palette();
        let units: Vec<Unit> =
            OpGen::new(5, 0, 2, &corpus.shapes, Mix::Queries, palette.len()).take(60).collect();

        // Honest replies: the control agrees with itself.
        let mut control = Control::holding(&corpus.docs);
        let mut samples = HashMap::new();
        for (i, unit) in units.iter().enumerate() {
            samples.insert(i as u64, control.expected(unit, &palette).unwrap());
        }
        let mut tally = Tally::default();
        control.replay(units.iter().cloned(), &palette, &samples, &mut tally);
        assert_eq!((tally.attempted, tally.failed, tally.exit_code()), (60, 0, 0));

        // One reply loses a node: exactly one failure, non-zero exit.
        let victim = samples
            .values_mut()
            .find_map(|r| match r {
                Reply::Nodes(nodes) if !nodes.is_empty() => Some(nodes),
                _ => None,
            })
            .expect("some query hits something");
        victim.pop();
        let mut tally = Tally::default();
        Control::holding(&corpus.docs).replay(units.into_iter(), &palette, &samples, &mut tally);
        assert_eq!((tally.failed, tally.exit_code()), (1, 1));
        assert!(tally.fail_share() > 0.0);
    }

    #[test]
    fn a_differing_export_is_a_failure_and_an_empty_tally_is_not_correct() {
        assert_eq!(Tally::default().exit_code(), 1);
        let want = vec!["a".to_string(), "b".to_string()];
        let mut tally = Tally::default();
        compare_exports(&[Ok("a".into()), Ok("b".into())], &want, &mut tally);
        assert!(tally.correct());
        compare_exports(&[Ok("a".into()), Ok("B".into())], &want, &mut tally);
        compare_exports(&[Ok("a".into()), Err("refused".into())], &want, &mut tally);
        compare_exports(&[Ok("a".into())], &want, &mut tally);
        assert_eq!(tally.failed, 3);
    }

    #[test]
    fn replayed_pairs_leave_the_control_where_it_started() {
        let corpus = Corpus::generate(&WORKLOADS[0].tiny(), 11);
        let mut control = Control::holding(&corpus.docs);
        let before = control.exports();
        let mut tally = Tally::default();
        let units = OpGen::new(11, 1, 2, &corpus.shapes, Mix::Edits, 0).take(200);
        control.replay(units, &[], &HashMap::new(), &mut tally);
        assert_eq!((tally.attempted, tally.failed), (400, 0));
        assert_eq!(control.exports(), before);
    }
}
