//! Span maintenance: recompute leaf indices and element spans after
//! structural edits.
//!
//! The renumber pass is O(nodes). Element spans are *cached* on the nodes so
//! the hot overlap tests stay O(1) rather than recomputing a span on every
//! query. Byte offsets are not derived: the leaf table holds them, and the
//! text edits shift them in place.

use crate::graph::{Goddag, Kind};
use crate::ids::NodeId;
use crate::span::Span;

impl Goddag {
    /// Recompute all derived position data: leaf indices and element spans
    /// (including empty-element anchors).
    pub(crate) fn renumber(&mut self) {
        // Every structural edit funnels through here, so this is the one
        // chokepoint that must invalidate epoch-keyed caches.
        self.bump_epoch();
        // Pass 0: each leaf's place in the leaf table, and the root's cover.
        for (i, &leaf) in self.leaves.iter().enumerate() {
            self.slots[leaf.idx()].span = Span::new(i as u32, i as u32 + 1);
        }
        self.slots[self.root.idx()].span = Span::new(0, self.leaves.len() as u32);

        // Pass 1 (per hierarchy, bottom-up): the leaf cover of each element,
        // or None for elements dominating no leaves (milestones). Elements
        // are visited by row, so a list is found in one load.
        let mut computed: Vec<Option<Option<Span>>> = vec![None; self.children.len()];
        enum Visit {
            Enter(usize),
            Exit(usize),
        }
        for h in 0..self.root_children.len() {
            let mut stack: Vec<Visit> = self.root_children[h]
                .iter()
                .rev()
                .filter_map(|&n| self.element_row(n))
                .map(Visit::Enter)
                .collect();
            while let Some(v) = stack.pop() {
                match v {
                    Visit::Enter(row) => {
                        stack.push(Visit::Exit(row));
                        let inner = self.children[row].iter().rev();
                        stack.extend(inner.filter_map(|&c| self.element_row(c)).map(Visit::Enter));
                    }
                    Visit::Exit(row) => {
                        let mut cover: Option<Span> = None;
                        for &c in &self.children[row] {
                            let d = &self.slots[c.idx()];
                            let child_span = match d.kind {
                                Kind::Leaf => Some(d.span),
                                Kind::Element => {
                                    computed[d.row as usize].expect("child visited before parent")
                                }
                                Kind::Root => unreachable!("root is never a child"),
                            };
                            if let Some(cs) = child_span {
                                cover = Some(match cover {
                                    None => cs,
                                    Some(acc) => acc.cover(cs),
                                });
                            }
                        }
                        computed[row] = Some(cover);
                    }
                }
            }
        }

        // Pass 2 (per hierarchy, top-down): write spans, resolving empty
        // elements to an anchor at the running cursor position.
        struct Frame {
            /// None = the root's child list for this hierarchy.
            row: Option<usize>,
            child_idx: usize,
            cursor: u32,
        }
        for h in 0..self.root_children.len() {
            let mut frames = vec![Frame { row: None, child_idx: 0, cursor: 0 }];
            while let Some(frame) = frames.last_mut() {
                let child = match frame.row {
                    None => self.root_children[h].get(frame.child_idx),
                    Some(row) => self.children[row].get(frame.child_idx),
                };
                let Some(&c) = child else {
                    frames.pop();
                    continue;
                };
                frame.child_idx += 1;
                let d = &mut self.slots[c.idx()];
                match d.kind {
                    Kind::Leaf => {
                        frame.cursor = d.span.end;
                    }
                    Kind::Element => {
                        let row = d.row as usize;
                        let span = match computed[row].expect("pass 1 covered all elements") {
                            Some(s) => {
                                frame.cursor = s.end;
                                s
                            }
                            None => Span::empty_at(frame.cursor),
                        };
                        d.span = span;
                        frames.push(Frame { row: Some(row), child_idx: 0, cursor: span.start });
                    }
                    Kind::Root => unreachable!("root is never a child"),
                }
            }
        }
        self.debug_check_tables();
    }

    /// The element table row of `n`, `None` for a leaf.
    fn element_row(&self, n: NodeId) -> Option<usize> {
        let d = &self.slots[n.idx()];
        (d.kind == Kind::Element).then_some(d.row as usize)
    }
}
