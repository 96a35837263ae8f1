//! Span/offset maintenance: recompute leaf indices, byte offsets and element
//! spans after structural edits.
//!
//! The renumber pass is O(nodes). Element spans are *cached* on the nodes so
//! the hot overlap tests stay O(1); the `span_cache` ablation bench
//! (experiment A2) quantifies what this buys over recomputing spans on every
//! query.

use crate::graph::{Goddag, Kind};
use crate::ids::NodeId;
use crate::span::Span;

impl Goddag {
    /// Recompute all derived position data: leaf indices, leaf byte offsets
    /// and element spans (including empty-element anchors).
    pub(crate) fn renumber(&mut self) {
        // Every structural edit funnels through here, so this is the one
        // chokepoint that must invalidate epoch-keyed caches.
        self.bump_epoch();
        // Pass 0: leaves, which tile the content buffer.
        let mut off = 0u32;
        for (i, &leaf) in self.leaves.iter().enumerate() {
            let d = &mut self.nodes[leaf.idx()];
            d.span = Span::new(i as u32, i as u32 + 1);
            d.char_start = off;
            off += d.len;
        }
        debug_assert_eq!(off as usize, self.content.len(), "leaves must tile the content");

        // Pass 1 (per hierarchy, bottom-up): the leaf cover of each element,
        // or None for elements dominating no leaves (milestones).
        let mut computed: Vec<Option<Option<Span>>> = vec![None; self.nodes.len()];
        enum Visit {
            Enter(NodeId),
            Exit(NodeId),
        }
        for h in 0..self.root_children.len() {
            let mut stack: Vec<Visit> = self.root_children[h]
                .iter()
                .rev()
                .filter(|&&n| self.nodes[n.idx()].kind == Kind::Element)
                .map(|&n| Visit::Enter(n))
                .collect();
            while let Some(v) = stack.pop() {
                match v {
                    Visit::Enter(n) => {
                        stack.push(Visit::Exit(n));
                        for &c in self.nodes[n.idx()].children.iter().rev() {
                            if self.nodes[c.idx()].kind == Kind::Element {
                                stack.push(Visit::Enter(c));
                            }
                        }
                    }
                    Visit::Exit(n) => {
                        let mut cover: Option<Span> = None;
                        for &c in &self.nodes[n.idx()].children {
                            let child_span = match self.nodes[c.idx()].kind {
                                Kind::Leaf => Some(self.nodes[c.idx()].span),
                                Kind::Element => {
                                    computed[c.idx()].expect("child visited before parent")
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
                        computed[n.idx()] = Some(cover);
                    }
                }
            }
        }

        // Pass 2 (per hierarchy, top-down): write spans, resolving empty
        // elements to an anchor at the running cursor position.
        struct Frame {
            /// None = the root's child list for this hierarchy.
            node: Option<NodeId>,
            child_idx: usize,
            cursor: u32,
        }
        for h in 0..self.root_children.len() {
            let mut frames = vec![Frame { node: None, child_idx: 0, cursor: 0 }];
            while let Some(frame) = frames.last_mut() {
                let child = match frame.node {
                    None => self.root_children[h].get(frame.child_idx).copied(),
                    Some(n) => self.nodes[n.idx()].children.get(frame.child_idx).copied(),
                };
                let Some(c) = child else {
                    frames.pop();
                    continue;
                };
                frame.child_idx += 1;
                match self.nodes[c.idx()].kind {
                    Kind::Leaf => {
                        frame.cursor = self.nodes[c.idx()].span.end;
                    }
                    Kind::Element => {
                        let span = match computed[c.idx()].expect("pass 1 covered all elements") {
                            Some(s) => {
                                frame.cursor = s.end;
                                s
                            }
                            None => Span::empty_at(frame.cursor),
                        };
                        self.nodes[c.idx()].span = span;
                        let start = span.start;
                        frames.push(Frame { node: Some(c), child_idx: 0, cursor: start });
                    }
                    Kind::Root => unreachable!("root is never a child"),
                }
            }
        }
    }
}
