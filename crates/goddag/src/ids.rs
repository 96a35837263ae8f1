//! Identifier newtypes for GODDAG nodes and hierarchies.

use std::fmt;

/// A node of a [`crate::Goddag`]: leaves and elements share one id space.
///
/// Ids are stable across edits: removed nodes are tombstoned, never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Array index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Index of a markup hierarchy (one per DTD, paper §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HierarchyId(pub u16);

impl HierarchyId {
    /// Array index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for HierarchyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_order_by_index() {
        assert!(NodeId(1) < NodeId(2));
        assert!(HierarchyId(0) < HierarchyId(3));
    }

    #[test]
    fn display_forms() {
        assert_eq!(NodeId(7).to_string(), "n7");
        assert_eq!(HierarchyId(2).to_string(), "h2");
    }
}
