//! Per-document tables behind the compact node records: interned names and
//! out-of-line attributes.
//!
//! A node record names its element through a [`Sym`], an index into the
//! document's one [`Names`] table, so each distinct name is stored once no
//! matter how many elements carry it. Attributes live in one
//! [`AttrStore`]: a record per attribute (owner, name symbol, value range)
//! plus one string holding every value, so an element without attributes
//! stores nothing for them and an attribute allocates nothing of its own.
//! Readers see them through the borrowed [`Attrs`] view.

use crate::error::{GoddagError, Result};
use crate::ids::NodeId;
use std::fmt;
use std::mem::size_of;
use std::ops::Range;
use xmlcore::{AttrLike, Attribute, QName};

/// A name's index in its document's [`Names`] table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct Sym(pub(crate) u32);

impl Sym {
    #[inline]
    fn idx(self) -> usize {
        self.0 as usize
    }
}

/// The document's interned names: element, root and attribute names, each
/// distinct name stored once.
#[derive(Debug, Clone, Default)]
pub(crate) struct Names {
    names: Vec<QName>,
    /// Every symbol, ordered by its name: interning is a binary search.
    sorted: Vec<Sym>,
}

impl Names {
    /// The name behind `s`.
    #[inline]
    pub(crate) fn get(&self, s: Sym) -> &QName {
        &self.names[s.idx()]
    }

    /// Number of distinct names.
    pub(crate) fn len(&self) -> usize {
        self.names.len()
    }

    /// The symbol for `name`, adding it (one clone) if it is new.
    pub(crate) fn intern(&mut self, name: &QName) -> Sym {
        match self.sorted.binary_search_by(|&s| self.names[s.idx()].cmp(name)) {
            Ok(i) => self.sorted[i],
            Err(i) => {
                let s = Sym(self.names.len() as u32);
                self.names.push(name.clone());
                self.sorted.insert(i, s);
                s
            }
        }
    }

    /// Heap bytes owned by the table.
    pub(crate) fn heap_bytes(&self) -> usize {
        let strings: usize = self
            .names
            .iter()
            .map(|q| q.local.capacity() + q.prefix.as_ref().map_or(0, String::capacity))
            .sum();
        self.names.capacity() * size_of::<QName>() + strings + self.sorted.capacity() * 4
    }

    /// The table's own rules: the sorted index is a permutation of the
    /// symbols, strictly ordered by name (so no name is stored twice).
    pub(crate) fn check(&self) -> std::result::Result<(), String> {
        if self.sorted.len() != self.names.len() {
            return Err(format!(
                "{} names, {} sorted symbols",
                self.names.len(),
                self.sorted.len()
            ));
        }
        if let Some(s) = self.sorted.iter().find(|s| s.idx() >= self.names.len()) {
            return Err(format!("sorted name index holds out-of-range symbol {}", s.0));
        }
        for w in self.sorted.windows(2) {
            if self.get(w[0]) >= self.get(w[1]) {
                return Err(format!(
                    "names {} and {} out of order",
                    self.get(w[0]),
                    self.get(w[1])
                ));
            }
        }
        Ok(())
    }
}

/// One attribute: its owner, its name and where its value sits in
/// [`AttrStore::values`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AttrRec {
    pub(crate) owner: NodeId,
    pub(crate) name: Sym,
    value: (u32, u32),
}

/// Largest values buffer the store addresses: value ranges are `u32`.
const MAX_VALUES: usize = u32::MAX as usize;

/// Every attribute of a document, out of line.
///
/// Each node record keeps the index of its group's first record (where the
/// group starts, or would start), so finding a node's attributes is one
/// load and a walk over its own records. Inserting or removing a record
/// shifts the groups of every later owner by one; [`AttrStore::set`] and
/// [`AttrStore::remove`] report when that happens so the records can follow.
#[derive(Debug, Clone, Default)]
pub(crate) struct AttrStore {
    /// Grouped by owner in ascending id order; within one owner, in the
    /// element's attribute order.
    recs: Vec<AttrRec>,
    /// Every value back to back. Replaced and removed values leave dead
    /// bytes behind until [`AttrStore::compact`] drops them.
    values: String,
    /// Bytes of `values` some record still points at.
    live: usize,
}

impl AttrStore {
    /// The records of `owner`, whose group starts at `start`.
    fn group(&self, start: u32, owner: NodeId) -> Range<usize> {
        let start = (start as usize).min(self.recs.len());
        start..start + self.recs[start..].iter().take_while(|r| r.owner == owner).count()
    }

    /// Number of records.
    pub(crate) fn len(&self) -> usize {
        self.recs.len()
    }

    /// Every record, grouped by owner.
    pub(crate) fn all(&self) -> &[AttrRec] {
        &self.recs
    }

    /// Append a value; [`AttrStore::room`] said it fits.
    fn store_value(&mut self, value: &str) -> (u32, u32) {
        let start = self.values.len();
        self.values.push_str(value);
        self.live += value.len();
        assert!(self.values.len() <= MAX_VALUES, "values past their u32 offsets");
        (start as u32, self.values.len() as u32)
    }

    /// Make sure `bytes` more value bytes stay addressable, dropping dead
    /// bytes first if that is what it takes. Every store of a value comes
    /// after this check.
    pub(crate) fn room(&mut self, bytes: usize) -> Result<()> {
        if self.values.len() + bytes > MAX_VALUES {
            self.compact();
        }
        if self.values.len() + bytes > MAX_VALUES {
            return Err(GoddagError::Edit(format!(
                "attribute values would exceed {MAX_VALUES} bytes"
            )));
        }
        Ok(())
    }

    /// Append an attribute to `owner`. The store stays grouped when `owner`
    /// is at least every owner so far; a builder handing out ids in another
    /// order pushes everything, then calls [`AttrStore::sort`] once.
    pub(crate) fn push(&mut self, owner: NodeId, name: Sym, value: &str) {
        let value = self.store_value(value);
        self.recs.push(AttrRec { owner, name, value });
    }

    /// Make room for `count` more attributes holding `bytes` of values.
    pub(crate) fn reserve(&mut self, count: usize, bytes: usize) -> Result<()> {
        self.room(bytes)?;
        self.recs.reserve_exact(count);
        self.values.reserve_exact(bytes);
        Ok(())
    }

    /// Restore the owner grouping after out-of-order [`AttrStore::push`]es: a
    /// stable sort, so each owner keeps its attribute order (linear when
    /// the records already arrive in owner order).
    pub(crate) fn sort(&mut self) {
        self.recs.sort_by_key(|r| r.owner);
    }

    /// Set `name` on `owner` (group at `start`): replace its value in place
    /// in the attribute order, or append it to the group. True when a
    /// record was inserted, which moves every later owner's group up one.
    pub(crate) fn set(&mut self, start: u32, owner: NodeId, name: Sym, value: &str) -> bool {
        let range = self.group(start, owner);
        let found = self.recs[range.clone()].iter().position(|r| r.name == name);
        let stored = self.store_value(value);
        match found {
            Some(i) => {
                let old = std::mem::replace(&mut self.recs[range.start + i].value, stored);
                self.live -= (old.1 - old.0) as usize;
                self.compact_if_sparse();
                false
            }
            None => {
                self.recs.insert(range.end, AttrRec { owner, name, value: stored });
                true
            }
        }
    }

    /// Remove the attribute of `owner` (group at `start`) spelled `name`;
    /// whether it existed, which moves every later owner's group down one.
    pub(crate) fn remove(&mut self, names: &Names, start: u32, owner: NodeId, name: &str) -> bool {
        let range = self.group(start, owner);
        let found = self.recs[range.clone()].iter().position(|r| names.get(r.name).eq_str(name));
        let Some(i) = found else { return false };
        let old = self.recs.remove(range.start + i);
        self.live -= (old.value.1 - old.value.0) as usize;
        self.compact_if_sparse();
        true
    }

    /// Once more than half of `values` is dead (and it is not tiny), copy
    /// the live values into a fresh string in record order.
    fn compact_if_sparse(&mut self) {
        if self.values.len() > 2 * self.live + 256 {
            self.compact();
        }
    }

    fn compact(&mut self) {
        let mut values = String::with_capacity(self.live);
        for r in &mut self.recs {
            let start = values.len() as u32;
            values.push_str(&self.values[r.value.0 as usize..r.value.1 as usize]);
            r.value = (start, values.len() as u32);
        }
        self.values = values;
    }

    /// The value a record points at.
    #[inline]
    pub(crate) fn value(&self, r: &AttrRec) -> &str {
        &self.values[r.value.0 as usize..r.value.1 as usize]
    }

    /// A borrowed view of `owner`'s attributes (group at `start`).
    pub(crate) fn view<'a>(&'a self, names: &'a Names, start: u32, owner: NodeId) -> Attrs<'a> {
        Attrs { names, store: self, recs: &self.recs[self.group(start, owner)] }
    }

    /// Where each owner's group starts, for owners `0..ids` in order.
    pub(crate) fn group_starts(&self, ids: usize) -> impl Iterator<Item = u32> + '_ {
        let mut at = 0;
        (0..ids as u32).map(move |n| {
            let start = at;
            at += self.recs[at..].iter().take_while(|r| r.owner == NodeId(n)).count();
            start as u32
        })
    }

    /// Heap bytes owned by the store.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.recs.capacity() * size_of::<AttrRec>() + self.values.capacity()
    }

    /// The store's own rules: records grouped by owner, every value range
    /// inside `values` and on character boundaries, `live` their total.
    pub(crate) fn check(&self) -> std::result::Result<(), String> {
        if let Some(w) = self.recs.windows(2).find(|w| w[0].owner > w[1].owner) {
            return Err(format!("attribute of {} stored after one of {}", w[1].owner, w[0].owner));
        }
        let mut live = 0;
        for r in &self.recs {
            let (a, b) = (r.value.0 as usize, r.value.1 as usize);
            if a > b || self.values.get(a..b).is_none() {
                return Err(format!("attribute of {} has value range {a}..{b}", r.owner));
            }
            live += b - a;
        }
        if live != self.live {
            return Err(format!("attribute values hold {live} live bytes, counted {}", self.live));
        }
        Ok(())
    }
}

/// One attribute, borrowed from its document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attr<'a> {
    /// Attribute name.
    pub name: &'a QName,
    /// Unescaped attribute value.
    pub value: &'a str,
}

impl AttrLike for Attr<'_> {
    fn name(&self) -> &QName {
        self.name
    }
    fn value(&self) -> &str {
        self.value
    }
}

impl Attr<'_> {
    /// An owned copy.
    pub fn to_attribute(&self) -> Attribute {
        Attribute { name: self.name.clone(), value: self.value.to_string() }
    }
}

/// The attributes of one element (or the root), in order, borrowed from
/// the document's attribute store. Empty for leaves and unknown ids.
#[derive(Clone, Copy)]
pub struct Attrs<'a> {
    names: &'a Names,
    store: &'a AttrStore,
    recs: &'a [AttrRec],
}

impl<'a> Attrs<'a> {
    /// A view with no attributes.
    pub(crate) fn none(names: &'a Names, store: &'a AttrStore) -> Attrs<'a> {
        Attrs { names, store, recs: &[] }
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.recs.len()
    }

    /// True when there are none.
    pub fn is_empty(&self) -> bool {
        self.recs.is_empty()
    }

    /// The `i`-th attribute.
    pub fn get(&self, i: usize) -> Option<Attr<'a>> {
        self.recs.get(i).map(|r| self.attr(r))
    }

    /// The name of the `i`-th attribute.
    pub fn name(&self, i: usize) -> Option<&'a QName> {
        self.recs.get(i).map(|r| self.names.get(r.name))
    }

    /// The value of the `i`-th attribute.
    pub fn value(&self, i: usize) -> Option<&'a str> {
        self.recs.get(i).map(|r| self.store.value(r))
    }

    fn attr(&self, r: &AttrRec) -> Attr<'a> {
        Attr { name: self.names.get(r.name), value: self.store.value(r) }
    }

    /// The attributes in order.
    pub fn iter(&self) -> AttrIter<'a> {
        AttrIter { attrs: *self, next: 0 }
    }

    /// The value of the attribute spelled `name` (`prefix:local` or
    /// `local`).
    pub fn find(&self, name: &str) -> Option<&'a str> {
        self.iter().find(|a| a.name.eq_str(name)).map(|a| a.value)
    }

    /// Owned copies, in order.
    pub fn to_vec(&self) -> Vec<Attribute> {
        self.iter().map(|a| a.to_attribute()).collect()
    }
}

impl PartialEq for Attrs<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl fmt::Debug for Attrs<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for Attrs<'a> {
    type Item = Attr<'a>;
    type IntoIter = AttrIter<'a>;
    fn into_iter(self) -> AttrIter<'a> {
        self.iter()
    }
}

/// Iterator over an [`Attrs`] view.
#[derive(Debug, Clone)]
pub struct AttrIter<'a> {
    attrs: Attrs<'a>,
    next: usize,
}

impl<'a> Iterator for AttrIter<'a> {
    type Item = Attr<'a>;
    fn next(&mut self) -> Option<Attr<'a>> {
        let a = self.attrs.get(self.next)?;
        self.next += 1;
        Some(a)
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.attrs.len() - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for AttrIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(s: &str) -> QName {
        QName::parse(s).unwrap()
    }

    #[test]
    fn interning_stores_each_name_once() {
        let mut names = Names::default();
        let a = names.intern(&q("w"));
        let b = names.intern(&q("ling:w"));
        assert_eq!(names.intern(&q("w")), a);
        assert_ne!(a, b);
        assert_eq!(names.len(), 2);
        assert_eq!(names.get(b), &q("ling:w"));
        names.check().unwrap();
    }

    #[test]
    fn set_replaces_in_place_and_remove_compacts() {
        let mut names = Names::default();
        let mut store = AttrStore::default();
        let (n, id) = (names.intern(&q("n")), names.intern(&q("xml:id")));
        // Owner 1's group starts at 0 and owner 3's right after it.
        store.push(NodeId(1), id, "a");
        assert!(store.set(1, NodeId(3), n, "1"));
        assert!(store.set(1, NodeId(3), id, "b"));
        assert!(!store.set(1, NodeId(3), n, "2"));
        let view = store.view(&names, 1, NodeId(3));
        assert_eq!(view.to_vec(), vec![Attribute::new("n", "2"), Attribute::new("xml:id", "b")]);
        assert_eq!(view.find("xml:id"), Some("b"));
        assert_eq!(store.group_starts(4).collect::<Vec<_>>(), [0, 0, 1, 1]);
        assert!(store.remove(&names, 1, NodeId(3), "n"));
        assert!(!store.remove(&names, 1, NodeId(3), "n"));
        assert!(store.view(&names, 1, NodeId(2)).is_empty());
        store.check().unwrap();
        // Churn one value: dead bytes never exceed the bound for long.
        for i in 0..2_000 {
            store.set(0, NodeId(1), id, &format!("value-{i}"));
        }
        assert!(store.values.len() <= 2 * store.live + 256 + "value-1999".len());
        assert_eq!(store.view(&names, 0, NodeId(1)).find("xml:id"), Some("value-1999"));
        store.check().unwrap();
    }
}
