//! Variable identifiers and the name interner.

use std::collections::HashMap;
use std::fmt;

/// A dense identifier for a Boolean variable.
///
/// `VarId(0)` is the least-significant input in truth-table order: input
/// assignment `k` sets variable `i` to bit `i` of `k`. The paper writes gate
/// inputs `i1 … in`; we intern them in first-seen order.
///
/// # Example
///
/// ```
/// use dynmos_logic::{VarId, VarTable};
/// let mut t = VarTable::new();
/// let a = t.intern("a");
/// assert_eq!(a, VarId(0));
/// assert_eq!(t.intern("a"), a); // stable on re-intern
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u32);

impl VarId {
    /// Index into arrays/bit positions.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Interner assigning dense [`VarId`]s to variable names in first-seen order.
///
/// Every expression in a cell description shares one `VarTable`, so truth
/// tables built from different faulty functions of the same cell are
/// comparable bit-for-bit (this is what makes fault-equivalence collapsing a
/// plain table comparison).
///
/// # Example
///
/// ```
/// use dynmos_logic::VarTable;
/// let mut t = VarTable::new();
/// let b = t.intern("b");
/// assert_eq!(t.name(b), "b");
/// assert_eq!(t.len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VarTable {
    names: Vec<String>,
    by_name: HashMap<String, VarId>,
}

impl VarTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the id for `name`, allocating a fresh one on first sight.
    pub fn intern(&mut self, name: &str) -> VarId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = VarId(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), id);
        id
    }

    /// Looks up an already-interned name.
    pub fn get(&self, name: &str) -> Option<VarId> {
        self.by_name.get(name).copied()
    }

    /// The name of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this table.
    pub fn name(&self, id: VarId) -> &str {
        &self.names[id.index()]
    }

    /// Number of interned variables.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` if no variable has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_stable_and_dense() {
        let mut t = VarTable::new();
        let a = t.intern("a");
        let b = t.intern("b");
        assert_eq!(a, VarId(0));
        assert_eq!(b, VarId(1));
        assert_eq!(t.intern("a"), a);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn name_roundtrip() {
        let mut t = VarTable::new();
        let x = t.intern("x42");
        assert_eq!(t.name(x), "x42");
        assert_eq!(t.get("x42"), Some(x));
        assert_eq!(t.get("nope"), None);
    }

    #[test]
    fn empty_table() {
        let t = VarTable::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }
}
