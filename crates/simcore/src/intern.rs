//! String interning.
//!
//! Job, file, and transfer records reference the same site names, LFNs,
//! dataset names, and scopes millions of times. Interning maps each
//! distinct string to a dense [`Sym`] so records stay compact and
//! string-equality joins become integer comparisons.
//!
//! The table stores every string exactly once: the dense `Vec<String>`
//! owns the data and an open-addressing index of `u32` symbol ids (hashed
//! with the in-tree [fx hasher](crate::fx)) points back into it. The old
//! implementation kept a second copy of each string as a `HashMap` key,
//! doubling resident string memory for a full-scale campaign.

use crate::fx;
use serde::{Deserialize, Deserializer, Serialize, Serializer};

/// Interned string handle.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct Sym(pub u32);

/// Sentinel for an empty index slot (`Sym` ids are bounded far below it).
const EMPTY: u32 = u32::MAX;

/// Append-only interning table.
///
/// `Sym(0)` is always the reserved `"UNKNOWN"` sentinel that production
/// metadata uses for unidentified sites (paper §3.2: "the 102nd site is
/// labeled as *unknown*, aggregating all transfers with either an
/// unidentified source or destination").
#[derive(Clone, Debug)]
pub struct SymbolTable {
    /// Single owner of every interned string, dense in symbol order.
    strings: Vec<String>,
    /// Open-addressing (linear-probe) index of symbol ids; slot choice is
    /// the fx hash of the string. Power-of-two length, `EMPTY` = vacant.
    slots: Vec<u32>,
}

impl SymbolTable {
    /// The reserved unknown-site symbol.
    pub const UNKNOWN: Sym = Sym(0);

    /// New table containing only the `"UNKNOWN"` sentinel.
    pub fn new() -> Self {
        let mut t = SymbolTable {
            strings: Vec::new(),
            slots: vec![EMPTY; 16],
        };
        let u = t.intern("UNKNOWN");
        debug_assert_eq!(u, Self::UNKNOWN);
        t
    }

    /// Intern `s`, returning its symbol (existing or fresh).
    pub fn intern(&mut self, s: &str) -> Sym {
        // Keep the probe chain shorter than 1/8 of the table: grow at 7/8
        // occupancy *before* probing so the insert slot stays valid.
        if (self.strings.len() + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = fx::hash_bytes(s.as_bytes()) as usize & mask;
        loop {
            match self.slots[i] {
                EMPTY => break,
                id if self.strings[id as usize] == s => return Sym(id),
                _ => i = (i + 1) & mask,
            }
        }
        let id = self.strings.len() as u32;
        debug_assert!(id < EMPTY, "symbol table overflow");
        self.strings.push(s.to_string());
        self.slots[i] = id;
        Sym(id)
    }

    /// Make room for `additional` more symbols, so interning them does
    /// not re-home the index on the way.
    pub fn reserve(&mut self, additional: usize) {
        let want = self.strings.len() + additional;
        self.strings.reserve(additional);
        while want * 8 > self.slots.len() * 7 {
            self.grow();
        }
    }

    /// Resolve a symbol back to its string.
    pub fn resolve(&self, sym: Sym) -> &str {
        &self.strings[sym.0 as usize]
    }

    /// Look up without interning.
    pub fn get(&self, s: &str) -> Option<Sym> {
        let mask = self.slots.len() - 1;
        let mut i = fx::hash_bytes(s.as_bytes()) as usize & mask;
        loop {
            match self.slots[i] {
                EMPTY => return None,
                id if self.strings[id as usize] == s => return Some(Sym(id)),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Number of distinct strings (including the sentinel).
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Only the sentinel present?
    pub fn is_empty(&self) -> bool {
        self.strings.len() <= 1
    }

    /// Double the index and re-home every symbol id.
    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(16);
        self.slots.clear();
        self.slots.resize(cap, EMPTY);
        let mask = cap - 1;
        for (id, s) in self.strings.iter().enumerate() {
            let mut i = fx::hash_bytes(s.as_bytes()) as usize & mask;
            while self.slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = id as u32;
        }
    }
}

/// Two tables are equal when they intern the same strings in the same
/// order; the probe index is derived state and is ignored.
impl PartialEq for SymbolTable {
    fn eq(&self, other: &Self) -> bool {
        self.strings == other.strings
    }
}

impl Eq for SymbolTable {}

impl Default for SymbolTable {
    fn default() -> Self {
        Self::new()
    }
}

/// Serialize only the dense string vector; the probe index is derived
/// state and is rebuilt on deserialization.
impl Serialize for SymbolTable {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.strings.serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for SymbolTable {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let strings = Vec::<String>::deserialize(deserializer)?;
        let mut t = SymbolTable::new();
        for (id, s) in strings.iter().enumerate() {
            let sym = t.intern(s);
            if sym.0 as usize != id {
                return Err(serde::de::Error::custom(format!(
                    "symbol table has duplicate or misplaced string {s:?} at index {id}"
                )));
            }
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_is_symbol_zero() {
        let t = SymbolTable::new();
        assert_eq!(t.get("UNKNOWN"), Some(SymbolTable::UNKNOWN));
        assert_eq!(t.resolve(SymbolTable::UNKNOWN), "UNKNOWN");
    }

    #[test]
    fn interning_is_idempotent() {
        let mut t = SymbolTable::new();
        let a = t.intern("CERN-PROD");
        let b = t.intern("CERN-PROD");
        assert_eq!(a, b);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn distinct_strings_get_distinct_symbols() {
        let mut t = SymbolTable::new();
        let a = t.intern("A");
        let b = t.intern("B");
        assert_ne!(a, b);
        assert_eq!(t.resolve(a), "A");
        assert_eq!(t.resolve(b), "B");
    }

    #[test]
    fn get_does_not_intern() {
        let t = SymbolTable::new();
        assert!(t.get("missing").is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn survives_growth_and_keeps_dense_ids() {
        let mut t = SymbolTable::new();
        let syms: Vec<Sym> = (0..10_000).map(|i| t.intern(&format!("s{i}"))).collect();
        assert_eq!(t.len(), 10_001);
        for (i, &sym) in syms.iter().enumerate() {
            assert_eq!(sym, Sym(i as u32 + 1));
            assert_eq!(t.resolve(sym), format!("s{i}"));
            assert_eq!(t.get(&format!("s{i}")), Some(sym));
        }
        // Re-interning after growth still finds the original ids.
        assert_eq!(t.intern("s42"), syms[42]);
    }

    #[test]
    fn serde_round_trips_dense_order() {
        let mut t = SymbolTable::new();
        for s in ["CERN-PROD", "BNL-OSG2", "MWT2"] {
            t.intern(s);
        }
        let json = serde_json::to_string(&t).unwrap();
        assert_eq!(json, r#"["UNKNOWN","CERN-PROD","BNL-OSG2","MWT2"]"#);
        let back: SymbolTable = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), t.len());
        for s in ["UNKNOWN", "CERN-PROD", "BNL-OSG2", "MWT2"] {
            assert_eq!(back.get(s), t.get(s));
        }
    }
}
