//! String interning.
//!
//! Job, file, and transfer records reference the same site names, LFNs,
//! dataset names, and scopes millions of times. Interning maps each
//! distinct string to a dense [`Sym`] so records stay compact and
//! string-equality joins become integer comparisons.
//!
//! The table stores every string exactly once, in an arena: one
//! `String` holds every name back to back in symbol order, symbol `i`
//! is `bytes[ends[i]..ends[i + 1]]`, and an open-addressing index of
//! symbol ids points back into it. Interning a new name is an append,
//! and a whole table clones as three buffer copies and drops as three
//! frees, however many names it holds.
//!
//! Each index slot holds a symbol id and the high 32 bits of its
//! string's [fx hash](crate::fx). Those bits pick the slot (fx's low bits
//! mix poorly: its last step is a multiply) and are compared before any
//! string is, so a probe past another name seldom reads the arena.

use crate::fx;
use serde::ser::SerializeSeq;
use serde::{Deserialize, Deserializer, Serialize, Serializer};

/// Interned string handle.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct Sym(pub u32);

/// Sentinel for an empty index slot: its id half, `u32::MAX`, is never a
/// symbol id.
const EMPTY: u64 = u64::MAX;

/// The high half of `s`'s fx hash: the slot it starts probing at, and
/// the tag its slot carries.
fn hash_tag(s: &str) -> u32 {
    (fx::hash_bytes(s.as_bytes()) >> 32) as u32
}

/// An index slot for symbol `id` whose string has hash tag `tag`.
fn slot(tag: u32, id: u32) -> u64 {
    u64::from(tag) << 32 | u64::from(id)
}

/// Append-only interning table.
///
/// `Sym(0)` is always the reserved `"UNKNOWN"` sentinel that production
/// metadata uses for unidentified sites (paper §3.2: "the 102nd site is
/// labeled as *unknown*, aggregating all transfers with either an
/// unidentified source or destination").
#[derive(Clone, Debug)]
pub struct SymbolTable {
    /// Single owner of every interned string, back to back in symbol
    /// order.
    bytes: String,
    /// `bytes[ends[i]..ends[i + 1]]` is symbol `i`; `ends[0]` is 0.
    ends: Vec<u32>,
    /// Open-addressing (linear-probe) index: [`slot`]s of hash tag and
    /// symbol id, probed from the tag. Power-of-two length, `EMPTY` =
    /// vacant.
    slots: Vec<u64>,
}

impl SymbolTable {
    /// The reserved unknown-site symbol.
    pub const UNKNOWN: Sym = Sym(0);

    /// New table containing only the `"UNKNOWN"` sentinel.
    pub fn new() -> Self {
        let mut t = SymbolTable {
            bytes: String::new(),
            ends: vec![0],
            slots: vec![EMPTY; 16],
        };
        let u = t.intern("UNKNOWN");
        debug_assert_eq!(u, Self::UNKNOWN);
        t
    }

    /// Intern `s`, returning its symbol (existing or fresh).
    ///
    /// # Panics
    ///
    /// If the table is full (see [`SymbolTable::try_intern`]).
    pub fn intern(&mut self, s: &str) -> Sym {
        self.try_intern(s)
            .expect("symbol table full: u32::MAX - 1 symbols or 4 GiB of names")
    }

    /// Intern `s`, or `None` if a fresh symbol would pass `u32::MAX - 1`
    /// symbols or 4 GiB of names: offsets are checked, never wrapped.
    /// Loaders of outside input use this, so a huge file is an error.
    pub fn try_intern(&mut self, s: &str) -> Option<Sym> {
        // Grow at 3/4 occupancy *before* probing, so the insert slot
        // stays valid.
        if (self.len() + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let tag = hash_tag(s);
        let i = match self.probe(tag, s) {
            Ok(sym) => return Some(sym),
            Err(vacant) => vacant,
        };
        let id = u32::try_from(self.len()).ok().filter(|&id| id < u32::MAX)?;
        let end = u32::try_from(self.bytes.len().checked_add(s.len())?).ok()?;
        self.bytes.push_str(s);
        self.ends.push(end);
        self.slots[i] = slot(tag, id);
        Some(Sym(id))
    }

    /// Find `s` (whose hash tag is `tag`), or the vacant slot where it
    /// would go.
    fn probe(&self, tag: u32, s: &str) -> Result<Sym, usize> {
        let mask = self.slots.len() - 1;
        let mut i = tag as usize & mask;
        loop {
            match self.slots[i] {
                EMPTY => return Err(i),
                v if (v >> 32) as u32 == tag && self.str_at(v as u32) == s => {
                    return Ok(Sym(v as u32))
                }
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Make room for `additional` more symbols, so interning them does
    /// not re-home the index on the way.
    pub fn reserve(&mut self, additional: usize) {
        let want = self.len() + additional;
        self.ends.reserve(additional);
        while want * 4 > self.slots.len() * 3 {
            self.grow();
        }
    }

    /// Resolve a symbol back to its string.
    pub fn resolve(&self, sym: Sym) -> &str {
        self.str_at(sym.0)
    }

    /// Look up without interning.
    pub fn get(&self, s: &str) -> Option<Sym> {
        self.probe(hash_tag(s), s).ok()
    }

    /// Number of distinct strings (including the sentinel).
    pub fn len(&self) -> usize {
        self.ends.len() - 1
    }

    /// Only the sentinel present?
    pub fn is_empty(&self) -> bool {
        self.len() <= 1
    }

    /// Total bytes of every interned string.
    pub fn bytes_len(&self) -> usize {
        self.bytes.len()
    }

    /// Every interned string, in symbol order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        self.ends
            .windows(2)
            .map(|w| &self.bytes[w[0] as usize..w[1] as usize])
    }

    /// The string of symbol id `id`.
    fn str_at(&self, id: u32) -> &str {
        let id = id as usize;
        &self.bytes[self.ends[id] as usize..self.ends[id + 1] as usize]
    }

    /// Double the index and re-home every slot; the tags it holds say
    /// where, so no string is read or hashed again.
    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(16);
        let mask = cap - 1;
        let mut slots = vec![EMPTY; cap];
        for &v in self.slots.iter().filter(|&&v| v != EMPTY) {
            let mut i = (v >> 32) as usize & mask;
            while slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            slots[i] = v;
        }
        self.slots = slots;
    }
}

/// Two tables are equal when they intern the same strings in the same
/// order; the probe index is derived state and is ignored.
impl PartialEq for SymbolTable {
    fn eq(&self, other: &Self) -> bool {
        self.ends == other.ends && self.bytes == other.bytes
    }
}

impl Eq for SymbolTable {}

impl Default for SymbolTable {
    fn default() -> Self {
        Self::new()
    }
}

/// Serialize only the strings, in symbol order; the probe index is
/// derived state and is rebuilt on deserialization.
impl Serialize for SymbolTable {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut seq = serializer.serialize_seq(Some(self.len()))?;
        for s in self.iter() {
            seq.serialize_element(s)?;
        }
        seq.end()
    }
}

impl<'de> Deserialize<'de> for SymbolTable {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let strings = Vec::<String>::deserialize(deserializer)?;
        let mut t = SymbolTable::new();
        t.reserve(strings.len());
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

    /// Reference behaviour: a plain list of distinct strings.
    fn model_intern(model: &mut Vec<String>, s: &str) -> Sym {
        match model.iter().position(|m| m == s) {
            Some(i) => Sym(i as u32),
            None => {
                model.push(s.to_string());
                Sym(model.len() as u32 - 1)
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// The arena agrees with a `Vec<String>` model on every call,
        /// across index growth, for empty, ASCII and multi-byte names,
        /// and its clones compare equal and resolve alike.
        #[test]
        fn arena_agrees_with_a_vec_model(
            picks in proptest::collection::vec((0usize..48, 0usize..6), 0..400),
        ) {
            const PIECES: [&str; 6] = ["", "a", "é", "世界", "😀", "x.y_"];
            let mut t = SymbolTable::new();
            let mut model = vec!["UNKNOWN".to_string()];
            for (n, piece) in picks {
                // Repeat a piece `n % 8` times after a numeric prefix, so
                // names collide often and come in many lengths.
                let s = format!("{}{}", n / 8, PIECES[piece].repeat(n % 8));
                let s = if n == 0 { String::new() } else { s };
                proptest::prop_assert_eq!(t.get(&s), model.iter().position(|m| *m == s).map(|i| Sym(i as u32)));
                proptest::prop_assert_eq!(t.intern(&s), model_intern(&mut model, &s));
                proptest::prop_assert_eq!(t.len(), model.len());
            }
            for (i, m) in model.iter().enumerate() {
                proptest::prop_assert_eq!(t.resolve(Sym(i as u32)), m.as_str());
                proptest::prop_assert_eq!(t.get(m), Some(Sym(i as u32)));
            }
            proptest::prop_assert!(t.iter().eq(model.iter().map(String::as_str)));
            proptest::prop_assert_eq!(t.bytes_len(), model.iter().map(String::len).sum::<usize>());
            let mut c = t.clone();
            proptest::prop_assert!(c == t);
            proptest::prop_assert_eq!(c.resolve(Sym(model.len() as u32 - 1)), model.last().unwrap().as_str());
            c.intern("a name no pick builds \u{0}");
            proptest::prop_assert!(c != t);
            // Equal strings in another order are another table.
            if model.len() > 2 {
                let mut other = SymbolTable::new();
                for m in model[1..].iter().rev() {
                    other.intern(m);
                }
                proptest::prop_assert!(other != t);
            }
        }
    }

    #[test]
    fn empty_and_multibyte_names_keep_their_bounds() {
        let mut t = SymbolTable::new();
        let e = t.intern("");
        let m = t.intern("é世😀");
        let a = t.intern("a");
        assert_eq!(
            (t.resolve(e), t.resolve(m), t.resolve(a)),
            ("", "é世😀", "a")
        );
        assert_eq!(t.intern(""), e);
        assert_eq!(t.bytes_len(), "UNKNOWN".len() + "é世😀".len() + 1);
        let mut r = SymbolTable::new();
        r.reserve(1000);
        for s in ["", "é世😀", "a"] {
            r.intern(s);
        }
        assert_eq!(r, t);
    }
}
