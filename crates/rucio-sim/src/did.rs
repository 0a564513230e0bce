//! Data Identifiers: scopes and hierarchical names.
//!
//! Rucio references all data by globally unique Data Identifiers (DIDs) —
//! a `(scope, name)` pair — "ensuring immutable naming and provenance"
//! (paper §2.2). We model scopes as a small closed set (user analysis
//! scopes plus production scopes) and generate names that look like real
//! ATLAS LFNs so that string-keyed joins in the matcher behave like
//! production joins (hash collisions, interning pressure, etc.).

use serde::{Deserialize, Serialize};
use std::fmt::{self, Write as _};

/// A Rucio scope, e.g. `user.alice` or `mc23_13p6TeV`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum Scope {
    /// Per-user analysis scope (`user.u<N>`).
    User(u32),
    /// Monte-Carlo production scope.
    McProd,
    /// Detector data scope.
    Data,
    /// Group-analysis derived data.
    GroupPhys,
}

impl fmt::Display for Scope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scope::User(n) => write!(f, "user.u{n:04}"),
            Scope::McProd => write!(f, "mc23_13p6TeV"),
            Scope::Data => write!(f, "data24_13p6TeV"),
            Scope::GroupPhys => write!(f, "group.phys-higgs"),
        }
    }
}

/// A DID name (dataset or file). Thin newtype so signatures stay legible.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct DidName(pub String);

impl fmt::Display for DidName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Append a dataset name in the ATLAS style for a task to `out`.
pub fn push_dataset_name(out: &mut String, scope: Scope, task_seq: u64, stream: &str) {
    let _ = write!(
        out,
        "{scope}.{task_seq:08}.{stream}.DAOD_PHYS.e8514_s4159_r15224"
    );
}

/// Append a file LFN within a dataset to `out`.
pub fn push_file_lfn(out: &mut String, scope: Scope, task_seq: u64, file_seq: u32) {
    let _ = write!(
        out,
        "{scope}.{task_seq:08}.DAOD_PHYS._{file_seq:06}.pool.root.1"
    );
}

/// Append the production data-block ("proddblock") suffix of sub-block
/// `sub` to `out`, which holds the dataset's name. PanDA's file table
/// records this block-level identifier and Algorithm 1 joins on it.
pub fn push_prod_dblock_suffix(out: &mut String, sub: u32) {
    let _ = write!(out, "_sub{sub:04}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_display_forms() {
        assert_eq!(Scope::User(7).to_string(), "user.u0007");
        assert_eq!(Scope::McProd.to_string(), "mc23_13p6TeV");
        assert_eq!(Scope::Data.to_string(), "data24_13p6TeV");
        assert_eq!(Scope::GroupPhys.to_string(), "group.phys-higgs");
    }

    fn file_lfn(scope: Scope, task_seq: u64, file_seq: u32) -> String {
        let mut s = String::new();
        push_file_lfn(&mut s, scope, task_seq, file_seq);
        s
    }

    #[test]
    fn names_embed_identifiers() {
        let mut ds = String::new();
        push_dataset_name(&mut ds, Scope::User(3), 42, "higgs");
        assert_eq!(ds, "user.u0003.00000042.higgs.DAOD_PHYS.e8514_s4159_r15224");
        push_prod_dblock_suffix(&mut ds, 2);
        assert_eq!(
            ds,
            "user.u0003.00000042.higgs.DAOD_PHYS.e8514_s4159_r15224_sub0002"
        );
        assert_eq!(
            file_lfn(Scope::McProd, 123_456_789, 5),
            "mc23_13p6TeV.123456789.DAOD_PHYS._000005.pool.root.1"
        );
    }

    #[test]
    fn distinct_files_have_distinct_lfns() {
        let a = file_lfn(Scope::User(1), 1, 1);
        let b = file_lfn(Scope::User(1), 1, 2);
        let c = file_lfn(Scope::User(1), 2, 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
