//! The replica catalog: files, datasets, containers, and replicas.
//!
//! This is the bookkeeping heart of the Rucio substrate. It tracks, for
//! every file: its LFN, size, owning dataset, production block, scope, and
//! the set of RSEs currently holding a physical replica. Datasets aggregate
//! files for bulk operations; containers aggregate datasets (paper §2.2).
//!
//! Invariants maintained (and property-tested):
//! * a file always belongs to exactly one dataset;
//! * replica sets never contain duplicates;
//! * dataset byte totals equal the sum of member file sizes;
//! * registered volume is monotone in time (deletion removes *replicas*,
//!   never catalog entries — mirroring Rucio, where DIDs are immutable).

use crate::did::{self, DidName, Scope};
use dmsa_gridnet::RseId;
use dmsa_simcore::{SimTime, Sym, SymbolTable};
use serde::{Deserialize, Serialize};

/// Dense file identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct FileId(pub u64);

/// Dense dataset identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct DatasetId(pub u64);

/// Dense container identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct ContainerId(pub u64);

/// Catalog entry for one file.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FileEntry {
    /// Identifier.
    pub id: FileId,
    /// Logical file name, interned in the catalog's
    /// [symbol table](ReplicaCatalog::names).
    pub lfn: Sym,
    /// Scope of the DID.
    pub scope: Scope,
    /// Exact size in bytes.
    pub size: u64,
    /// Owning dataset.
    pub dataset: DatasetId,
    /// Registration instant (drives the growth series).
    pub registered: SimTime,
}

/// Catalog entry for one dataset.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DatasetEntry {
    /// Identifier.
    pub id: DatasetId,
    /// Dataset DID name, interned in the catalog's
    /// [symbol table](ReplicaCatalog::names).
    pub name: Sym,
    /// Scope.
    pub scope: Scope,
    /// Production block identifier recorded in PanDA file metadata
    /// (interned).
    pub prod_dblock: Sym,
    /// Member files, in registration order.
    pub files: Vec<FileId>,
    /// Sum of member file sizes.
    pub total_bytes: u64,
}

/// Catalog entry for one container (aggregates datasets).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ContainerEntry {
    /// Identifier.
    pub id: ContainerId,
    /// Container DID name.
    pub name: DidName,
    /// Member datasets.
    pub datasets: Vec<DatasetId>,
}

/// The global file/dataset/replica catalog.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ReplicaCatalog {
    files: Vec<FileEntry>,
    datasets: Vec<DatasetEntry>,
    containers: Vec<ContainerEntry>,
    /// `replicas[file.index()]` = RSEs currently holding the file, sorted.
    replicas: Vec<Vec<RseId>>,
    /// Single owner of every LFN / dataset / prod-dblock string. Entries
    /// and [`crate::TransferEvent`]s carry [`Sym`] handles into this
    /// table, so the hot transfer path never clones a name.
    names: SymbolTable,
}

impl ReplicaCatalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a new dataset with `n_files` files of the given sizes.
    /// Returns the dataset id; file ids are contiguous and retrievable via
    /// [`ReplicaCatalog::dataset_files`].
    pub fn register_dataset(
        &mut self,
        scope: Scope,
        task_seq: u64,
        stream: &str,
        file_sizes: &[u64],
        registered: SimTime,
    ) -> DatasetId {
        let ds_id = DatasetId(self.datasets.len() as u64);
        // Every name is written into one buffer and interned from it, so
        // a name costs no allocation of its own.
        let mut buf = String::with_capacity(96);
        did::push_dataset_name(&mut buf, scope, task_seq, stream);
        let name = self.names.intern(&buf);
        did::push_prod_dblock_suffix(&mut buf, (task_seq % 7) as u32);
        let prod_dblock = self.names.intern(&buf);
        let mut files = Vec::with_capacity(file_sizes.len());
        let mut total = 0u64;
        for (i, &size) in file_sizes.iter().enumerate() {
            let fid = FileId(self.files.len() as u64);
            buf.clear();
            did::push_file_lfn(&mut buf, scope, task_seq, i as u32);
            let lfn = self.names.intern(&buf);
            self.files.push(FileEntry {
                id: fid,
                lfn,
                scope,
                size,
                dataset: ds_id,
                registered,
            });
            self.replicas.push(Vec::new());
            files.push(fid);
            total += size;
        }
        self.datasets.push(DatasetEntry {
            id: ds_id,
            name,
            scope,
            prod_dblock,
            files,
            total_bytes: total,
        });
        ds_id
    }

    /// Group existing datasets into a container.
    pub fn register_container(&mut self, name: DidName, datasets: Vec<DatasetId>) -> ContainerId {
        let id = ContainerId(self.containers.len() as u64);
        self.containers.push(ContainerEntry { id, name, datasets });
        id
    }

    /// Add a replica of `file` at `rse` (idempotent).
    pub fn add_replica(&mut self, file: FileId, rse: RseId) {
        let set = &mut self.replicas[file.0 as usize];
        if let Err(pos) = set.binary_search(&rse) {
            set.insert(pos, rse);
        }
    }

    /// Remove a replica (no-op if absent). Returns whether it was present.
    pub fn remove_replica(&mut self, file: FileId, rse: RseId) -> bool {
        let set = &mut self.replicas[file.0 as usize];
        match set.binary_search(&rse) {
            Ok(pos) => {
                set.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// RSEs currently holding `file`.
    pub fn replicas_of(&self, file: FileId) -> &[RseId] {
        &self.replicas[file.0 as usize]
    }

    /// Whether `file` has a replica at `rse`.
    pub fn has_replica(&self, file: FileId, rse: RseId) -> bool {
        self.replicas[file.0 as usize].binary_search(&rse).is_ok()
    }

    /// File entry by id.
    pub fn file(&self, id: FileId) -> &FileEntry {
        &self.files[id.0 as usize]
    }

    /// Dataset entry by id.
    pub fn dataset(&self, id: DatasetId) -> &DatasetEntry {
        &self.datasets[id.0 as usize]
    }

    /// Container entry by id.
    pub fn container(&self, id: ContainerId) -> &ContainerEntry {
        &self.containers[id.0 as usize]
    }

    /// Files of a dataset.
    pub fn dataset_files(&self, id: DatasetId) -> &[FileId] {
        &self.dataset(id).files
    }

    /// All files (registration order).
    pub fn files(&self) -> &[FileEntry] {
        &self.files
    }

    /// All datasets.
    pub fn datasets(&self) -> &[DatasetEntry] {
        &self.datasets
    }

    /// All containers.
    pub fn containers(&self) -> &[ContainerEntry] {
        &self.containers
    }

    /// The full replica table: `replicas()[file.index()]` is the sorted RSE
    /// set of that file. Exposed for checkpoint encoding.
    pub fn replicas(&self) -> &[Vec<RseId>] {
        &self.replicas
    }

    /// Rebuild a catalog from checkpointed parts. Validates the catalog
    /// invariants so a corrupted checkpoint is rejected here rather than
    /// surfacing as a panic mid-campaign.
    pub fn from_parts(
        names: SymbolTable,
        files: Vec<FileEntry>,
        datasets: Vec<DatasetEntry>,
        containers: Vec<ContainerEntry>,
        replicas: Vec<Vec<RseId>>,
    ) -> Result<Self, String> {
        let cat = ReplicaCatalog {
            files,
            datasets,
            containers,
            replicas,
            names,
        };
        cat.check_invariants()?;
        Ok(cat)
    }

    /// The interning table backing every name in the catalog.
    pub fn names(&self) -> &SymbolTable {
        &self.names
    }

    /// Resolve an interned name (LFN, dataset name, or prod-dblock).
    pub fn resolve(&self, sym: Sym) -> &str {
        self.names.resolve(sym)
    }

    /// Number of files registered.
    pub fn n_files(&self) -> usize {
        self.files.len()
    }

    /// Total registered bytes (catalog volume, replica-count agnostic).
    pub fn total_registered_bytes(&self) -> u64 {
        self.datasets.iter().map(|d| d.total_bytes).sum()
    }

    /// Total physical bytes = Σ size × replica-count.
    pub fn total_physical_bytes(&self) -> u64 {
        self.files
            .iter()
            .map(|f| f.size * self.replicas[f.id.0 as usize].len() as u64)
            .sum()
    }

    /// Sanity check of all catalog invariants; used by property tests and
    /// debug assertions in the scenario driver.
    ///
    /// Every id is checked to be in range before it is used as an index,
    /// so a catalog rebuilt from hostile parts is refused, never indexed
    /// out of bounds.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.replicas.len() != self.files.len() {
            return Err("replica table length mismatch".into());
        }
        let (n_files, n_datasets) = (self.files.len() as u64, self.datasets.len() as u64);
        for (i, f) in self.files.iter().enumerate() {
            if f.id.0 != i as u64 {
                return Err(format!("file {i} carries id {}", f.id.0));
            }
            if f.dataset.0 >= n_datasets {
                return Err(format!(
                    "file {i} points at dataset {} of {n_datasets}",
                    f.dataset.0
                ));
            }
        }
        for (i, ds) in self.datasets.iter().enumerate() {
            if ds.id.0 != i as u64 {
                return Err(format!("dataset {i} carries id {}", ds.id.0));
            }
            let mut sum = Some(0u64);
            for &f in &ds.files {
                if f.0 >= n_files {
                    return Err(format!("dataset {i} lists file {} of {n_files}", f.0));
                }
                if self.file(f).dataset != ds.id {
                    return Err(format!("file {f:?} back-pointer broken"));
                }
                sum = sum.and_then(|s| s.checked_add(self.file(f).size));
            }
            if sum != Some(ds.total_bytes) {
                return Err(format!("dataset {:?} byte total drifted", ds.id));
            }
        }
        for (i, ct) in self.containers.iter().enumerate() {
            if ct.id.0 != i as u64 {
                return Err(format!("container {i} carries id {}", ct.id.0));
            }
            if let Some(d) = ct.datasets.iter().find(|d| d.0 >= n_datasets) {
                return Err(format!(
                    "container {i} lists dataset {} of {n_datasets}",
                    d.0
                ));
            }
        }
        for (i, set) in self.replicas.iter().enumerate() {
            if set.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("replica set of file {i} unsorted/duplicated"));
            }
        }
        let n_syms = self.names.len() as u32;
        for f in &self.files {
            if f.lfn.0 >= n_syms {
                return Err(format!("file {:?} lfn symbol out of range", f.id));
            }
        }
        for ds in &self.datasets {
            if ds.name.0 >= n_syms || ds.prod_dblock.0 >= n_syms {
                return Err(format!("dataset {:?} name symbol out of range", ds.id));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cat_with_dataset() -> (ReplicaCatalog, DatasetId) {
        let mut cat = ReplicaCatalog::new();
        let ds = cat.register_dataset(
            Scope::User(1),
            10,
            "higgs",
            &[100, 200, 300],
            SimTime::from_secs(0),
        );
        (cat, ds)
    }

    #[test]
    fn register_dataset_creates_files_and_totals() {
        let (cat, ds) = cat_with_dataset();
        assert_eq!(cat.n_files(), 3);
        assert_eq!(cat.dataset(ds).total_bytes, 600);
        assert_eq!(cat.dataset_files(ds).len(), 3);
        assert_eq!(cat.total_registered_bytes(), 600);
        cat.check_invariants().unwrap();
    }

    #[test]
    fn file_entries_link_back_to_dataset() {
        let (cat, ds) = cat_with_dataset();
        for &f in cat.dataset_files(ds) {
            assert_eq!(cat.file(f).dataset, ds);
        }
    }

    #[test]
    fn replicas_add_remove_idempotent() {
        let (mut cat, ds) = cat_with_dataset();
        let f = cat.dataset_files(ds)[0];
        let (r1, r2) = (RseId(4), RseId(2));
        cat.add_replica(f, r1);
        cat.add_replica(f, r2);
        cat.add_replica(f, r1); // duplicate ignored
        assert_eq!(cat.replicas_of(f), &[r2, r1]); // sorted
        assert!(cat.has_replica(f, r1));
        assert!(cat.remove_replica(f, r1));
        assert!(!cat.remove_replica(f, r1)); // already gone
        assert!(!cat.has_replica(f, r1));
        cat.check_invariants().unwrap();
    }

    #[test]
    fn physical_bytes_count_replicas() {
        let (mut cat, ds) = cat_with_dataset();
        let files = cat.dataset_files(ds).to_vec();
        for &f in &files {
            cat.add_replica(f, RseId(0));
            cat.add_replica(f, RseId(1));
        }
        assert_eq!(cat.total_physical_bytes(), 1200);
        assert_eq!(cat.total_registered_bytes(), 600);
    }

    #[test]
    fn containers_group_datasets() {
        let (mut cat, ds) = cat_with_dataset();
        let ds2 = cat.register_dataset(Scope::User(2), 11, "top", &[50], SimTime::from_secs(5));
        let c = cat.register_container(DidName("cont.1".into()), vec![ds, ds2]);
        assert_eq!(cat.container(c).datasets, vec![ds, ds2]);
    }

    #[test]
    fn distinct_datasets_have_distinct_blocks_and_names() {
        let mut cat = ReplicaCatalog::new();
        let a = cat.register_dataset(Scope::User(1), 1, "s", &[1], SimTime::EPOCH);
        let b = cat.register_dataset(Scope::User(1), 2, "s", &[1], SimTime::EPOCH);
        assert_ne!(cat.dataset(a).name, cat.dataset(b).name);
        assert_ne!(cat.dataset(a).prod_dblock, cat.dataset(b).prod_dblock);
    }
}
