//! Shared, swappable prepared stores for long-lived services.
//!
//! A `dmsa serve` process answers queries from many threads over one
//! immutable [`PreparedStore`] and must be able to *replace* that store
//! atomically when a new export lands (hot reload) without interrupting
//! requests already in flight. Two pieces make that safe:
//!
//! * [`SharedPrepared`] — an owning handle that keeps a [`MetaStore`]
//!   alive on the heap and a [`PreparedStore`] built over it in one
//!   refcounted unit, so the index can be shared across threads without
//!   a borrow tying it to a stack frame.
//! * [`StoreSwap`] — a generation-counted atomic slot. Readers
//!   [`StoreSwap::load`] a refcounted handle (lock held only for the
//!   clone), in-flight work keeps whatever generation it loaded, and a
//!   [`StoreSwap::swap`] publishes a replacement without ever making a
//!   reader observe a half-installed store.
//!
//! The old generation is freed when its last in-flight reader drops its
//! handle — exactly the teardown discipline a rolling reload needs.

use crate::prepared::PreparedStore;
use dmsa_metastore::MetaStore;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A heap-owned metadata store plus the prepared index built over it,
/// sharable across threads as one unit.
///
/// [`PreparedStore`] borrows the store it indexes; for a long-lived
/// service that borrow must not be tied to a caller's stack frame. The
/// handle pins the [`MetaStore`] behind an `Arc` (its heap address never
/// moves and nothing can mutate it — the only `Arc` clone lives here,
/// privately) and stores the index alongside. The index's internal
/// `'static` annotation is a *private* artifact of that construction:
/// every public accessor re-ties lifetimes to `&self`, so references
/// into the store can never outlive the handle.
pub struct SharedPrepared {
    /// Keeps the indexed store alive; declared before `prepared` only
    /// for readability — drop order is irrelevant because `PreparedStore`
    /// has no `Drop` impl that dereferences the store.
    store: Arc<MetaStore>,
    prepared: PreparedStore<'static>,
}

impl SharedPrepared {
    /// Take ownership of a store and build the prepared index over it.
    pub fn build(store: MetaStore) -> SharedPrepared {
        let store = Arc::new(store);
        // SAFETY: `prepared` borrows the `MetaStore` behind `store`'s
        // heap allocation, which is stable for the lifetime of this
        // struct (the Arc is private, never handed out, and dropped
        // together with `prepared`). No `&mut MetaStore` can exist (no
        // public access to the Arc), and no public API returns the
        // `'static` lifetime — see `store()`/`prepared()`.
        let pinned: &'static MetaStore = unsafe { &*Arc::as_ptr(&store) };
        let prepared = PreparedStore::build(pinned);
        SharedPrepared { store, prepared }
    }

    /// The indexed store, borrowed for as long as the handle lives.
    pub fn store(&self) -> &MetaStore {
        &self.store
    }

    /// The prepared index. The returned reference's lifetime parameter is
    /// shortened to the borrow of `self` (covariant coercion), so nothing
    /// `'static` escapes.
    pub fn prepared<'s>(&'s self) -> &'s PreparedStore<'s> {
        &self.prepared
    }
}

// SAFETY: the handle is a read-only view over immutable data; MetaStore
// and PreparedStore are Send + Sync by construction (plain owned vectors,
// no interior mutability beyond PreparedStore's thread-local scratch).
unsafe impl Send for SharedPrepared {}
unsafe impl Sync for SharedPrepared {}

/// A generation-counted atomic slot holding an `Arc<T>`.
///
/// `load` clones the current handle (the lock is held only for the
/// refcount bump); `swap` installs a replacement and returns the old one.
/// Readers that loaded generation *n* keep using it for the rest of
/// their request even while generation *n+1* serves new arrivals — the
/// exact semantics hot reload needs: a failed reload simply never calls
/// `swap`, and the old generation keeps serving.
pub struct StoreSwap<T> {
    slot: Mutex<Arc<T>>,
    generation: AtomicU64,
}

impl<T> StoreSwap<T> {
    /// Wrap an initial value as generation 1.
    pub fn new(value: T) -> StoreSwap<T> {
        StoreSwap {
            slot: Mutex::new(Arc::new(value)),
            generation: AtomicU64::new(1),
        }
    }

    /// The current generation's handle plus its generation number,
    /// consistent with each other (taken under one lock).
    pub fn load(&self) -> (Arc<T>, u64) {
        let guard = self.slot.lock().expect("store slot poisoned");
        (Arc::clone(&guard), self.generation.load(Ordering::Acquire))
    }

    /// Install `value` as the next generation; returns the displaced
    /// handle (which in-flight readers may still hold) and the new
    /// generation number.
    pub fn swap(&self, value: T) -> (Arc<T>, u64) {
        let mut guard = self.slot.lock().expect("store slot poisoned");
        let old = std::mem::replace(&mut *guard, Arc::new(value));
        let gen = self.generation.fetch_add(1, Ordering::AcqRel) + 1;
        (old, gen)
    }

    /// The current generation number (1-based; bumped by every swap).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn shared_prepared_survives_moves_and_threads() {
        let shared = Arc::new(SharedPrepared::build(MetaStore::default()));
        // Move the Arc across a thread boundary and query from there.
        let clone = Arc::clone(&shared);
        std::thread::spawn(move || {
            let (jobs, files, transfers, _) = clone.store().counts();
            assert_eq!((jobs, files, transfers), (0, 0, 0));
            assert!(clone.prepared().file_rows(42).is_empty());
        })
        .join()
        .unwrap();
        assert!(shared.prepared().task_pool(7).is_empty());
    }

    #[test]
    fn swap_bumps_generation_and_old_readers_keep_their_handle() {
        let swap = StoreSwap::new(String::from("gen-1"));
        let (first, g1) = swap.load();
        assert_eq!(g1, 1);
        assert_eq!(*first, "gen-1");

        let (displaced, g2) = swap.swap(String::from("gen-2"));
        assert_eq!(g2, 2);
        assert_eq!(*displaced, "gen-1");
        // The old handle is still alive and readable (in-flight reader).
        assert_eq!(*first, "gen-1");
        let (now, g) = swap.load();
        assert_eq!((now.as_str(), g), ("gen-2", 2));
    }

    #[test]
    fn old_generation_is_freed_when_the_last_reader_drops() {
        struct Tracked(Arc<AtomicUsize>);
        impl Drop for Tracked {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let swap = StoreSwap::new(Tracked(Arc::clone(&drops)));
        let (reader, _) = swap.load();
        let (displaced, _) = swap.swap(Tracked(Arc::clone(&drops)));
        drop(displaced);
        assert_eq!(drops.load(Ordering::SeqCst), 0, "reader still holds gen-1");
        drop(reader);
        assert_eq!(drops.load(Ordering::SeqCst), 1, "last handle frees gen-1");
    }

    #[test]
    fn concurrent_loads_and_swaps_never_tear() {
        let swap = Arc::new(StoreSwap::new(0u64));
        let stop = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let swap = Arc::clone(&swap);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                while stop.load(Ordering::Relaxed) == 0 {
                    let (v, g) = swap.load();
                    // The value was installed at generation v+1 (new(0) is
                    // gen 1); a torn read would break this relation.
                    assert!(g > *v, "value {v} visible before its swap");
                }
            }));
        }
        for i in 1..=200u64 {
            let (_, g) = swap.swap(i);
            assert_eq!(g, i + 1);
        }
        stop.store(1, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(swap.generation(), 201);
    }
}
