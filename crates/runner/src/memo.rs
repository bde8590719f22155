//! The bounded in-process memo behind the runner's compiled binaries.
//! (Captured traces are not memoized: the runner holds each only while
//! queued cells need it.)

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, OnceLock};

/// A bounded map of `Arc<OnceLock<V>>` cells. Callers hold the map's
/// lock only for [`Memo::cell`] and fill the cell outside it, so two
/// workers needing *different* keys derive concurrently while two
/// needing the *same* one derive once.
///
/// Inserting into a full memo evicts the least-recently-looked-up entry.
/// Holders of an evicted cell keep their `Arc`, and later lookups
/// re-derive, which results never see.
pub(crate) struct Memo<K, V> {
    cap: usize,
    /// Lookup counter; each entry remembers the count at its last lookup.
    clock: u64,
    entries: HashMap<K, (u64, Arc<OnceLock<V>>)>,
}

impl<K: Hash + Eq, V> Memo<K, V> {
    pub(crate) fn new(cap: usize) -> Memo<K, V> {
        assert!(cap >= 1, "a memo must hold at least one entry");
        Memo {
            cap,
            clock: 0,
            entries: HashMap::new(),
        }
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// The cell for `key`, created empty on first lookup, and whether
    /// making room for it evicted another entry.
    pub(crate) fn cell(&mut self, key: K) -> (Arc<OnceLock<V>>, bool) {
        self.clock += 1;
        let evicted = self.entries.len() >= self.cap && !self.entries.contains_key(&key);
        if evicted {
            // Lookup counts are unique, so this drops exactly one entry.
            let oldest = self.entries.values().map(|(used, _)| *used).min();
            self.entries.retain(|_, (used, _)| Some(*used) != oldest);
        }
        let (used, cell) = self.entries.entry(key).or_default();
        *used = self.clock;
        (Arc::clone(cell), evicted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overflow_evicts_the_least_recently_used_entry() {
        let mut memo: Memo<u32, u32> = Memo::new(2);
        memo.cell(1).0.get_or_init(|| 10);
        memo.cell(2).0.get_or_init(|| 20);
        // Touching 1 makes 2 the least recently used.
        assert_eq!(memo.cell(1).0.get(), Some(&10));
        let (three, evicted) = memo.cell(3);
        assert!(evicted);
        three.get_or_init(|| 30);
        assert_eq!(memo.len(), 2);
        assert_eq!(memo.cell(1).0.get(), Some(&10), "the touched entry stays");
        let (two, evicted) = memo.cell(2);
        assert!(evicted, "re-deriving 2 makes room again");
        assert!(two.get().is_none(), "the evicted entry starts empty");
    }

    #[test]
    fn hits_never_evict() {
        let mut memo: Memo<u32, ()> = Memo::new(1);
        assert!(!memo.cell(7).1);
        assert!(!memo.cell(7).1);
        assert_eq!(memo.len(), 1);
    }
}
