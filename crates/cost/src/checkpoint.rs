//! The checkpoint book: one byte-capped LRU map that every resumable path
//! keeps its checkpoints in.
//!
//! The engine's subtree snapshots, the simulator's chain-subtree costs and
//! the server's retained per-request books are all [`CheckpointBook`]s.
//! The book prices each entry through [`Checkpoint::bytes`] when it is
//! inserted, keeps the total under a hard byte cap (`0` = unbounded) by
//! evicting least-recently-used entries, and stamps an entry as used only
//! when a lookup's validation accepts it — a checkpoint that fails its
//! check is never credited, so it ages out like one that was never read.
//! Eviction only ever costs re-execution: a missing checkpoint falls back
//! to restart semantics, never a wrong answer.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash};

/// A value a [`CheckpointBook`] can hold.
pub trait Checkpoint {
    /// Bytes this checkpoint charges against its book's cap.
    fn bytes(&self) -> usize;

    /// Chaos hook: damage the checkpoint so its owner's validation rejects
    /// it from now on.
    fn corrupt(&mut self);
}

#[derive(Debug, Clone)]
struct Entry<V> {
    value: V,
    /// Tick of the last insert or validated lookup.
    stamp: u64,
    /// Price charged at insert.
    bytes: usize,
}

/// A byte-capped LRU map of checkpoints, with hit and eviction counters.
#[derive(Debug, Clone)]
pub struct CheckpointBook<K, V> {
    entries: HashMap<K, Entry<V>, BuildHasherDefault<DefaultHasher>>,
    tick: u64,
    bytes: usize,
    /// Hard cap on `bytes`; `0` means unbounded.
    byte_cap: usize,
    hits: u64,
    evictions: u64,
}

impl<K, V> Default for CheckpointBook<K, V> {
    fn default() -> Self {
        CheckpointBook {
            entries: HashMap::default(),
            tick: 0,
            bytes: 0,
            byte_cap: 0,
            hits: 0,
            evictions: 0,
        }
    }
}

impl<K: Hash + Eq + Clone, V: Checkpoint> CheckpointBook<K, V> {
    /// An unbounded book.
    pub fn new() -> Self {
        Self::default()
    }

    /// A book whose retained checkpoints are bounded by `cap` bytes (`0` =
    /// unbounded).
    pub fn with_byte_cap(cap: usize) -> Self {
        CheckpointBook {
            byte_cap: cap,
            ..Self::default()
        }
    }

    /// Set or change the byte cap (`0` = unbounded); evicts immediately if
    /// the current contents exceed the new cap.
    pub fn set_byte_cap(&mut self, cap: usize) {
        self.byte_cap = cap;
        self.evict_over_cap();
    }

    /// Number of retained checkpoints.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bytes currently retained, as priced at insert.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Validated lookups served so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Checkpoints evicted to stay under the byte cap so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// The retained checkpoints, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, e)| (k, &e.value))
    }

    /// The checkpoint under `key` if `valid` accepts it, which counts a hit
    /// and marks the entry most recently used. A rejected entry is left
    /// exactly as it was.
    pub fn get_valid(&mut self, key: &K, valid: impl FnOnce(&V) -> bool) -> Option<&V> {
        let e = self.entries.get_mut(key)?;
        if !valid(&e.value) {
            return None;
        }
        self.hits += 1;
        self.tick += 1;
        e.stamp = self.tick;
        Some(&e.value)
    }

    /// Record one checkpoint as the most recently used, replacing any under
    /// the same key, then evict down to the cap. The cap is hard: even the
    /// new checkpoint goes if it alone exceeds it.
    pub fn insert(&mut self, key: K, value: V) {
        self.extend([(key, value)]);
    }

    /// Take the checkpoint under `key` out of the book (neither a hit nor
    /// an eviction).
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let e = self.entries.remove(key)?;
        self.bytes -= e.bytes;
        Some(e.value)
    }

    /// Chaos hook: corrupt every retained checkpoint, so later lookups fail
    /// validation and fall back to restart.
    pub fn corrupt_all(&mut self) {
        for e in self.entries.values_mut() {
            e.value.corrupt();
        }
    }

    fn evict_over_cap(&mut self) {
        if self.byte_cap == 0 {
            return;
        }
        while self.bytes > self.byte_cap {
            // Stamps are unique, so the victim does not depend on the map's
            // iteration order.
            let Some(lru) = (self.entries.iter())
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            self.remove(&lru);
            self.evictions += 1;
        }
    }
}

/// Record a batch of checkpoints — in order, each the most recently used so
/// far — and evict down to the cap once, after the last.
impl<K: Hash + Eq + Clone, V: Checkpoint> Extend<(K, V)> for CheckpointBook<K, V> {
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, items: I) {
        for (key, value) in items {
            let bytes = value.bytes();
            self.tick += 1;
            let entry = Entry {
                value,
                stamp: self.tick,
                bytes,
            };
            if let Some(old) = self.entries.insert(key, entry) {
                self.bytes -= old.bytes;
            }
            self.bytes += bytes;
        }
        self.evict_over_cap();
    }
}

/// A book of books: the server retains one book per cancelled request
/// inside another, each charged what it holds.
impl<K: Hash + Eq + Clone, V: Checkpoint> Checkpoint for CheckpointBook<K, V> {
    fn bytes(&self) -> usize {
        self.bytes
    }

    fn corrupt(&mut self) {
        self.corrupt_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A checkpoint of a chosen price that validates until corrupted.
    #[derive(Debug, Clone, PartialEq)]
    struct Probe {
        bytes: usize,
        intact: bool,
    }

    impl Checkpoint for Probe {
        fn bytes(&self) -> usize {
            self.bytes
        }
        fn corrupt(&mut self) {
            self.intact = false;
        }
    }

    /// The naive reference: entries least recently used first.
    #[derive(Default)]
    struct Model {
        lru: Vec<(u64, Probe)>,
        cap: usize,
        hits: u64,
        evictions: u64,
    }

    impl Model {
        fn bytes(&self) -> usize {
            self.lru.iter().map(|(_, p)| p.bytes).sum()
        }
        fn evict(&mut self) {
            while self.cap != 0 && self.bytes() > self.cap {
                self.lru.remove(0);
                self.evictions += 1;
            }
        }
        fn insert(&mut self, key: u64, p: Probe) {
            self.lru.retain(|(k, _)| *k != key);
            self.lru.push((key, p));
        }
        fn get_valid(&mut self, key: u64, accept: bool) -> Option<Probe> {
            let at = self.lru.iter().position(|(k, _)| *k == key)?;
            if !(accept && self.lru[at].1.intact) {
                return None;
            }
            self.hits += 1;
            let e = self.lru.remove(at);
            self.lru.push(e.clone());
            Some(e.1)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Random insert / batch insert / validated lookup / remove /
        /// corrupt / re-cap sequences keep the book and the naive model
        /// in lockstep: same keys, same eviction and hit counts, bytes
        /// within a nonzero cap, and a rejected lookup changes nothing.
        #[test]
        fn the_book_is_the_naive_lru(
            ops in proptest::collection::vec([0u64..1000, 0u64..1000, 0u64..1000], 1..120),
            cap in 0usize..400,
        ) {
            let mut book = CheckpointBook::with_byte_cap(cap);
            let mut model = Model { cap, ..Model::default() };
            for (step, [kind, a, b]) in ops.into_iter().enumerate() {
                let key = a % 12;
                let probe = |x: u64| Probe { bytes: (x % 97) as usize, intact: true };
                match kind % 7 {
                    0 | 1 => {
                        book.insert(key, probe(b));
                        model.insert(key, probe(b));
                        model.evict();
                    }
                    2 => {
                        let batch =
                            [(key, probe(b)), ((a / 12) % 12, probe(b / 7)), (b % 12, probe(a))];
                        book.extend(batch.clone());
                        for (k, p) in batch {
                            model.insert(k, p);
                        }
                        model.evict();
                    }
                    3 | 4 => {
                        let accept = b % 4 != 0;
                        let got = book.get_valid(&key, |p| accept && p.intact).cloned();
                        prop_assert_eq!(got, model.get_valid(key, accept), "lookup, step {}", step);
                    }
                    5 => {
                        if b % 3 == 0 {
                            book.corrupt_all();
                            model.lru.iter_mut().for_each(|(_, p)| p.intact = false);
                        } else {
                            let at = model.lru.iter().position(|&(k, _)| k == key);
                            let want = at.map(|at| model.lru.remove(at).1);
                            prop_assert_eq!(book.remove(&key), want, "remove, step {}", step);
                        }
                    }
                    _ => {
                        let cap = (b % 300) as usize;
                        book.set_byte_cap(cap);
                        model.cap = cap;
                        model.evict();
                    }
                }
                let mut keys: Vec<u64> = book.iter().map(|(&k, _)| k).collect();
                keys.sort_unstable();
                let mut want: Vec<u64> = model.lru.iter().map(|&(k, _)| k).collect();
                want.sort_unstable();
                prop_assert_eq!(keys, want, "retained keys, step {}", step);
                prop_assert_eq!(book.evictions(), model.evictions, "evictions, step {}", step);
                prop_assert_eq!(book.hits(), model.hits, "hits, step {}", step);
                prop_assert_eq!(book.bytes(), model.bytes(), "bytes, step {}", step);
                prop_assert!(model.cap == 0 || book.bytes() <= model.cap, "over cap, step {}", step);
            }
        }
    }

    /// Any nonzero cap is a cap: one below a single checkpoint's price keeps
    /// nothing.
    #[test]
    fn a_cap_below_one_checkpoint_keeps_nothing() {
        for cap in [1, 20, 47] {
            let mut book = CheckpointBook::with_byte_cap(cap);
            book.insert(
                0u64,
                Probe {
                    bytes: 48,
                    intact: true,
                },
            );
            assert!(book.is_empty(), "cap {cap}");
            assert_eq!((book.bytes(), book.evictions()), (0, 1), "cap {cap}");
        }
    }
}
