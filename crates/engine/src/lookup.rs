//! Equi-lookup structures: a key's rows are found by address, not by
//! search.
//!
//! * [`KeyRows`] — a hash join's build side. The build rows of the key in
//!   slot `s` are `rows[starts[s]..starts[s + 1]]`, in ascending order (a
//!   CSR layout: two flat vectors, no per-key allocation).
//! * [`Directory`] — the `starts` half, on its own: it also sits in front
//!   of a secondary index's sorted row ids, so an index-NL equality lookup
//!   is two loads instead of a binary search (`crate::data::Index`, laid
//!   out by [`sorted_rows`]).
//! * [`KeySet`] — an anti / semi join's build keys.
//!
//! A key's slot is `key − lo` when the keys' span is at most
//! [`DENSE_SPAN_PER_KEY`] times their count, and a hashed slot id
//! otherwise; the hashed path is the only one that runs on sparse domains.
//! The rule is a memory bound, not a tuning knob: a dense directory is one
//! `u32` per value of the span, so at two values per key it costs at most
//! 8 B a key — less than the hashed layout's own slot table (8–16 B a key)
//! plus its key copy (8 B) — and it never trades memory for speed. A join
//! builds its structure per execution, the same one at every worker count;
//! an index builds its directory once, on its first lookup.

use std::ops::Range;

use pb_cost::{par_map, run_chunked, Parallelism};

use crate::vec_exec::FastSet;

/// Dense slots are used while the span of the keys (`hi − lo + 1` values)
/// is at most this many values per key.
const DENSE_SPAN_PER_KEY: u64 = 2;

/// Slot ranges the parallel build of [`KeyRows`] sorts independently. Fixed,
/// so the ranges do not depend on the worker count (the result would not
/// either: each range is a contiguous piece of the one serial layout).
const BUILD_PARTS: usize = 64;

/// Smallest and largest of `keys`, `None` when there are none.
fn bounds(par: Parallelism, keys: &[i64]) -> Option<(i64, i64)> {
    run_chunked(par, keys.len(), |_, range| {
        let (&first, rest) = keys[range].split_first()?;
        Some(
            rest.iter()
                .fold((first, first), |(lo, hi), &v| (lo.min(v), hi.max(v))),
        )
    })
    .into_iter()
    .flatten()
    .reduce(|(lo, hi), (l, h)| (lo.min(l), hi.max(h)))
}

/// Whether `n` keys spanning `lo..=hi` get dense slots.
fn is_dense(lo: i64, hi: i64, n: usize) -> bool {
    hi.abs_diff(lo) < DENSE_SPAN_PER_KEY * n as u64
}

/// Where a key's positions are: `starts[s]..starts[s + 1]` for its slot `s`.
#[derive(Debug, Clone)]
pub(crate) struct Directory {
    slots: Slots,
    starts: Vec<u32>,
}

/// How a key finds its slot.
#[derive(Debug, Clone)]
enum Slots {
    /// Slot `key − lo`; a key outside the directory's span has none.
    Dense { lo: i64 },
    /// The key's index in the dictionary of distinct keys.
    Hashed(Dict),
}

impl Directory {
    fn empty() -> Directory {
        Directory {
            slots: Slots::Dense { lo: 0 },
            starts: vec![0],
        }
    }

    #[inline]
    fn slot(&self, v: i64) -> Option<usize> {
        match &self.slots {
            // Below `lo` the wrapped difference is at least 2⁶³ − lo, which
            // no span starting at `lo` reaches: one compare covers both ends.
            Slots::Dense { lo } => {
                let s = v.wrapping_sub(*lo) as u64;
                (s < (self.starts.len() - 1) as u64).then_some(s as usize)
            }
            Slots::Hashed(dict) => dict.find(v),
        }
    }

    /// The positions of key `v`; empty when it has none.
    #[inline]
    pub fn range(&self, v: i64) -> Range<usize> {
        self.slot(v).map_or(0..0, |s| self.slot_range(s))
    }

    /// The positions of the key in slot `s`.
    #[inline]
    fn slot_range(&self, s: usize) -> Range<usize> {
        self.starts[s] as usize..self.starts[s + 1] as usize
    }

    /// The dense directory of an index: `rows` are every row of `keys`,
    /// sorted by key. `None` when the domain is sparse: the index then stays
    /// binary searched.
    pub fn over_sorted(keys: &[i64], rows: &[u32]) -> Option<Directory> {
        let (&first, &last) = (rows.first()?, rows.last()?);
        let (lo, hi) = (keys[first as usize], keys[last as usize]);
        if !is_dense(lo, hi, rows.len()) {
            return None;
        }
        // A key's count does not depend on the order: read the column as
        // stored, not through the rows.
        let mut starts = vec![0u32; hi.abs_diff(lo) as usize + 2];
        for &v in keys {
            starts[v.abs_diff(lo) as usize + 1] += 1;
        }
        for s in 1..starts.len() {
            starts[s] += starts[s - 1];
        }
        Some(Directory {
            slots: Slots::Dense { lo },
            starts,
        })
    }
}

/// The distinct keys of a sparse domain: slot `s` holds `keys[s]`, found
/// through an open-addressed table of slot ids (linear probing, at most
/// half full, Fibonacci-hashed so strided keys spread). A one-hash bit
/// filter of 8–16 bits a key, set once every key is in, answers most
/// probes for absent keys — the bulk of a selective join's probes — from
/// one word.
#[derive(Debug, Clone)]
struct Dict {
    table: Vec<u32>,
    /// `64 − log2(table.len())`: the hash's top bits are the home position.
    shift: u32,
    keys: Vec<i64>,
    filter: Vec<u64>,
}

const NO_SLOT: u32 = u32::MAX;

#[inline]
fn fib(v: i64) -> u64 {
    (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl Dict {
    fn new() -> Dict {
        Dict {
            table: vec![NO_SLOT; 16],
            shift: 60,
            keys: Vec::new(),
            filter: Vec::new(),
        }
    }

    /// The table position holding `v`, or the free one it would take.
    #[inline]
    fn probe(&self, v: i64) -> usize {
        let mask = self.table.len() - 1;
        let mut p = (fib(v) >> self.shift) as usize;
        loop {
            let s = self.table[p];
            if s == NO_SLOT || self.keys[s as usize] == v {
                return p;
            }
            p = (p + 1) & mask;
        }
    }

    /// The filter bit of `v`: the filter has four bits a table position.
    #[inline]
    fn filter_bit(&self, v: i64) -> usize {
        (fib(v) >> (self.shift - 2)) as usize
    }

    #[inline]
    fn find(&self, v: i64) -> Option<usize> {
        let b = self.filter_bit(v);
        if self.filter[b / 64] >> (b % 64) & 1 == 0 {
            return None;
        }
        let s = self.table[self.probe(v)];
        (s != NO_SLOT).then_some(s as usize)
    }

    /// `v`'s slot, giving it the next one if it is new.
    fn insert(&mut self, v: i64) -> u32 {
        let p = self.probe(v);
        if self.table[p] != NO_SLOT {
            return self.table[p];
        }
        let s = self.keys.len() as u32;
        self.keys.push(v);
        self.table[p] = s;
        if 2 * self.keys.len() > self.table.len() {
            self.table = vec![NO_SLOT; 2 * self.table.len()];
            self.shift -= 1;
            for (s, &k) in self.keys.iter().enumerate() {
                let p = self.probe(k);
                self.table[p] = s as u32;
            }
        }
        s
    }

    /// Set the filter bits once every key is in.
    fn seal(&mut self) {
        self.filter = vec![0; self.table.len() / 16];
        for i in 0..self.keys.len() {
            let b = self.filter_bit(self.keys[i]);
            self.filter[b / 64] |= 1 << (b % 64);
        }
    }
}

/// A hash join's build side: every key's build rows, ascending.
pub(crate) struct KeyRows {
    dir: Directory,
    rows: Vec<u32>,
}

impl KeyRows {
    /// Group the rows of `keys` by key. Over a sparse domain the dictionary
    /// of distinct keys is built serially, first occurrence first; the
    /// grouping itself fans out over `par`.
    pub fn build(par: Parallelism, keys: &[i64]) -> KeyRows {
        let Some((lo, hi)) = bounds(par, keys) else {
            return KeyRows {
                dir: Directory::empty(),
                rows: Vec::new(),
            };
        };
        if is_dense(lo, hi, keys.len()) {
            let slots = hi.abs_diff(lo) as usize + 1;
            let (starts, rows) = group(par, slots, keys.len(), |r| keys[r].abs_diff(lo) as usize);
            let slots = Slots::Dense { lo };
            return KeyRows {
                dir: Directory { slots, starts },
                rows,
            };
        }
        let mut dict = Dict::new();
        let slot_of: Vec<u32> = keys.iter().map(|&v| dict.insert(v)).collect();
        dict.seal();
        let (starts, rows) = group(par, dict.keys.len(), keys.len(), |r| slot_of[r] as usize);
        KeyRows {
            dir: Directory {
                slots: Slots::Hashed(dict),
                starts,
            },
            rows,
        }
    }

    /// The slot of key `v`, `None` when no build row holds it.
    #[inline]
    pub fn slot(&self, v: i64) -> Option<usize> {
        self.dir.slot(v)
    }

    /// Where the build rows of the key in slot `s` sit in
    /// [`KeyRows::rows`], ascending.
    #[inline]
    pub fn slot_span(&self, s: usize) -> Range<usize> {
        self.dir.slot_range(s)
    }

    /// Every build row, grouped by key.
    pub fn rows(&self) -> &[u32] {
        &self.rows
    }

    #[cfg(test)]
    fn get(&self, v: i64) -> &[u32] {
        &self.rows[self.dir.range(v)]
    }
}

/// Rows `0..n` grouped by `slot` (below `slots`): the CSR `(starts, rows)`
/// of [`KeyRows`]. In parallel, each chunk of rows is first scattered into
/// [`BUILD_PARTS`] slot ranges (ascending within each), then every range is
/// grouped on its own, and the pieces are concatenated in range order —
/// the serial layout, piece by piece.
fn group(
    par: Parallelism,
    slots: usize,
    n: usize,
    slot: impl Fn(usize) -> usize + Sync,
) -> (Vec<u32>, Vec<u32>) {
    if par.workers <= 1 {
        return counting_sort(slots, 0..n as u32, |r| slot(r as usize));
    }
    let width = slots.div_ceil(BUILD_PARTS);
    let parts = slots.div_ceil(width);
    let scattered = run_chunked(par, n, |_, range| {
        let mut by_part = vec![Vec::new(); parts];
        for r in range {
            by_part[slot(r) / width].push(r as u32);
        }
        by_part
    });
    let pieces = par_map(par, parts, |p| {
        let base = p * width;
        let rows = scattered.iter().flat_map(|chunk| chunk[p].iter().copied());
        counting_sort(width.min(slots - base), rows, |r| slot(r as usize) - base)
    });
    let mut starts = Vec::with_capacity(slots + 1);
    let mut rows = Vec::with_capacity(n);
    for (piece_starts, piece_rows) in pieces {
        let offset = rows.len() as u32;
        let piece_slots = &piece_starts[..piece_starts.len() - 1];
        starts.extend(piece_slots.iter().map(|&s| s + offset));
        rows.extend(piece_rows);
    }
    starts.push(n as u32);
    (starts, rows)
}

/// Counting sort of ascending `rows` by `slot` into `slots` slots.
fn counting_sort<I>(slots: usize, rows: I, slot: impl Fn(u32) -> usize) -> (Vec<u32>, Vec<u32>)
where
    I: DoubleEndedIterator<Item = u32> + Clone,
{
    let mut starts = vec![0u32; slots + 1];
    for r in rows.clone() {
        starts[slot(r)] += 1;
    }
    let mut end = 0u32;
    for s in &mut starts {
        end += *s;
        *s = end;
    }
    // `starts[s]` is now where slot `s` ends. Filling back to front lays each
    // slot's rows out ascending and leaves `starts[s]` at its first one.
    let mut out = vec![0u32; end as usize];
    for r in rows.rev() {
        let s = slot(r);
        starts[s] -= 1;
        out[starts[s] as usize] = r;
    }
    (starts, out)
}

/// The rows of `keys` ordered by (key, row): a secondary index's layout.
/// Over a dense domain they are counted into place and the slot starts are
/// dropped (an index builds its directory on its first lookup, if ever);
/// over a sparse one the row ids are stably sorted by key.
pub(crate) fn sorted_rows(keys: &[i64]) -> Vec<u32> {
    match bounds(Parallelism::serial(), keys) {
        Some((lo, hi)) if is_dense(lo, hi, keys.len()) => {
            let slots = hi.abs_diff(lo) as usize + 1;
            let rows = 0..keys.len() as u32;
            counting_sort(slots, rows, |r| keys[r as usize].abs_diff(lo) as usize).1
        }
        _ => {
            let mut out: Vec<u32> = (0..keys.len() as u32).collect();
            out.sort_by_key(|&r| keys[r as usize]);
            out
        }
    }
}

/// An anti / semi join's build keys: a bitmap over a dense domain, a hash
/// set over a sparse one.
pub(crate) enum KeySet {
    Dense { lo: i64, bits: Vec<u64> },
    Sparse(FastSet<i64>),
}

impl KeySet {
    pub fn build(par: Parallelism, keys: &[i64]) -> KeySet {
        match bounds(par, keys) {
            Some((lo, hi)) if is_dense(lo, hi, keys.len()) => {
                let mut bits = vec![0u64; (hi.abs_diff(lo) / 64 + 1) as usize];
                for &v in keys {
                    let s = v.abs_diff(lo);
                    bits[(s / 64) as usize] |= 1 << (s % 64);
                }
                KeySet::Dense { lo, bits }
            }
            _ => {
                // Only membership is ever observed, so the chunk sets'
                // union order is irrelevant. The union grows the first
                // chunk's set: at one worker that is the whole set.
                let mut chunks = run_chunked(par, keys.len(), |_, range| {
                    keys[range].iter().copied().collect::<FastSet<i64>>()
                })
                .into_iter();
                let mut set = chunks.next().unwrap_or_default();
                for chunk in chunks {
                    set.extend(chunk);
                }
                KeySet::Sparse(set)
            }
        }
    }

    #[inline]
    pub fn contains(&self, v: i64) -> bool {
        match self {
            // As `Directory::slot`: below `lo` the wrapped difference lands
            // past every word (or on padding bits, which are clear).
            KeySet::Dense { lo, bits } => {
                let s = v.wrapping_sub(*lo) as u64;
                bits.get((s / 64) as usize)
                    .is_some_and(|w| w >> (s % 64) & 1 == 1)
            }
            KeySet::Sparse(set) => set.contains(&v),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;

    /// Key columns of every shape the layouts must handle: dense, strided
    /// sparse, negative, all equal, empty, and the `i64` extremes.
    pub(crate) fn column(shape: usize, n: usize, seed: u64) -> Vec<i64> {
        let mut z = seed;
        let mut next = move || {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        };
        let span = (n as u64).max(1);
        (0..n)
            .map(|_| {
                let r = next();
                match shape {
                    0 => (r % span) as i64 + 1000,
                    1 => (r % span) as i64 * 1024,
                    2 => -((r % (span / 3 + 1)) as i64) - 5,
                    3 => 42,
                    4 => [i64::MIN, i64::MAX, 0, -1, i64::MIN + 1][(r % 5) as usize],
                    5 => i64::MAX - (r % 3) as i64,
                    _ => i64::MIN + (r % 3) as i64,
                }
            })
            .collect()
    }

    fn model(keys: &[i64]) -> BTreeMap<i64, Vec<u32>> {
        let mut m: BTreeMap<i64, Vec<u32>> = BTreeMap::new();
        for (r, &v) in keys.iter().enumerate() {
            m.entry(v).or_default().push(r as u32);
        }
        m
    }

    /// Keys present, their neighbours, and the extremes.
    pub(crate) fn probes(keys: &[i64]) -> Vec<i64> {
        let mut p: Vec<i64> = keys
            .iter()
            .flat_map(|&v| [v, v.wrapping_add(1), v.wrapping_sub(1), v.wrapping_mul(3)])
            .collect();
        p.extend([i64::MIN, i64::MAX, 0, -1, 1, 1000, 999]);
        p
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// `KeyRows::get` and `KeySet::contains` answer what a `BTreeMap`
        /// of row lists does, for every key shape, over both layouts, built
        /// serially and at 2, 4 and 8 workers.
        #[test]
        fn lookups_match_a_btreemap_model(shape in 0usize..7, n in 0usize..3000, seed in 0u64..1000) {
            let keys = column(shape, n, seed);
            let m = model(&keys);
            for workers in [1, 2, 4, 8] {
                let par = Parallelism::new(workers);
                let table = KeyRows::build(par, &keys);
                let set = KeySet::build(par, &keys);
                for v in probes(&keys) {
                    let want = m.get(&v).map_or(&[][..], Vec::as_slice);
                    prop_assert_eq!(table.get(v), want, "key {} workers {}", v, workers);
                    prop_assert_eq!(set.contains(v), !want.is_empty(), "key {} workers {}", v, workers);
                }
            }
        }
    }

    #[test]
    fn both_layouts_are_exercised() {
        let dense = KeyRows::build(Parallelism::serial(), &column(0, 500, 1));
        let sparse = KeyRows::build(Parallelism::serial(), &column(1, 500, 1));
        assert!(matches!(dense.dir.slots, Slots::Dense { .. }));
        assert!(matches!(sparse.dir.slots, Slots::Hashed(_)));
        let extremes = KeySet::build(Parallelism::serial(), &column(4, 50, 1));
        assert!(matches!(extremes, KeySet::Sparse(_)));
        assert!(matches!(
            KeySet::build(Parallelism::serial(), &column(2, 50, 1)),
            KeySet::Dense { .. }
        ));
        for w in [1, 2, 8] {
            let par = Parallelism::new(w);
            assert!(KeyRows::build(par, &[]).get(0).is_empty());
            assert!(!KeySet::build(par, &[]).contains(0));
        }
    }

    #[test]
    fn parallel_build_is_the_serial_layout() {
        for shape in [0, 1, 3] {
            let keys = column(shape, 20_000, 7);
            let serial = KeyRows::build(Parallelism::serial(), &keys);
            for w in [2, 4, 8] {
                let par = KeyRows::build(Parallelism::new(w), &keys);
                assert_eq!(
                    serial.dir.starts, par.dir.starts,
                    "shape {shape} workers {w}"
                );
                assert_eq!(serial.rows, par.rows, "shape {shape} workers {w}");
            }
        }
    }

    #[test]
    fn an_index_directory_addresses_its_entries() {
        let keys = column(0, 4000, 3);
        let rows = sorted_rows(&keys);
        let dir = Directory::over_sorted(&keys, &rows).expect("dense domain");
        for v in probes(&keys) {
            let lo = rows.partition_point(|&r| keys[r as usize] < v);
            let hi = rows.partition_point(|&r| keys[r as usize] <= v);
            assert_eq!(&rows[dir.range(v)], &rows[lo..hi], "key {v}");
        }
        let strided: Vec<i64> = (0..100).map(|i| i * 1024).collect();
        assert!(Directory::over_sorted(&strided, &sorted_rows(&strided)).is_none());
        assert!(Directory::over_sorted(&[], &[]).is_none());
    }
}
