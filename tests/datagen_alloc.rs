//! Allocation volume of data generation.
//!
//! `Database::generate` records what each column is drawn from and builds
//! a column and its index on their first read. A counting allocator pins
//! that generating requests no per-row memory at all, and that reading
//! every column and index then requests at most 20 B a (row, column) cell:
//! a secondary index is its column's row ids in value order, the values
//! staying in the column, and an index of 16 B `(value, row)` entries
//! exceeds that on its own with the column beside it.
//!
//! The reads race on several threads, so the counter is process-wide, and
//! this binary holds this one test so that no other test's allocations
//! land in it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use plan_bouquet::catalog::tpch;
use plan_bouquet::engine::Database;

/// Bytes requested by every thread of the process.
static REQUESTED: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a plain atomic integer.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grown vector may be copied whole: count the new block.
        REQUESTED.fetch_add(new_size, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn data_generation_requests_at_most_20_bytes_a_cell() {
    let cat = tpch::catalog(0.01);
    let cells: usize = cat
        .tables()
        .map(|t| t.rows.round() as usize * t.columns.len())
        .sum();
    assert!(cat.tables().all(|t| t.indexes.len() == t.columns.len()));

    let before = REQUESTED.load(Ordering::Relaxed);
    let db = Database::generate(&cat, 42, &[]).expect("generate");
    let generated = REQUESTED.load(Ordering::Relaxed) - before;
    // The catalog's copy and one generation spec a table and a column.
    assert!(
        generated < 64 << 10,
        "generating {cells} cells requested {generated} B before any read"
    );

    let before = REQUESTED.load(Ordering::Relaxed);
    std::thread::scope(|s| {
        for k in 0..4 {
            let (db, cat) = (&db, &cat);
            s.spawn(move || {
                // Every thread reads every column and index, half of them
                // last column first: a column two threads reach at once is
                // still built once.
                for t in cat.tables() {
                    let td = db.table(t.id);
                    let mut columns: Vec<usize> = (0..t.columns.len()).collect();
                    if k % 2 == 1 {
                        columns.reverse();
                    }
                    for c in columns {
                        assert_eq!(td.column(c).len(), td.rows);
                        assert!(td.index(c).is_some());
                    }
                }
            });
        }
    });
    let bytes = REQUESTED.load(Ordering::Relaxed) - before;
    // Every column is indexed: 8 B of value and 4 B of row id a cell, plus
    // a dense index's transient counting-sort starts (at most two a row) or
    // a sparse one's stable-sort scratch (one row id a row). Replaying a
    // table's stream to a column keeps nothing. An index of `(value, row)`
    // entries takes 16 B a cell beside the 8 B value: 24.0 B measured.
    assert!(
        bytes <= 20 * cells,
        "reading {cells} cells requested {bytes} B, {:.1} B a cell",
        bytes as f64 / cells as f64
    );
}
