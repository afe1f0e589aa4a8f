//! Allocation volume of data generation.
//!
//! A secondary index is its column's row ids in value order, the values
//! staying in the column; a counting allocator pins that generating a
//! database requests at most 20 B a (row, column) cell, which an index of
//! 16 B `(value, row)` entries exceeds on its own with the column beside it.
//!
//! Generation runs its column streams and index builds on worker threads,
//! so the counter is process-wide, and this binary holds this one test so
//! that no other test's allocations land in it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use plan_bouquet::catalog::tpch;
use plan_bouquet::cost::Parallelism;
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
    let requested = |workers: usize| {
        let before = REQUESTED.load(Ordering::Relaxed);
        let db =
            Database::generate_with(&cat, 42, &[], Parallelism::new(workers)).expect("generate");
        let bytes = REQUESTED.load(Ordering::Relaxed) - before;
        drop(db);
        bytes
    };
    let serial = requested(1);
    for (workers, bytes) in [(1, serial), (4, requested(4))] {
        // Every column is indexed: 8 B of value and 4 B of row id a cell,
        // plus a dense index's transient counting-sort starts (at most two a
        // row) or a sparse one's stable-sort scratch (one row id a row).
        // Measured 13.5 B a cell. An index of `(value, row)` entries takes
        // 16 B a cell beside the 8 B value: 24.0 B measured.
        assert!(
            bytes <= 20 * cells,
            "generating {cells} cells on {workers} workers requested {bytes} B, {:.1} B a cell",
            bytes as f64 / cells as f64
        );
        // The workers make the same requests as one thread does, and the
        // counter sees them all: a per-thread counter would miss most.
        assert!(
            bytes * 10 >= serial * 9,
            "{workers} workers requested {bytes} B, one {serial} B"
        );
    }
}
