//! Flat row-major plans × grid-points cost matrix.
//!
//! The identification pipeline previously carried `Vec<Vec<f64>>` — one heap
//! allocation per plan row and a pointer indirection on every cell access.
//! [`CostMatrix`] stores the same data in a single contiguous buffer while
//! keeping the familiar `costs[plan][point]` indexing via `Index<usize>`.
//!
//! Serialization writes the nested `[[...], [...]]` JSON shape, so a
//! bouquet's JSON is byte-identical to the one written when the field was a
//! `Vec<Vec<f64>>`.

use serde::Value;

/// Plans × points cost matrix in one contiguous row-major buffer.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CostMatrix {
    points: usize,
    data: Vec<f64>,
}

impl CostMatrix {
    /// Build from one contiguous row-major buffer.
    pub fn from_flat(points: usize, data: Vec<f64>) -> Self {
        assert!(
            points > 0 && data.len().is_multiple_of(points),
            "flat buffer of {} cells is not a whole number of {points}-cell rows",
            data.len()
        );
        CostMatrix { points, data }
    }

    /// Build from nested rows (all rows must have equal length).
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Self {
        let points = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(rows.len() * points);
        for row in &rows {
            assert_eq!(row.len(), points, "ragged cost matrix rows");
            data.extend_from_slice(row);
        }
        CostMatrix { points, data }
    }

    /// Number of plan rows.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.points).unwrap_or(0)
    }

    /// Number of grid points per row.
    pub fn num_points(&self) -> usize {
        self.points
    }

    /// One plan's cost row.
    pub fn row(&self, plan: usize) -> &[f64] {
        &self.data[plan * self.points..(plan + 1) * self.points]
    }

    /// Iterate plan rows in order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[f64]> {
        self.data.chunks_exact(self.points.max(1))
    }

    /// The raw row-major buffer.
    pub fn as_flat(&self) -> &[f64] {
        &self.data
    }
}

impl std::ops::Index<usize> for CostMatrix {
    type Output = [f64];
    fn index(&self, plan: usize) -> &[f64] {
        self.row(plan)
    }
}

impl serde::Serialize for CostMatrix {
    fn to_value(&self) -> Value {
        Value::Arr(
            self.rows()
                .map(|r| Value::Arr(r.iter().map(serde::Serialize::to_value).collect()))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_matches_nested_layout() {
        let m = CostMatrix::from_rows(vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(m.len(), 2);
        assert_eq!(m.num_points(), 3);
        assert_eq!(m[0][1], 2.0);
        assert_eq!(m[1][2], 6.0);
        assert_eq!(m.rows().count(), 2);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn serializes_as_nested_arrays() {
        let m = CostMatrix::from_rows(vec![vec![1.5, 2.5], vec![3.5, 4.5]]);
        let json = serde_json::to_string(&m).unwrap();
        assert_eq!(json, "[[1.5,2.5],[3.5,4.5]]");
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        CostMatrix::from_rows(vec![vec![1.0], vec![2.0, 3.0]]);
    }
}
