//! Schema metadata: catalogs, tables, columns, indexes.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::stats::ColumnStats;
use crate::PAGE_SIZE;

/// Identifier of a table inside a [`Catalog`]. Stable across catalog rebuilds
/// with the same schema (assigned in registration order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TableId(pub u32);

/// Identifier of a column inside a [`Table`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ColumnId {
    pub table: TableId,
    pub column: u32,
}

/// Secondary-index metadata. The paper's "hard-nut" physical design places an
/// index on every column that appears in a query, which maximises the cost
/// gradient C_max/C_min across the selectivity space (Section 6).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct IndexInfo {
    pub column: ColumnId,
    /// Whether the heap is clustered on this index (cheap range scans).
    pub clustered: bool,
    /// B-tree height estimate used by the cost model for lookup costs.
    pub height: u32,
}

/// Column metadata plus optimizer statistics.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Column {
    pub name: String,
    pub id: ColumnId,
    pub stats: ColumnStats,
    /// Width in bytes, used for page-count and hash/sort memory estimates.
    pub width: u32,
}

/// Table metadata: cardinality, physical layout, columns, indexes.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Table {
    pub name: String,
    pub id: TableId,
    /// Row count as f64 — the simulator works in continuous cardinalities.
    pub rows: f64,
    /// Total tuple width in bytes.
    pub row_width: u32,
    pub columns: Vec<Column>,
    pub indexes: Vec<IndexInfo>,
}

impl Table {
    /// Heap pages occupied by this table.
    pub fn pages(&self) -> f64 {
        (self.rows * self.row_width as f64 / PAGE_SIZE).max(1.0)
    }

    /// Look up a column by name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.columns.iter().find(|c| c.name == name)
    }

    /// Whether `column` has a secondary index.
    pub fn index_on(&self, column: ColumnId) -> Option<&IndexInfo> {
        self.indexes.iter().find(|ix| ix.column == column)
    }
}

/// A catalog of tables; the simulator's `pg_catalog`.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct Catalog {
    tables: Vec<Table>,
    by_name: BTreeMap<String, TableId>,
    /// Human-readable catalog name (e.g. "tpch-sf1").
    pub name: String,
}

impl Catalog {
    pub fn new(name: impl Into<String>) -> Self {
        Catalog {
            tables: Vec::new(),
            by_name: BTreeMap::new(),
            name: name.into(),
        }
    }

    /// Register a table built by `build` against the id this catalog assigns.
    pub fn add_table(
        &mut self,
        name: &str,
        rows: f64,
        columns: Vec<(&str, ColumnStats, u32)>,
    ) -> TableId {
        let id = TableId(self.tables.len() as u32);
        let cols: Vec<Column> = columns
            .into_iter()
            .enumerate()
            .map(|(i, (cname, stats, width))| Column {
                name: cname.to_string(),
                id: ColumnId {
                    table: id,
                    column: i as u32,
                },
                stats,
                width,
            })
            .collect();
        let row_width = cols.iter().map(|c| c.width).sum::<u32>().max(8);
        self.tables.push(Table {
            name: name.to_string(),
            id,
            rows,
            row_width,
            columns: cols,
            indexes: Vec::new(),
        });
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Index every column of every table — the "hard-nut" configuration.
    pub fn index_everything(&mut self) {
        for t in &mut self.tables {
            let height = (t.rows.max(2.0).log2() / 8.0).ceil().max(1.0) as u32;
            t.indexes = t
                .columns
                .iter()
                .map(|c| IndexInfo {
                    column: c.id,
                    clustered: false,
                    height,
                })
                .collect();
        }
    }

    pub fn table(&self, name: &str) -> Option<&Table> {
        self.by_name.get(name).map(|id| &self.tables[id.0 as usize])
    }

    /// Mutable access to a column's statistics — used by experiments to
    /// simulate *stale* statistics (e.g. NDVs left over from a larger or
    /// differently-distributed database), one of the classical sources of
    /// selectivity estimation error the paper motivates with.
    pub fn column_stats_mut(&mut self, table: &str, column: &str) -> &mut ColumnStats {
        let tid = self.by_name[table];
        let t = &mut self.tables[tid.0 as usize];
        &mut t
            .columns
            .iter_mut()
            .find(|c| c.name == column)
            .unwrap_or_else(|| panic!("no column {table}.{column}"))
            .stats
    }

    pub fn table_by_id(&self, id: TableId) -> &Table {
        &self.tables[id.0 as usize]
    }

    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.iter()
    }

    pub fn len(&self) -> usize {
        self.tables.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini() -> Catalog {
        let mut c = Catalog::new("mini");
        c.add_table(
            "t",
            1000.0,
            vec![
                ("a", ColumnStats::uniform(100.0, 0.0, 99.0), 8),
                ("b", ColumnStats::uniform(10.0, 0.0, 9.0), 8),
            ],
        );
        c
    }

    #[test]
    fn add_and_lookup() {
        let c = mini();
        let t = c.table("t").unwrap();
        assert_eq!(t.rows, 1000.0);
        assert_eq!(t.columns.len(), 2);
        assert!(t.column("a").is_some());
        assert!(t.column("zz").is_none());
        assert!(c.table("nope").is_none());
    }

    #[test]
    fn pages_is_at_least_one() {
        let c = mini();
        assert!(c.table("t").unwrap().pages() >= 1.0);
    }

    #[test]
    fn index_everything_covers_all_columns() {
        let mut c = mini();
        c.index_everything();
        let t = c.table("t").unwrap();
        assert_eq!(t.indexes.len(), t.columns.len());
        for col in &t.columns {
            assert!(t.index_on(col.id).is_some());
        }
    }
}
