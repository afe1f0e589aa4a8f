//! A bouquet as canonical JSON text.
//!
//! Bouquets reach disk as cache frames ([`crate::cache`]): `pbq identify
//! --save`, `pbq run --load` and the content-addressed cache all read and
//! write that one format. This module keeps the JSON serialization that
//! byte-identity checks compare — serial vs parallel identification, a
//! cache hit vs a fresh build. It is write-only: nothing parses it back.

use pb_faults::PbError;

use crate::bouquet::Bouquet;

/// Serialize a bouquet to JSON.
pub fn to_json(bouquet: &Bouquet) -> Result<String, PbError> {
    serde_json::to_string(bouquet).map_err(|e| PbError::Internal(format!("serialize bouquet: {e}")))
}
