//! Content-addressed on-disk bouquet store — identification amortized.
//!
//! Identification is the expensive half of the bouquet technique: an
//! exhaustive optimizer sweep over the ESS grid plus recosting and contour
//! reduction. For the form-based "canned query" deployments the paper
//! targets (Section 4.2), the same query template is identified again and
//! again — across sessions, processes, and machines. This module keys
//! compiled bouquets by *content*, so identification runs at most once per
//! distinct (query, statistics, resolution, cost model) combination:
//!
//! * **Skeleton key** — a stable fingerprint of the query spec, the ESS
//!   (dimensions and resolution), and the bouquet config (λ, r). Two
//!   workloads share a skeleton iff their bouquets have the same
//!   shape-determining inputs.
//! * **Statistics key** — a fingerprint of the catalog and cost-model
//!   parameters. Statistics drift changes this key but not the skeleton.
//!
//! A lookup hits when both keys match: the stored arrays are grafted under
//! the caller's workload and the result is bit-identical to a fresh
//! identification (property-tested). When only the statistics key differs, a
//! stale sibling entry (same skeleton) is **refreshed**: the bouquet is
//! identified cold under the new statistics — no reuse of the stale winners
//! is as fast as the sweep itself — and replaces the stale entry, which is
//! read once more only to report how many grid points changed winner.
//!
//! Entries are binary: a small JSON header for the tree-shaped pieces
//! (plans, grading, contours, config, stats) and raw little-endian arrays
//! for the grid-sized ones (optimal plan ids, PIC, the bouquet plans' cost
//! rows), framed by a magic/version header and an FNV-1a checksum. An entry
//! holds what a run reads — one cost row per *bouquet* plan, not per POSP
//! plan — so the largest registry frame is a few megabytes and a hit is a
//! read, a checksum and a copy. Writes go through a temp file of their own +
//! rename, so neither a crashed writer nor a concurrent one leaves a
//! half-entry under a live key; any mismatch — magic, version, key,
//! checksum, shape — evicts the entry and rebuilds rather than trusting it.
//!
//! A frame is also the one on-disk artefact outside the cache:
//! [`save_frame`] writes a bouquet under its own key (`pbq identify --save`)
//! and [`load_frame`] reads it back only as the bouquet of the caller's
//! workload and config (`pbq run --load`). A frame of another workload, of
//! drifted statistics or of another config fails the key check; a damaged
//! one fails the checksum, the counts or [`validate_structure`] — every
//! refusal a typed [`PbError::Corrupt`].

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use pb_cost::{CostMatrix, Parallelism};
use pb_faults::PbError;
use pb_optimizer::PlanDiagram;
use pb_plan::{PhysicalPlan, PlanNode, QuerySpec};

use crate::bouquet::{validate_config, Bouquet, BouquetConfig, CompileStats};
use crate::contour::{plan_union, Contour};
use crate::grading::IsoCostGrading;
use crate::workload::Workload;

const MAGIC: [u8; 4] = *b"PBQC";
/// Bump on any layout change: mismatched versions are evicted, not parsed.
/// v2: typed ESS dimensions — `EssDim` gained a `kind` and `JoinPredicate`
/// gained `semi`/`op` fields, which change the canonical-JSON skeleton key,
/// so v1 entries must be evicted rather than misread.
/// v3: the cost array holds one row per bouquet plan (the header gains the
/// row count), not one per POSP plan.
/// v4: the bouquet config no longer carries the model-error perturbation
/// (identification never read it; it is set on the simulator substrate),
/// so the canonical-JSON skeleton key and the stored config change.
const FORMAT_VERSION: u32 = 4;

/// Distinguishes the temp files of one process's concurrent stores.
static STORE_SEQ: AtomicU64 = AtomicU64::new(0);

/// FNV-1a, 64-bit: stable across platforms and toolchains (unlike
/// `DefaultHasher`), cheap, and good enough for content addressing where
/// the payload is also checksummed.
fn fnv1a(chunks: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in chunks {
        for &b in *chunk {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Entry checksum: FNV-1a folding eight bytes per step instead of one.
/// Byte-serial FNV costs ~180µs on a 120 KB entry — most of the warm-load
/// budget — while this word-wise variant detects the same corruption
/// classes (bit flips, truncation, splices) at ~1/8th the cost. Stable
/// across platforms: the tail is zero-padded, and the length is folded in
/// so zero-padding is not confusable with trailing zero bytes.
fn checksum64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let mut b = [0u8; 8];
        b.copy_from_slice(w);
        h ^= u64::from_le_bytes(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let rem = words.remainder();
    let mut b = [0u8; 8];
    b[..rem.len()].copy_from_slice(rem);
    h ^= u64::from_le_bytes(b);
    h = h.wrapping_mul(0x0000_0100_0000_01b3);
    h ^= bytes.len() as u64;
    h.wrapping_mul(0x0000_0100_0000_01b3)
}

/// The two-part content address of a cached bouquet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Fingerprint of (query spec, ESS, bouquet config) — everything that
    /// shapes the bouquet *except* the statistics.
    pub skeleton: u64,
    /// Fingerprint of (catalog, cost-model parameters) — the statistics
    /// version. Drift changes this part only.
    pub stats: u64,
}

impl CacheKey {
    /// Derive the key for a workload + config. Serialization is the same
    /// canonical JSON the persistence layer uses, so the key is stable
    /// across processes and machines.
    pub fn derive(w: &Workload, cfg: &BouquetConfig) -> Result<CacheKey, PbError> {
        let enc = |label: &'static str, json: serde_json::Result<String>| {
            json.map_err(|e| PbError::Internal(format!("cache key: serialize {label}: {e}")))
        };
        let query = enc("query", serde_json::to_string(&w.query))?;
        let ess = enc("ess", serde_json::to_string(&w.ess))?;
        let config = enc("config", serde_json::to_string(cfg))?;
        let catalog = enc("catalog", serde_json::to_string(&w.catalog))?;
        let model = enc("model", serde_json::to_string(&w.model))?;
        // The 0xFF separator cannot occur in JSON text, so field boundaries
        // are unambiguous.
        Ok(CacheKey {
            skeleton: fnv1a(&[
                query.as_bytes(),
                &[0xFF],
                ess.as_bytes(),
                &[0xFF],
                config.as_bytes(),
            ]),
            stats: fnv1a(&[catalog.as_bytes(), &[0xFF], model.as_bytes()]),
        })
    }

    /// Entry file name: `pb-{skeleton}-{stats}.pbq`. The skeleton comes
    /// first so stale siblings (same skeleton, drifted statistics) are
    /// discoverable by prefix scan.
    pub fn file_name(&self) -> String {
        format!("pb-{:016x}-{:016x}.pbq", self.skeleton, self.stats)
    }

    fn prefix(&self) -> String {
        format!("pb-{:016x}-", self.skeleton)
    }
}

/// How a [`BouquetCache::get_or_identify`] call was served.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheOutcome {
    /// Entry found and valid: identification skipped entirely.
    Hit {
        /// Wall-clock seconds the original (stored) identification took —
        /// what the hit saved.
        cold_build_s: f64,
        /// Wall-clock seconds loading + validating the entry took.
        load_s: f64,
    },
    /// No usable entry: identified from scratch and stored.
    Miss {
        /// Wall-clock seconds the identification took.
        build_s: f64,
    },
    /// Statistics drift: identified from scratch and stored in place of a
    /// same-skeleton stale entry.
    Refreshed {
        /// Wall-clock seconds the identification took.
        build_s: f64,
        /// How far the drift moved the diagram.
        incremental: IncrementalIdentifyStats,
    },
}

/// What a refresh found changed against the stale entry it replaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct IncrementalIdentifyStats {
    pub diagram: IncrementalDiagramStats,
}

/// A grid point "changed" when its optimal plan's fingerprint under the new
/// statistics differs from the stale winner's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct IncrementalDiagramStats {
    pub points_total: usize,
    pub points_changed: usize,
}

/// Count the grid points whose winner differs between a stale diagram and
/// the one that replaces it on the same grid; `None` if the stale one names
/// a plan it does not hold.
fn winners_changed(stale: &PlanDiagram, new: &PlanDiagram) -> Option<IncrementalDiagramStats> {
    let mut points_changed = 0;
    for (&was, &now) in stale.optimal.iter().zip(&new.optimal) {
        let was = stale.plans.get(was as usize)?.fingerprint();
        points_changed += usize::from(was != new.plans[now as usize].fingerprint());
    }
    Some(IncrementalDiagramStats {
        points_total: new.optimal.len(),
        points_changed,
    })
}

/// The tree-shaped (small) part of an entry, stored as JSON inside the
/// binary frame. Grid-sized arrays live outside as raw little-endian bytes.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct MetaDoc {
    plans: Vec<PhysicalPlan>,
    grading: IsoCostGrading,
    contours: Vec<Contour>,
    config: BouquetConfig,
    stats: CompileStats,
}

/// A directory of content-addressed bouquet entries.
#[derive(Debug, Clone)]
pub struct BouquetCache {
    dir: PathBuf,
}

impl BouquetCache {
    /// Open (creating if needed) a cache rooted at `dir`.
    pub fn new(dir: impl AsRef<Path>) -> Result<BouquetCache, PbError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(|e| PbError::Io {
            path: dir.display().to_string(),
            message: format!("create cache dir: {e}"),
        })?;
        Ok(BouquetCache { dir })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Full path of the entry for `key`.
    pub fn entry_path(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(key.file_name())
    }

    /// Serve a bouquet for `(w, cfg)`: from cache when the entry is valid,
    /// from scratch otherwise — replacing the stale sibling when only the
    /// statistics drifted. Either way the result is stored, so the next
    /// call with the same inputs is a hit. Invalid entries (corruption,
    /// truncation, version or key mismatch) are evicted, never trusted.
    pub fn get_or_identify(
        &self,
        w: &Workload,
        cfg: &BouquetConfig,
        par: Parallelism,
    ) -> Result<(Bouquet, CacheOutcome), PbError> {
        let key = CacheKey::derive(w, cfg)?;
        let path = self.entry_path(&key);
        if path.exists() {
            let t0 = Instant::now();
            match read_entry(&path, &key, true, w, cfg) {
                Ok((bouquet, cold_build_s)) => {
                    return Ok((
                        bouquet,
                        CacheOutcome::Hit {
                            cold_build_s,
                            load_s: t0.elapsed().as_secs_f64(),
                        },
                    ));
                }
                Err(_) => {
                    // Untrustworthy entry under a live key: evict. A failed
                    // remove is not fatal — the rebuild below overwrites it.
                    let _ = std::fs::remove_file(&path);
                }
            }
        }

        // Statistics drift: any sibling with our skeleton but a different
        // statistics key is a stale edition of this bouquet. The build does
        // not use it; its winners only say how far the drift moved them.
        let stale_path = self.find_stale(&key)?;
        let stale = stale_path
            .as_ref()
            .and_then(|path| read_entry(path, &key, false, w, cfg).ok())
            .map(|(stale, _)| stale.diagram);

        let t0 = Instant::now();
        let (bouquet, _) = Bouquet::identify_timed(w, cfg, par)?;
        let build_s = t0.elapsed().as_secs_f64();
        self.store(&key, &bouquet, build_s)?;
        if let Some(path) = stale_path {
            let _ = std::fs::remove_file(path);
        }
        // A stale entry that cannot be read or compared was just a miss.
        let outcome = match stale.and_then(|stale| winners_changed(&stale, &bouquet.diagram)) {
            Some(diagram) => CacheOutcome::Refreshed {
                build_s,
                incremental: IncrementalIdentifyStats { diagram },
            },
            None => CacheOutcome::Miss { build_s },
        };
        Ok((bouquet, outcome))
    }

    /// The lexicographically greatest same-skeleton entry with a different
    /// statistics key, if any (greatest-name choice makes the scan
    /// deterministic when multiple stale editions linger).
    fn find_stale(&self, key: &CacheKey) -> Result<Option<PathBuf>, PbError> {
        let prefix = key.prefix();
        let own = key.file_name();
        let entries = std::fs::read_dir(&self.dir).map_err(|e| PbError::Io {
            path: self.dir.display().to_string(),
            message: format!("scan cache dir: {e}"),
        })?;
        let mut best: Option<String> = None;
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with(&prefix) && name.ends_with(".pbq") && name != own {
                match &best {
                    Some(b) if *b >= name => {}
                    _ => best = Some(name),
                }
            }
        }
        Ok(best.map(|name| self.dir.join(name)))
    }

    /// Write `bouquet` as the entry for `key` (atomic: temp file + rename).
    /// The temp name is unique per call — process id and a per-process
    /// sequence number — so two writers of one skeleton, in one process or
    /// in two, never share a temp file.
    fn store(&self, key: &CacheKey, bouquet: &Bouquet, cold_build_s: f64) -> Result<(), PbError> {
        let path = self.entry_path(key);
        let bytes = encode_entry(key, bouquet, cold_build_s)?;
        let tmp = self.dir.join(format!(
            ".tmp-{:016x}-{}-{}",
            key.skeleton,
            std::process::id(),
            STORE_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let io_err = |p: &Path| {
            let path = p.display().to_string();
            move |e: std::io::Error| PbError::Io {
                path: path.clone(),
                message: e.to_string(),
            }
        };
        std::fs::write(&tmp, &bytes).map_err(io_err(&tmp))?;
        std::fs::rename(&tmp, &path).map_err(io_err(&path))?;
        Ok(())
    }
}

/// Write `bouquet` to `path` as a frame keyed by its own workload and config
/// (the `pbq identify --save` artefact; the cache's entry layout).
pub fn save_frame(bouquet: &Bouquet, path: impl AsRef<Path>) -> Result<(), PbError> {
    let key = CacheKey::derive(&bouquet.workload, &bouquet.config)?;
    let bytes = encode_entry(&key, bouquet, 0.0)?;
    std::fs::write(path.as_ref(), bytes).map_err(|e| PbError::Io {
        path: path.as_ref().display().to_string(),
        message: e.to_string(),
    })
}

/// Read the frame at `path` as the bouquet of `w` under `cfg`. A frame saved
/// for another workload, other statistics or another config is refused by
/// its key, and a damaged one by the checks a cache hit runs — either way a
/// [`PbError::Corrupt`] naming `path`.
pub fn load_frame(
    path: impl AsRef<Path>,
    w: &Workload,
    cfg: &BouquetConfig,
) -> Result<Bouquet, PbError> {
    let key = CacheKey::derive(w, cfg)?;
    read_entry(path.as_ref(), &key, true, w, cfg).map(|(bouquet, _)| bouquet)
}

/// Binary layout (all integers/floats little-endian):
///
/// ```text
/// magic "PBQC" | version u32 | skeleton u64 | stats u64 | cold_build_s f64
/// | n_points u64 | n_plans u64 | n_rows u64 | meta_len u64
/// | meta JSON (MetaDoc)
/// | optimal  n_points × u32
/// | opt_cost n_points × f64
/// | costs    n_rows × n_points × f64   (row k: bouquet plan k, ascending id)
/// | checksum u64  (FNV-1a over everything before it)
/// ```
fn encode_entry(key: &CacheKey, bouquet: &Bouquet, cold_build_s: f64) -> Result<Vec<u8>, PbError> {
    let meta = MetaDoc {
        plans: bouquet.diagram.plans.clone(),
        grading: bouquet.grading.clone(),
        contours: bouquet.contours.clone(),
        config: bouquet.config.clone(),
        stats: bouquet.stats.clone(),
    };
    let meta_json = serde_json::to_string(&meta)
        .map_err(|e| PbError::Internal(format!("cache entry: serialize meta: {e}")))?;
    let n = bouquet.diagram.optimal.len();
    let n_plans = bouquet.diagram.plans.len();
    let mut out = Vec::with_capacity(
        64 + meta_json.len() + n * 4 + n * 8 + bouquet.costs.as_flat().len() * 8,
    );
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&key.skeleton.to_le_bytes());
    out.extend_from_slice(&key.stats.to_le_bytes());
    out.extend_from_slice(&cold_build_s.to_le_bytes());
    out.extend_from_slice(&(n as u64).to_le_bytes());
    out.extend_from_slice(&(n_plans as u64).to_le_bytes());
    out.extend_from_slice(&(bouquet.costs.len() as u64).to_le_bytes());
    out.extend_from_slice(&(meta_json.len() as u64).to_le_bytes());
    out.extend_from_slice(meta_json.as_bytes());
    for &id in &bouquet.diagram.optimal {
        out.extend_from_slice(&id.to_le_bytes());
    }
    for &c in &bouquet.diagram.opt_cost {
        out.extend_from_slice(&c.to_le_bytes());
    }
    for &c in bouquet.costs.as_flat() {
        out.extend_from_slice(&c.to_le_bytes());
    }
    let checksum = checksum64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    Ok(out)
}

/// A bounds-checked little-endian reader over an entry's bytes.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    path: &'a Path,
}

impl<'a> Reader<'a> {
    fn corrupt(&self, message: impl Into<String>) -> PbError {
        PbError::Corrupt {
            path: self.path.display().to_string(),
            message: message.into(),
        }
    }

    fn take(&mut self, len: usize, what: &str) -> Result<&'a [u8], PbError> {
        let end = self.pos.checked_add(len).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let s = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(self.corrupt(format!("truncated reading {what}"))),
        }
    }

    fn u32(&mut self, what: &str) -> Result<u32, PbError> {
        let s = self.take(4, what)?;
        let mut b = [0u8; 4];
        b.copy_from_slice(s);
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self, what: &str) -> Result<u64, PbError> {
        let s = self.take(8, what)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    fn f64(&mut self, what: &str) -> Result<f64, PbError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Bulk-decode `n` little-endian u32s with a single bounds check — the
    /// grid arrays dominate entry size, so per-element `take` calls would
    /// dominate warm-load time.
    fn u32_array(&mut self, n: usize, what: &str) -> Result<Vec<u32>, PbError> {
        let s = self.take(n * 4, what)?;
        Ok(s.chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// Bulk-decode `n` little-endian f64 bit patterns (see [`Self::u32_array`]).
    fn f64_array(&mut self, n: usize, what: &str) -> Result<Vec<f64>, PbError> {
        let s = self.take(n * 8, what)?;
        Ok(s.chunks_exact(8)
            .map(|c| {
                let mut b = [0u8; 8];
                b.copy_from_slice(c);
                f64::from_bits(u64::from_le_bytes(b))
            })
            .collect())
    }
}

/// Decode and validate one entry, grafting the caller's workload under the
/// stored arrays. `require_stats_match` distinguishes a direct hit (both
/// key halves must match) from the read of a stale sibling (only the
/// skeleton must match). The stored config must be a valid one and the
/// caller's `cfg`. Returns the bouquet and its stored cold-build wall time.
fn read_entry(
    path: &Path,
    key: &CacheKey,
    require_stats_match: bool,
    w: &Workload,
    cfg: &BouquetConfig,
) -> Result<(Bouquet, f64), PbError> {
    let bytes = std::fs::read(path).map_err(|e| PbError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })?;
    if bytes.len() < 8 {
        return Err(PbError::Corrupt {
            path: path.display().to_string(),
            message: "entry shorter than its checksum".into(),
        });
    }
    // Checksum first: everything else assumes intact bytes.
    let payload = &bytes[..bytes.len() - 8];
    let mut tail = [0u8; 8];
    tail.copy_from_slice(&bytes[bytes.len() - 8..]);
    let mut r = Reader {
        bytes: payload,
        pos: 0,
        path,
    };
    if u64::from_le_bytes(tail) != checksum64(payload) {
        return Err(r.corrupt("checksum mismatch"));
    }

    if r.take(4, "magic")? != MAGIC.as_slice() {
        return Err(r.corrupt("bad magic"));
    }
    let version = r.u32("version")?;
    if version != FORMAT_VERSION {
        return Err(r.corrupt(format!(
            "format version {version} (expected {FORMAT_VERSION})"
        )));
    }
    let skeleton = r.u64("skeleton key")?;
    let stats_key = r.u64("statistics key")?;
    if skeleton != key.skeleton {
        return Err(r.corrupt("skeleton key mismatch"));
    }
    if require_stats_match && stats_key != key.stats {
        return Err(r.corrupt("statistics key mismatch"));
    }
    let cold_build_s = r.f64("cold build time")?;
    let n = r.u64("point count")? as usize;
    let n_plans = r.u64("plan count")? as usize;
    let n_rows = r.u64("cost row count")? as usize;
    if n != w.ess.num_points() {
        return Err(r.corrupt(format!(
            "entry has {n} grid points, workload has {}",
            w.ess.num_points()
        )));
    }
    let meta_len = r.u64("meta length")? as usize;
    let meta_bytes = r.take(meta_len, "meta document")?;
    let meta_str =
        std::str::from_utf8(meta_bytes).map_err(|e| r.corrupt(format!("meta not UTF-8: {e}")))?;
    let meta: MetaDoc =
        serde_json::from_str(meta_str).map_err(|e| r.corrupt(format!("parse meta: {e}")))?;
    if meta.plans.len() != n_plans {
        return Err(r.corrupt("plan count disagrees with meta"));
    }
    validate_config(&meta.config).map_err(|e| r.corrupt(format!("stored config: {e}")))?;
    if meta.config != *cfg {
        return Err(r.corrupt("stored config differs from the caller's"));
    }
    // Before any array is sized from it: a row per bouquet plan.
    if n_rows != plan_union(&meta.contours).len() {
        return Err(r.corrupt("cost row count disagrees with the contours' plans"));
    }

    let optimal = r.u32_array(n, "optimal plan ids")?;
    let opt_cost = r.f64_array(n, "PIC values")?;
    let flat = r.f64_array(n_rows * n, "cost rows")?;
    if r.pos != payload.len() {
        return Err(r.corrupt("trailing bytes after cost rows"));
    }

    let bouquet = Bouquet {
        workload: w.clone(),
        diagram: PlanDiagram {
            ess: w.ess.clone(),
            plans: meta.plans,
            optimal,
            opt_cost,
        },
        costs: CostMatrix::from_flat(n, flat),
        grading: meta.grading,
        contours: meta.contours,
        config: meta.config,
        stats: meta.stats,
        programs: std::sync::OnceLock::new(),
        tables: std::sync::OnceLock::new(),
    };
    validate_structure(&bouquet)
        .map_err(|message| r.corrupt(format!("structural validation: {message}")))?;
    Ok((bouquet, cold_build_s))
}

/// What a decoded bouquet must satisfy before a driver may index with it:
/// grid-sized arrays over the caller's grid, a cost row per bouquet plan, a
/// non-empty contour schedule, and every plan id, grid point and stored plan
/// valid for the caller's workload.
fn validate_structure(b: &Bouquet) -> Result<(), String> {
    let n = b.workload.ess.num_points();
    if b.diagram.optimal.len() != n || b.diagram.opt_cost.len() != n {
        return Err("diagram size disagrees with ESS".into());
    }
    let n_plans = b.diagram.plans.len();
    // The finishing rung runs the winner at its estimate.
    if let Some(li) = b
        .diagram
        .optimal
        .iter()
        .position(|&p| p as usize >= n_plans)
    {
        return Err(format!(
            "grid point {li} names unknown winner {}",
            b.diagram.optimal[li]
        ));
    }
    // One cost row per bouquet plan, in `plan_ids()` order, over the grid.
    if b.costs.len() != b.plan_ids().len() {
        return Err("cost matrix row count disagrees with the bouquet's plan count".into());
    }
    if b.costs.len() > 0 && b.costs.num_points() != n {
        return Err("cost matrix column count disagrees with grid".into());
    }
    if b.contours.len() != b.grading.len() {
        return Err("contour count disagrees with grading".into());
    }
    // The contour schedule is what discovery runs; there is no empty one.
    if b.contours.is_empty() {
        return Err("bouquet has no contours".into());
    }
    for c in &b.contours {
        if c.points.len() != c.assignment.len() {
            return Err(format!("contour {} assignment arity mismatch", c.id));
        }
        for &p in c.plan_set.iter().chain(&c.assignment) {
            if p >= n_plans {
                return Err(format!("contour {} references unknown plan {p}", c.id));
            }
        }
        for &li in &c.points {
            if li >= n {
                return Err(format!(
                    "contour {} references out-of-grid point {li}",
                    c.id
                ));
            }
        }
    }
    b.workload.query.check(&b.workload.catalog)?;
    let all = (0..b.workload.query.num_relations()).fold(0u64, |m, r| m | 1 << r);
    for (id, plan) in b.diagram.plans.iter().enumerate() {
        match plan_rels(&plan.root, &b.workload.query) {
            Ok(mask) if mask == all => {}
            Ok(_) => return Err(format!("plan {id} does not join every relation")),
            Err(e) => return Err(format!("plan {id}: {e}")),
        }
    }
    Ok(())
}

/// The relations a stored plan subtree covers, as a mask, if every
/// relation, selection and join it names exists in `q`, every join has a
/// key, and no relation appears twice.
fn plan_rels(node: &PlanNode, q: &QuerySpec) -> Result<u64, String> {
    let rel = |r: usize| match q.relations.get(r) {
        Some(_) => Ok(1u64 << r),
        None => Err(format!("unknown relation {r}")),
    };
    let mut mask = match node {
        PlanNode::SeqScan { rel: r } | PlanNode::FullIndexScan { rel: r, .. } => rel(*r)?,
        PlanNode::IndexScan { rel: r, sel_idx } => {
            let m = rel(*r)?;
            if *sel_idx >= q.relations[*r].selections.len() {
                return Err(format!("unknown selection {sel_idx} of relation {r}"));
            }
            m
        }
        PlanNode::IndexNLJoin { inner_rel, .. } => rel(*inner_rel)?,
        _ => 0,
    };
    if let Some(e) = node.edges().iter().find(|&&e| e >= q.joins.len()) {
        return Err(format!("unknown join {e}"));
    }
    let keyed = !matches!(
        node,
        PlanNode::BlockNLJoin { .. } | PlanNode::HashAggregate { .. } | PlanNode::Spill { .. }
    );
    if keyed && !node.children().is_empty() && node.edges().is_empty() {
        return Err("join without a key".into());
    }
    for child in node.children() {
        let m = plan_rels(child, q)?;
        if mask & m != 0 {
            return Err("a relation appears twice".into());
        }
        mask |= m;
    }
    Ok(mask)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist;
    use pb_catalog::tpch;
    use pb_cost::{CostModel, Ess, EssDim};
    use pb_plan::{CmpOp, QueryBuilder, SelSpec};

    fn workload(scale: f64) -> Workload {
        let cat = tpch::catalog(scale);
        let mut qb = QueryBuilder::new(&cat, "EQ");
        let p = qb.rel("part");
        let l = qb.rel("lineitem");
        let o = qb.rel("orders");
        qb.select(
            p,
            "p_retailprice",
            CmpOp::Lt,
            1000.0,
            SelSpec::ErrorProne(0),
        );
        qb.join(p, "p_partkey", l, "l_partkey", SelSpec::Fixed(5e-6));
        qb.join(l, "l_orderkey", o, "o_orderkey", SelSpec::Fixed(6.7e-7));
        let q = qb.build();
        let ess = Ess::uniform(vec![EssDim::new("p_retailprice", 1e-4, 1.0)], 32);
        Workload::new("EQ_1D", cat.clone(), q, ess, CostModel::postgresish())
    }

    /// Fresh scratch dir per test (removed on drop).
    struct TmpDir(PathBuf);
    impl TmpDir {
        fn new(tag: &str) -> TmpDir {
            let d =
                std::env::temp_dir().join(format!("pb_cache_test_{tag}_{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&d);
            TmpDir(d)
        }
    }
    impl Drop for TmpDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn entry_file(dir: &Path) -> PathBuf {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "pbq"))
            .collect();
        entries.sort();
        assert_eq!(entries.len(), 1, "expected exactly one entry: {entries:?}");
        entries.remove(0)
    }

    #[test]
    fn miss_then_hit_is_bitwise_identical() {
        let tmp = TmpDir::new("hit");
        let cache = BouquetCache::new(&tmp.0).unwrap();
        let w = workload(1.0);
        let cfg = BouquetConfig::default();
        let (cold, o1) = cache
            .get_or_identify(&w, &cfg, Parallelism::serial())
            .unwrap();
        assert!(matches!(o1, CacheOutcome::Miss { .. }));
        let (warm, o2) = cache
            .get_or_identify(&w, &cfg, Parallelism::serial())
            .unwrap();
        assert!(matches!(o2, CacheOutcome::Hit { .. }));
        assert_eq!(
            persist::to_json(&cold).unwrap(),
            persist::to_json(&warm).unwrap(),
            "cache hit must be bitwise identical to the build that stored it"
        );
    }

    #[test]
    fn different_config_is_a_different_key() {
        let tmp = TmpDir::new("keys");
        let cache = BouquetCache::new(&tmp.0).unwrap();
        let w = workload(1.0);
        let k1 = CacheKey::derive(&w, &BouquetConfig::default()).unwrap();
        let k2 = CacheKey::derive(
            &w,
            &BouquetConfig {
                lambda: 0.1,
                ..Default::default()
            },
        )
        .unwrap();
        assert_ne!(k1.skeleton, k2.skeleton);
        assert_eq!(k1.stats, k2.stats);
        // Drifted statistics flip only the statistics half.
        let k3 = CacheKey::derive(&workload(1.01), &BouquetConfig::default()).unwrap();
        assert_eq!(k1.skeleton, k3.skeleton);
        assert_ne!(k1.stats, k3.stats);
        drop(cache);
    }

    #[test]
    fn corrupted_entry_is_evicted_and_rebuilt() {
        let tmp = TmpDir::new("corrupt");
        let cache = BouquetCache::new(&tmp.0).unwrap();
        let w = workload(1.0);
        let cfg = BouquetConfig::default();
        let (fresh, _) = cache
            .get_or_identify(&w, &cfg, Parallelism::serial())
            .unwrap();
        // Flip one byte in the middle of the payload.
        let path = entry_file(&tmp.0);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x5A;
        std::fs::write(&path, &bytes).unwrap();
        let (rebuilt, outcome) = cache
            .get_or_identify(&w, &cfg, Parallelism::serial())
            .unwrap();
        assert!(
            matches!(outcome, CacheOutcome::Miss { .. }),
            "corrupt entry must not be trusted: {outcome:?}"
        );
        assert_eq!(
            persist::to_json(&fresh).unwrap(),
            persist::to_json(&rebuilt).unwrap()
        );
        // The rebuild restored a loadable entry.
        let (_, again) = cache
            .get_or_identify(&w, &cfg, Parallelism::serial())
            .unwrap();
        assert!(matches!(again, CacheOutcome::Hit { .. }));
    }

    #[test]
    fn truncated_entry_is_evicted_and_rebuilt() {
        let tmp = TmpDir::new("trunc");
        let cache = BouquetCache::new(&tmp.0).unwrap();
        let w = workload(1.0);
        let cfg = BouquetConfig::default();
        cache
            .get_or_identify(&w, &cfg, Parallelism::serial())
            .unwrap();
        let path = entry_file(&tmp.0);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let (_, outcome) = cache
            .get_or_identify(&w, &cfg, Parallelism::serial())
            .unwrap();
        assert!(matches!(outcome, CacheOutcome::Miss { .. }));
        let (_, again) = cache
            .get_or_identify(&w, &cfg, Parallelism::serial())
            .unwrap();
        assert!(matches!(again, CacheOutcome::Hit { .. }));
    }

    #[test]
    fn version_mismatch_is_evicted_not_parsed() {
        let tmp = TmpDir::new("version");
        let cache = BouquetCache::new(&tmp.0).unwrap();
        let w = workload(1.0);
        let cfg = BouquetConfig::default();
        cache
            .get_or_identify(&w, &cfg, Parallelism::serial())
            .unwrap();
        // Bump the version field and re-seal the checksum, simulating an
        // entry written by a future format.
        rewrite_header(&entry_file(&tmp.0), 4, &(FORMAT_VERSION + 1).to_le_bytes());
        let (_, outcome) = cache
            .get_or_identify(&w, &cfg, Parallelism::serial())
            .unwrap();
        assert!(matches!(outcome, CacheOutcome::Miss { .. }));
        let (_, again) = cache
            .get_or_identify(&w, &cfg, Parallelism::serial())
            .unwrap();
        assert!(matches!(again, CacheOutcome::Hit { .. }));
    }

    /// Overwrite `len` header bytes at `at` and re-seal the checksum.
    fn rewrite_header(path: &Path, at: usize, field: &[u8]) {
        let mut bytes = std::fs::read(path).unwrap();
        bytes[at..at + field.len()].copy_from_slice(field);
        let n = bytes.len();
        let seal = checksum64(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&seal.to_le_bytes());
        std::fs::write(path, &bytes).unwrap();
    }

    #[test]
    fn previous_format_version_is_a_miss_not_an_error() {
        let tmp = TmpDir::new("v2");
        let cache = BouquetCache::new(&tmp.0).unwrap();
        let w = workload(1.0);
        let cfg = BouquetConfig::default();
        cache
            .get_or_identify(&w, &cfg, Parallelism::serial())
            .unwrap();
        // A v2 frame under this key: nothing reads its POSP-sized matrix.
        rewrite_header(&entry_file(&tmp.0), 4, &2u32.to_le_bytes());
        let (_, outcome) = cache
            .get_or_identify(&w, &cfg, Parallelism::serial())
            .unwrap();
        assert!(matches!(outcome, CacheOutcome::Miss { .. }), "{outcome:?}");
        let (_, again) = cache
            .get_or_identify(&w, &cfg, Parallelism::serial())
            .unwrap();
        assert!(matches!(again, CacheOutcome::Hit { .. }));
    }

    #[test]
    fn row_count_disagreeing_with_the_contours_is_evicted() {
        let tmp = TmpDir::new("rows");
        let cache = BouquetCache::new(&tmp.0).unwrap();
        let w = workload(1.0);
        let cfg = BouquetConfig::default();
        let (b, _) = cache
            .get_or_identify(&w, &cfg, Parallelism::serial())
            .unwrap();
        // The row count sits after magic, version, two keys, the build time
        // and two counts. Neither a row per POSP plan nor a count no file
        // could hold sizes an array: the contours say what to expect.
        let posp = b.diagram.plan_count() as u64;
        assert_ne!(posp, b.costs.len() as u64);
        for rows in [posp, u64::MAX / 2] {
            rewrite_header(&entry_file(&tmp.0), 48, &rows.to_le_bytes());
            let (_, outcome) = cache
                .get_or_identify(&w, &cfg, Parallelism::serial())
                .unwrap();
            assert!(matches!(outcome, CacheOutcome::Miss { .. }), "{outcome:?}");
        }
    }

    #[test]
    fn entry_without_contours_is_corrupt_not_a_panic() {
        let tmp = TmpDir::new("empty");
        let cache = BouquetCache::new(&tmp.0).unwrap();
        let w = workload(1.0);
        let cfg = BouquetConfig::default();
        let (mut b, _) = cache
            .get_or_identify(&w, &cfg, Parallelism::serial())
            .unwrap();
        // A well-sealed frame of a bouquet with an empty schedule.
        b.contours.clear();
        b.grading.steps.clear();
        b.costs = CostMatrix::from_flat(w.ess.num_points(), Vec::new());
        let key = CacheKey::derive(&w, &cfg).unwrap();
        cache.store(&key, &b, 0.0).unwrap();
        match read_entry(&entry_file(&tmp.0), &key, true, &w, &cfg) {
            Err(PbError::Corrupt { message, .. }) => {
                assert!(message.ends_with("bouquet has no contours"), "{message}")
            }
            other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
        }
        let (rebuilt, outcome) = cache
            .get_or_identify(&w, &cfg, Parallelism::serial())
            .unwrap();
        assert!(matches!(outcome, CacheOutcome::Miss { .. }), "{outcome:?}");
        assert!(!rebuilt.contours.is_empty());
    }

    #[test]
    fn concurrent_stores_of_one_skeleton_never_tear_an_entry() {
        let tmp = TmpDir::new("race");
        let cache = BouquetCache::new(&tmp.0).unwrap();
        let w = workload(1.0);
        let cfg = BouquetConfig::default();
        // Eight threads miss on the same key at once; then each keeps
        // re-storing its bouquet while the others do the same.
        let artefacts: Vec<String> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        let (b, _) = cache
                            .get_or_identify(&w, &cfg, Parallelism::serial())
                            .unwrap();
                        let key = CacheKey::derive(&w, &cfg).unwrap();
                        for _ in 0..25 {
                            cache.store(&key, &b, 0.0).unwrap();
                        }
                        persist::to_json(&b).unwrap()
                    })
                })
                .collect();
            racers.into_iter().map(|t| t.join().unwrap()).collect()
        });
        assert!(artefacts.iter().all(|a| *a == artefacts[0]));
        let (_, next) = cache
            .get_or_identify(&w, &cfg, Parallelism::serial())
            .unwrap();
        assert!(matches!(next, CacheOutcome::Hit { .. }), "{next:?}");
        let leftovers: Vec<_> = std::fs::read_dir(&tmp.0)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|name| name.starts_with(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
    }

    #[test]
    fn unreadable_stale_sibling_is_evicted_and_served_as_a_miss() {
        let tmp = TmpDir::new("drift");
        let cache = BouquetCache::new(&tmp.0).unwrap();
        let cfg = BouquetConfig::default();
        cache
            .get_or_identify(&workload(1.0), &cfg, Parallelism::serial())
            .unwrap();
        let path = entry_file(&tmp.0);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let drifted = workload(1.05);
        let (_, outcome) = cache
            .get_or_identify(&drifted, &cfg, Parallelism::serial())
            .unwrap();
        assert!(matches!(outcome, CacheOutcome::Miss { .. }), "{outcome:?}");
        // The damaged sibling is gone; the entry that remains serves hits.
        assert_ne!(entry_file(&tmp.0), path);
        let (_, again) = cache
            .get_or_identify(&drifted, &cfg, Parallelism::serial())
            .unwrap();
        assert!(matches!(again, CacheOutcome::Hit { .. }));
    }

    /// A frame file in a temp dir of its own (removed on drop).
    fn frame_path(tmp: &TmpDir) -> PathBuf {
        std::fs::create_dir_all(&tmp.0).unwrap();
        tmp.0.join("b.pbq")
    }

    #[test]
    fn frame_roundtrip_preserves_runtime_behaviour() {
        let tmp = TmpDir::new("frame");
        let path = frame_path(&tmp);
        let w = workload(1.0);
        let cfg = BouquetConfig::default();
        let original = Bouquet::identify(&w, &cfg).unwrap();
        save_frame(&original, &path).unwrap();
        let loaded = load_frame(&path, &w, &cfg).unwrap();
        assert_eq!(
            persist::to_json(&original).unwrap(),
            persist::to_json(&loaded).unwrap()
        );
        // Fingerprints are the trees' own, recomputed on load.
        for (a, c) in original.diagram.plans.iter().zip(&loaded.diagram.plans) {
            assert_eq!(a.fingerprint(), c.fingerprint());
        }
        for f in [0.1, 0.5, 0.9] {
            let qa = w.ess.point_at_fractions(&[f]);
            assert_eq!(
                original.run_basic(&qa).unwrap(),
                loaded.run_basic(&qa).unwrap()
            );
            assert_eq!(
                original.run_optimized(&qa).unwrap(),
                loaded.run_optimized(&qa).unwrap()
            );
        }
    }

    #[test]
    fn missing_frame_is_an_io_error() {
        let w = workload(1.0);
        match load_frame(
            "/nonexistent/pb_bouquet_nowhere.pbq",
            &w,
            &BouquetConfig::default(),
        ) {
            Err(PbError::Io { path, .. }) => assert!(path.contains("nowhere")),
            other => panic!("expected Io, got {:?}", other.map(|_| ())),
        }
    }

    /// Load `path` as `(w, cfg)`'s bouquet and demand a `Corrupt` naming it
    /// whose message ends with `tail`.
    fn refused(path: &Path, w: &Workload, cfg: &BouquetConfig, tail: &str) {
        match load_frame(path, w, cfg) {
            Err(PbError::Corrupt { path: p, message }) => {
                assert_eq!(p, path.display().to_string());
                assert!(message.ends_with(tail), "{message}");
            }
            other => panic!("expected Corrupt ({tail}), got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn frame_of_another_workload_statistics_or_config_is_refused_by_key() {
        let tmp = TmpDir::new("frame_key");
        let path = frame_path(&tmp);
        let cfg = BouquetConfig::default();
        save_frame(&Bouquet::identify(&workload(1.0), &cfg).unwrap(), &path).unwrap();
        refused(&path, &workload(1.01), &cfg, "statistics key mismatch");
        let other = BouquetConfig {
            lambda: 0.1,
            ..Default::default()
        };
        refused(&path, &workload(1.0), &other, "skeleton key mismatch");
    }

    /// Seal `b` under the key of `(w, cfg)` at `path`, as a writer that
    /// computed the key honestly but stored something else would.
    fn seal_under(path: &Path, w: &Workload, cfg: &BouquetConfig, b: &Bouquet) {
        let key = CacheKey::derive(w, cfg).unwrap();
        std::fs::write(path, encode_entry(&key, b, 0.0).unwrap()).unwrap();
    }

    #[test]
    fn out_of_range_winner_is_corrupt_on_load_and_a_miss_in_the_cache() {
        let tmp = TmpDir::new("winner");
        let cache = BouquetCache::new(&tmp.0).unwrap();
        let w = workload(1.0);
        let cfg = BouquetConfig::default();
        let (mut b, _) = cache
            .get_or_identify(&w, &cfg, Parallelism::serial())
            .unwrap();
        // The finishing rung would index the programs with this id.
        b.diagram.optimal[3] = b.diagram.plans.len() as u32;
        let entry = entry_file(&tmp.0);
        seal_under(&entry, &w, &cfg, &b);
        let tail = format!(
            "grid point 3 names unknown winner {}",
            b.diagram.plans.len()
        );
        refused(&entry, &w, &cfg, &tail);
        let (_, outcome) = cache
            .get_or_identify(&w, &cfg, Parallelism::serial())
            .unwrap();
        assert!(matches!(outcome, CacheOutcome::Miss { .. }), "{outcome:?}");
    }

    #[test]
    fn stored_config_with_a_ratio_of_at_most_one_is_corrupt() {
        let tmp = TmpDir::new("ratio");
        let path = frame_path(&tmp);
        let w = workload(1.0);
        let cfg = BouquetConfig::default();
        let mut b = Bouquet::identify(&w, &cfg).unwrap();
        // r = 1 makes the quoted bound infinite, r < 1 negative.
        for r in [1.0, 0.5] {
            b.config.r = r;
            seal_under(&path, &w, &cfg, &b);
            refused(&path, &w, &cfg, "isocost ratio r must exceed 1");
        }
    }

    #[test]
    fn stored_config_other_than_the_callers_is_corrupt() {
        let tmp = TmpDir::new("config");
        let path = frame_path(&tmp);
        let w = workload(1.0);
        let cfg = BouquetConfig::default();
        let mut b = Bouquet::identify(&w, &cfg).unwrap();
        b.config.lambda = 0.1;
        seal_under(&path, &w, &cfg, &b);
        refused(&path, &w, &cfg, "stored config differs from the caller's");
    }
}
