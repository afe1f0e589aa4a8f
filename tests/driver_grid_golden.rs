//! Pins both simulator drivers at every grid location of the four
//! `exec_grid` spaces.
//!
//! `tests/golden/driver_runs.json` probes 1D–3D spaces at a few dozen
//! locations; the driver's per-plan / per-contour decision tables matter on
//! the 4D / 5D grids. `tests/golden/driver_grid_hashes.json` holds, per
//! workload × driver, an FNV-1a hash over every visited location's full
//! trace (contour, plan, budget / spent / learned bits, spilled, completed),
//! its total-cost bits, and the MSO / ASO bits over the visited grid
//! locations; a tenth as many seeded off-grid locations follow, so the
//! running location's downward snap is pinned where `qa` itself is off the
//! grid. It was captured from the tree-walking optimized driver that
//! preceded the decision tables, so a match means every decision and every
//! charged cost unit is bit-identical to that implementation.
//!
//! Every visited run also passes `RobustRun::audit`. Tier-1 visits every
//! `STRIDE`-th location (debug builds); CI's smoke job runs the exhaustive
//! form in release:
//!
//! ```text
//! cargo test --release --test driver_grid_golden -- --ignored every_grid
//! ```
//!
//! Regenerating (only legitimate when the executor semantics or the driver
//! policy change on purpose):
//!
//! ```text
//! cargo test --release --test driver_grid_golden regenerate_goldens -- --ignored
//! ```

use std::collections::BTreeMap;

use plan_bouquet::bouquet::{Bouquet, BouquetConfig, BouquetRun, RobustConfig, SimulatorSubstrate};
use plan_bouquet::cost::{SelPoint, SplitMix64};
use plan_bouquet::faults::FaultInjector;
use plan_bouquet::workloads;

const GOLDEN_PATH: &str = "tests/golden/driver_grid_hashes.json";
const QUERIES: [&str; 4] = ["2D_H_Q8A", "3D_H_Q5", "4D_DS_Q7", "5D_DS_Q19"];
/// Coprime to every grid resolution in `QUERIES`, so the strided subset
/// wanders over all coordinates of every axis.
const STRIDE: usize = 37;

struct Fnv(u64);

impl Fnv {
    fn push(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn push_run(&mut self, run: &BouquetRun) {
        for e in &run.trace {
            self.push(e.contour as u64);
            self.push(e.plan as u64);
            self.push(e.budget.to_bits());
            self.push(e.spent.to_bits());
            match e.learned {
                Some((dim, v)) => {
                    self.push(1 + dim as u64);
                    self.push(v.to_bits());
                }
                None => self.push(0),
            }
            self.push(u64::from(e.spilled) | u64::from(e.completed) << 1);
        }
        self.push(run.total_cost.to_bits());
    }
}

fn run_at(b: &Bouquet, optimized: bool, qa: &SelPoint) -> BouquetRun {
    let mut sub = SimulatorSubstrate::new(b, qa, FaultInjector::none()).unwrap();
    let cfg = RobustConfig::plain(optimized);
    let rr = b.run(&mut sub, &cfg).unwrap();
    if let Err(e) = rr.audit(b, &cfg) {
        panic!("{qa:?}: {e}");
    }
    assert!(rr.run.completed(), "{qa:?} did not complete");
    rr.run
}

/// Hash of one driver over every `stride`-th grid location of `b`, then
/// over a tenth as many seeded off-grid locations.
fn sweep_hash(b: &Bouquet, optimized: bool, stride: usize) -> String {
    let ess = &b.workload.ess;
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);
    let (mut mso, mut sum, mut n) = (0.0f64, 0.0f64, 0u64);
    for li in (0..ess.num_points()).step_by(stride) {
        let run = run_at(b, optimized, &ess.point(&ess.unlinear(li)));
        h.push_run(&run);
        let so = run.total_cost / b.pic_cost_at(li);
        mso = mso.max(so);
        sum += so;
        n += 1;
    }
    h.push(mso.to_bits());
    h.push((sum / n as f64).to_bits());
    let mut rng = SplitMix64::new(ess.num_points() as u64);
    for _ in 0..n / 10 {
        let f: Vec<f64> = (0..ess.d())
            .map(|_| (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
            .collect();
        h.push_run(&run_at(b, optimized, &ess.point_at_fractions(&f)));
    }
    format!("{:016x}", h.0)
}

fn current_hashes(kind: &str, stride: usize) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for name in QUERIES {
        let w = workloads::by_name(name).expect("registry workload");
        let b = Bouquet::identify(&w, &BouquetConfig::default()).unwrap();
        for (driver, optimized) in [("basic", false), ("optimized", true)] {
            out.insert(
                format!("{name}/{driver}/{kind}"),
                sweep_hash(&b, optimized, stride),
            );
        }
    }
    out
}

fn assert_matches_golden(current: &BTreeMap<String, String>) {
    let raw = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing — run the regenerate_goldens test first");
    let golden: BTreeMap<String, String> = serde_json::from_str(&raw).unwrap();
    for (key, hash) in current {
        assert_eq!(
            Some(hash),
            golden.get(key),
            "{key}: driver traces diverged from the recorded bytes"
        );
    }
    assert_eq!(golden.len(), 2 * current.len(), "golden key set diverged");
}

#[test]
fn strided_grid_locations_match_recorded_hashes() {
    assert_matches_golden(&current_hashes("strided", STRIDE));
}

#[test]
#[ignore = "exhaustive: every grid location of the 4D/5D spaces — run in release"]
fn every_grid_location_matches_recorded_hashes() {
    assert_matches_golden(&current_hashes("every", 1));
}

#[test]
#[ignore = "writes tests/golden/driver_grid_hashes.json from the current drivers"]
fn regenerate_goldens() {
    let mut current = current_hashes("strided", STRIDE);
    current.extend(current_hashes("every", 1));
    let mut out = String::from("{\n");
    for (i, (key, hash)) in current.iter().enumerate() {
        let sep = if i + 1 == current.len() { "" } else { "," };
        out.push_str(&format!("  \"{key}\": \"{hash}\"{sep}\n"));
    }
    out.push_str("}\n");
    std::fs::create_dir_all("tests/golden").unwrap();
    std::fs::write(GOLDEN_PATH, out).unwrap();
}
