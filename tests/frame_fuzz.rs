//! Seeded byte mutation of real bouquet frames — the bytes `pbq run --load`
//! and every cache hit trust. Each case takes the `EQ_1D` or `2D_H_Q8A`
//! frame, mutates it (a bit flip, a header count, an array word set to a
//! boundary value, a digit of the JSON header, a truncation, or a splice),
//! re-seals the checksum so the mutation reaches the parser, and loads it.
//! A load must end in `PbError::Corrupt`, or in a bouquet whose winners are
//! all plans it holds and which both policies run to an outcome at three
//! locations — under the paper's settings and under the server's, with a
//! spend cap that sends the run to the finishing rung. Nothing may panic.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use proptest::prelude::*;

use plan_bouquet::bouquet::cache::{load_frame, save_frame};
use plan_bouquet::bouquet::{Bouquet, BouquetConfig, RobustConfig, SimulatorSubstrate, Workload};
use plan_bouquet::faults::{FaultInjector, PbError};
use plan_bouquet::workloads::by_name;

/// Header bytes before the meta document: magic, version, two key halves,
/// build time, then the point, plan, row and meta-length counts.
const HEADER: usize = 64;
const COUNTS: [usize; 4] = [32, 40, 48, 56];

/// The frame checksum: FNV-1a folding eight little-endian bytes per step,
/// the zero-padded tail as one more word, then the length.
fn checksum64(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = (h ^ u64::from_le_bytes(w.try_into().unwrap())).wrapping_mul(PRIME);
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    h = (h ^ u64::from_le_bytes(tail)).wrapping_mul(PRIME);
    (h ^ bytes.len() as u64).wrapping_mul(PRIME)
}

/// Replace the trailing checksum with the one the mutated payload earns.
fn reseal(frame: &mut [u8]) {
    if frame.len() < 8 {
        return;
    }
    let n = frame.len() - 8;
    let seal = checksum64(&frame[..n]);
    frame[n..].copy_from_slice(&seal.to_le_bytes());
}

struct Fixture {
    w: Workload,
    pristine: Bouquet,
    frame: Vec<u8>,
}

fn temp_frame(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pb_frame_fuzz_{}_{name}.pbq", std::process::id()))
}

fn fixtures() -> &'static [Fixture] {
    static FIXTURES: OnceLock<Vec<Fixture>> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        ["EQ_1D", "2D_H_Q8A"]
            .into_iter()
            .map(|name| {
                let w = by_name(name).unwrap();
                let pristine = Bouquet::identify(&w, &BouquetConfig::default()).unwrap();
                let path = temp_frame(name);
                save_frame(&pristine, &path).unwrap();
                let frame = std::fs::read(&path).unwrap();
                std::fs::remove_file(&path).ok();
                Fixture { w, pristine, frame }
            })
            .collect()
    })
}

/// The grid-sized arrays of `frame`: where each starts and its element width.
fn arrays(frame: &[u8], points: usize) -> [(usize, usize); 3] {
    let meta_len = u64::from_le_bytes(frame[56..64].try_into().unwrap()) as usize;
    let optimal = HEADER + meta_len;
    let opt_cost = optimal + 4 * points;
    [(optimal, 4), (opt_cost, 8), (opt_cost + 8 * points, 8)]
}

/// One seeded mutation of `frame`; `x` and `y` are uniform draws in [0, 1).
fn mutate(frame: &[u8], other: &[u8], points: usize, kind: usize, x: f64, y: f64) -> Vec<u8> {
    let mut out = frame.to_vec();
    let body = out.len() - 8;
    let at = |len: usize, u: f64| ((len as f64 * u) as usize).min(len.saturating_sub(1));
    match kind {
        // A bit anywhere before the checksum.
        0 => out[at(body, x)] ^= 1 << at(8, y),
        // A bit of one header count.
        1 => out[COUNTS[at(4, x)] + at(8, y)] ^= 1 << at(8, x * 8.0 % 1.0),
        // One array element set to a boundary value: for the winners, ids
        // just past the plan list and beyond; for costs, NaN, ±∞, 0, −1.
        2 => {
            let (start, width) = arrays(&out, points)[at(3, x)];
            let end = if width == 4 { start + 4 * points } else { body };
            let slot = start + width * at((end - start) / width, y);
            let plans = u64::from_le_bytes(out[40..48].try_into().unwrap()) as u32;
            if width == 4 {
                let v = [plans, plans + 1, u32::MAX, 0][at(4, x * 7.0 % 1.0)];
                out[slot..slot + 4].copy_from_slice(&v.to_le_bytes());
            } else {
                let v =
                    [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.0][at(5, x * 7.0 % 1.0)];
                out[slot..slot + 8].copy_from_slice(&v.to_le_bytes());
            }
        }
        // A digit of the JSON header (plan, relation, join, contour and
        // point ids, budgets) replaced by another digit.
        3 => {
            let meta_len = u64::from_le_bytes(out[56..64].try_into().unwrap()) as usize;
            let digits: Vec<usize> = (HEADER..HEADER + meta_len)
                .filter(|&i| out[i].is_ascii_digit())
                .collect();
            let i = digits[at(digits.len(), x)];
            out[i] = b'0' + at(10, y) as u8;
        }
        // Truncation, checksum and all.
        4 => {
            out.truncate(at(out.len(), x));
            return out;
        }
        // A splice: a run of the other workload's frame over this one.
        _ => {
            let len = 1 + at(64, y);
            let from = at(other.len().saturating_sub(len), y);
            let to = at(body.saturating_sub(len), x);
            let run = &other[from..(from + len).min(other.len())];
            out[to..to + run.len()].copy_from_slice(run);
        }
    }
    reseal(&mut out);
    out
}

/// Every grid point's winner is a plan the bouquet holds. Only the finishing
/// rung reads a winner — the one at its estimate — so three runs cannot be
/// relied on to trip over a bad one; contour ids they do read.
fn check_winners(b: &Bouquet) -> Result<(), String> {
    let plans = b.diagram.plans.len();
    match b.diagram.optimal.iter().find(|&&p| p as usize >= plans) {
        Some(p) => Err(format!("winner {p} of {plans} plans")),
        None => Ok(()),
    }
}

/// Both policies at three locations, plain and server-style with a spend cap
/// below the location's optimal cost (the finishing rung runs the winner at
/// the estimate).
fn run_everywhere(b: &Bouquet, pristine: &Bouquet) -> Result<(), String> {
    let d = b.workload.ess.d();
    for f in [0.1, 0.5, 0.9] {
        let qa = b.workload.ess.point_at_fractions(&vec![f; d]);
        for optimized in [false, true] {
            let capped = RobustConfig {
                optimized,
                spend_cap: Some(pristine.pic_cost(&qa) * 0.75),
                ..RobustConfig::default()
            };
            for cfg in [RobustConfig::plain(optimized), capped] {
                SimulatorSubstrate::new(b, &qa, FaultInjector::none())
                    .and_then(|mut sub| b.run(&mut sub, &cfg))
                    .map_err(|e| format!("run at {f} (optimized {optimized}): {e}"))?;
            }
        }
    }
    Ok(())
}

fn load_and_run(path: &Path, fx: &Fixture) -> Result<(), String> {
    match load_frame(path, &fx.w, &BouquetConfig::default()) {
        Err(PbError::Corrupt { .. }) => Ok(()),
        Err(other) => Err(format!("untyped refusal: {other}")),
        Ok(b) => check_winners(&b).and_then(|()| run_everywhere(&b, &fx.pristine)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    #[test]
    fn a_mutated_frame_is_refused_or_runs(
        which in 0usize..2,
        kind in 0usize..6,
        x in 0.0f64..1.0,
        y in 0.0f64..1.0,
    ) {
        let fx = &fixtures()[which];
        let other = &fixtures()[1 - which].frame;
        let bytes = mutate(&fx.frame, other, fx.w.ess.num_points(), kind, x, y);
        let path = temp_frame(&format!("{}-{kind}", fx.w.name));
        std::fs::write(&path, &bytes).unwrap();
        let outcome = catch_unwind(AssertUnwindSafe(|| load_and_run(&path, fx)))
            .unwrap_or_else(|_| Err("panicked".into()));
        std::fs::remove_file(&path).ok();
        prop_assert!(
            outcome.is_ok(),
            "{} frame, mutation {kind} at ({x}, {y}): {}",
            fx.w.name,
            outcome.unwrap_err()
        );
    }
}

/// The property is not vacuous: unmutated frames load and run.
#[test]
fn the_pristine_frames_load_and_run() {
    for fx in fixtures() {
        let path = temp_frame(&format!("{}-pristine", fx.w.name));
        std::fs::write(&path, &fx.frame).unwrap();
        let b = load_frame(&path, &fx.w, &BouquetConfig::default());
        std::fs::remove_file(&path).ok();
        run_everywhere(&b.unwrap(), &fx.pristine).unwrap();
    }
}
