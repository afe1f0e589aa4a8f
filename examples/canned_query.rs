//! The "canned query" deployment story (paper, Section 4.2): compile the
//! bouquet offline once, save it as a frame, load it at run time, and — when
//! the database scales up — find the frame refused by its statistics key and
//! identify the grown workload again, as the server's cache does when the
//! statistics drift.
//!
//! ```sh
//! cargo run --release --example canned_query
//! ```

use std::time::Instant;

use plan_bouquet::bouquet::cache::{load_frame, save_frame};
use plan_bouquet::bouquet::{Bouquet, BouquetConfig};
use plan_bouquet::workloads;

fn main() {
    let artifact = std::env::temp_dir().join("pb_canned_bouquet.pbq");
    let cfg = BouquetConfig::default();

    // ---- Offline: compile and save ----------------------------------------
    let w = workloads::h_q8a_2d(1.0);
    let t0 = Instant::now();
    let b = Bouquet::identify(&w, &cfg).expect("identify");
    let compile_time = t0.elapsed();
    save_frame(&b, &artifact).expect("save");
    println!(
        "offline: compiled {} in {compile_time:.2?} ({} optimizer calls), saved {} KiB",
        w.name,
        b.stats.exhaustive_optimizer_calls,
        std::fs::metadata(&artifact).unwrap().len() / 1024
    );

    // ---- Run time: load and discover --------------------------------------
    let t1 = Instant::now();
    let loaded = load_frame(&artifact, &w, &cfg).expect("load");
    println!(
        "runtime: loaded bouquet in {:.2?} (no optimizer calls)",
        t1.elapsed()
    );
    let qa = w.ess.point_at_fractions(&[0.65, 0.8]);
    let run = loaded.run_optimized(&qa).unwrap();
    println!(
        "         discovered qa in {} executions, SubOpt {:.2} (guarantee {:.1})",
        run.trace.len(),
        run.suboptimality(loaded.pic_cost(&qa)),
        loaded.mso_bound()
    );

    // ---- Later: the database quadruples ------------------------------------
    let grown = workloads::h_q8a_2d(4.0);
    let stale = load_frame(&artifact, &grown, &cfg).expect_err("drifted statistics");
    println!("\nscale-up 4x: the saved frame is refused ({stale})");
    let t2 = Instant::now();
    let refreshed = Bouquet::identify(&grown, &cfg).expect("identify");
    println!(
        "             identified again in {:.2?} ({} optimizer calls)",
        t2.elapsed(),
        refreshed.stats.exhaustive_optimizer_calls
    );
    let qa4 = grown.ess.point_at_fractions(&[0.65, 0.8]);
    let run4 = refreshed.run_optimized(&qa4).unwrap();
    println!(
        "refreshed bouquet still discovers within bound: SubOpt {:.2} <= {:.1}",
        run4.suboptimality(refreshed.pic_cost(&qa4)),
        refreshed.mso_bound()
    );

    std::fs::remove_file(&artifact).ok();
}
