//! One module per paper exhibit; each `run()` returns the rendered report.
//!
//! The `repro` binary dispatches to these and tees the output into
//! `results/<experiment>.txt`, or with `--check` byte-compares it with that
//! file; every report is therefore deterministic and prints no wall-clock. Experiment ids follow the paper:
//! `fig2`…`fig19`, `table1`…`table3`, plus `rsweep` (Theorems 1–2),
//! `modelerror` (Section 3.4) and `compiletime` (Section 6.1).

pub mod com;
pub mod compiletime;
pub mod contours_2d;
pub mod extensions;
pub mod hostile;
pub mod intro_1d;
pub mod modelerror;
pub mod rsweep;
pub mod suite;
pub mod table3;

/// All experiment ids in paper order.
pub const ALL: &[&str] = &[
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig12",
    "table1",
    "table2",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "table3",
    "hostile",
    "fig19",
    "modelerror",
    "compiletime",
    "rsweep",
    "reopt",
    "pcmflip",
    "calibrate",
];

/// Run one experiment by id.
pub fn run(id: &str) -> Option<String> {
    Some(match id {
        "fig2" => intro_1d::fig2(),
        "fig3" => intro_1d::fig3(),
        "fig4" => intro_1d::fig4(),
        "fig5" => intro_1d::fig5(),
        "fig6" => contours_2d::fig6(),
        "fig12" => contours_2d::fig12(),
        "table1" => suite::table1(),
        "table2" => suite::table2(),
        "fig14" => suite::fig14(),
        "fig15" => suite::fig15(),
        "fig16" => suite::fig16(),
        "fig17" => suite::fig17(),
        "fig18" => suite::fig18(),
        "table3" => table3::run(),
        "hostile" => hostile::run(),
        "fig19" => com::fig19(),
        "modelerror" => modelerror::run(),
        "compiletime" => compiletime::run(),
        "rsweep" => rsweep::run(),
        "reopt" => extensions::reopt(),
        "pcmflip" => extensions::pcmflip(),
        "calibrate" => crate::calibration::exhibit(),
        _ => return None,
    })
}
