//! `pbq` — interactive exploration of the plan-bouquet system.
//!
//! `pbq` alone prints every subcommand with its flags, generated from the
//! table below. Locations are given as per-axis fractions in `[0,1]`
//! (geometric interpolation between each dimension's bounds). An argument
//! the table does not declare — a misspelled flag, a value of the wrong
//! kind, a missing positional — is an error: the subcommand's usage line on
//! stderr and exit status 2. A subcommand that fails exits 1.

use pb_bench::cmd::{gates, inspect, serve};
use pb_bench::flags::{flag, Command, Flag, Kind::*};

/// Accepted by every subcommand.
#[rustfmt::skip]
const GLOBALS: &[Flag] = &[
    flag("--jobs N", Usize, "", "identification worker threads (default: all cores)"),
];

#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command { name: "list", positional: "", run: inspect::list, help: "available workloads", flags: &[] },
    Command { name: "show", positional: "WORKLOAD", run: inspect::show, help: "query, ESS dims, join graph", flags: &[] },
    Command { name: "classify", positional: "WORKLOAD", run: inspect::classify, help: "predicate uncertainty (§4.1)", flags: &[] },
    Command { name: "diagram", positional: "WORKLOAD", run: inspect::diagram, help: "POSP summary (+ASCII map in 2D)", flags: &[] },
    Command { name: "optimize", positional: "WORKLOAD f1,f2,...", run: inspect::optimize, help: "optimal plan at a location", flags: &[] },
    Command { name: "identify", positional: "WORKLOAD", run: inspect::identify, help: "compile the bouquet", flags: &[
        flag("--save FILE", Str, "", "write the bouquet to FILE as a cache frame"),
    ] },
    Command { name: "run", positional: "WORKLOAD f1,f2,...", run: inspect::run, help: "discover a true location", flags: &[
        flag("--optimized", Switch, "", "the optimized driver (Figure 13) instead of the basic one"),
        flag("--load FILE", Str, "", "a frame saved by `identify --save` for this workload instead of compiling"),
    ] },
    Command { name: "sensitivity", positional: "WORKLOAD", run: inspect::sensitivity, help: "§8 dimension analysis", flags: &[] },
    Command { name: "sql", positional: "SQL [f1,f2,...]", run: inspect::sql, help: "ad-hoc SQL (`pred?` marks an error-prone predicate): identify, then run at the location", flags: &[] },
    Command { name: "serve", positional: "", run: serve::serve, help: "bouquet-as-a-service server; blocks until a client drains it", flags: &[
        flag("--addr A", Str, "", "bind address (default 127.0.0.1:0)"),
        flag("--workloads W1,W2", Str, "", "workloads identified at startup (default EQ_1D)"),
        flag("--workers N", Usize, "", "worker threads (default 2)"),
        flag("--queue-cap N", Usize, "", "admission queue slots (default 16)"),
        flag("--tenant-cap F", PosF64, "", "per-tenant spend cap in cost units (default none)"),
        flag("--deadline-ms N", U64, "", "deadline for requests that carry none"),
    ] },
    Command { name: "chaos", positional: "", run: gates::chaos, help: "fault-injection campaign; exit 1 on any invariant breach", flags: &[
        flag("--seed N", U64, "20140622", "campaign seed (the paper's publication date)"),
    ] },
];

fn usage() -> String {
    let mut s = String::from("pbq — plan bouquets from the command line\n\n");
    for c in COMMANDS {
        s.push_str(&c.help("pbq", &[]));
    }
    s.push_str("\nevery subcommand also takes:\n");
    for f in GLOBALS {
        s.push_str(&f.help_line());
    }
    s.push_str("run `pbq list` for workload names\n");
    s
}

/// What one `pbq` command line does: print the usage, refuse the arguments
/// (exit 2), or run a subcommand (exit 1 if it fails).
fn dispatch(argv: &[String]) -> Result<Result<(), String>, String> {
    let Some(name) = argv.first().filter(|a| *a != "--help" && *a != "-h") else {
        print!("{}", usage());
        return Ok(Ok(()));
    };
    let Some(cmd) = COMMANDS.iter().find(|c| c.name == name) else {
        return Err(format!("unknown subcommand {name}; run `pbq` for the list"));
    };
    let args = cmd
        .parse(GLOBALS, &argv[1..])
        .map_err(|e| format!("{e}\n{}", cmd.usage("pbq", GLOBALS)))?;
    if let Some(n) = args.opt("--jobs") {
        pb_cost::set_default_workers(n);
    }
    Ok((cmd.run)(&args).map_err(|e| format!("{name} FAILED: {e}")))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(Ok(())) => {}
        Ok(Err(failure)) => {
            eprintln!("{failure}");
            std::process::exit(1);
        }
        Err(usage_error) => {
            eprintln!("pbq: {usage_error}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn refused(line: &str) -> String {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        dispatch(&argv).expect_err("must be refused before anything runs")
    }

    /// One misspelled flag and one flag without its value per family: both
    /// used to be ignored, leaving the gate they configure switched off.
    #[test]
    fn every_family_rejects_undeclared_flags_and_missing_values() {
        for (line, error) in [
            ("run EQ_1D 0.5 --optimised", "unknown flag --optimised"),
            (
                "run EQ_1D 0.5 --engine-jobs 4",
                "unknown flag --engine-jobs",
            ),
            ("identify EQ_1D --save", "--save needs a value"),
            ("identify 2D_H_Q8A --expectt hit", "unknown flag --expectt"),
            ("serve --workers", "--workers needs a value"),
            ("chaos --bogus-flag", "unknown flag --bogus-flag"),
            ("serve --client 1,2", "unknown flag --client"),
            ("serve --queue-cap", "--queue-cap needs a value"),
            ("chaos --seed", "--seed needs a value"),
        ] {
            let message = refused(line);
            let name = line.split(' ').next().unwrap_or_default();
            assert!(message.starts_with(error), "{line}: {message}");
            assert!(
                message.contains(&format!("usage: pbq {name}")),
                "{line}: {message}"
            );
        }
    }

    /// A value of the right type but outside the flag's range is refused like
    /// any other ill-typed value; a negative tenant cap used to give every
    /// request a zero budget while the server reported the tenant as
    /// uncapped.
    #[test]
    fn out_of_range_tenant_caps_are_refused() {
        for line in [
            "serve --tenant-cap -1",
            "serve --tenant-cap 0",
            "serve --tenant-cap inf",
        ] {
            let message = refused(line);
            assert!(
                message.starts_with("--tenant-cap needs a positive number"),
                "{line}: {message}"
            );
        }
    }

    /// A location outside the unit cube fails the subcommand (exit 1): `nan`
    /// used to run to a SubOpt of 10²¹ and exit 0, 1.5 and -0.2 to clamp.
    #[test]
    fn locations_outside_the_unit_cube_are_refused() {
        let sql = "SELECT * FROM part, lineitem WHERE p_partkey = l_partkey AND p_size < 9?";
        for argv in [
            ["run", "EQ_1D", "nan"],
            ["run", "EQ_1D", "1.5"],
            ["optimize", "EQ_1D", "-0.2"],
            ["sql", sql, "2"],
        ] {
            let ran = dispatch(&argv.map(String::from)).expect("arguments are fine");
            let failure = ran.expect_err("no such location");
            assert!(
                failure.ends_with("is not a comma list of fractions in [0,1]"),
                "{argv:?}: {failure}"
            );
        }
    }

    /// `run --load` refuses a frame saved for another workload (exit 1): its
    /// key is not the named workload's. It used to print that workload's run
    /// and exit 0.
    #[test]
    fn a_loaded_artefact_must_hold_the_named_workload() {
        let path = std::env::temp_dir().join(format!("pbq_test_eq1d_{}.pbq", std::process::id()));
        let file = path.display().to_string();
        let run = |argv: [&str; 5]| dispatch(&argv.map(String::from)).expect("arguments are fine");
        dispatch(&["identify", "EQ_1D", "--save", &file].map(String::from))
            .expect("arguments are fine")
            .expect("saves");
        run(["run", "EQ_1D", "0.5", "--load", &file]).expect("the workload it was saved for");
        let failure = run(["run", "2D_H_Q8A", "0.5,0.5", "--load", &file]);
        std::fs::remove_file(&path).ok();
        let failure = failure.expect_err("another workload's bouquet");
        assert!(
            failure.contains("2D_H_Q8A") && failure.ends_with("skeleton key mismatch"),
            "{failure}"
        );
    }

    /// SQL that parses but is no bouquet query fails the subcommand (exit 1);
    /// it used to panic (exit 101).
    #[test]
    fn sql_that_is_no_bouquet_query_fails_with_a_parse_error() {
        for sql in [
            "SELECT * FROM part, orders WHERE p_retailprice < 1000?",
            "SELECT * FROM part, lineitem WHERE p_partkey = l_partkey",
        ] {
            let ran = dispatch(&["sql".to_string(), sql.to_string()]).expect("arguments are fine");
            let failure = ran.expect_err("not a bouquet query");
            assert!(
                failure.starts_with("sql FAILED: parse error: "),
                "{failure}"
            );
        }
    }

    #[test]
    fn integer_flags_are_read_as_integers() {
        let cmd = COMMANDS.iter().find(|c| c.name == "chaos");
        let argv = ["--seed", "18446744073709551615"].map(String::from);
        let args = cmd
            .expect("in table")
            .parse(GLOBALS, &argv)
            .expect("parses");
        assert_eq!(args.get::<u64>("--seed"), u64::MAX);
        assert!(refused("serve --workers 1.5").starts_with("--workers needs"));
        assert!(refused("serve --workers -3").starts_with("--workers needs"));
    }
}
