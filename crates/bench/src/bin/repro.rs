//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro                 # run everything (paper order)
//! repro fig14 table1    # run selected exhibits
//! repro --list          # list available exhibits
//! repro --out results   # also tee each report into <dir>/<id>.txt
//! repro --jobs N        # cap identification worker threads
//! ```

use std::time::Instant;

use pb_bench::experiments;
use pb_bench::flags::{flag, Args, Command, Kind::*};

#[rustfmt::skip]
static REPRO: Command = Command { name: "", positional: "[EXHIBIT...]", run, help: "regenerate the named exhibits; all of them, in paper order, when none is named", flags: &[
    flag("--list", Switch, "", "list the exhibits and exit"),
    flag("--out DIR", Str, "", "also write each report to DIR/<exhibit>.txt"),
    flag("--jobs N", Usize, "", "identification worker threads (default: all cores)"),
    flag("--help", Switch, "", "this text"),
] };

fn run(args: &Args) -> Result<(), String> {
    if args.switch("--help") {
        eprint!("{}", REPRO.help("repro", &[]));
        eprintln!("exhibits: {}", experiments::ALL.join(" "));
        return Ok(());
    }
    if args.switch("--list") {
        for id in experiments::ALL {
            println!("{id}");
        }
        return Ok(());
    }
    if let Some(n) = args.opt("--jobs") {
        pb_cost::set_default_workers(n);
    }
    let ids: Vec<&str> = if args.pos.is_empty() {
        experiments::ALL.to_vec()
    } else {
        args.pos.iter().map(String::as_str).collect()
    };
    let out_dir: Option<String> = args.opt("--out");
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {dir}: {e}"))?;
    }
    let t_all = Instant::now();
    for id in ids {
        let t0 = Instant::now();
        let report = experiments::run(id).ok_or_else(|| format!("unknown exhibit: {id}"))?;
        println!("{}", "=".repeat(78));
        println!("== {id}  [{:.1?}]", t0.elapsed());
        println!("{}", "=".repeat(78));
        println!("{report}");
        if let Some(dir) = &out_dir {
            let path = format!("{dir}/{id}.txt");
            std::fs::write(&path, &report).map_err(|e| format!("write {path}: {e}"))?;
        }
    }
    eprintln!("total: {:.1?}", t_all.elapsed());
    Ok(())
}

/// The parsed command line, or why it is refused: an argument the table
/// does not declare, or an exhibit that does not exist.
fn parse(argv: &[String]) -> Result<Args<'static>, String> {
    let args = REPRO.parse(&[], argv)?;
    match args
        .pos
        .iter()
        .find(|id| !experiments::ALL.contains(&id.as_str()))
    {
        Some(id) => Err(format!("unknown exhibit: {id} (try --list)")),
        None => Ok(args),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse(&argv).unwrap_or_else(|e| {
        eprintln!("repro: {e}\n{}", REPRO.usage("repro", &[]));
        std::process::exit(2);
    });
    if let Err(e) = run(&args) {
        eprintln!("repro FAILED: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {

    #[test]
    fn unknown_exhibits_and_flags_are_refused_before_anything_runs() {
        let parse = |line: &str| {
            let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
            super::parse(&argv)
                .map(|a| a.pos)
                .map_err(|e| e.to_string())
        };
        assert_eq!(
            parse("fig2 table3"),
            Ok(vec!["fig2".to_string(), "table3".to_string()])
        );
        assert_eq!(
            parse("fig2 fig99"),
            Err("unknown exhibit: fig99 (try --list)".to_string())
        );
        assert_eq!(
            parse("--outt results"),
            Err("unknown flag --outt".to_string())
        );
        assert_eq!(parse("-j"), Err("-j needs a value".to_string()));
    }
}
