//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro                 # run everything (paper order)
//! repro fig14 table1    # run selected exhibits
//! repro --list          # list available exhibits
//! repro --out results   # also tee each report into <dir>/<id>.txt
//! repro --check results # exit 1 unless every report equals <dir>/<id>.txt
//!                       # (and, run whole, <dir> holds no other .txt)
//! repro --jobs N        # cap identification worker threads
//! ```
//!
//! Every exhibit is deterministic — the same bytes on every run and at any
//! `--jobs` — so `--check` is an exact gate: a change that moves an exhibit
//! commits the regenerated file (`--out`) and says why.

use std::path::Path;
use std::time::Instant;

use pb_bench::experiments;
use pb_bench::flags::{flag, Args, Command, Kind::*};

#[rustfmt::skip]
static REPRO: Command = Command { name: "", positional: "[EXHIBIT...]", run, help: "regenerate the named exhibits; all of them, in paper order, when none is named", flags: &[
    flag("--list", Switch, "", "list the exhibits and exit"),
    flag("--out DIR", Str, "", "also write each report to DIR/<exhibit>.txt"),
    flag("--check DIR", Str, "", "compare each report with DIR/<exhibit>.txt instead of printing it; exit 1 if any differs or, with no exhibit named, if DIR holds a .txt no exhibit writes"),
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
    let check_dir: Option<String> = args.opt("--check");
    let mut stale = Vec::new();
    let t_all = Instant::now();
    for &id in &ids {
        let t0 = Instant::now();
        let report = experiments::run(id).ok_or_else(|| format!("unknown exhibit: {id}"))?;
        if let Some(dir) = &check_dir {
            let why = differs(&Path::new(dir).join(format!("{id}.txt")), &report);
            println!(
                "{id:<12} {}  [{:.1?}]",
                if why.is_some() { "STALE" } else { "ok" },
                t0.elapsed()
            );
            stale.extend(why);
        } else {
            println!("{}", "=".repeat(78));
            println!("== {id}  [{:.1?}]", t0.elapsed());
            println!("{}", "=".repeat(78));
            println!("{report}");
        }
        if let Some(dir) = &out_dir {
            let path = format!("{dir}/{id}.txt");
            std::fs::write(&path, &report).map_err(|e| format!("write {path}: {e}"))?;
        }
    }
    if let (Some(dir), true) = (&check_dir, args.pos.is_empty()) {
        stale.extend(orphans(Path::new(dir))?);
    }
    eprintln!("total: {:.1?}", t_all.elapsed());
    match check_dir {
        Some(dir) if !stale.is_empty() => Err(format!(
            "{} stale in {dir} (regenerate with --out {dir}; delete a file no exhibit writes):\n  {}",
            stale.len(),
            stale.join("\n  ")
        )),
        Some(dir) => {
            println!("all {} exhibits equal to {dir}", ids.len());
            Ok(())
        }
        None => Ok(()),
    }
}

/// Why the committed exhibit at `path` is not `report`: the file cannot be
/// read, or the first line where the two part. `None` when they are the
/// same bytes.
fn differs(path: &Path, report: &str) -> Option<String> {
    let committed = match std::fs::read_to_string(path) {
        Ok(text) if text == report => return None,
        Ok(text) => text,
        Err(e) => return Some(format!("{}: {e}", path.display())),
    };
    let (mut old, mut new) = (committed.split('\n'), report.split('\n'));
    let (line, old, new) = (1..)
        .map(|n| (n, old.next(), new.next()))
        .find(|(_, a, b)| a != b)?;
    let end = "<end of file>";
    Some(format!(
        "{}:{line}: committed {:?}, regenerated {:?}",
        path.display(),
        old.unwrap_or(end),
        new.unwrap_or(end)
    ))
}

/// The `.txt` files in `dir` that no exhibit writes, each named with why:
/// a deleted or renamed exhibit leaves one that nothing would check.
fn orphans(dir: &Path) -> Result<Vec<String>, String> {
    let unreadable = |e: std::io::Error| format!("list {}: {e}", dir.display());
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(unreadable)? {
        let path = entry.map_err(unreadable)?.path();
        let exhibit = path.file_stem().and_then(|s| s.to_str());
        let txt = path.extension().is_some_and(|x| x == "txt");
        if txt && !exhibit.is_some_and(|id| experiments::ALL.contains(&id)) {
            found.push(format!("{}: no exhibit writes this file", path.display()));
        }
    }
    found.sort();
    Ok(found)
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
    use super::*;

    /// The checker passes equal files and names the file and first line of
    /// a one-byte change, and the path of a missing file.
    #[test]
    fn check_passes_equal_exhibits_and_names_what_differs() {
        let dir = std::env::temp_dir().join(format!("repro-check-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let reports = ["fig2", "fig5"].map(|id| (id, experiments::run(id).expect("exhibit")));
        for (id, report) in &reports {
            std::fs::write(dir.join(format!("{id}.txt")), report).expect("write");
        }
        for (id, report) in &reports {
            assert_eq!(differs(&dir.join(format!("{id}.txt")), report), None);
        }

        // Flip one byte on the third line of fig5.
        let (_, fig5) = &reports[1];
        let at = fig5.match_indices('\n').nth(1).expect("three lines").0 + 1;
        let mut flipped = fig5.clone().into_bytes();
        flipped[at] ^= 0x01;
        let path = dir.join("fig5.txt");
        std::fs::write(&path, &flipped).expect("write");
        let why = differs(&path, fig5).expect("a flipped byte is stale");
        assert!(
            why.starts_with(&format!("{}:3: committed ", path.display())),
            "{why}"
        );

        let path = dir.join("fig2.txt");
        std::fs::remove_file(&path).expect("remove");
        let why = differs(&path, &reports[0].1).expect("a missing file is stale");
        assert!(why.starts_with(&path.display().to_string()), "{why}");
        std::fs::remove_dir_all(&dir).expect("clean up");
    }

    /// Only `.txt` files no exhibit id names are orphans.
    #[test]
    fn check_names_every_file_no_exhibit_writes() {
        let dir = std::env::temp_dir().join(format!("repro-orphans-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        for name in [
            "fig2.txt",
            "compiletime.txt",
            "notes.md",
            "band.txt",
            "fig99.txt",
        ] {
            std::fs::write(dir.join(name), "").expect("write");
        }
        let named =
            |name: &str| format!("{}: no exhibit writes this file", dir.join(name).display());
        assert_eq!(
            orphans(&dir),
            Ok(vec![named("band.txt"), named("fig99.txt")])
        );
        std::fs::remove_dir_all(&dir).expect("clean up");
        assert!(orphans(&dir).is_err(), "a missing directory is refused");
    }

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
