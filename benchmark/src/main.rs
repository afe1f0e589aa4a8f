//! `pb-benchmark`: the repo's wall-clock benchmark.
//!
//! ```text
//! pb-benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//!                  [--quick] [--runs N] [--out FILE]
//! pb-benchmark compare A.json B.json
//! pb-benchmark manifest
//! ```
//!
//! With `--workload` the workload runs in this process and the last line of
//! standard output is the JSON object the driver reads. Without it, each of
//! the four workloads runs in a fresh child process (so `peak_rss_mb` is
//! that workload's alone), `--runs` repeats the set, and the aggregate goes
//! to `benchmark/out/result.json`.

mod api;
mod compare;
mod gen;
mod harness;
mod metrics;
mod report;
mod setups;
mod stats;
mod timed;
mod trace;
mod workloads;

use std::process::ExitCode;

use harness::{Checks, RunOpts};
use report::{ResultFile, WorkloadResult};

const USAGE: &str = "usage: pb-benchmark run [--workload compile|exec_engine|exec_grid|serve] \
[--seed N] [--seconds S] [--trace 0|1] [--quick] [--runs N] [--out FILE]\n       \
pb-benchmark compare A.json B.json\n       pb-benchmark manifest";

struct RunArgs {
    opts: RunOpts,
    workload: Option<String>,
    runs: usize,
    out: Option<String>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut a = RunArgs {
        opts: RunOpts {
            seed: gen::DEFAULT_SEED,
            seconds: metrics::RUN_SECONDS as f64,
            trace: false,
            quick: false,
            nproc,
        },
        workload: None,
        runs: 1,
        out: None,
    };
    let mut seconds_given = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !metrics::WORKLOADS.iter().any(|(n, _)| n == w) {
                    return Err(format!("unknown workload {w}"));
                }
                a.workload = Some(w.clone());
            }
            "--seed" => a.opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.opts.seconds > 0.0 && a.opts.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds_given = true;
            }
            "--trace" => {
                a.opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => a.opts.quick = true,
            "--runs" => {
                a.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?;
                if !(1..=100).contains(&a.runs) {
                    return Err("--runs must be 1 to 100".into());
                }
            }
            "--out" => a.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.opts.quick && !seconds_given {
        a.opts.seconds = 2.0;
    }
    Ok(a)
}

fn write_file(path: &std::path::Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// One workload, in this process.
fn run_one(workload: &str, a: &RunArgs) -> Result<WorkloadResult, String> {
    let o = &a.opts;
    let mut ck = Checks::default();
    let out = match workload {
        "compile" => workloads::compile::run(o, &mut ck),
        "exec_engine" => workloads::exec_engine::run(o, &mut ck),
        "exec_grid" => workloads::exec_grid::run(o, &mut ck),
        "serve" => workloads::serve::run(o, &mut ck),
        other => Err(format!("unknown workload {other}")),
    }?;
    let result = report::assemble(workload, &out, &mut ck);
    if o.trace {
        let path = harness::out_dir().join(format!("trace-{workload}.jsonl"));
        write_file(&path, &trace::to_jsonl(&out.spans))?;
        println!("{} spans written to {}", out.spans.len(), path.display());
    }
    Ok(result)
}

/// All four workloads, each in a fresh child process, `runs` times over.
fn run_all(a: &RunArgs) -> Result<Vec<WorkloadResult>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut per_workload: Vec<Vec<WorkloadResult>> = vec![Vec::new(); metrics::WORKLOADS.len()];
    for run in 0..a.runs {
        for (wi, (workload, _)) in metrics::WORKLOADS.iter().enumerate() {
            let file =
                harness::out_dir().join(format!("child-{}-{workload}.json", std::process::id()));
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["run", "--workload", workload])
                .args(["--seed", &a.opts.seed.to_string()])
                .args(["--seconds", &a.opts.seconds.to_string()])
                .args(["--trace", if a.opts.trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&file);
            if a.opts.quick {
                cmd.arg("--quick");
            }
            println!("run {} of {}: {workload} ...", run + 1, a.runs);
            // The child's own report is repeated below from its result
            // file; its output is shown only when that file is missing.
            let done = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
            let loaded = ResultFile::load(&file.to_string_lossy());
            let _ = std::fs::remove_file(&file);
            // A child that found failures exits non-zero but still reports.
            let mut child = loaded.map_err(|e| {
                format!(
                    "{workload} exited with {}: {e}\n{}{}",
                    done.status,
                    String::from_utf8_lossy(&done.stdout),
                    String::from_utf8_lossy(&done.stderr)
                )
            })?;
            per_workload[wi].push(child.workloads.remove(0));
        }
    }
    Ok(per_workload
        .iter()
        .map(|runs| report::aggregate(runs))
        .collect())
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let a = parse_run(args)?;
    let single = a.workload.is_some();
    let results = match &a.workload {
        Some(w) => {
            let runs: Vec<WorkloadResult> = (0..a.runs)
                .map(|_| run_one(w, &a))
                .collect::<Result<_, _>>()?;
            vec![report::aggregate(&runs)]
        }
        None => run_all(&a)?,
    };

    for r in &results {
        print!("{}", report::render(r));
    }
    let table = report::profile_table(&results);
    if !table.is_empty() {
        println!("share of end-to-end time by layer (self time, traced pass):\n{table}");
        if !single {
            write_file(&harness::out_dir().join("profile.md"), &table)?;
        }
    }
    if a.opts.quick {
        println!("--quick: same checks, numbers not comparable");
    }

    let mut file = ResultFile::new(&a.opts, results);
    file.runs = a.runs;
    let out = match (&a.out, single) {
        (Some(p), _) => Some(std::path::PathBuf::from(p)),
        (None, false) => Some(harness::out_dir().join("result.json")),
        (None, true) => None,
    };
    if let Some(path) = out {
        write_file(&path, &file.to_json())?;
        if !single {
            println!("result written to {}", path.display());
        }
    }

    let failed: u64 = file.workloads.iter().map(|w| w.failed).sum();
    if single {
        println!(
            "{}",
            report::contract_line(&file.workloads[0], a.opts.trace)
        );
    }
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err(USAGE.into());
    };
    let (a, b) = (ResultFile::load(a)?, ResultFile::load(b)?);
    if !(a.comparable && b.comparable) {
        println!("note: at least one side is a --quick run; its numbers are not comparable");
    }
    if (a.nproc, a.seconds, a.seed) != (b.nproc, b.seconds, b.seed) {
        println!(
            "note: settings differ: nproc {} vs {}, seconds {} vs {}, seed {} vs {}",
            a.nproc, b.nproc, a.seconds, b.seconds, a.seed, b.seed
        );
    }
    let rows = compare::compare(&a, &b);
    print!("{}", compare::render(&rows));
    let worse = rows.iter().any(|r| r.verdict == compare::Verdict::Worse);
    Ok(if worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => cmd_run(rest),
        Some((cmd, rest)) if cmd == "compare" => cmd_compare(rest),
        Some((cmd, [])) if cmd == "manifest" => {
            println!("{}", pretty(&metrics::manifest(), 0));
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.into()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("pb-benchmark: {e}");
        ExitCode::from(2)
    })
}

/// Indented JSON, one metric per line, for the committed `BENCHMARK.json`.
fn pretty(v: &serde::Value, depth: usize) -> String {
    use serde::Value;
    let pad = "  ".repeat(depth + 1);
    let flat = |v: &Value| serde_json::to_string(v).expect("in-memory JSON writing does not fail");
    match v {
        // Leaf objects and arrays of strings stay on one line.
        Value::Obj(pairs) if depth > 0 => {
            let body: Vec<String> = pairs
                .iter()
                .map(|(k, v)| format!("{}: {}", flat(&Value::Str(k.clone())), flat(v)))
                .collect();
            format!("{{{}}}", body.join(", "))
        }
        Value::Obj(pairs) => {
            let body: Vec<String> = pairs
                .iter()
                .map(|(k, v)| {
                    format!(
                        "{pad}{}: {}",
                        flat(&Value::Str(k.clone())),
                        pretty(v, depth + 1)
                    )
                })
                .collect();
            format!("{{\n{}\n}}", body.join(",\n"))
        }
        Value::Arr(items) if items.iter().all(|i| matches!(i, Value::Obj(_))) => {
            let body: Vec<String> = items
                .iter()
                .map(|i| format!("{pad}{}", pretty(i, depth + 1)))
                .collect();
            format!("[\n{}\n{}]", body.join(",\n"), "  ".repeat(depth))
        }
        Value::Arr(items) => {
            let body: Vec<String> = items.iter().map(flat).collect();
            format!("[{}]", body.join(", "))
        }
        other => flat(other),
    }
}
