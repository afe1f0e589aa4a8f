//! The typed flag table behind `pbq` and `repro`.
//!
//! A binary declares each subcommand once — its positionals and, per flag,
//! name, kind, default and help — and gets from that one declaration the
//! parser, the kind checks, the usage text, and the rejection of anything it
//! did not declare: a misspelled `--optimised` is an error, not a switch
//! silently ignored.

use std::str::FromStr;

/// What a flag's value must parse as; `Switch` takes no value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    Switch,
    /// A finite number above zero, e.g. a scale factor.
    PosF64,
    U64,
    Usize,
    Str,
}

impl Kind {
    fn check(self, v: &str) -> Result<(), &'static str> {
        let ok = match self {
            Kind::Switch | Kind::Str => true,
            Kind::PosF64 => v.parse::<f64>().is_ok_and(|x| x > 0.0 && x.is_finite()),
            Kind::U64 => v.parse::<u64>().is_ok(),
            Kind::Usize => v.parse::<usize>().is_ok(),
        };
        ok.then_some(()).ok_or(match self {
            Kind::PosF64 => "a positive number",
            _ => "a non-negative integer",
        })
    }
}

/// One flag: `spec` is the name plus, for valued flags, the placeholder the
/// usage line shows (`"--sf F"`); `default` is the value used when the flag
/// is absent (`""`: none).
pub struct Flag {
    pub spec: &'static str,
    pub kind: Kind,
    pub default: &'static str,
    pub help: &'static str,
}

/// A [`Flag`] table row.
pub const fn flag(
    spec: &'static str,
    kind: Kind,
    default: &'static str,
    help: &'static str,
) -> Flag {
    Flag {
        spec,
        kind,
        default,
        help,
    }
}

impl Flag {
    pub fn name(&self) -> &'static str {
        self.spec.split(' ').next().unwrap_or(self.spec)
    }

    /// One line of help text: spec, help, default.
    pub fn help_line(&self) -> String {
        let default = match self.default {
            "" => String::new(),
            d => format!(" (default {d})"),
        };
        format!("      {:<22} {}{default}\n", self.spec, self.help)
    }
}

/// One subcommand. `positional` names the positional arguments in order; a
/// `[bracketed]` one is optional and a trailing `...]` one repeats. `run`
/// gets the parsed arguments; its `Err` is why the process should exit 1.
pub struct Command {
    pub name: &'static str,
    pub positional: &'static str,
    pub flags: &'static [Flag],
    pub help: &'static str,
    pub run: fn(&Args) -> Result<(), String>,
}

/// Short spellings accepted for a long flag.
const SHORT: &[(&str, &str)] = &[("-j", "--jobs"), ("-h", "--help")];

impl Command {
    /// `usage: PROG NAME POSITIONALS [--flag V]...`, `globals` last.
    pub fn usage(&self, prog: &str, globals: &[Flag]) -> String {
        let mut s = format!("usage: {prog}");
        for part in [self.name, self.positional] {
            if !part.is_empty() {
                s.push(' ');
                s.push_str(part);
            }
        }
        for f in self.flags.iter().chain(globals) {
            s.push_str(&format!(" [{}]", f.spec));
        }
        s
    }

    /// The usage line followed by one line per flag: help and default.
    pub fn help(&self, prog: &str, globals: &[Flag]) -> String {
        let mut s = format!("{}\n    {}\n", self.usage(prog, globals), self.help);
        for f in self.flags {
            s.push_str(&f.help_line());
        }
        s
    }

    /// Parse `argv` (everything after the subcommand name) against this
    /// command's table plus `globals`. Errors name the offending argument;
    /// the caller prints them with [`Command::usage`] and exits 2.
    pub fn parse<'a>(&'a self, globals: &'a [Flag], argv: &[String]) -> Result<Args<'a>, String> {
        let mut args = Args {
            pos: Vec::new(),
            given: Vec::new(),
            flags: self.flags.iter().chain(globals).collect(),
        };
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            let long = SHORT
                .iter()
                .find(|(s, _)| s == a)
                .map_or(a.as_str(), |p| p.1);
            if !long.starts_with("--") {
                args.pos.push(a.clone());
                continue;
            }
            let Some(f) = args.flags.iter().find(|f| f.name() == long) else {
                return Err(format!("unknown flag {a}"));
            };
            let value = match f.kind {
                Kind::Switch => String::new(),
                _ => it
                    .next()
                    .ok_or_else(|| format!("{a} needs a value"))?
                    .clone(),
            };
            f.kind
                .check(&value)
                .map_err(|want| format!("{a} needs {want}, got `{value}`"))?;
            args.given.push((f.name(), value));
        }
        let names: Vec<&str> = self.positional.split_whitespace().collect();
        let required = names.iter().filter(|n| !n.starts_with('[')).count();
        let repeats = names.last().is_some_and(|n| n.ends_with("...]"));
        if args.pos.len() < required {
            return Err(format!("missing {}", names[args.pos.len()]));
        }
        if args.pos.len() > names.len() && !repeats {
            return Err(format!("unexpected argument {}", args.pos[names.len()]));
        }
        Ok(args)
    }
}

/// A parsed command line: positionals in order, flags by name with the
/// table's defaults filled in.
pub struct Args<'a> {
    pub pos: Vec<String>,
    given: Vec<(&'static str, String)>,
    flags: Vec<&'a Flag>,
}

impl Args<'_> {
    fn raw(&self, name: &str) -> Option<&str> {
        let f = self
            .flags
            .iter()
            .find(|f| f.name() == name)
            .unwrap_or_else(|| panic!("flag table has no {name}"));
        let given = self.given.iter().rev().find(|(n, _)| *n == name);
        match (given, f.default) {
            (Some((_, v)), _) => Some(v),
            (None, "") => None,
            (None, d) => Some(d),
        }
    }

    /// Was the switch given?
    pub fn switch(&self, name: &str) -> bool {
        self.raw(name).is_some()
    }

    /// The flag's value (given or default) at the type its kind declares.
    pub fn opt<T: FromStr>(&self, name: &str) -> Option<T> {
        self.raw(name).map(|v| {
            v.parse().unwrap_or_else(|_| {
                panic!("{name} read at a type its declared kind does not check")
            })
        })
    }

    /// [`Args::opt`] for a flag the table gives a default.
    pub fn get<T: FromStr>(&self, name: &str) -> T {
        self.opt(name)
            .unwrap_or_else(|| panic!("flag table gives {name} no default"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CMD: Command = Command {
        name: "demo",
        positional: "WORKLOAD [LOC]",
        flags: &[
            flag("--seed N", Kind::U64, "7", ""),
            flag("--reps N", Kind::Usize, "3", ""),
            flag("--sf F", Kind::PosF64, "", ""),
            flag("--verify", Kind::Switch, "", ""),
        ],
        help: "",
        run: |_| Ok(()),
    };
    const GLOBALS: &[Flag] = &[flag("--jobs N", Kind::Usize, "", "")];

    fn parse(line: &str) -> Result<Args<'static>, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        CMD.parse(GLOBALS, &argv)
    }

    #[test]
    fn defaults_values_and_positionals() {
        let a = parse("W 0.5 --verify -j 2").expect("parse");
        assert_eq!(a.pos, ["W", "0.5"]);
        assert_eq!(a.get::<u64>("--seed"), 7);
        assert_eq!(a.opt::<f64>("--sf"), None);
        assert_eq!(a.opt::<usize>("--jobs"), Some(2));
        assert!(a.switch("--verify") && !parse("W").expect("parse").switch("--verify"));
    }

    #[test]
    fn integers_are_parsed_as_integers() {
        let a = parse("W --seed 18446744073709551615").expect("parse");
        assert_eq!(a.get::<u64>("--seed"), u64::MAX);
        for bad in [
            "W --reps -3",
            "W --reps 1.5",
            "W --seed 1e3",
            "W --sf nan",
            "W --sf 0",
            "W --sf -1",
            "W --sf inf",
        ] {
            assert!(parse(bad).is_err(), "{bad} must be rejected");
        }
        assert!(parse("W --reps 0").is_ok());
    }

    #[test]
    fn undeclared_and_incomplete_arguments_are_errors() {
        assert_eq!(
            parse("W --seeed 3").err().as_deref(),
            Some("unknown flag --seeed")
        );
        assert_eq!(
            parse("W --seed").err().as_deref(),
            Some("--seed needs a value")
        );
        assert_eq!(parse("--verify").err().as_deref(), Some("missing WORKLOAD"));
        assert_eq!(
            parse("W 0.5 extra").err().as_deref(),
            Some("unexpected argument extra")
        );
    }

    #[test]
    fn usage_is_generated_from_the_table() {
        assert_eq!(
            CMD.usage("pbq", GLOBALS),
            "usage: pbq demo WORKLOAD [LOC] [--seed N] [--reps N] [--sf F] [--verify] [--jobs N]"
        );
        assert!(CMD.help("pbq", GLOBALS).contains("--seed N"));
    }
}
