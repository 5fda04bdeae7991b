//! The one command-line parser shared by every binary and example.
//!
//! Each command declares one flag table, and the usage text is
//! rendered from that same table. Parsing is strict: an unknown flag,
//! a stray operand, a flag missing its value, a repeated flag, an
//! unparsable number and a word outside a flag's choices are all
//! errors naming the flag. Nothing falls back to a default silently.
//!
//! ```
//! use magellan::cli::{Command, Flag};
//!
//! let cmd = Command::new("demo").flags(&[Flag::int("--seed", "N"), Flag::switch("--resume")]);
//! let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
//! assert_eq!(cmd.parse(&argv("--seed 7 --resume")).unwrap().u64("--seed"), Some(7));
//! assert!(cmd.parse(&argv("--sead 7")).unwrap_err().contains("--sead"));
//! ```

use std::collections::BTreeMap;

/// What a flag takes after its name.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Switch,
    Int,
    Float,
    Text,
    OneOf,
}

/// One entry of a command's flag table: a name, the value it takes
/// (shown in the usage as `meta`), and whether it is mandatory.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// The flag's name, `--` included.
    pub(crate) name: &'static str,
    meta: &'static str,
    kind: Kind,
    required: bool,
}

const fn flag(name: &'static str, meta: &'static str, kind: Kind) -> Flag {
    Flag {
        name,
        meta,
        kind,
        required: false,
    }
}

impl Flag {
    /// A flag without a value.
    pub const fn switch(name: &'static str) -> Self {
        flag(name, "", Kind::Switch)
    }

    /// A flag taking an unsigned integer.
    pub const fn int(name: &'static str, meta: &'static str) -> Self {
        flag(name, meta, Kind::Int)
    }

    /// A flag taking a finite floating-point number.
    pub const fn float(name: &'static str, meta: &'static str) -> Self {
        flag(name, meta, Kind::Float)
    }

    /// A flag taking free text: a path, an address, ...
    pub const fn text(name: &'static str, meta: &'static str) -> Self {
        flag(name, meta, Kind::Text)
    }

    /// A flag taking one of the `|`-separated `words`.
    pub const fn one_of(name: &'static str, words: &'static str) -> Self {
        flag(name, words, Kind::OneOf)
    }

    /// The same flag, mandatory.
    pub const fn required(mut self) -> Self {
        self.required = true;
        self
    }

    fn usage(&self) -> String {
        let body = format!("{} {}", self.name, self.meta);
        if self.required {
            body.trim_end().to_string()
        } else {
            format!("[{}]", body.trim_end())
        }
    }

    /// Rejects a value this flag cannot take, naming the flag.
    fn check(&self, value: &str) -> Result<(), String> {
        let want = match self.kind {
            Kind::Int if value.parse::<u64>().is_err() => "an unsigned integer".to_string(),
            Kind::Float if !value.parse().is_ok_and(f64::is_finite) => {
                "a finite number".to_string()
            }
            Kind::OneOf if !self.meta.split('|').any(|w| w == value) => {
                format!("one of {}", self.meta)
            }
            _ => return Ok(()),
        };
        Err(format!("{} {value}: expected {want}", self.name))
    }
}

/// A command: its name and either its subcommands or its positional
/// operands (all mandatory) and flag table.
#[derive(Debug, Clone, Default)]
pub struct Command {
    name: &'static str,
    operands: Vec<&'static str>,
    flags: Vec<Flag>,
    subcommands: Vec<Command>,
}

impl Command {
    /// A command with no operands, flags or subcommands yet.
    pub fn new(name: &'static str) -> Self {
        Command {
            name,
            ..Command::default()
        }
    }

    /// Adds a positional operand, shown as `name` in the usage.
    pub fn operand(mut self, name: &'static str) -> Self {
        self.operands.push(name);
        self
    }

    /// Adds entries to the flag table.
    pub fn flags(mut self, flags: &[Flag]) -> Self {
        self.flags.extend_from_slice(flags);
        self
    }

    /// Adds a subcommand, selected by the first argument.
    pub fn subcommand(mut self, sub: Command) -> Self {
        self.subcommands.push(sub);
        self
    }

    /// The usage text: one line per subcommand, wrapped at 80 columns.
    fn usage(&self) -> String {
        let mut lines = Vec::new();
        if self.subcommands.is_empty() {
            lines.push(self.usage_line(format!("  {}", self.name)));
        }
        for sub in &self.subcommands {
            lines.push(sub.usage_line(format!("  {} {}", self.name, sub.name)));
        }
        format!("usage:\n{}", lines.join("\n"))
    }

    fn usage_line(&self, head: String) -> String {
        let indent = format!("\n{}", " ".repeat(head.len()));
        let (mut out, mut width) = (head.clone(), head.len());
        let operands = self.operands.iter().map(|o| o.to_string());
        for token in operands.chain(self.flags.iter().map(Flag::usage)) {
            if width + 1 + token.len() > 80 && width > head.len() {
                out += &indent;
                width = head.len();
            }
            out = format!("{out} {token}");
            width += 1 + token.len();
        }
        out
    }

    /// Parses `argv` (without the program name) against the table.
    ///
    /// # Errors
    ///
    /// The first deviation from the table, naming the flag, operand
    /// or subcommand.
    pub fn parse(&self, argv: &[String]) -> Result<Args, String> {
        if !self.subcommands.is_empty() {
            let (name, rest) = argv.split_first().ok_or("missing command")?;
            let sub = self.subcommands.iter().find(|c| c.name == name);
            return sub
                .ok_or_else(|| format!("unknown command `{name}`"))?
                .parse(rest);
        }
        let mut args = Args {
            command: self.name,
            ..Args::default()
        };
        let mut rest = argv.iter();
        while let Some(arg) = rest.next() {
            if !arg.starts_with("--") {
                if args.operands.len() == self.operands.len() {
                    return Err(format!("unexpected argument `{arg}`"));
                }
                args.operands.push(arg.clone());
                continue;
            }
            let flag = (self.flags.iter().find(|f| f.name == arg))
                .ok_or_else(|| format!("unknown flag {arg}"))?;
            let value = match flag.kind {
                Kind::Switch => String::new(),
                _ => match rest.next() {
                    Some(v) if !v.starts_with("--") => v.clone(),
                    _ => return Err(format!("{arg} needs a value ({})", flag.meta)),
                },
            };
            flag.check(&value)?;
            if args.values.insert(flag.name, value).is_some() {
                return Err(format!("{arg} given more than once"));
            }
        }
        if let Some(missing) = self.operands.get(args.operands.len()) {
            return Err(format!("missing {missing}"));
        }
        match (self.flags.iter()).find(|f| f.required && !args.has(f.name)) {
            Some(f) => Err(format!("{} {} is required", f.name, f.meta)),
            None => Ok(args),
        }
    }

    /// Parses the process arguments. On an error it prints the error
    /// and the usage and exits with status 2.
    pub fn parse_env(&self) -> Args {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        self.parse(&argv).unwrap_or_else(|e| {
            eprintln!("error: {e}\n{}", self.usage());
            std::process::exit(2)
        })
    }
}

/// A command line that matched its flag table. Every value was
/// checked against its flag's kind while parsing, so the typed
/// accessors only answer whether the flag was given.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The name of the command (or subcommand) that matched.
    pub command: &'static str,
    operands: Vec<String>,
    values: BTreeMap<&'static str, String>,
}

impl Args {
    /// The `i`-th positional operand (empty past the declared ones).
    pub fn operand(&self, i: usize) -> &str {
        self.operands.get(i).map_or("", String::as_str)
    }

    /// Whether `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    /// The text value of `name`, if given.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// The value of the integer flag `name`, if given.
    pub fn u64(&self, name: &str) -> Option<u64> {
        self.get(name).and_then(|v| v.parse().ok())
    }

    /// The value of the float flag `name`, if given.
    pub fn f64(&self, name: &str) -> Option<f64> {
        self.get(name).and_then(|v| v.parse().ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn cmd() -> Command {
        Command::new("study").operand("<dir>").flags(&[
            Flag::text("--archive", "DIR").required(),
            Flag::int("--seed", "N"),
            Flag::float("--scale", "F"),
            Flag::one_of("--format", "summary|edges"),
            Flag::switch("--resume"),
        ])
    }

    fn program() -> Command {
        Command::new("magellan")
            .subcommand(cmd())
            .subcommand(Command::new("replay"))
    }

    #[test]
    fn a_well_formed_line_parses() {
        let line = "d --resume --archive a --seed 18446744073709551615 --scale 0.5";
        let a = cmd().parse(&argv(line)).unwrap();
        assert_eq!(a.command, "study");
        assert_eq!(a.operand(0), "d");
        assert_eq!(a.get("--archive"), Some("a"));
        assert_eq!(a.u64("--seed"), Some(u64::MAX), "seeds keep every bit");
        assert_eq!(a.f64("--scale"), Some(0.5));
        assert!(a.has("--resume"));
        assert!(!a.has("--format"));
        assert_eq!(a.u64("--never-declared"), None);
    }

    #[test]
    fn every_deviation_is_an_error_naming_the_flag() {
        let cases = [
            ("d --archive a --sead 7", "unknown flag --sead"),
            ("d --archive a --seed", "--seed needs a value (N)"),
            ("d --archive --resume", "--archive needs a value (DIR)"),
            (
                "d --archive a --seed 1 --seed 1",
                "--seed given more than once",
            ),
            (
                "d --archive a --resume --resume",
                "--resume given more than once",
            ),
            ("d --archive a --seed 7x", "--seed 7x: expected an unsigned"),
            ("d --archive a --seed -1", "--seed -1: expected an unsigned"),
            (
                "d --archive a --scale 0,5",
                "--scale 0,5: expected a finite",
            ),
            (
                "d --archive a --scale inf",
                "--scale inf: expected a finite",
            ),
            (
                "d --archive a --format dot",
                "--format dot: expected one of summary|edges",
            ),
            ("d --archive a stray", "unexpected argument `stray`"),
            ("--archive a", "missing <dir>"),
            ("d --seed 7", "--archive DIR is required"),
        ];
        for (line, want) in cases {
            let got = cmd().parse(&argv(line)).unwrap_err();
            assert!(got.contains(want), "`{line}`: got `{got}`, want `{want}`");
        }
    }

    #[test]
    fn subcommands_dispatch_by_first_word() {
        let prog = program();
        assert_eq!(prog.parse(&argv("replay")).unwrap().command, "replay");
        let err = |line: &str| prog.parse(&argv(line)).unwrap_err();
        assert!(err("study x").contains("--archive DIR is required"));
        assert!(err("replay --seed 7").contains("unknown flag --seed"));
        assert!(err("rerun").contains("unknown command `rerun`"));
        assert!(err("").contains("missing command"));
    }

    #[test]
    fn usage_is_rendered_from_the_table() {
        assert_eq!(
            program().usage(),
            "usage:\n  magellan study <dir> --archive DIR [--seed N] [--scale F]\n                 \
             [--format summary|edges] [--resume]\n  magellan replay"
        );
        let single = Command::new("quickstart").flags(&[Flag::float("--scale", "F")]);
        assert_eq!(single.usage(), "usage:\n  quickstart [--scale F]");
    }
}
