//! `ramiel` — command-line front end for the pipeline.
//!
//! ```text
//! ramiel models                       list built-in models
//! ramiel report                       Table-I-style parallelism metrics
//! ramiel compile <model> [flags]      run the pipeline, emit Python code
//! ramiel run <model> [flags]          execute seq/parallel and time it
//! ramiel profile <model> [flags]      profiled run, Chrome/Perfetto trace
//! ramiel simulate <model> [flags]     simulated makespan of the schedule
//! ramiel check <model|all> [flags]    statically verify the schedule
//! ramiel analyze <model|all> [flags]  lifetimes, peak memory, channel lints
//! ramiel fuzz [flags]                 differential fuzzing on random DAGs
//! ramiel export <model> <path>        save a model as an ONNX file
//! ramiel pull <url> [flags]           fetch a model into the registry cache
//! ramiel fileserver <dir> [flags]     loopback static file server (CI)
//! ramiel serve <model> [flags]        dynamic-batching inference over TCP
//! ramiel request [flags]              send requests to a running server
//! ramiel top [flags]                  live metrics table of a server
//! ```
//!
//! Each verb is a module whose `Args` (declared with `args!`) takes exactly
//! the flags its doc lists; the verbs that load a graph share
//! [`model::ModelArgs`].

/// Declares a typed argument group: the flags it routes to a nested group,
/// then one line per flag (field, type, default, spelling; see
/// [`FlagValue`]). Given a verb, `parse` refuses any other flag.
macro_rules! args {
    ($name:ident $(, $group:ident: $gty:ty [$($gflag:literal),*])?;
     $($field:ident: $ty:ty = $default:expr, $flag:literal;)*) => {
        pub struct $name {
            $(pub $group: $gty,)?
            $(pub $field: $ty,)*
        }

        impl Default for $name {
            fn default() -> $name {
                $name { $($group: <$gty>::default(),)? $($field: $default,)* }
            }
        }

        impl $name {
            /// Takes `flag` and its value if `flag` is one of these.
            pub fn flag(&mut self, flag: &str, it: &mut crate::Iter<String>)
                -> Result<bool, String> {
                match flag {
                    $($($gflag)|* => self.$group.flag(flag, it),)?
                    $($flag => {
                        self.$field = crate::FlagValue::read(it, flag)?;
                        Ok(true)
                    })*
                    _ => Ok(false),
                }
            }
        }
    };
    ($name:ident $verb:literal $($rest:tt)*) => {
        args!($name $($rest)*);

        impl $name {
            pub fn parse(flags: &[String]) -> Result<$name, String> {
                let mut a = $name::default();
                let mut it = flags.iter();
                while let Some(flag) = it.next() {
                    if !a.flag(flag, &mut it)? {
                        return Err(crate::unknown($verb, flag));
                    }
                }
                Ok(a)
            }
        }
    };
}

mod analyze;
mod check;
mod compile;
mod export;
mod fuzz;
mod model;
mod models;
mod profile;
mod registry;
mod request;
mod run;
mod serve;
mod simulate;
mod top;

use ramiel::diag::Gate;
use ramiel_runtime::Engine;
use std::process::ExitCode;
use std::slice::Iter;

const USAGE: &str = "usage: ramiel <models|report|compile|run|profile|simulate|check|analyze|fuzz|export|pull|fileserver|serve|request|top> [model] [flags]";

fn unknown(verb: &str, flag: &str) -> String {
    format!("unknown flag `{flag}` for `{verb}`")
}

/// For a verb that reads no flag.
fn no_flags(verb: &str, flags: &[String]) -> Result<(), String> {
    flags
        .first()
        .map_or(Ok(()), |flag| Err(unknown(verb, flag)))
}

/// A flag's value, read from the arguments after the flag.
pub trait FlagValue: Sized {
    fn read(it: &mut Iter<'_, String>, flag: &str) -> Result<Self, String>;
}

/// A switch: the flag alone sets it.
impl FlagValue for bool {
    fn read(_: &mut Iter<'_, String>, _: &str) -> Result<bool, String> {
        Ok(true)
    }
}

impl FlagValue for String {
    fn read(it: &mut Iter<'_, String>, flag: &str) -> Result<String, String> {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    }
}

impl<T: FlagValue> FlagValue for Option<T> {
    fn read(it: &mut Iter<'_, String>, flag: &str) -> Result<Option<T>, String> {
        T::read(it, flag).map(Some)
    }
}

macro_rules! numbers {
    ($($t:ty)*) => {$(
        impl FlagValue for $t {
            fn read(it: &mut Iter<'_, String>, flag: &str) -> Result<$t, String> {
                String::read(it, flag)?.parse().map_err(|e| format!("{flag}: {e}"))
            }
        }
    )*};
}
numbers!(u16 u32 u64 usize);

/// `--executor <channel|stealing>` (`run`, `analyze`).
impl FlagValue for Engine {
    fn read(it: &mut Iter<'_, String>, flag: &str) -> Result<Engine, String> {
        match String::read(it, flag)?.as_str() {
            "channel" | "parallel" => Ok(Engine::Channels),
            "stealing" => Ok(Engine::Stealing),
            other => Err(format!("unknown executor `{other}` (channel|stealing)")),
        }
    }
}

/// A verb that has no findings to gate on: success exits 0.
fn clean(r: Result<(), String>) -> Result<Gate, String> {
    r.map(|()| Gate::Clean)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (verb, rest) = match args.split_first() {
        Some((verb, rest)) => (verb.as_str(), rest),
        None => ("", &[][..]),
    };
    // `check` and `analyze` gate the exit code on their findings
    // (0 clean / 1 warnings under --deny-warnings / 2 errors); every other
    // verb maps success to 0 and operational failure to 1.
    let result: Result<Gate, String> = match (verb, rest) {
        ("models", flags) => clean(models::models(flags)),
        ("report", flags) => clean(models::report(flags)),
        ("compile", [model, flags @ ..]) => clean(compile::main(model, flags)),
        ("run", [model, flags @ ..]) => clean(run::main(model, flags)),
        ("profile", [model, flags @ ..]) => clean(profile::main(model, flags)),
        ("simulate", [model, flags @ ..]) => clean(simulate::main(model, flags)),
        ("check", [model, flags @ ..]) => check::main(model, flags),
        ("analyze", [model, flags @ ..]) => analyze::main(model, flags),
        ("fuzz", flags) => clean(fuzz::main(flags)),
        ("serve", [model, flags @ ..]) => clean(serve::main(model, flags)),
        ("request", flags) => clean(request::main(flags)),
        ("top", flags) => clean(top::main(flags)),
        ("export", [model, path, flags @ ..]) => clean(export::main(model, path, flags)),
        ("pull", [source, flags @ ..]) => clean(registry::pull(source, flags)),
        ("fileserver", [dir, flags @ ..]) => clean(registry::fileserver(dir, flags)),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(gate) => ExitCode::from(gate.exit_code()),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every flag of the CLI, each with a value it parses.
    const FLAGS: [(&str, Option<&str>); 30] = [
        ("--tiny", None),
        ("--prune", None),
        ("--clone", None),
        ("--batch", Some("2")),
        ("--switched", None),
        ("--intra-op", Some("2")),
        ("--iters", Some("1")),
        ("--out", Some("dir")),
        ("--mode", Some("seq")),
        ("--deny-warnings", None),
        ("--chaos-seed", Some("1")),
        ("--chaos-faults", Some("1")),
        ("--max-retries", Some("1")),
        ("--fallback", None),
        ("--port", Some("0")),
        ("--max-batch", Some("4")),
        ("--queue-cap", Some("8")),
        ("--shed", None),
        ("--op", Some("ping")),
        ("--seed", Some("1")),
        ("--count", Some("2")),
        ("--deadline-ms", Some("5")),
        ("--json", None),
        ("--executor", Some("stealing")),
        ("--interval-ms", Some("100")),
        ("--frames", Some("1")),
        ("--sha256", Some("ab")),
        ("--cache", Some("dir")),
        ("--source", Some("m.onnx")),
        ("--detail", None),
    ];

    const MODEL: [&str; 5] = ["--tiny", "--prune", "--clone", "--batch", "--switched"];

    type Parse = fn(&[String]) -> Result<(), String>;

    /// Each verb, its parser over flags alone, and the flags it reads.
    fn verbs() -> Vec<(&'static str, Parse, Vec<&'static str>)> {
        let with = |extra: &[&'static str]| [&MODEL[..], extra].concat();
        vec![
            (
                "compile",
                |f| compile::Args::parse(f).map(drop),
                with(&["--out"]),
            ),
            (
                "run",
                |f| run::Args::parse(f).map(drop),
                with(&[
                    "--intra-op",
                    "--iters",
                    "--mode",
                    "--executor",
                    "--chaos-seed",
                    "--chaos-faults",
                    "--max-retries",
                    "--fallback",
                ]),
            ),
            (
                "profile",
                |f| profile::Args::parse(f).map(drop),
                with(&["--intra-op", "--out"]),
            ),
            (
                "simulate",
                |f| simulate::Args::parse(f).map(drop),
                with(&[]),
            ),
            (
                "check",
                |f| check::Args::parse(f).map(drop),
                with(&["--deny-warnings"]),
            ),
            (
                "check all",
                |f| check::AllArgs::parse(f).map(drop),
                vec!["--tiny", "--deny-warnings"],
            ),
            (
                "analyze",
                |f| analyze::Args::parse(f).map(drop),
                with(&["--json", "--deny-warnings", "--executor"]),
            ),
            (
                "serve",
                |f| serve::Args::parse(f).map(drop),
                vec![
                    "--tiny",
                    "--prune",
                    "--clone",
                    "--switched",
                    "--port",
                    "--max-batch",
                    "--queue-cap",
                    "--shed",
                    "--max-retries",
                    "--sha256",
                    "--cache",
                ],
            ),
            (
                "request",
                |f| request::Args::parse(f).map(drop),
                vec![
                    "--port",
                    "--op",
                    "--seed",
                    "--count",
                    "--deadline-ms",
                    "--source",
                    "--sha256",
                ],
            ),
            (
                "top",
                |f| top::Args::parse(f).map(drop),
                vec!["--port", "--interval-ms", "--frames"],
            ),
            ("fuzz", |f| fuzz::Args::parse(f).map(drop), vec!["--iters"]),
            (
                "export",
                |f| export::Args::parse(f).map(drop),
                vec!["--tiny"],
            ),
            (
                "pull",
                |f| registry::PullArgs::parse(f).map(drop),
                vec!["--sha256", "--cache"],
            ),
            (
                "fileserver",
                |f| registry::FileserverArgs::parse(f).map(drop),
                vec!["--port"],
            ),
            (
                "models",
                |f| models::Args::parse(f).map(drop),
                vec!["--detail"],
            ),
            ("report", |f| no_flags("report", f), vec![]),
        ]
    }

    /// Each verb accepts exactly the flags it reads and refuses every other
    /// with an error naming the flag and the verb. Over the 29 flags of
    /// `FLAGS` other than `--detail`, the thirteen verbs accept 71 (verb,
    /// flag) pairs.
    #[test]
    fn each_verb_accepts_exactly_the_flags_it_reads() {
        let mut pairs = 0;
        for (verb, parse, reads) in verbs() {
            for (flag, value) in FLAGS {
                let args: Vec<String> = std::iter::once(flag)
                    .chain(value)
                    .map(String::from)
                    .collect();
                match parse(&args) {
                    Ok(()) => assert!(reads.contains(&flag), "`{verb}` accepted {flag}"),
                    Err(e) => {
                        assert!(!reads.contains(&flag), "`{verb}` refused {flag}: {e}");
                        assert!(e.contains(flag) && e.contains(verb), "{verb} {flag}: {e}");
                    }
                }
            }
            // `check all` is `check` again, and `models` and `report` took
            // no flag of the old bag.
            if !matches!(verb, "check all" | "models" | "report") {
                pairs += reads.len();
            }
        }
        assert_eq!(pairs, 71);
    }

    /// A bare `check all` takes the sweep's own options: only `--tiny` and
    /// `--deny-warnings`, while `check <model>` takes every model flag.
    #[test]
    fn check_all_refuses_pipeline_flags() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let e = check::AllArgs::parse(&args(&["--prune"])).err().unwrap();
        assert!(e.contains("--prune") && e.contains("check all"), "{e}");
        assert!(check::AllArgs::parse(&args(&["--tiny", "--deny-warnings"])).is_ok());
        assert!(check::Args::parse(&args(&["--prune", "--batch", "4"])).is_ok());
    }

    /// Bad values keep their messages.
    #[test]
    fn bad_values_keep_their_messages() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let run = |a: &[&str]| run::Args::parse(&args(a)).err().unwrap();
        assert_eq!(
            run(&["--mode", "fast"]),
            "unknown mode `fast` (seq|par|both)"
        );
        assert_eq!(
            run(&["--executor", "x"]),
            "unknown executor `x` (channel|stealing)"
        );
        assert_eq!(run(&["--iters"]), "--iters needs a value");
        assert!(run(&["--iters", "x"]).starts_with("--iters: "));
    }
}
