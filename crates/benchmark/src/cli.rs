//! Command-line flags.

use crate::run::Options;
use crate::workload::{Scale, Workload};

/// Measured seconds per run when `--seconds` is not given; the same as
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 30;

/// Longest accepted `--seconds`.
const MAX_SECONDS: u64 = 3_600;

/// Usage text for `--help` and flag errors.
pub const USAGE: &str = "\
usage: benchmark [--workload NAME] [--seed S] [--seconds N] [--trace 0|1 | --traced] [--smoke | --full]

  --workload NAME  sweep-864, sweep-wide, algo-matrix or gateway-jobs; without it,
                   every workload runs in its own child process
  --seed S         workload seed (default 0, the historical input)
  --seconds N      measured seconds per run (default 30); 0 runs one repetition
  --trace 0|1      1 runs the traced pass and prints the per-layer metrics
  --traced         the same as --trace 1
  --smoke          tiny inputs, for tests
  --full           the historical full-size inputs, one repetition";

/// Parsed flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flags {
    /// The one workload to run in this process, or every workload in
    /// child processes.
    pub workload: Option<Workload>,
    /// How to run it.
    pub options: Options,
}

/// Parses the arguments after the program name.
///
/// # Errors
///
/// Names the first unknown flag, missing value, or bad value.
pub fn parse(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        options: Options {
            seed: 0,
            seconds: DEFAULT_SECONDS,
            traced: false,
            scale: Scale::Timed,
        },
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: &String| v.parse::<u64>().map_err(|e| format!("{flag} {v:?}: {e}"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                flags.workload = Some(Workload::from_name(name).ok_or_else(|| {
                    format!("unknown workload {name:?}; expected sweep-864, sweep-wide, algo-matrix or gateway-jobs")
                })?);
            }
            "--seed" => flags.options.seed = number(value()?)?,
            "--seconds" => {
                let seconds = number(value()?)?;
                if seconds > MAX_SECONDS {
                    return Err(format!("--seconds {seconds} exceeds {MAX_SECONDS}"));
                }
                flags.options.seconds = seconds;
            }
            "--trace" => {
                flags.options.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--traced" => flags.options.traced = true,
            "--smoke" | "--full" if flags.options.scale != Scale::Timed => {
                return Err("--smoke and --full are exclusive".into());
            }
            "--smoke" => flags.options.scale = Scale::Smoke,
            "--full" => flags.options.scale = Scale::Full,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(flags)
}

/// The flags that reproduce `options` in a child process.
#[must_use]
pub fn to_args(workload: Workload, options: &Options) -> Vec<String> {
    let mut args = vec![
        "--workload".to_string(),
        workload.name().to_string(),
        "--seed".to_string(),
        options.seed.to_string(),
        "--seconds".to_string(),
        options.seconds.to_string(),
        "--trace".to_string(),
        if options.traced { "1" } else { "0" }.to_string(),
    ];
    match options.scale {
        Scale::Smoke => args.push("--smoke".into()),
        Scale::Full => args.push("--full".into()),
        Scale::Timed => {}
    }
    args
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(args: &[&str]) -> Result<Flags, String> {
        parse(&args.iter().map(ToString::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn defaults_and_full_flag_set() {
        let flags = parse_strs(&[]).unwrap();
        assert_eq!(flags.workload, None);
        assert_eq!(flags.options.seed, 0);
        assert_eq!(flags.options.seconds, DEFAULT_SECONDS);
        assert!(!flags.options.traced);
        assert_eq!(flags.options.scale, Scale::Timed);

        let args: Vec<&str> = "--workload gateway-jobs --seed 7 --seconds 10 --trace 1"
            .split(' ')
            .collect();
        let flags = parse_strs(&args).unwrap();
        assert_eq!(flags.workload, Some(Workload::GatewayJobs));
        assert_eq!(flags.options.seed, 7);
        assert_eq!(flags.options.seconds, 10);
        assert!(flags.options.traced);
        assert!(parse_strs(&["--traced"]).unwrap().options.traced);
        assert!(!parse_strs(&["--trace", "0"]).unwrap().options.traced);
        assert_eq!(
            parse_strs(&["--smoke"]).unwrap().options.scale,
            Scale::Smoke
        );
        assert_eq!(parse_strs(&["--full"]).unwrap().options.scale, Scale::Full);
    }

    #[test]
    fn bad_values_are_rejected() {
        for (args, expected) in [
            (vec!["--workload", "nope"], "unknown workload"),
            (vec!["--workload"], "--workload needs a value"),
            (vec!["--seed", "-1"], "--seed \"-1\""),
            (vec!["--seed", "x"], "--seed \"x\""),
            (vec!["--seconds", "3601"], "exceeds"),
            (vec!["--seconds", "1.5"], "--seconds \"1.5\""),
            (vec!["--trace", "2"], "0 or 1"),
            (vec!["--trace"], "--trace needs a value"),
            (vec!["--smoke", "--full"], "exclusive"),
            (vec!["--fast"], "unknown flag"),
            (vec!["sweep-864"], "unknown flag"),
        ] {
            let err = parse_strs(&args).unwrap_err();
            assert!(err.contains(expected), "{args:?}: {err}");
        }
    }

    #[test]
    fn child_arguments_round_trip() {
        let options = Options {
            seed: 3,
            seconds: 5,
            traced: true,
            scale: Scale::Smoke,
        };
        let args = to_args(Workload::AlgoMatrix, &options);
        let flags = parse(&args).unwrap();
        assert_eq!(flags.workload, Some(Workload::AlgoMatrix));
        assert_eq!(flags.options, options);
    }
}
