//! Command-line parsing. Unknown flags, workload names and malformed
//! values are usage errors (exit 3, as in `simbench-harness`).

use std::path::PathBuf;

use crate::table::{self, WorkloadKind};

pub const USAGE: &str = "usage: perfbench --workload <steady|slow-path|cold|campaign|all> \
[--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--selfcheck]";

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// The workloads to run, in table order (`all` names all four).
    pub workloads: Vec<WorkloadKind>,
    /// True when `--workload all` was given: each workload then runs in
    /// a process of its own, so that peak memory does not accumulate.
    pub all: bool,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: Option<PathBuf>,
    pub selfcheck: bool,
}

pub fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload: Option<&str> = None;
    let mut args = Args {
        workloads: Vec::new(),
        all: false,
        seed: table::DEFAULT_SEED,
        seconds: table::DEFAULT_SECONDS,
        trace: false,
        out: None,
        selfcheck: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed {v:?} is not an unsigned integer"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("--seconds {v:?} is not a number in (0, 3600]"))?;
            }
            "--trace" => {
                args.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v:?} is neither 0 nor 1")),
                };
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    match workload {
        None => return Err("--workload is required".to_string()),
        Some("all") => {
            args.all = true;
            args.workloads = WorkloadKind::ALL.to_vec();
        }
        Some(name) => args
            .workloads
            .push(WorkloadKind::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?),
    }
    if args.selfcheck && args.trace {
        return Err("--selfcheck compares untraced runs; drop --trace 1".to_string());
    }
    Ok(args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&argv)
    }

    #[test]
    fn the_driver_command_line_parses() {
        let a = parse_str("--workload slow-path --seed 42 --seconds 20 --trace 1").unwrap();
        assert_eq!(a.workloads, vec![WorkloadKind::SlowPath]);
        assert_eq!((a.seed, a.seconds, a.trace, a.all), (42, 20.0, true, false));
        assert_eq!(a.out, None);
    }

    #[test]
    fn defaults_and_all() {
        let a = parse_str("--workload all --selfcheck --out r.json").unwrap();
        assert_eq!(a.workloads, WorkloadKind::ALL.to_vec());
        assert!(a.all && a.selfcheck && !a.trace);
        assert_eq!(a.seed, table::DEFAULT_SEED);
        assert_eq!(a.seconds, table::DEFAULT_SECONDS);
        assert_eq!(a.out, Some(PathBuf::from("r.json")));
    }

    #[test]
    fn usage_errors() {
        for bad in [
            "",
            "--workload",
            "--workload warm",
            "--workload steady --frobnicate",
            "--workload steady --seed -1",
            "--workload steady --seconds 0",
            "--workload steady --seconds nan",
            "--workload steady --trace 2",
            "--workload steady --trace 1 --selfcheck",
            "steady",
        ] {
            assert!(parse_str(bad).is_err(), "{bad:?} should be rejected");
        }
    }
}
