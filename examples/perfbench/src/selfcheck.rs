//! Parent modes: `--workload all` and `--selfcheck`. Each workload runs
//! in a child process of its own (this same executable), so that peak
//! memory is per workload and both sets of a selfcheck start equal.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use simbench_campaign::json;

use crate::args::Args;
use crate::table::{self, WorkloadKind};

/// Start this executable on one workload and wait for it.
fn child(
    kind: WorkloadKind,
    seed: u64,
    args: &Args,
    out: Option<&Path>,
    quiet: bool,
) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", kind.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if let Some(path) = out {
        cmd.arg("--out").arg(path);
    }
    if quiet {
        cmd.stdout(Stdio::null());
    }
    let status = cmd.status().map_err(|e| e.to_string())?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("workload {} exited with {status}", kind.name()))
    }
}

/// `--workload all`: every workload in turn, each printing its own
/// report. `--out FILE` becomes `FILE` with the workload's name put
/// before the extension.
pub fn run_each(args: &Args) -> ExitCode {
    let mut code = ExitCode::SUCCESS;
    for &kind in &args.workloads {
        let out = args
            .out
            .as_ref()
            .map(|p| p.with_extension(format!("{}.json", kind.name())));
        if let Err(e) = child(kind, args.seed, args, out.as_deref(), false) {
            eprintln!("perfbench: {e}");
            code = ExitCode::from(1);
        }
    }
    code
}

/// `name -> (value, exact)` of one `--out` report.
type Report = BTreeMap<String, (f64, bool)>;

fn load(path: &Path) -> Result<Report, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text)?;
    let mut report = Report::new();
    for m in doc
        .get("metrics")
        .and_then(|m| m.as_arr())
        .ok_or("no metrics array")?
    {
        let name = m.get("name").and_then(|n| n.as_str()).ok_or("no name")?;
        let value = m.get("value").and_then(|v| v.as_f64()).ok_or("no value")?;
        let exact = m.get("exact") == Some(&json::Value::Bool(true));
        report.insert(name.to_string(), (value, exact));
    }
    Ok(report)
}

fn rel_diff(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else {
        (b - a).abs() / a.abs().max(f64::MIN_POSITIVE)
    }
}

/// Compare two reports of one workload; prints one row per end-to-end
/// metric and one for the exact counts. Returns the number of FAILs.
fn compare(kind: WorkloadKind, sets: &str, a: &Report, b: &Report) -> usize {
    let mut fails = 0;
    let mut verdict = |ok: bool| {
        if ok {
            "PASS"
        } else {
            fails += 1;
            "FAIL"
        }
    };
    for d in table::end_to_end_defs() {
        let bound = d.bound.expect("end-to-end metrics have bounds");
        let (Some(&(va, _)), Some(&(vb, _))) = (a.get(&d.name), b.get(&d.name)) else {
            println!(
                "{:<10} {sets} {:<16} missing  {}",
                kind.name(),
                d.name,
                verdict(false)
            );
            continue;
        };
        let diff = rel_diff(va, vb);
        println!(
            "{:<10} {sets} {:<16} {va:>14.6} {vb:>14.6} {:>7.2}% {:>4.0}%  {}",
            kind.name(),
            d.name,
            diff * 100.0,
            bound * 100.0,
            verdict(diff <= bound)
        );
    }
    let exact: Vec<&String> = a.iter().filter(|(_, v)| v.1).map(|(n, _)| n).collect();
    let differing: Vec<&str> = exact
        .iter()
        .filter(|n| b.get(**n).map(|v| v.0) != Some(a[**n].0))
        .map(|n| n.as_str())
        .collect();
    println!(
        "{:<10} {sets} exact counts: {} compared, {} differ {:?}  {}",
        kind.name(),
        exact.len(),
        differing.len(),
        differing,
        verdict(differing.is_empty())
    );
    fails
}

/// `--selfcheck`: sets A and B on `--seed`, set C on the next seed, all
/// from this one executable. A metric passes when the two values differ
/// by no more than its bound; exact counts must be identical, between
/// sets and between seeds (a seed changes the order of cells, never the
/// work).
pub fn run(args: &Args) -> ExitCode {
    let scratch: PathBuf = crate::scratch_dir();
    println!(
        "perfbench selfcheck: sets A and B on seed {}, set C on seed {}, {} s per run",
        args.seed,
        args.seed + 1,
        args.seconds
    );
    println!(
        "{:<10} {:<4} {:<16} {:>14} {:>14} {:>8} {:>5}  verdict",
        "workload", "sets", "metric", "first", "second", "diff", "bound"
    );
    let mut fails = 0;
    for &kind in &args.workloads {
        let mut reports = Vec::new();
        for (set, seed) in [("A", args.seed), ("B", args.seed), ("C", args.seed + 1)] {
            let path = scratch.join(format!("selfcheck-{set}-{}.json", kind.name()));
            match child(kind, seed, args, Some(&path), true).and_then(|()| load(&path)) {
                Ok(r) => reports.push(r),
                Err(e) => {
                    println!("{:<10} set {set}: {e}  FAIL", kind.name());
                    fails += 1;
                }
            }
        }
        let [a, b, c] = &reports[..] else { continue };
        fails += compare(kind, "A=B ", a, b);
        fails += compare(kind, "A=C ", a, c);
        // How far to trust the rows above: how loud the box was (sum of
        // cell medians / sum of floors) and how fast (a fixed loop).
        for name in ["bench.noise_ratio", "bench.box_us"] {
            let of = |r: &Report| r.get(name).map_or(0.0, |v| v.0);
            println!(
                "{:<10} {name}: A {:.3}  B {:.3}  C {:.3}",
                kind.name(),
                of(a),
                of(b),
                of(c)
            );
        }
    }
    println!("selfcheck: {fails} FAIL");
    if fails == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_gates_on_bounds_and_exact_counts() {
        let report = |pass_s: f64, insns: f64| -> Report {
            let mut r = Report::new();
            for d in table::end_to_end_defs() {
                r.insert(d.name, (1.0, false));
            }
            r.insert("pass_s".to_string(), (pass_s, false));
            r.insert("interp.insns".to_string(), (insns, true));
            r
        };
        let a = report(1.0, 500.0);
        let within = report(1.0 + 0.8 * table::TIME_BOUND, 500.0);
        let beyond = report(1.0 + 1.2 * table::TIME_BOUND, 500.0);
        assert_eq!(compare(WorkloadKind::Steady, "A=B ", &a, &within), 0);
        assert_eq!(compare(WorkloadKind::Steady, "A=B ", &a, &beyond), 1);
        let counts_differ = report(1.0, 501.0);
        assert_eq!(compare(WorkloadKind::Cold, "A=C ", &a, &counts_differ), 1);
        assert_eq!(rel_diff(2.0, 2.0), 0.0);
        assert!((rel_diff(2.0, 2.1) - 0.05).abs() < 1e-12);
    }
}
