//! Fig 5: the measurement environment. The paper lists its two physical
//! testbeds; our substitution (see "Substitutions" in the README) runs
//! every engine on the host this harness executes on, so the honest
//! equivalent is a description of that host plus the engine
//! configurations.

use crate::table::Table;

/// Render the environment table.
pub fn run() -> String {
    let mut table = Table::new(["property", "value"]);
    table.row([
        "Role",
        "host for all five engines (paper: ODROID-XU3 + HP z440)",
    ]);
    table.row([
        "OS".to_string(),
        format!("{} / {}", std::env::consts::OS, std::env::consts::ARCH),
    ]);
    table.row(["CPU".to_string(), cpu_model()]);
    table.row(["Logical CPUs".to_string(), num_cpus().to_string()]);
    table.row(["Rust".to_string(), rustc_version()]);
    table.row([
        "Engines",
        "dbt, interp, detailed, virt, native (single-threaded)",
    ]);
    format!("Fig 5 — measurement environment\n\n{}", table.render())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn num_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn rustc_version() -> String {
    option_env!("CARGO_PKG_RUST_VERSION")
        .filter(|v| !v.is_empty())
        .map(str::to_string)
        .unwrap_or_else(|| "stable (workspace default)".to_string())
}

#[cfg(test)]
mod tests {
    #[test]
    fn renders() {
        let s = super::run();
        assert!(s.contains("Fig 5"));
        assert!(s.contains("Engines"));
    }
}
