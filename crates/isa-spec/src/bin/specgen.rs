//! Regenerate every ISA crate's `src/decode_gen.rs` from its
//! `spec/<name>.isa` file.
//!
//! Usage:
//!
//! ```text
//! cargo run -p simbench-isa-spec --bin specgen            # rewrite stale files
//! cargo run -p simbench-isa-spec --bin specgen -- --check # fail if anything is stale
//! ```
//!
//! Discovery is by convention: any `crates/*/spec/*.isa` is compiled to
//! the sibling `src/decode_gen.rs`, so registering a new ISA is just
//! dropping a spec file into its crate. Output is formatted with
//! `rustfmt` when available so the committed files are stable under
//! `cargo fmt --check`.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use simbench_isa_spec::{generate, Spec};

fn rustfmt(src: &str) -> String {
    let child = Command::new("rustfmt")
        .args(["--edition", "2021", "--emit", "stdout"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn();
    let Ok(mut child) = child else {
        return src.to_string();
    };
    if let Some(stdin) = child.stdin.take() {
        let mut stdin = stdin;
        if stdin.write_all(src.as_bytes()).is_err() {
            return src.to_string();
        }
    }
    match child.wait_with_output() {
        Ok(out) if out.status.success() => {
            String::from_utf8(out.stdout).unwrap_or_else(|_| src.to_string())
        }
        _ => src.to_string(),
    }
}

fn workspace_root() -> PathBuf {
    // crates/isa-spec → crates → workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
        .to_path_buf()
}

fn find_specs(root: &Path) -> Vec<PathBuf> {
    let mut specs = Vec::new();
    let crates = root.join("crates");
    let Ok(entries) = std::fs::read_dir(&crates) else {
        return specs;
    };
    for entry in entries.flatten() {
        let spec_dir = entry.path().join("spec");
        let Ok(files) = std::fs::read_dir(&spec_dir) else {
            continue;
        };
        for file in files.flatten() {
            let path = file.path();
            if path.extension().is_some_and(|e| e == "isa") {
                specs.push(path);
            }
        }
    }
    specs.sort();
    specs
}

fn main() -> ExitCode {
    // Refuse a mistyped `--check` before any file is read: run as a
    // rewrite, it would pass in CI whatever the committed files hold.
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(bad) = args.iter().find(|a| *a != "--check") {
        eprintln!("specgen: unknown argument {bad:?} (usage: specgen [--check])");
        return ExitCode::from(2);
    }
    let check = !args.is_empty();
    let root = workspace_root();
    let specs = find_specs(&root);
    if specs.is_empty() {
        eprintln!("specgen: no spec files found under {}", root.display());
        return ExitCode::from(2);
    }

    let mut stale = Vec::new();
    for spec_path in &specs {
        let text = match std::fs::read_to_string(spec_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("specgen: {}: {e}", spec_path.display());
                return ExitCode::from(2);
            }
        };
        let spec = match Spec::parse(&text).and_then(|s| generate(&s).map(|g| (s, g))) {
            Ok((spec, generated)) => (spec, generated),
            Err(e) => {
                eprintln!("specgen: {}: {e}", spec_path.display());
                return ExitCode::from(2);
            }
        };
        let (parsed, generated) = spec;
        let formatted = rustfmt(&generated);
        let out_path = spec_path
            .parent()
            .and_then(Path::parent)
            .expect("crate dir")
            .join("src/decode_gen.rs");
        let current = std::fs::read_to_string(&out_path).unwrap_or_default();
        let rel = out_path
            .strip_prefix(&root)
            .unwrap_or(&out_path)
            .display()
            .to_string();
        if current == formatted {
            println!("specgen: {rel} up to date ({})", parsed.name);
            continue;
        }
        if check {
            stale.push(rel);
        } else {
            if let Err(e) = std::fs::write(&out_path, &formatted) {
                eprintln!("specgen: write {rel}: {e}");
                return ExitCode::from(2);
            }
            println!("specgen: {rel} regenerated ({})", parsed.name);
        }
    }

    if !stale.is_empty() {
        eprintln!("specgen: stale generated decoders (re-run specgen and commit):");
        for rel in &stale {
            eprintln!("  {rel}");
        }
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
