//! Hot-path source lint.
//!
//! The allocation-free hot loops (the shared execution core and the
//! engine policies over it, dbt dispatch, the decoders, the obs record
//! paths) were made free of per-event heap traffic and
//! of formatted panic machinery; this lint keeps them that way. It is a
//! line-based scan of a fixed list of designated files, not a parser —
//! deliberately simple, so a violation message points at a line a
//! human can read in context.
//!
//! Rules, applied outside `#[cfg(test)]` modules and `#[cold]`
//! functions:
//!
//! - `format!(`, `vec![` and `Box::new(` are always flagged: each one
//!   is a heap allocation on a path that must not allocate.
//! - `assert!`/`assert_eq!`/`assert_ne!`/`panic!`/`unreachable!` are
//!   flagged only when their message interpolates (`{` in the string):
//!   a formatted panic keeps its operands alive across the happy path
//!   and spills hot-loop registers (see `core/src/ir.rs`). Plain
//!   string panics and `debug_assert*` (compiled out in release) are
//!   fine.
//! - Outside the decoders themselves, a `Decoded` taken or returned by
//!   value (`: Decoded`, `-> Decoded`, `Result<Decoded`,
//!   `Option<Decoded`) and `unwrap_or_else(|_| Decoded::new` are
//!   flagged: the decoder fills its return slot with byte-wide stores,
//!   and every move of that value reloads it with wide loads that cannot
//!   be store-forwarded (see `Insn::Fresh` in `core/src/run.rs`). Bind
//!   the decoder's result once and pass `&Decoded`.
//! - A line carrying (or preceded by a line carrying)
//!   `lint:allow(hot-path)` is exempt: constructors and other cold
//!   set-up code inside hot-path files annotate themselves.
//!
//! Beside the hot-path rules, [`lint_root`] holds the whole workspace to
//! [`LINE_BUDGET`].

use std::cmp::Ordering;
use std::fmt;
use std::path::Path;

/// The most lines of Rust the repository may hold: every `.rs` file under
/// `crates/`, `src/`, `tests/` and `examples/` outside a cargo `target/`
/// directory, tests, benchmark and generated code included (what
/// `find crates src tests examples -name '*.rs' -not -path '*/target/*'
/// | xargs cat | wc -l` prints), exactly: a change that deletes code
/// lowers it in the same commit (the lint fails on a tree under it too);
/// one that raises it says why in CHANGES.md.
pub const LINE_BUDGET: usize = 43_524;

/// Directories whose `.rs` files count against [`LINE_BUDGET`].
const BUDGET_DIRS: &[&str] = &["crates", "src", "tests", "examples"];

/// Files the lint guards, relative to the repository root. These are
/// the modules on the per-instruction path of at least one engine.
pub const HOT_PATH_FILES: &[&str] = &[
    "crates/core/src/alu.rs",
    "crates/core/src/exec.rs",
    "crates/core/src/frontend.rs",
    "crates/core/src/ir.rs",
    "crates/core/src/run.rs",
    "crates/core/src/tlb.rs",
    "crates/dbt/src/cache.rs",
    "crates/dbt/src/lib.rs",
    "crates/dbt/src/opt.rs",
    "crates/dbt/src/tlb.rs",
    "crates/dbt/src/versions.rs",
    "crates/detailed/src/cachemodel.rs",
    "crates/detailed/src/lib.rs",
    "crates/detailed/src/timing.rs",
    "crates/interp/src/lib.rs",
    "crates/isa-armlet/src/decode.rs",
    "crates/isa-armlet/src/decode_gen.rs",
    "crates/isa-petix/src/decode.rs",
    "crates/isa-petix/src/decode_gen.rs",
    "crates/isa-riscle/src/decode.rs",
    "crates/isa-riscle/src/decode_gen.rs",
    "crates/obs/src/metrics.rs",
    "crates/obs/src/ring.rs",
    "crates/virt/src/lib.rs",
];

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintFinding {
    /// Repo-relative file path.
    pub file: String,
    /// 1-based line number (0 for file-level findings).
    pub line: usize,
    /// Which rule fired.
    pub what: &'static str,
    /// The offending line, trimmed.
    pub text: String,
}

impl fmt::Display for LintFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.what, self.text
        )
    }
}

/// Allocation constructs never allowed on a hot path.
const ALLOC_PATTERNS: &[(&str, &str)] = &[
    ("format!(", "heap allocation (format!)"),
    ("vec![", "heap allocation (vec![)"),
    ("Box::new(", "heap allocation (Box::new)"),
];

/// Panic-family macros allowed only with non-interpolating messages.
const PANIC_PATTERNS: &[(&str, &str)] = &[
    ("assert!(", "formatted assert"),
    ("assert_eq!(", "formatted assert"),
    ("assert_ne!(", "formatted assert"),
    ("panic!(", "formatted panic"),
    ("unreachable!(", "formatted panic"),
];

/// Ways a `Decoded` changes hands by value. Each ends in the type name,
/// so a match must not run on into a longer identifier.
const DECODED_BY_VALUE: &[&str] = &[
    ": Decoded",
    "-> Decoded",
    "Result<Decoded",
    "Option<Decoded",
    "unwrap_or_else(|_| Decoded::new",
];

/// The generated decoders and their hand-written front doors: where a
/// `Decoded` comes from, by value, through `Isa::decode`'s signature.
fn is_decoder(file: &str) -> bool {
    file.ends_with("/decode.rs") || file.ends_with("/decode_gen.rs")
}

/// True if `line` moves a `Decoded` by value ([`DECODED_BY_VALUE`]).
fn moves_decoded(line: &str) -> bool {
    DECODED_BY_VALUE.iter().any(|pat| {
        line.match_indices(pat).any(|(at, _)| {
            !line[at + pat.len()..].starts_with(|c: char| c.is_alphanumeric() || c == '_')
        })
    })
}

/// True if `line` contains `pat` at a position not preceded by an
/// identifier character (so `assert!(` does not match inside
/// `debug_assert!(`). Returns the match offset.
fn find_bare(line: &str, pat: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(rel) = line[from..].find(pat) {
        let at = from + rel;
        let preceded = line[..at]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if !preceded {
            return Some(at);
        }
        from = at + pat.len();
    }
    None
}

/// Scan one file's text. `file` is the label used in findings.
pub fn lint_file(file: &str, text: &str) -> Vec<LintFinding> {
    let mut findings = Vec::new();
    let mut prev_allows = false;
    // Brace-depth tracking for the body following a `#[cold]` marker.
    let mut cold_pending = false;
    let mut cold_depth = 0usize;

    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();

        // Test modules sit at the bottom of every file in this repo;
        // nothing below the first test gate is a hot path.
        if line.starts_with("#[cfg(test)]") {
            break;
        }

        if cold_pending || cold_depth > 0 {
            let opens = raw.matches('{').count();
            let closes = raw.matches('}').count();
            if cold_pending && opens > 0 {
                cold_pending = false;
                cold_depth = opens;
                cold_depth = cold_depth.saturating_sub(closes);
                if cold_depth == 0 {
                    // One-line body.
                    prev_allows = false;
                    continue;
                }
            } else if cold_depth > 0 {
                cold_depth += opens;
                cold_depth = cold_depth.saturating_sub(closes);
            }
            prev_allows = false;
            continue;
        }
        if line.starts_with("#[cold]") {
            cold_pending = true;
            prev_allows = false;
            continue;
        }

        let allows = raw.contains("lint:allow(hot-path)");
        let exempt = allows || prev_allows;
        prev_allows = allows;
        if exempt || line.starts_with("//") {
            continue;
        }

        for &(pat, what) in ALLOC_PATTERNS {
            if find_bare(raw, pat).is_some() {
                findings.push(LintFinding {
                    file: file.to_string(),
                    line: i + 1,
                    what,
                    text: line.to_string(),
                });
            }
        }
        if !is_decoder(file) && moves_decoded(raw) {
            findings.push(LintFinding {
                file: file.to_string(),
                line: i + 1,
                what: "Decoded moved by value",
                text: line.to_string(),
            });
        }
        for &(pat, what) in PANIC_PATTERNS {
            if let Some(at) = find_bare(raw, pat) {
                // Formatted ⟺ the message string interpolates. Line-based:
                // a `{` anywhere in the macro's arguments on this line.
                let rest = &raw[at + pat.len()..];
                if rest.contains('{') {
                    findings.push(LintFinding {
                        file: file.to_string(),
                        line: i + 1,
                        what,
                        text: line.to_string(),
                    });
                }
            }
        }
    }
    findings
}

/// Lint every designated hot-path file under `root` (the repository
/// root) and check the workspace against [`LINE_BUDGET`]. A missing
/// file is itself a finding: renaming a hot-path module must update the
/// lint list, not silently escape it.
pub fn lint_root(root: &Path) -> Vec<LintFinding> {
    let mut findings = Vec::new();
    for &rel in HOT_PATH_FILES {
        match std::fs::read_to_string(root.join(rel)) {
            Ok(text) => findings.extend(lint_file(rel, &text)),
            Err(_) => findings.push(LintFinding {
                file: rel.to_string(),
                line: 0,
                what: "designated hot-path file missing",
                text: String::new(),
            }),
        }
    }
    findings.extend(check_budget(root, LINE_BUDGET));
    findings
}

/// A finding when the `.rs` files under [`BUDGET_DIRS`] hold more or
/// fewer than `budget` lines: a tree under its budget names the count
/// to lower it to, so deleted code's savings are not spent again
/// unnoticed.
fn check_budget(root: &Path, budget: usize) -> Option<LintFinding> {
    let lines: usize = BUDGET_DIRS.iter().map(|d| rust_lines(&root.join(d))).sum();
    let (what, text) = match lines.cmp(&budget) {
        Ordering::Equal => return None,
        Ordering::Greater => (
            "line budget exceeded",
            format!("{lines} lines of Rust > LINE_BUDGET {budget}"),
        ),
        Ordering::Less => (
            "line budget not lowered",
            format!("{lines} lines of Rust < LINE_BUDGET {budget}: set LINE_BUDGET to {lines}"),
        ),
    };
    Some(LintFinding {
        file: BUDGET_DIRS.join("/ ") + "/",
        line: 0,
        what,
        text,
    })
}

/// Newlines in every `.rs` file under `dir`, recursively; symlinks are
/// not followed.
fn rust_lines(dir: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| {
            let path = entry.path();
            match entry.file_type() {
                // Build output (perfbench builds into its own target).
                Ok(t) if t.is_dir() && entry.file_name() != "target" => rust_lines(&path),
                Ok(t) if t.is_file() && path.extension().is_some_and(|x| x == "rs") => {
                    std::fs::read(&path).map_or(0, |b| b.iter().filter(|&&c| c == b'\n').count())
                }
                _ => 0,
            }
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn whats(text: &str) -> Vec<&'static str> {
        lint_file("t.rs", text)
            .into_iter()
            .map(|f| f.what)
            .collect()
    }

    #[test]
    fn flags_allocations() {
        assert_eq!(
            whats("fn f() { let v = vec![1, 2]; }"),
            vec!["heap allocation (vec![)"]
        );
        assert_eq!(
            whats("let s = format!(\"x{y}\");"),
            vec!["heap allocation (format!)"]
        );
        assert_eq!(
            whats("let b = Box::new(3);"),
            vec!["heap allocation (Box::new)"]
        );
    }

    #[test]
    fn formatted_panics_only() {
        assert_eq!(whats("panic!(\"bad {x}\");"), vec!["formatted panic"]);
        assert!(whats("panic!(\"bad\");").is_empty());
        assert_eq!(whats("assert!(ok, \"r{n}\");"), vec!["formatted assert"]);
        assert!(whats("assert!(ok);").is_empty());
        assert_eq!(
            whats("assert_eq!(a, b, \"{a}\");"),
            vec!["formatted assert"]
        );
    }

    #[test]
    fn flags_a_decoded_moved_by_value_outside_the_decoders() {
        let by_value = [
            "fn insert(&mut self, d: Decoded) -> u16 {",
            "fn nop() -> Decoded {",
            "fn decode_at(&mut self, pc: u32) -> Result<Decoded, MemFault> {",
            "fn cached(&self, pc: u32) -> Option<Decoded> {",
            "let d = I::decode(bytes, pc).unwrap_or_else(|_| Decoded::new(4, [Op::Udf], class));",
        ];
        for line in by_value {
            assert_eq!(whats(line), vec!["Decoded moved by value"], "{line}");
            assert!(lint_file("crates/isa-petix/src/decode.rs", line).is_empty());
            assert!(whats(&format!("{line} // lint:allow(hot-path)")).is_empty());
        }
        for line in [
            "fn insn_cost(&mut self, d: &Decoded) {}",
            "fn undecodable<I: Isa>() -> &'static Decoded {",
            "arena: Vec<Decoded>,",
            "fn page(&self) -> DecodedPage {",
            "let res = I::decode(bytes, pc);",
        ] {
            assert!(whats(line).is_empty(), "{line}");
        }
    }

    #[test]
    fn debug_asserts_are_exempt() {
        assert!(whats("debug_assert!(x > 0, \"x={x}\");").is_empty());
        assert!(whats("debug_assert_eq!(a, b, \"{a}\");").is_empty());
    }

    #[test]
    fn cold_functions_are_exempt() {
        let text = "#[cold]\n#[inline(never)]\nfn die(x: u32) -> ! {\n    panic!(\"x = {x}\");\n}\nfn hot() { panic!(\"y = {y}\"); }\n";
        let f = lint_file("t.rs", text);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 6);
    }

    #[test]
    fn allow_comment_suppresses_same_and_next_line() {
        assert!(whats("let v = vec![0; 4]; // lint:allow(hot-path)").is_empty());
        assert!(whats("// lint:allow(hot-path): built once\nlet v = vec![0; 4];").is_empty());
        assert_eq!(
            whats("// lint:allow(hot-path)\nlet a = 1;\nlet v = vec![0; 4];").len(),
            1
        );
    }

    #[test]
    fn test_modules_are_ignored() {
        let text = "fn hot() {}\n#[cfg(test)]\nmod tests {\n    fn t() { let v = vec![1]; }\n}\n";
        assert!(lint_file("t.rs", text).is_empty());
    }

    #[test]
    fn one_line_over_the_budget_is_a_finding() {
        let root = std::env::temp_dir().join(format!("simbench-budget-{}", std::process::id()));
        let src = root.join("crates/x/src");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::create_dir_all(root.join("tests")).unwrap();
        std::fs::write(src.join("lib.rs"), "fn a() {}\nfn b() {}\n").unwrap();
        std::fs::write(src.join("notes.md"), "not\ncounted\n").unwrap();
        std::fs::write(root.join("tests/t.rs"), "fn c() {}\n").unwrap();
        let at_budget = check_budget(&root, 3);
        let over = check_budget(&root, 2);
        std::fs::remove_dir_all(&root).unwrap();
        assert_eq!(at_budget, None);
        let f = over.expect("one line over the budget");
        assert_eq!(f.text, "3 lines of Rust > LINE_BUDGET 2");
    }

    #[test]
    fn one_line_under_the_budget_names_the_count_to_set() {
        let root = std::env::temp_dir().join(format!("simbench-under-{}", std::process::id()));
        std::fs::create_dir_all(root.join("src")).unwrap();
        std::fs::write(root.join("src/lib.rs"), "fn a() {}\n").unwrap();
        let under = check_budget(&root, 2);
        std::fs::remove_dir_all(&root).unwrap();
        let f = under.expect("one line under the budget");
        assert_eq!(f.what, "line budget not lowered");
        assert_eq!(
            f.text,
            "1 lines of Rust < LINE_BUDGET 2: set LINE_BUDGET to 1"
        );
    }

    #[test]
    fn budget_counts_only_rs_files_under_the_listed_dirs() {
        let root = std::env::temp_dir().join(format!("simbench-uncounted-{}", std::process::id()));
        let out = root.join("examples/bench/target/debug/build");
        std::fs::create_dir_all(&out).unwrap();
        std::fs::write(root.join("examples/e.rs"), "fn e() {}\n").unwrap();
        std::fs::write(out.join("generated.rs"), "fn g() {}\n").unwrap();
        std::fs::write(root.join("build.rs"), "fn main() {}\n").unwrap();
        let (at_budget, over) = (check_budget(&root, 1), check_budget(&root, 0));
        std::fs::remove_dir_all(&root).unwrap();
        assert_eq!(at_budget, None);
        assert_eq!(
            over.expect("examples count").text,
            "1 lines of Rust > LINE_BUDGET 0"
        );
    }

    #[test]
    fn lint_root_flags_every_missing_hot_path_file() {
        let root = std::env::temp_dir().join(format!("simbench-empty-{}", std::process::id()));
        std::fs::create_dir_all(&root).unwrap();
        let findings = lint_root(&root);
        std::fs::remove_dir_all(&root).unwrap();
        // An empty tree is also under its line budget: that finding
        // comes last.
        let (budget, missing) = findings.split_last().expect("findings");
        assert_eq!(budget.what, "line budget not lowered");
        let files: Vec<&str> = missing.iter().map(|f| f.file.as_str()).collect();
        assert_eq!(files, HOT_PATH_FILES);
        assert!(missing.iter().all(|f| f.what.ends_with("file missing")));
    }

    #[test]
    fn the_repo_hot_paths_are_clean() {
        // The real rule run, budget included, as the CI job executes it.
        // Walk up from the crate dir to the workspace root.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root");
        let findings = lint_root(root);
        assert!(
            findings.is_empty(),
            "hot-path lint violations:\n{}",
            findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
