//! # simbench-analyzer
//!
//! Static guest-code analysis: everything the suite can prove about a
//! guest image *without running it on an engine*.
//!
//! Two results per subject, produced by [`analyze_image`] (or the
//! [`analyze_workload`]/[`analyze_fuzz`] conveniences) and persisted as
//! a versioned [`artifact`]:
//!
//! 1. **CFG recovery and invariant proofs** — recursive-descent decode
//!    from the entry point and exception vectors
//!    ([`simbench_core::cfg`]); every violation the walk finds
//!    (undecodable reachable instruction, branch off the image, control
//!    falling off the end, overlapping decodings, no reachable halt) is
//!    a bug in a workload generator or a decoder, surfaced before any
//!    engine runs the bytes.
//! 2. **Static event-profile prediction** ([`predict`]) — for bounded
//!    programs, the exact [`Counters`] vector a correct
//!    interpreter-structured engine must retire. With
//!    [`AnalyzeOpts::check`] the prediction is verified against a real
//!    interpreter run, which makes the analyzer and the interpreter
//!    N-version implementations of the same reference semantics.
//!
//! The crate also hosts the [`lint`] that keeps the designated hot-path
//! modules allocation- and format-free.
//!
//! [`Counters`]: simbench_core::Counters

pub mod artifact;
pub mod lint;
pub mod predict;

pub use artifact::{to_json, SCHEMA};
pub use lint::{lint_file, lint_root, LintFinding, HOT_PATH_FILES};
pub use predict::{predict, Prediction};

use simbench_campaign::registry::{dispatch_guest, GuestSpec, GuestVisitor};
use simbench_campaign::{measure, Guest, Workload};
use simbench_core::cfg::Cfg;
use simbench_core::engine::{Engine, ExitReason, RunLimits};
use simbench_core::image::GuestImage;
use simbench_core::isa::Isa;
use simbench_core::machine::Machine;
use simbench_interp::Interp;
use simbench_obs::Counter;
use simbench_platform::Platform;

static OBS_SUBJECTS: Counter = Counter::new("analyzer.subjects");
static OBS_VIOLATIONS: Counter = Counter::new("analyzer.violations");
static OBS_CHECK_MISMATCHES: Counter = Counter::new("analyzer.check_mismatches");

/// Exception-vector roots added to every recovery: both ISAs reset
/// their vector base to 0 and lay the five vectors out at stride 0x20
/// (undef, syscall, data abort, prefetch abort, irq).
pub const VECTOR_ROOTS: [u32; 5] = [0x00, 0x20, 0x40, 0x60, 0x80];

/// Analysis options.
#[derive(Debug, Clone, Copy)]
pub struct AnalyzeOpts {
    /// Instruction budget for the static prediction.
    pub fuel: u64,
    /// Also run the reference interpreter and compare counters.
    pub check: bool,
}

impl Default for AnalyzeOpts {
    fn default() -> Self {
        AnalyzeOpts {
            fuel: 50_000_000,
            check: false,
        }
    }
}

/// Outcome of the static-vs-dynamic counter check.
#[derive(Debug, Clone)]
pub struct CheckResult {
    /// True when the interpreter agreed with the prediction.
    pub matched: bool,
    /// Human-readable mismatch rows, empty on success.
    pub detail: Vec<String>,
}

/// Everything the analyzer proved about one subject image.
#[derive(Debug, Clone)]
pub struct SubjectAnalysis {
    /// `guest/workload` or `guest/fuzz:seed[k]` label.
    pub subject: String,
    /// Guest ISA name.
    pub guest: &'static str,
    /// Image entry point.
    pub entry: u32,
    /// Total section bytes.
    pub image_size: usize,
    /// One past the highest section byte.
    pub image_limit: u32,
    /// Reachable instruction count.
    pub insns: usize,
    /// Static edge count.
    pub edges: usize,
    /// Dominator-verified loop headers.
    pub loop_headers: usize,
    /// Recovered basic blocks.
    pub blocks: usize,
    /// Rendered CFG/decoder invariant violations.
    pub violations: Vec<String>,
    /// Static event-profile prediction.
    pub prediction: Prediction,
    /// Interpreter cross-check, when requested.
    pub check: Option<CheckResult>,
}

impl SubjectAnalysis {
    /// True when the subject passed: no invariant violations and (if
    /// checked) the interpreter matched the prediction.
    pub fn ok(&self) -> bool {
        self.violations.is_empty() && self.check.as_ref().is_none_or(|c| c.matched)
    }

    /// One-line summary for CLI output.
    pub fn render_line(&self) -> String {
        let pred = match self.prediction.abstain_reason() {
            None => format!(
                "predicted {} insns",
                self.prediction.counters().instructions
            ),
            Some(reason) => format!("abstained ({reason})"),
        };
        let check = match &self.check {
            None => String::new(),
            Some(c) if c.matched => ", check ok".to_string(),
            Some(_) => ", CHECK MISMATCH".to_string(),
        };
        let status = if self.violations.is_empty() {
            "ok"
        } else {
            "VIOLATIONS"
        };
        format!(
            "{}: {} [{} blocks; {} insns, {} edges, {} loops] {}{}",
            self.subject,
            status,
            self.blocks,
            self.insns,
            self.edges,
            self.loop_headers,
            pred,
            check
        )
    }

    /// Detail lines worth printing after the summary: violations and
    /// check mismatches.
    pub fn render_problems(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .violations
            .iter()
            .map(|v| format!("  violation: {v}"))
            .collect();
        if let Some(c) = &self.check {
            out.extend(c.detail.iter().map(|d| format!("  check: {d}")));
        }
        out
    }
}

/// Analyze one image for `guest` under the label `subject`.
pub fn analyze_image(
    guest: Guest,
    subject: &str,
    image: &GuestImage,
    opts: &AnalyzeOpts,
) -> SubjectAnalysis {
    struct Analyze<'a> {
        subject: &'a str,
        image: &'a GuestImage,
        opts: &'a AnalyzeOpts,
    }
    impl GuestVisitor for Analyze<'_> {
        type Out = SubjectAnalysis;
        fn visit<G: GuestSpec>(self) -> SubjectAnalysis {
            analyze_on::<G::Isa>(G::GUEST, self.subject, self.image, self.opts)
        }
    }
    dispatch_guest(
        guest,
        Analyze {
            subject,
            image,
            opts,
        },
    )
}

/// Analyze one campaign workload at a campaign scale — the exact image
/// a campaign cell of the same key measures. `None` for matrix holes
/// (workloads that do not exist on the guest).
pub fn analyze_workload(
    guest: Guest,
    workload: Workload,
    scale: u64,
    opts: &AnalyzeOpts,
) -> Option<SubjectAnalysis> {
    let image = measure::workload_image(guest, workload, scale)?;
    let subject = format!("{}/{}", guest.isa_name(), workload.id());
    Some(analyze_image(guest, &subject, &image, opts))
}

/// Analyze fuzzed program `index` of the differ's seeded stream — the
/// same binary `simbench-harness differ fuzz` would run.
pub fn analyze_fuzz(guest: Guest, seed: u64, index: u32, opts: &AnalyzeOpts) -> SubjectAnalysis {
    let pseed = simbench_differ::program_seed(seed, index);
    let image = simbench_differ::generate(guest, pseed);
    let subject = format!("{}/fuzz:{seed:#x}[{index}]", guest.isa_name());
    analyze_image(guest, &subject, &image, opts)
}

fn analyze_on<I: Isa>(
    guest: Guest,
    subject: &str,
    image: &GuestImage,
    opts: &AnalyzeOpts,
) -> SubjectAnalysis {
    OBS_SUBJECTS.add(1);
    let mut roots = vec![image.entry];
    roots.extend(VECTOR_ROOTS);
    let cfg = Cfg::recover::<I>(image, &roots);
    let violations: Vec<String> = cfg.violations.iter().map(|v| v.to_string()).collect();
    OBS_VIOLATIONS.add(violations.len() as u64);

    let prediction = predict::predict::<I>(image, opts.fuel);
    let check = opts
        .check
        .then(|| run_check::<I>(image, &prediction, opts.fuel));
    if let Some(c) = &check {
        if !c.matched {
            OBS_CHECK_MISMATCHES.add(1);
        }
    }

    SubjectAnalysis {
        subject: subject.to_string(),
        guest: guest.isa_name(),
        entry: image.entry,
        image_size: image.size(),
        image_limit: image.limit(),
        insns: cfg.insns.len(),
        edges: cfg.edge_count(),
        loop_headers: cfg.loop_headers(),
        blocks: cfg.blocks.len(),
        violations,
        prediction,
        check,
    }
}

/// Run the reference interpreter under the same instruction budget and
/// require counter-for-counter agreement with the prediction.
fn run_check<I: Isa>(image: &GuestImage, prediction: &Prediction, fuel: u64) -> CheckResult {
    let want_counters = prediction.counters();
    let want_exit = match prediction {
        Prediction::Exact { .. } => ExitReason::Halted,
        Prediction::Abstained { .. } => ExitReason::InsnLimit,
    };

    let mut m = Machine::<I, Platform>::boot(image, Platform::new());
    let out = Interp::<I>::new().run(&mut m, &RunLimits::insns(fuel));
    let mut detail = Vec::new();
    if out.exit != want_exit {
        detail.push(format!("exit: predicted {want_exit}, interp {}", out.exit));
    }
    if out.counters != *want_counters {
        for ((name, got), (_, want)) in out.counters.rows().iter().zip(want_counters.rows()) {
            if *got != want {
                detail.push(format!("{name}: predicted {want}, interp {got}"));
            }
        }
    }
    CheckResult {
        matched: detail.is_empty(),
        detail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simbench_suite::Benchmark;

    #[test]
    fn workload_analysis_is_clean_and_prediction_checks_out() {
        let opts = AnalyzeOpts {
            fuel: 5_000_000,
            check: true,
        };
        let a = analyze_workload(
            Guest::Armlet,
            Workload::Suite(Benchmark::Syscall),
            20_000,
            &opts,
        )
        .expect("syscall exists on armlet");
        assert!(
            a.ok(),
            "{}\n{}",
            a.render_line(),
            a.render_problems().join("\n")
        );
        assert!(a.prediction.is_exact());
        assert!(a.blocks > 0 && a.loop_headers > 0);
        let counts = format!(
            "[{} blocks; {} insns, {} edges, {} loops]",
            a.blocks, a.insns, a.edges, a.loop_headers
        );
        assert!(a.render_line().contains(&counts), "{}", a.render_line());
    }

    #[test]
    fn an_undecodable_entry_fails_the_subject() {
        // A reserved top nibble: the entry word does not decode, and no
        // halt is reachable.
        let mut image = GuestImage::new(0);
        image.push_section(0, 0xC000_0000u32.to_le_bytes().to_vec());
        let opts = AnalyzeOpts {
            fuel: 1_000,
            check: false,
        };
        let a = analyze_image(Guest::Armlet, "armlet/bad", &image, &opts);
        assert!(!a.ok());
        assert!(a.check.is_none());
        assert_eq!(a.violations.len(), 2, "{:?}", a.violations);
        let line = a.render_line();
        assert!(
            line.starts_with("armlet/bad: VIOLATIONS [0 blocks;"),
            "{line}"
        );
        let problems = a.render_problems().join("\n");
        assert!(
            problems.contains("at 0x00000000 does not decode"),
            "{problems}"
        );
        assert!(problems.contains("no reachable halt"), "{problems}");
    }

    #[test]
    fn a_check_mismatch_fails_an_otherwise_clean_subject() {
        let opts = AnalyzeOpts {
            fuel: 1_000,
            check: true,
        };
        let workload = Workload::Suite(Benchmark::MemHot);
        let mut a = analyze_workload(Guest::Armlet, workload, 20_000, &opts).unwrap();
        assert!(a.ok() && a.render_line().ends_with(", check ok"));
        a.check = Some(CheckResult {
            matched: false,
            detail: vec!["instructions: predicted 1000, interp 999".to_string()],
        });
        assert!(!a.ok());
        assert!(a.render_line().ends_with(", CHECK MISMATCH"));
        assert_eq!(
            a.render_problems(),
            ["  check: instructions: predicted 1000, interp 999"]
        );
    }

    #[test]
    fn matrix_holes_return_none() {
        let opts = AnalyzeOpts::default();
        assert!(analyze_workload(
            Guest::Petix,
            Workload::Suite(Benchmark::NonprivAccess),
            20_000,
            &opts,
        )
        .is_none());
    }

    #[test]
    fn fuzz_analysis_checks_out_on_both_guests() {
        let opts = AnalyzeOpts {
            fuel: 2_000_000,
            check: true,
        };
        for guest in Guest::ALL {
            for k in 0..2 {
                let a = analyze_fuzz(guest, 0x5EED, k, &opts);
                assert!(
                    a.ok(),
                    "{}\n{}",
                    a.render_line(),
                    a.render_problems().join("\n")
                );
            }
        }
    }

    #[test]
    fn fuel_exhaustion_abstains_and_still_matches_the_prefix() {
        let opts = AnalyzeOpts {
            fuel: 1_000,
            check: true,
        };
        let a = analyze_workload(
            Guest::Armlet,
            Workload::Suite(Benchmark::MemHot),
            20_000,
            &opts,
        )
        .unwrap();
        match &a.prediction {
            Prediction::Abstained { partial } => assert_eq!(partial.instructions, 1_000),
            other => panic!("expected fuel abstention, got {other:?}"),
        }
        assert!(a.render_line().contains(
            "abstained (fuel exhausted after 1000 instructions (unbounded or under-fueled region))"
        ));
        let check = a.check.as_ref().unwrap();
        assert!(check.matched, "{:?}", check.detail);
    }

    #[test]
    fn a_load_from_a_device_hole_is_predicted_as_one_data_fault() {
        use simbench_core::asm::{PReg, PortableAsm};
        use simbench_isa_armlet::ArmletAsm;

        // A halt at every vector, so the data abort ends the run.
        let mut asm = ArmletAsm::new();
        for v in VECTOR_ROOTS {
            asm.org(v);
            asm.halt();
        }
        asm.org(0x100);
        asm.mov_imm(PReg::A, 0xF000_2000);
        asm.load(PReg::B, PReg::A, 0);
        asm.halt();
        let image = asm.finish(0x100);
        let opts = AnalyzeOpts {
            fuel: 1_000,
            check: true,
        };
        let a = analyze_image(Guest::Armlet, "armlet/hole", &image, &opts);
        let Prediction::Exact { counters } = &a.prediction else {
            panic!("{}", a.render_line());
        };
        assert_eq!(counters.data_faults, 1);
        assert!(
            a.ok() && a.render_line().ends_with(", check ok"),
            "{}\n{}",
            a.render_line(),
            a.render_problems().join("\n")
        );
    }
}
