//! The DBT engine's version matrix.
//!
//! The paper benchmarks twenty QEMU releases (1.7.0 → 2.5.0-rc2) and uses
//! SimBench to attribute their aggregate performance drift to specific
//! mechanisms. We cannot rebuild historical QEMU here, so each release
//! name maps to a [`VersionProfile`]: a set of *real code-path toggles*
//! in our engine chosen to mirror the documented history the paper
//! discusses. The twenty releases take four distinct profiles, each
//! defined once below and named by its releases; between them:
//!
//! * 2.1.0 adds a per-block-entry safety guard and 2.3.0 a second one,
//!   each a real chain revalidation (the control-flow degradation of
//!   Fig 6),
//! * 2.3.0 makes exception side-exits eagerly resynchronise and unchain
//!   (the exception-handling regression),
//! * 2.5.0-rc0 adds a data-abort fast path (the 4–8× data-fault speedup
//!   the paper calls out, invisible in SPEC).
//!
//! Three claims of the paper are not modelled, because no knob for them
//! moved a counter anywhere in the paper matrix:
//!
//! * 2.0.0's "improvements to the TCG optimiser" lifting most
//!   categories — no release optimises: the dbt has no IR optimiser,
//!   and every release translates each instruction's micro-ops as
//!   decoded;
//! * 2.2.x's better indirect-branch handling giving the sjeng-like
//!   workload its Fig 2 peak at 2.2.1 — every release has the same
//!   256-entry indirect-branch target cache, and sjeng-like dispatches
//!   through eight targets;
//! * 2.4's further control-flow degradation — a third entry guard moved
//!   no counter and cleared no release-to-release noise on any
//!   benchmark, so v2.4.x runs v2.3.x's profile.

/// Mechanism configuration for one engine version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VersionProfile {
    /// Release name, e.g. `"v2.0.0"`.
    pub name: &'static str,
    /// Per-block-entry revalidation passes (0–2). Models accumulated
    /// safety checks on the hot dispatch path.
    pub entry_guard_level: u8,
    /// Synchronous exceptions eagerly unchain all blocks and flush the
    /// IBTC before vectoring (the slow, "safe" side-exit).
    pub eager_exception_sync: bool,
    /// Data aborts skip the eager sync (QEMU 2.5.0-rc0's fast path).
    pub data_fault_fast_path: bool,
}

impl VersionProfile {
    /// The newest profile — what plain `Dbt::new()` uses.
    pub fn latest() -> Self {
        *QEMU_VERSIONS.last().unwrap()
    }

    /// Look up a profile by name.
    pub fn by_name(name: &str) -> Option<Self> {
        QEMU_VERSIONS.iter().find(|v| v.name == name).copied()
    }

    /// This profile under another name.
    const fn named(self, name: &'static str) -> Self {
        VersionProfile { name, ..self }
    }
}

impl Default for VersionProfile {
    fn default() -> Self {
        Self::latest()
    }
}

/// v1.7.x–v2.0.x: no guards, lazy exception side-exits.
const BASE: VersionProfile = VersionProfile {
    name: "base",
    entry_guard_level: 0,
    eager_exception_sync: false,
    data_fault_fast_path: false,
};

/// v2.1.x–v2.2.x: the first entry guard.
const GUARD_1: VersionProfile = VersionProfile {
    entry_guard_level: 1,
    ..BASE
};

/// v2.3.x–v2.4.x: guards deepen and exceptions eagerly resynchronise.
const GUARD_2_EAGER_SYNC: VersionProfile = VersionProfile {
    entry_guard_level: 2,
    eager_exception_sync: true,
    ..BASE
};

/// v2.5.0-rc*: data aborts skip the eager sync; control flow still
/// guarded.
const DATA_FAULT_FAST_PATH: VersionProfile = VersionProfile {
    data_fault_fast_path: true,
    ..GUARD_2_EAGER_SYNC
};

/// The twenty benchmarked engine versions, named after the QEMU releases
/// of the paper's Figs 2, 6 and 8, oldest first.
pub const QEMU_VERSIONS: &[VersionProfile] = &[
    BASE.named("v1.7.0"),
    BASE.named("v1.7.1"),
    BASE.named("v1.7.2"),
    BASE.named("v2.0.0"),
    BASE.named("v2.0.1"),
    BASE.named("v2.0.2"),
    GUARD_1.named("v2.1.0"),
    GUARD_1.named("v2.1.1"),
    GUARD_1.named("v2.1.2"),
    GUARD_1.named("v2.1.3"),
    GUARD_1.named("v2.2.0"),
    GUARD_1.named("v2.2.1"),
    GUARD_2_EAGER_SYNC.named("v2.3.0"),
    GUARD_2_EAGER_SYNC.named("v2.3.1"),
    GUARD_2_EAGER_SYNC.named("v2.4.0"),
    GUARD_2_EAGER_SYNC.named("v2.4.0.1"),
    GUARD_2_EAGER_SYNC.named("v2.4.1"),
    DATA_FAULT_FAST_PATH.named("v2.5.0-rc0"),
    DATA_FAULT_FAST_PATH.named("v2.5.0-rc1"),
    DATA_FAULT_FAST_PATH.named("v2.5.0-rc2"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_unique_and_ordered() {
        let names: Vec<_> = QEMU_VERSIONS.iter().map(|v| v.name).collect();
        let mut dedup = names.clone();
        dedup.dedup();
        assert_eq!(names, dedup);
        assert_eq!(names[0], "v1.7.0");
        assert_eq!(*names.last().unwrap(), "v2.5.0-rc2");
    }

    /// Fig 6 reads the releases of one step as a within-group null: they
    /// run the same code and differ only by noise.
    #[test]
    fn twenty_releases_take_four_steps() {
        assert_eq!(QEMU_VERSIONS.len(), 20);
        let mut steps: Vec<_> = QEMU_VERSIONS.iter().map(|v| v.named("")).collect();
        steps.dedup();
        let want = [BASE, GUARD_1, GUARD_2_EAGER_SYNC, DATA_FAULT_FAST_PATH];
        assert_eq!(steps, want.map(|s| s.named("")));
        let first_of_each: Vec<_> = QEMU_VERSIONS
            .windows(2)
            .filter(|w| w[0].named("") != w[1].named(""))
            .map(|w| w[1].name)
            .collect();
        assert_eq!(first_of_each, ["v2.1.0", "v2.3.0", "v2.5.0-rc0"]);
    }

    #[test]
    fn lookup_by_name() {
        let v = VersionProfile::by_name("v2.3.0").unwrap();
        assert_eq!((v.entry_guard_level, v.eager_exception_sync), (2, true));
        assert!(VersionProfile::by_name("v9.9.9").is_none());
    }

    #[test]
    fn history_shape() {
        let v170 = VersionProfile::by_name("v1.7.0").unwrap();
        let v221 = VersionProfile::by_name("v2.2.1").unwrap();
        let rc2 = VersionProfile::by_name("v2.5.0-rc2").unwrap();
        assert!(
            rc2.entry_guard_level > v170.entry_guard_level,
            "late releases add guards"
        );
        assert!(rc2.data_fault_fast_path && !v221.data_fault_fast_path);
    }
}
