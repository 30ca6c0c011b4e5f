//! The DBT engine's version matrix.
//!
//! The paper benchmarks twenty QEMU releases (1.7.0 → 2.5.0-rc2) and uses
//! SimBench to attribute their aggregate performance drift to specific
//! mechanisms. We cannot rebuild historical QEMU here, so each release
//! name maps to a [`VersionProfile`]: a set of *real code-path toggles*
//! in our engine chosen to mirror the documented history the paper
//! discusses —
//!
//! * 2.0.0 ships "improvements to the TCG optimiser" (our optimizer
//!   level rises, lifting most categories),
//! * 2.2.x improves indirect-branch handling (IBTC grows; the sjeng-like
//!   workload peaks at 2.2.1 exactly as in Fig 2),
//! * from 2.1 onward successive releases add per-block-entry safety
//!   guards and chain revalidation (the control-flow degradation of
//!   Fig 6),
//! * 2.3.0 makes exception side-exits eagerly resynchronise and unchain
//!   (the exception-handling regression),
//! * 2.5.0-rc0 adds a data-abort fast path (the 4–8× data-fault speedup
//!   the paper calls out, invisible in SPEC).

/// Mechanism configuration for one engine version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VersionProfile {
    /// Release name, e.g. `"v2.0.0"`.
    pub name: &'static str,
    /// IR optimizer level, 0–2. Higher = slower translation, faster code.
    pub optimizer_level: u8,
    /// Per-block-entry revalidation passes (0–3). Models accumulated
    /// safety checks on the hot dispatch path.
    pub entry_guard_level: u8,
    /// Indirect-branch target cache size in bits (0 disables it).
    pub ibtc_bits: u8,
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
}

impl Default for VersionProfile {
    fn default() -> Self {
        Self::latest()
    }
}

const BASE: VersionProfile = VersionProfile {
    name: "base",
    optimizer_level: 1,
    entry_guard_level: 0,
    ibtc_bits: 6,
    eager_exception_sync: false,
    data_fault_fast_path: false,
};

/// The twenty benchmarked engine versions, named after the QEMU releases
/// of the paper's Figs 2, 6 and 8, oldest first.
pub const QEMU_VERSIONS: &[VersionProfile] = &[
    VersionProfile {
        name: "v1.7.0",
        ..BASE
    },
    VersionProfile {
        name: "v1.7.1",
        ..BASE
    },
    VersionProfile {
        name: "v1.7.2",
        ..BASE
    },
    // 2.0.0: TCG optimiser improvements.
    VersionProfile {
        name: "v2.0.0",
        optimizer_level: 2,
        ..BASE
    },
    VersionProfile {
        name: "v2.0.1",
        optimizer_level: 2,
        ..BASE
    },
    VersionProfile {
        name: "v2.0.2",
        optimizer_level: 2,
        ..BASE
    },
    // 2.1.x: first entry guards appear; exception path gains work.
    VersionProfile {
        name: "v2.1.0",
        optimizer_level: 2,
        entry_guard_level: 1,
        ..BASE
    },
    VersionProfile {
        name: "v2.1.1",
        optimizer_level: 2,
        entry_guard_level: 1,
        ..BASE
    },
    VersionProfile {
        name: "v2.1.2",
        optimizer_level: 2,
        entry_guard_level: 1,
        ..BASE
    },
    VersionProfile {
        name: "v2.1.3",
        optimizer_level: 2,
        entry_guard_level: 1,
        ..BASE
    },
    // 2.2.x: bigger IBTC (indirect control flow peaks here).
    VersionProfile {
        name: "v2.2.0",
        optimizer_level: 2,
        entry_guard_level: 1,
        ibtc_bits: 9,
        ..BASE
    },
    VersionProfile {
        name: "v2.2.1",
        optimizer_level: 2,
        entry_guard_level: 1,
        ibtc_bits: 9,
        ..BASE
    },
    // 2.3.x: eager exception sync lands; guards deepen.
    VersionProfile {
        name: "v2.3.0",
        optimizer_level: 2,
        entry_guard_level: 2,
        ibtc_bits: 9,
        eager_exception_sync: true,
        ..BASE
    },
    VersionProfile {
        name: "v2.3.1",
        optimizer_level: 2,
        entry_guard_level: 2,
        ibtc_bits: 9,
        eager_exception_sync: true,
        ..BASE
    },
    // 2.4.x: more guards; indirect cache shrinks under refactoring.
    VersionProfile {
        name: "v2.4.0",
        optimizer_level: 2,
        entry_guard_level: 3,
        ibtc_bits: 8,
        eager_exception_sync: true,
        ..BASE
    },
    VersionProfile {
        name: "v2.4.0.1",
        optimizer_level: 2,
        entry_guard_level: 3,
        ibtc_bits: 8,
        eager_exception_sync: true,
        ..BASE
    },
    VersionProfile {
        name: "v2.4.1",
        optimizer_level: 2,
        entry_guard_level: 3,
        ibtc_bits: 8,
        eager_exception_sync: true,
        ..BASE
    },
    // 2.5.0-rc*: data-abort fast path; control flow still guarded.
    VersionProfile {
        name: "v2.5.0-rc0",
        optimizer_level: 2,
        entry_guard_level: 3,
        ibtc_bits: 8,
        eager_exception_sync: true,
        data_fault_fast_path: true,
    },
    VersionProfile {
        name: "v2.5.0-rc1",
        optimizer_level: 2,
        entry_guard_level: 3,
        ibtc_bits: 8,
        eager_exception_sync: true,
        data_fault_fast_path: true,
    },
    VersionProfile {
        name: "v2.5.0-rc2",
        optimizer_level: 2,
        entry_guard_level: 3,
        ibtc_bits: 8,
        eager_exception_sync: true,
        data_fault_fast_path: true,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twenty_versions() {
        assert_eq!(QEMU_VERSIONS.len(), 20);
    }

    #[test]
    fn names_unique_and_ordered() {
        let names: Vec<_> = QEMU_VERSIONS.iter().map(|v| v.name).collect();
        let mut dedup = names.clone();
        dedup.dedup();
        assert_eq!(names, dedup);
        assert_eq!(names[0], "v1.7.0");
        assert_eq!(*names.last().unwrap(), "v2.5.0-rc2");
    }

    #[test]
    fn lookup_by_name() {
        let v = VersionProfile::by_name("v2.0.0").unwrap();
        assert_eq!(v.optimizer_level, 2);
        assert!(VersionProfile::by_name("v9.9.9").is_none());
    }

    #[test]
    fn history_shape() {
        let v170 = VersionProfile::by_name("v1.7.0").unwrap();
        let v221 = VersionProfile::by_name("v2.2.1").unwrap();
        let rc2 = VersionProfile::by_name("v2.5.0-rc2").unwrap();
        assert!(
            v221.ibtc_bits > v170.ibtc_bits,
            "2.2 improves indirect branches"
        );
        assert!(
            rc2.entry_guard_level > v170.entry_guard_level,
            "late releases add guards"
        );
        assert!(rc2.data_fault_fast_path && !v221.data_fault_fast_path);
    }
}
