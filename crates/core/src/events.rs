//! Event counters.
//!
//! Every engine counts the architectural events SimBench's *operation
//! density* metric is defined over (Fig 3 of the paper): the density of a
//! benchmark is `tested operations / kernel instructions`, where the
//! tested operation is benchmark-specific (e.g. TLB misses for Cold
//! Memory Access, syscalls for System Call).

/// Monotonic event counters accumulated during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Guest instructions retired.
    pub instructions: u64,
    /// Micro-ops retired.
    pub uops: u64,
    /// Taken direct branches staying within a page.
    pub branch_intra_direct: u64,
    /// Taken direct branches crossing a page boundary.
    pub branch_inter_direct: u64,
    /// Indirect branches staying within a page.
    pub branch_intra_indirect: u64,
    /// Indirect branches crossing a page boundary.
    pub branch_inter_indirect: u64,
    /// Data aborts taken.
    pub data_faults: u64,
    /// Prefetch aborts taken.
    pub insn_faults: u64,
    /// Undefined-instruction exceptions taken.
    pub undef_insns: u64,
    /// System calls taken.
    pub syscalls: u64,
    /// External interrupts delivered.
    pub irqs_delivered: u64,
    /// Loads + stores that decoded to a device rather than RAM.
    pub mmio_accesses: u64,
    /// Coprocessor / control-register accesses executed.
    pub coproc_accesses: u64,
    /// Data loads retired.
    pub mem_reads: u64,
    /// Data stores retired.
    pub mem_writes: u64,
    /// Data-side translation hits in the engine's TLB structure.
    pub tlb_hits: u64,
    /// Data-side translation misses (page-table walks).
    pub tlb_misses: u64,
    /// Architectural single-page TLB invalidations executed.
    pub tlb_invalidate_page: u64,
    /// Architectural full TLB flushes executed.
    pub tlb_flushes: u64,
    /// Non-privileged (`ldrt`/`strt`) accesses retired.
    pub nonpriv_accesses: u64,
    /// Stores that overlapped cached code (self-modifying code events):
    /// bytes a live translation block was made from on the dbt, bytes of
    /// a cached decode on virt / native; always 0 on the engines that
    /// cache neither. A store next to code, on the same page, is not
    /// one. The count depends on what is cached when the store lands —
    /// code not yet executed is not, and a decode-arena overflow or a
    /// code-cache flush forgets everything — so it is an engine event,
    /// not an architectural one.
    pub code_invalidations: u64,
    /// Translation blocks built (DBT only).
    pub blocks_translated: u64,
    /// Translation block cache hits (DBT only).
    pub block_cache_hits: u64,
    /// Chained direct block transitions (DBT only).
    pub block_chain_follows: u64,
    /// Simulated VM exits (virtualization engine only).
    pub vm_exits: u64,
}

macro_rules! counter_rows {
    ($($field:ident),* $(,)?) => {
        /// Names of all counters, aligned with [`Counters::rows`].
        pub const NAMES: &'static [&'static str] = &[$(stringify!($field)),*];

        /// All counters as `(name, value)` rows for reporting.
        pub fn rows(&self) -> Vec<(&'static str, u64)> {
            vec![$((stringify!($field), self.$field)),*]
        }

        /// Field-wise difference `self - earlier` (saturating).
        #[must_use]
        pub fn since(&self, earlier: &Counters) -> Counters {
            Counters { $($field: self.$field.saturating_sub(earlier.$field)),* }
        }

        /// Field-wise sum.
        #[must_use]
        pub fn plus(&self, other: &Counters) -> Counters {
            Counters { $($field: self.$field + other.$field),* }
        }
    };
}

impl Counters {
    counter_rows!(
        instructions,
        uops,
        branch_intra_direct,
        branch_inter_direct,
        branch_intra_indirect,
        branch_inter_indirect,
        data_faults,
        insn_faults,
        undef_insns,
        syscalls,
        irqs_delivered,
        mmio_accesses,
        coproc_accesses,
        mem_reads,
        mem_writes,
        tlb_hits,
        tlb_misses,
        tlb_invalidate_page,
        tlb_flushes,
        nonpriv_accesses,
        code_invalidations,
        blocks_translated,
        block_cache_hits,
        block_chain_follows,
        vm_exits,
    );

    /// Total taken branches of all four classes.
    pub fn branches(&self) -> u64 {
        self.branch_intra_direct
            + self.branch_inter_direct
            + self.branch_intra_indirect
            + self.branch_inter_indirect
    }

    /// Total data memory accesses.
    pub fn mem_accesses(&self) -> u64 {
        self.mem_reads + self.mem_writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_cover_all_fields() {
        let c = Counters {
            instructions: 3,
            vm_exits: 7,
            ..Default::default()
        };
        let rows = c.rows();
        assert_eq!(rows.len(), Counters::NAMES.len());
        assert!(rows.contains(&("instructions", 3)));
        assert!(rows.contains(&("vm_exits", 7)));
        assert!(rows.contains(&("tlb_hits", 0)));
    }

    #[test]
    fn since_and_plus() {
        let a = Counters {
            instructions: 10,
            mem_reads: 4,
            ..Default::default()
        };
        let b = Counters {
            instructions: 25,
            mem_reads: 9,
            ..Default::default()
        };
        let d = b.since(&a);
        assert_eq!(d.instructions, 15);
        assert_eq!(d.mem_reads, 5);
        let s = a.plus(&d);
        assert_eq!(s.instructions, b.instructions);
        // Saturating difference never underflows.
        let z = a.since(&b);
        assert_eq!(z.instructions, 0);
    }

    #[test]
    fn aggregates() {
        let c = Counters {
            branch_intra_direct: 1,
            branch_inter_direct: 2,
            branch_intra_indirect: 3,
            branch_inter_indirect: 4,
            mem_reads: 5,
            mem_writes: 6,
            ..Default::default()
        };
        assert_eq!(c.branches(), 10);
        assert_eq!(c.mem_accesses(), 11);
    }
}
