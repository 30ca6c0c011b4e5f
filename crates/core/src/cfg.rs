//! Static control-flow-graph recovery over guest images.
//!
//! The recovery walks a [`GuestImage`] the way a simulator's fetch path
//! would — boot code runs MMU-off with an identity view, so link
//! addresses equal load addresses — but without executing anything:
//! recursive descent from a set of roots (the entry point plus, for a
//! whole-image analysis, the exception vectors), decoding through the
//! ISA's real decoder and following every statically-known edge.
//!
//! The result is the block-level structure the DBT engines discover at
//! run time, computed offline: basic blocks, direct/indirect edge
//! classification, and loop headers via iterative dominators. Anything
//! the walk cannot prove — an undecodable reachable instruction, a
//! direct branch into the middle of another instruction, control
//! running off the end of the image, no reachable halt — is reported as
//! a [`CfgViolation`] rather than silently tolerated: the decoder
//! invariants the engines rely on dynamically become checkable facts.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use crate::image::GuestImage;
use crate::ir::Decoded;
use crate::ir::Op;
use crate::isa::Isa;

/// One recovered basic block.
#[derive(Debug, Clone)]
pub struct Block {
    /// Address of the first instruction.
    pub start: u32,
    /// Start addresses of statically-known successor blocks.
    pub succs: Vec<u32>,
    /// True if some back edge targets this block (dominator-verified).
    pub loop_header: bool,
}

/// A decoder or control-flow invariant the static walk could not prove.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CfgViolation {
    /// A reachable instruction failed to decode.
    Undecodable {
        /// Address of the undecodable instruction.
        pc: u32,
    },
    /// A direct branch/call targets an address outside every section.
    TargetOutsideImage {
        /// Address of the branching instruction.
        from: u32,
        /// The out-of-image target.
        target: u32,
    },
    /// Control falls off the end of the image without a terminator.
    FallsOffImage {
        /// Address of the last in-image instruction.
        from: u32,
        /// First out-of-image address control would reach.
        next: u32,
    },
    /// Two reachable instructions overlap: some direct edge lands
    /// inside another decoding path's instruction.
    OverlappingInsns {
        /// Start of the earlier instruction.
        a: u32,
        /// Start of the overlapping later instruction.
        b: u32,
    },
    /// No reachable block contains a `halt` op, so the program cannot
    /// terminate cleanly.
    NoReachableHalt,
}

impl fmt::Display for CfgViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CfgViolation::Undecodable { pc } => {
                write!(f, "reachable instruction at {pc:#010x} does not decode")
            }
            CfgViolation::TargetOutsideImage { from, target } => write!(
                f,
                "direct branch at {from:#010x} targets {target:#010x}, outside the image"
            ),
            CfgViolation::FallsOffImage { from, next } => write!(
                f,
                "control falls off the image after {from:#010x} (next pc {next:#010x})"
            ),
            CfgViolation::OverlappingInsns { a, b } => write!(
                f,
                "instruction at {b:#010x} overlaps the instruction at {a:#010x}"
            ),
            CfgViolation::NoReachableHalt => f.write_str("no reachable halt instruction"),
        }
    }
}

/// A recovered control-flow graph plus the invariant violations found
/// while recovering it.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Every reachable instruction, sorted by address.
    pub insns: Vec<(u32, Decoded)>,
    /// Basic blocks, sorted by start address.
    pub blocks: Vec<Block>,
    /// Invariant violations encountered during the walk.
    pub violations: Vec<CfgViolation>,
}

impl Cfg {
    /// Recover the CFG of `image` by recursive descent from `roots`
    /// (deduplicated; roots outside the image are ignored — the caller
    /// decides whether an unused vector slot matters).
    pub fn recover<I: Isa>(image: &GuestImage, roots: &[u32]) -> Cfg {
        Recovery::<I>::new(image).run(roots)
    }

    /// Total direct edges (for reporting).
    pub fn edge_count(&self) -> usize {
        self.blocks.iter().map(|b| b.succs.len()).sum()
    }

    /// Number of loop headers.
    pub fn loop_headers(&self) -> usize {
        self.blocks.iter().filter(|b| b.loop_header).count()
    }
}

/// Static successors of one decoded instruction beyond the next address
/// in its block.
struct Exits {
    /// The direct branch or call target, which starts a block.
    target: Option<u32>,
    /// Whether the next address starts a block: a conditional branch's
    /// fall-through, a call's return, a trap's resume. A control-flow
    /// instruction without it does not continue; any other instruction
    /// falls through into the same block.
    next_starts_block: bool,
}

impl Exits {
    fn of(d: &Decoded) -> Exits {
        let (target, next_starts_block) = match d.ops.last() {
            Some(&Op::Branch { target }) => (Some(target), false),
            Some(&(Op::BranchCond { target, .. } | Op::Call { target, .. })) => {
                (Some(target), true)
            }
            Some(Op::CallReg { .. } | Op::Svc(_) | Op::Udf) => (None, true),
            _ => (None, false),
        };
        Exits {
            target,
            next_starts_block,
        }
    }

    /// Whether control can reach the address after `d`.
    fn continues(&self, d: &Decoded) -> bool {
        self.next_starts_block || !d.ends_block()
    }
}

struct Recovery<'a, I: Isa> {
    /// Sections sorted by address for binary-search byte reads.
    sections: Vec<(u32, &'a [u8])>,
    _isa: std::marker::PhantomData<I>,
}

impl<'a, I: Isa> Recovery<'a, I> {
    fn new(image: &'a GuestImage) -> Self {
        let mut sections: Vec<(u32, &[u8])> = image
            .sections
            .iter()
            .map(|s| (s.addr, s.bytes.as_slice()))
            .collect();
        sections.sort_by_key(|(a, _)| *a);
        Recovery {
            sections,
            _isa: std::marker::PhantomData,
        }
    }

    /// The section holding `addr`, and `addr`'s offset in it.
    fn locate(&self, addr: u32) -> Option<(&'a [u8], usize)> {
        let i = match self.sections.binary_search_by_key(&addr, |(a, _)| *a) {
            Ok(i) => i,
            Err(0) => return None,
            Err(i) => i - 1,
        };
        let (base, bytes) = self.sections[i];
        let off = addr.wrapping_sub(base) as usize;
        (off < bytes.len()).then_some((bytes, off))
    }

    fn in_image(&self, addr: u32) -> bool {
        self.locate(addr).is_some()
    }

    /// Read up to 8 bytes starting at `addr`, zero-filling gaps — the
    /// exact bytes a machine would fetch, since RAM is zeroed before
    /// the image loads.
    fn read_bytes(&self, addr: u32) -> [u8; 8] {
        std::array::from_fn(|i| {
            let at = self.locate(addr.wrapping_add(i as u32));
            at.map_or(0, |(bytes, off)| bytes[off])
        })
    }

    fn run(self, roots: &[u32]) -> Cfg {
        let mut insns: BTreeMap<u32, Decoded> = BTreeMap::new();
        let mut leaders: BTreeSet<u32> = BTreeSet::new();
        let mut violations: Vec<CfgViolation> = Vec::new();
        let mut work: VecDeque<u32> = VecDeque::new();

        for &r in roots {
            if self.in_image(r) && leaders.insert(r) {
                work.push_back(r);
            }
        }

        while let Some(pc) = work.pop_front() {
            if insns.contains_key(&pc) {
                continue;
            }
            let bytes = self.read_bytes(pc);
            let decoded = match I::decode(&bytes[..I::MAX_INSN_BYTES], pc) {
                Ok(d) => d,
                Err(_) => {
                    violations.push(CfgViolation::Undecodable { pc });
                    continue;
                }
            };
            let exits = Exits::of(&decoded);
            let continues = exits.continues(&decoded);
            let next = pc.wrapping_add(decoded.len as u32);
            insns.insert(pc, decoded);
            if let Some(target) = exits.target {
                if self.in_image(target) {
                    leaders.insert(target);
                    work.push_back(target);
                } else {
                    violations.push(CfgViolation::TargetOutsideImage { from: pc, target });
                }
            }
            if exits.next_starts_block {
                leaders.insert(next);
            }
            if continues {
                if self.in_image(next) {
                    work.push_back(next);
                } else {
                    violations.push(CfgViolation::FallsOffImage { from: pc, next });
                }
            }
        }

        // Instruction-boundary invariant: no two reachable decodings may
        // overlap. A direct branch into the middle of an instruction
        // shows up here as a second decoding path through shared bytes.
        {
            let mut prev: Option<(u32, u32)> = None;
            for (&pc, d) in &insns {
                if let Some((a, a_end)) = prev {
                    if pc < a_end {
                        violations.push(CfgViolation::OverlappingInsns { a, b: pc });
                    }
                }
                prev = Some((pc, pc + d.len as u32));
            }
        }

        let cfg_insns: Vec<(u32, Decoded)> = insns.into_iter().collect();
        if !cfg_insns
            .iter()
            .any(|(_, d)| d.ops.iter().any(|op| matches!(op, Op::Halt)))
        {
            violations.push(CfgViolation::NoReachableHalt);
        }
        let mut blocks = Vec::new();
        let mut i = 0;
        while i < cfg_insns.len() {
            let (start, _) = cfg_insns[i];
            // Grow the block until an instruction ends it, the next
            // instruction is a leader, or the run is discontiguous.
            loop {
                let (pc, d) = &cfg_insns[i];
                let end = pc.wrapping_add(d.len as u32);
                i += 1;
                let next_is_leader = leaders.contains(&end);
                let contiguous = i < cfg_insns.len() && cfg_insns[i].0 == end;
                if d.ends_block() || next_is_leader || !contiguous {
                    let exits = Exits::of(d);
                    let mut succs: Vec<u32> = exits
                        .target
                        .filter(|&t| self.in_image(t))
                        .into_iter()
                        .collect();
                    if exits.continues(d) && self.in_image(end) {
                        succs.push(end);
                    }
                    blocks.push(Block {
                        start,
                        succs,
                        loop_header: false,
                    });
                    break;
                }
            }
        }

        mark_loop_headers(&mut blocks, roots);

        Cfg {
            insns: cfg_insns,
            blocks,
            violations,
        }
    }
}

/// Compute dominators over the block graph (a virtual root node with an
/// edge to every real root) and flag loop headers: a back edge `u → h`
/// is a loop edge only when `h` dominates `u`.
fn mark_loop_headers(blocks: &mut [Block], roots: &[u32]) {
    let n = blocks.len();
    if n == 0 {
        return;
    }
    let index: BTreeMap<u32, usize> = blocks
        .iter()
        .enumerate()
        .map(|(i, b)| (b.start, i))
        .collect();
    // Node n is the virtual root.
    let vroot = n;
    let mut succs: Vec<Vec<usize>> = blocks
        .iter()
        .map(|b| {
            b.succs
                .iter()
                .filter_map(|s| index.get(s).copied())
                .collect()
        })
        .collect();
    let mut root_succ: Vec<usize> = roots.iter().filter_map(|r| index.get(r).copied()).collect();
    root_succ.sort_unstable();
    root_succ.dedup();
    succs.push(root_succ);

    // Reverse postorder from the virtual root.
    let mut order = Vec::with_capacity(n + 1);
    let mut seen = vec![false; n + 1];
    let mut stack: Vec<(usize, usize)> = vec![(vroot, 0)];
    seen[vroot] = true;
    while let Some(&mut (u, ref mut next)) = stack.last_mut() {
        if *next < succs[u].len() {
            let v = succs[u][*next];
            *next += 1;
            if !seen[v] {
                seen[v] = true;
                stack.push((v, 0));
            }
        } else {
            order.push(u);
            stack.pop();
        }
    }
    order.reverse();

    let mut rpo_pos = vec![usize::MAX; n + 1];
    for (pos, &b) in order.iter().enumerate() {
        rpo_pos[b] = pos;
    }
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n + 1];
    for (u, ss) in succs.iter().enumerate() {
        for &v in ss {
            preds[v].push(u);
        }
    }

    // Iterative dominators (Cooper/Harvey/Kennedy).
    let mut idom = vec![usize::MAX; n + 1];
    idom[vroot] = vroot;
    fn intersect(idom: &[usize], rpo_pos: &[usize], mut a: usize, mut b: usize) -> usize {
        while a != b {
            while rpo_pos[a] > rpo_pos[b] {
                a = idom[a];
            }
            while rpo_pos[b] > rpo_pos[a] {
                b = idom[b];
            }
        }
        a
    }
    let mut changed = true;
    while changed {
        changed = false;
        for &b in &order {
            if b == vroot {
                continue;
            }
            let mut new_idom = usize::MAX;
            for &p in &preds[b] {
                if idom[p] == usize::MAX {
                    continue;
                }
                new_idom = if new_idom == usize::MAX {
                    p
                } else {
                    intersect(&idom, &rpo_pos, new_idom, p)
                };
            }
            if new_idom != usize::MAX && idom[b] != new_idom {
                idom[b] = new_idom;
                changed = true;
            }
        }
    }

    // h dominates u ⟺ walking idoms up from u reaches h before vroot.
    let dominates = |idom: &[usize], h: usize, mut u: usize| -> bool {
        loop {
            if u == h {
                return true;
            }
            if u == vroot || u == usize::MAX {
                return false;
            }
            u = idom[u];
        }
    };
    let mut headers = vec![false; n];
    for (u, ss) in succs.iter().enumerate().take(n) {
        if idom[u] == usize::MAX {
            continue; // unreachable from the roots
        }
        for &h in ss {
            if dominates(&idom, h, u) {
                headers[h] = true;
            }
        }
    }
    for (b, is_header) in blocks.iter_mut().zip(headers) {
        b.loop_header = is_header;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuState;
    use crate::fault::{CopFault, ExcInfo, ExceptionKind};
    use crate::ir::{Cond, DecodeError, InsnClass, LinkKind, RetKind};
    use crate::isa::CopEffect;
    use crate::mmu::{Perms, TlbEntry, WalkResult};

    /// Two-byte toy ISA for CFG tests: `[opcode, operand]`, where branch
    /// targets are the operand byte taken as an absolute address (odd
    /// targets are representable on purpose, to test overlap detection).
    struct ToyIsa;

    impl Isa for ToyIsa {
        const NAME: &'static str = "toy";
        const MAX_INSN_BYTES: usize = 2;
        const GPRS: usize = 4;
        type Sys = ();

        fn decode(bytes: &[u8], pc: u32) -> Result<Decoded, DecodeError> {
            if bytes.len() < 2 {
                return Err(DecodeError { pc });
            }
            let target = u32::from(bytes[1]);
            let (op, class) = match bytes[0] {
                0x00 => (Op::Nop, InsnClass::Nop),
                0x01 => (Op::Halt, InsnClass::System),
                0x02 => (Op::Branch { target }, InsnClass::Branch),
                0x03 => (
                    Op::BranchCond {
                        cond: Cond::Eq,
                        target,
                    },
                    InsnClass::Branch,
                ),
                0x04 => (
                    Op::Call {
                        target,
                        ret: pc.wrapping_add(2),
                        link: LinkKind::Register(3),
                    },
                    InsnClass::Branch,
                ),
                0x05 => (Op::Ret(RetKind::Register(3)), InsnClass::Branch),
                0x06 => (Op::BranchReg { rm: 0 }, InsnClass::Branch),
                0x07 => (Op::Svc(0), InsnClass::System),
                _ => return Err(DecodeError { pc }),
            };
            Ok(Decoded::new(2, [op], class))
        }

        fn mmu_enabled(_sys: &()) -> bool {
            false
        }

        fn walk<B: crate::bus::Bus>(_sys: &(), _bus: &mut B, va: u32) -> WalkResult {
            Ok(TlbEntry {
                vpage: va >> 12,
                ppage: va >> 12,
                user: Perms::RWX,
                kernel: Perms::RWX,
            })
        }

        fn cop_read(_cpu: &CpuState, _sys: &mut (), _cp: u8, _reg: u8) -> Result<u32, CopFault> {
            Err(CopFault)
        }

        fn cop_write(
            _cpu: &mut CpuState,
            _sys: &mut (),
            _cp: u8,
            _reg: u8,
            _val: u32,
        ) -> Result<CopEffect, CopFault> {
            Err(CopFault)
        }

        fn enter_exception(
            _cpu: &mut CpuState,
            _sys: &mut (),
            _kind: ExceptionKind,
            _info: ExcInfo,
            _return_pc: u32,
        ) -> u32 {
            0
        }

        fn leave_exception(_cpu: &mut CpuState, _sys: &mut ()) -> u32 {
            0
        }

        fn sys_regs(_sys: &(), _visit: &mut dyn FnMut(&'static str, u32)) {}
    }

    fn image(code: &[u8]) -> GuestImage {
        let mut img = GuestImage::new(0);
        img.push_section(0, code.to_vec());
        img
    }

    fn recover(code: &[u8]) -> Cfg {
        Cfg::recover::<ToyIsa>(&image(code), &[0])
    }

    fn block_at(cfg: &Cfg, addr: u32) -> Option<&Block> {
        cfg.blocks.iter().find(|b| b.start == addr)
    }

    fn leaders(cfg: &Cfg) -> Vec<u32> {
        cfg.blocks.iter().map(|b| b.start).collect()
    }

    #[test]
    fn straight_line_single_block() {
        let cfg = recover(&[0x00, 0, 0x00, 0, 0x01, 0]);
        assert!(cfg.violations.is_empty(), "{:?}", cfg.violations);
        assert_eq!((cfg.blocks.len(), cfg.insns.len()), (1, 3));
        assert_eq!(cfg.blocks[0].start, 0);
        assert!(cfg.blocks[0].succs.is_empty(), "halt has no successor");
    }

    #[test]
    fn diamond_blocks_and_edges() {
        // 0: beq 6; 2: nop; 4: b 6; 6: halt
        let cfg = recover(&[0x03, 6, 0x00, 0, 0x02, 6, 0x01, 0]);
        assert!(cfg.violations.is_empty(), "{:?}", cfg.violations);
        assert_eq!(leaders(&cfg), [0, 2, 6], "the fall-through starts a block");
        assert_eq!(block_at(&cfg, 0).unwrap().succs, vec![6, 2]);
        assert_eq!(block_at(&cfg, 2).unwrap().succs, vec![6], "nop, b 6");
        assert!(block_at(&cfg, 6).unwrap().succs.is_empty());
        assert_eq!(cfg.edge_count(), 3);
        assert_eq!(cfg.loop_headers(), 0);
    }

    #[test]
    fn back_edge_marks_loop_header() {
        // 0: nop; 2: nop; 4: beq 2; 6: halt
        let cfg = recover(&[0x00, 0, 0x00, 0, 0x03, 2, 0x01, 0]);
        assert!(cfg.violations.is_empty(), "{:?}", cfg.violations);
        let b2 = block_at(&cfg, 2).unwrap();
        assert!(b2.loop_header);
        assert_eq!(cfg.loop_headers(), 1);
    }

    #[test]
    fn call_creates_return_continuation() {
        // 0: call 6; 2: halt; 4: (unreachable) nop; 6: ret
        let cfg = recover(&[0x04, 6, 0x01, 0, 0x00, 0, 0x05, 0]);
        assert!(cfg.violations.is_empty(), "{:?}", cfg.violations);
        assert_eq!(
            leaders(&cfg),
            [0, 2, 6],
            "the return address starts a block"
        );
        assert_eq!(block_at(&cfg, 0).unwrap().succs, vec![6, 2]);
        assert!(block_at(&cfg, 6).unwrap().succs.is_empty(), "ret");
        assert!(block_at(&cfg, 4).is_none(), "unreachable code not walked");
    }

    #[test]
    fn trap_resumes_at_the_next_instruction() {
        // 0: svc; 2: halt
        let cfg = recover(&[0x07, 0, 0x01, 0]);
        assert!(cfg.violations.is_empty(), "{:?}", cfg.violations);
        assert_eq!(leaders(&cfg), [0, 2], "the resume point is a leader");
        assert_eq!(cfg.blocks[0].succs, vec![2]);
    }

    #[test]
    fn indirect_branch_has_no_static_successors() {
        // 0: beq 4; 2: halt; 4: br r0
        let cfg = recover(&[0x03, 4, 0x01, 0, 0x06, 0]);
        assert!(cfg.violations.is_empty(), "{:?}", cfg.violations);
        assert_eq!(leaders(&cfg), [0, 2, 4]);
        assert!(block_at(&cfg, 4).unwrap().succs.is_empty());
        assert_eq!(cfg.edge_count(), 2);
    }

    #[test]
    fn halt_reached_only_through_a_call_counts() {
        // 0: call 4; 2: b 2; 4: halt
        let cfg = recover(&[0x04, 4, 0x02, 2, 0x01, 0]);
        assert!(cfg.violations.is_empty(), "{:?}", cfg.violations);
    }

    #[test]
    fn loop_without_halt_reports_only_the_missing_halt() {
        // 0: b 0
        let cfg = recover(&[0x02, 0]);
        assert_eq!(cfg.violations, vec![CfgViolation::NoReachableHalt]);
        assert!(cfg.blocks[0].loop_header, "a self-loop is a loop");
    }

    #[test]
    fn roots_outside_the_image_and_repeated_roots_are_ignored() {
        let cfg = Cfg::recover::<ToyIsa>(&image(&[0x01, 0]), &[0, 0x40, 0, 0x80]);
        assert!(cfg.violations.is_empty(), "{:?}", cfg.violations);
        assert_eq!((cfg.blocks.len(), cfg.insns.len()), (1, 1));
    }

    #[test]
    fn a_cycle_between_two_roots_has_no_loop_header() {
        // 0: beq 4; 2: halt; 4: beq 0; 6: halt. From root 0 alone, 0
        // dominates 4 and `4 → 0` is a back edge. With 4 a root as
        // well, neither block dominates the other, so the cycle has no
        // header.
        let code = [0x03, 4, 0x01, 0, 0x03, 0, 0x01, 0];
        let one = Cfg::recover::<ToyIsa>(&image(&code), &[0]);
        assert_eq!(one.loop_headers(), 1);
        assert!(block_at(&one, 0).unwrap().loop_header);
        let two = Cfg::recover::<ToyIsa>(&image(&code), &[0, 4]);
        assert!(two.violations.is_empty(), "{:?}", two.violations);
        assert_eq!(two.edge_count(), 4);
        assert_eq!(two.loop_headers(), 0);
    }

    #[test]
    fn undecodable_reachable_insn_reported() {
        let cfg = recover(&[0x00, 0, 0xFF, 0, 0x01, 0]);
        assert!(cfg
            .violations
            .contains(&CfgViolation::Undecodable { pc: 2 }));
    }

    #[test]
    fn branch_outside_image_reported() {
        let cfg = recover(&[0x02, 200, 0x01, 0]);
        assert!(cfg.violations.contains(&CfgViolation::TargetOutsideImage {
            from: 0,
            target: 200
        }));
    }

    #[test]
    fn falling_off_image_reported() {
        let cfg = recover(&[0x00, 0, 0x00, 0]);
        assert!(cfg
            .violations
            .contains(&CfgViolation::FallsOffImage { from: 2, next: 4 }));
        assert!(cfg.violations.contains(&CfgViolation::NoReachableHalt));
    }

    #[test]
    fn branch_into_insn_interior_reports_overlap() {
        // 0: beq 5 (lands mid-instruction); 2: nop; 4: nop; 6: halt.
        // Byte 5 is the nop@4 operand (0x00) followed by 0x01, which
        // decodes as a second, overlapping nop.
        let cfg = recover(&[0x03, 5, 0x00, 0, 0x00, 0, 0x01, 0]);
        assert!(cfg
            .violations
            .iter()
            .any(|v| matches!(v, CfgViolation::OverlappingInsns { .. })));
    }
}
