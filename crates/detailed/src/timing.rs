//! In-order pipeline timing: a register scoreboard tracking per-register
//! ready cycles, and a bimodal branch predictor. Together with the cache
//! models this is the per-instruction work that makes detailed
//! simulators orders of magnitude slower than fast interpreters — the
//! paper's explanation for Gem5's numbers.

use simbench_core::cpu::MAX_GPRS;
use simbench_core::ir::{LinkKind, Op, Operand, RetKind};

/// Default operation latencies in cycles.
#[derive(Debug, Clone, Copy)]
pub struct Latencies {
    /// Simple ALU ops.
    pub alu: u64,
    /// Multiplies.
    pub mul: u64,
    /// Load-to-use latency on a cache hit.
    pub load: u64,
    /// Branch misprediction penalty.
    pub mispredict: u64,
}

impl Default for Latencies {
    fn default() -> Self {
        Latencies {
            alu: 1,
            mul: 3,
            load: 2,
            mispredict: 12,
        }
    }
}

/// In-order scoreboard: per-register ready cycle.
#[derive(Debug, Clone)]
pub struct Scoreboard {
    ready: [u64; MAX_GPRS],
    /// Current cycle (advances as instructions issue).
    pub now: u64,
    lat: Latencies,
    stall_cycles: u64,
}

/// Operand registers read and written by an op (at most 3 sources).
fn op_regs(op: &Op) -> ([Option<u8>; 3], Option<u8>) {
    let src_of = |s: Operand| match s {
        Operand::Reg(r) => Some(r),
        Operand::Imm(_) => None,
    };
    match *op {
        Op::Alu { rd, rn, src, .. } => ([Some(rn), src_of(src), None], Some(rd)),
        Op::Cmp { rn, src, .. } => ([Some(rn), src_of(src), None], None),
        Op::Load { rd, base, .. } => ([Some(base), None, None], Some(rd)),
        Op::Store { rs, base, .. } => ([Some(rs), Some(base), None], None),
        Op::BranchReg { rm } => ([Some(rm), None, None], None),
        Op::Call { link, .. } => match link {
            LinkKind::Register(lr) => ([None; 3], Some(lr)),
            LinkKind::Push(sp) => ([Some(sp), None, None], Some(sp)),
        },
        Op::CallReg { rm, link, .. } => match link {
            LinkKind::Register(lr) => ([Some(rm), None, None], Some(lr)),
            LinkKind::Push(sp) => ([Some(rm), Some(sp), None], Some(sp)),
        },
        Op::Ret(RetKind::Register(r)) => ([Some(r), None, None], None),
        Op::Ret(RetKind::Pop(sp)) => ([Some(sp), None, None], Some(sp)),
        Op::CopRead { rd, .. } => ([None; 3], Some(rd)),
        Op::CopWrite { rs, .. } => ([Some(rs), None, None], None),
        _ => ([None; 3], None),
    }
}

impl Scoreboard {
    /// A scoreboard at cycle zero.
    pub fn new(lat: Latencies) -> Self {
        Scoreboard {
            ready: [0; MAX_GPRS],
            now: 0,
            lat,
            stall_cycles: 0,
        }
    }

    /// Issue one op: stall until its sources are ready, charge its
    /// latency, and mark its destination. `mem_extra` is additional
    /// latency from the cache model (0 for non-memory ops). Returns the
    /// cycles this op added.
    pub fn issue(&mut self, op: &Op, mem_extra: u64) -> u64 {
        let (srcs, dst) = op_regs(op);
        let start = self.now;
        let mut issue_at = self.now + 1;
        for src in srcs.into_iter().flatten() {
            issue_at = issue_at.max(self.ready[src as usize]);
        }
        self.stall_cycles += issue_at - (self.now + 1);
        let latency = match op {
            Op::Alu {
                op: simbench_core::ir::AluOp::Mul,
                ..
            } => self.lat.mul,
            Op::Load { .. } | Op::Ret(RetKind::Pop(_)) => self.lat.load + mem_extra,
            Op::Store { .. } => 1 + mem_extra,
            _ => self.lat.alu,
        };
        let done = issue_at + latency;
        if let Some(d) = dst {
            self.ready[d as usize] = done;
        }
        self.now = issue_at;
        self.now - start + latency
    }

    /// Cycles lost waiting on operands so far.
    pub fn stalls(&self) -> u64 {
        self.stall_cycles
    }

    /// Reset for a new run.
    pub fn reset(&mut self) {
        self.ready = [0; MAX_GPRS];
        self.now = 0;
        self.stall_cycles = 0;
    }
}

/// A bimodal (2-bit saturating counter) branch predictor.
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    counters: Vec<u8>,
    mask: u32,
    hits: u64,
    misses: u64,
    mispredict_penalty: u64,
}

impl BranchPredictor {
    /// A predictor with `1 << bits` counters.
    pub fn new(bits: u8, mispredict_penalty: u64) -> Self {
        let n = 1usize << bits;
        BranchPredictor {
            counters: vec![1; n], // weakly not-taken
            mask: n as u32 - 1,
            hits: 0,
            misses: 0,
            mispredict_penalty,
        }
    }

    /// Record an executed conditional branch; returns the cycle penalty
    /// (0 on correct prediction).
    pub fn observe(&mut self, pc: u32, taken: bool) -> u64 {
        let i = ((pc >> 2) & self.mask) as usize;
        let predict_taken = self.counters[i] >= 2;
        let penalty = if predict_taken == taken {
            self.hits += 1;
            0
        } else {
            self.misses += 1;
            self.mispredict_penalty
        };
        let c = &mut self.counters[i];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
        penalty
    }

    /// (correct, mispredicted).
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Untrain for a new run: every counter weakly not-taken again.
    pub fn reset(&mut self) {
        self.counters.fill(1);
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simbench_core::ir::AluOp;

    #[test]
    fn scoreboard_tracks_dependencies() {
        let mut sb = Scoreboard::new(Latencies::default());
        // r1 = load (latency 2): r1 ready later.
        sb.issue(
            &Op::Load {
                rd: 1,
                base: 0,
                off: 0,
                size: simbench_core::ir::MemSize::B4,
                nonpriv: false,
            },
            0,
        );
        let before = sb.stalls();
        // Dependent add must stall on r1.
        sb.issue(
            &Op::Alu {
                op: AluOp::Add,
                rd: 2,
                rn: 1,
                src: Operand::Imm(1),
                set_flags: false,
            },
            0,
        );
        assert!(sb.stalls() > before, "load-use stall recorded");
        // Independent op does not stall.
        let before = sb.stalls();
        sb.issue(
            &Op::Alu {
                op: AluOp::Add,
                rd: 3,
                rn: 0,
                src: Operand::Imm(1),
                set_flags: false,
            },
            0,
        );
        assert_eq!(sb.stalls(), before);
    }

    #[test]
    fn multiply_slower_than_add() {
        let lat = Latencies::default();
        let mut sb = Scoreboard::new(lat);
        let add = sb.issue(
            &Op::Alu {
                op: AluOp::Add,
                rd: 1,
                rn: 0,
                src: Operand::Imm(1),
                set_flags: false,
            },
            0,
        );
        let mul = sb.issue(
            &Op::Alu {
                op: AluOp::Mul,
                rd: 2,
                rn: 0,
                src: Operand::Imm(3),
                set_flags: false,
            },
            0,
        );
        assert!(mul > add);
    }

    #[test]
    fn predictor_learns_a_loop() {
        let mut bp = BranchPredictor::new(4, 10);
        // A loop branch taken 100 times: after warmup, no penalties.
        let mut late_penalty = 0;
        for i in 0..100 {
            let p = bp.observe(0x8000, true);
            if i > 4 {
                late_penalty += p;
            }
        }
        assert_eq!(late_penalty, 0, "steady-state loop predicted");
        let (hits, misses) = bp.stats();
        assert!(hits > 90 && misses <= 4);
    }

    #[test]
    fn reset_clears() {
        let mut sb = Scoreboard::new(Latencies::default());
        sb.issue(
            &Op::Load {
                rd: 1,
                base: 0,
                off: 0,
                size: simbench_core::ir::MemSize::B4,
                nonpriv: false,
            },
            5,
        );
        sb.reset();
        assert_eq!(sb.now, 0);
        assert_eq!(sb.stalls(), 0);
    }
}
