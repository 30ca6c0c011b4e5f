//! In-order pipeline timing: a register scoreboard tracking per-register
//! ready cycles, and a bimodal branch predictor. Together with the cache
//! models this is the per-instruction work that makes detailed
//! simulators orders of magnitude slower than fast interpreters — the
//! paper's explanation for Gem5's numbers.

use simbench_core::cpu::MAX_GPRS;
use simbench_core::ir::{AluOp, LinkKind, Op, Operand, RetKind};

/// Latency of a simple ALU op, in cycles.
const ALU_CYCLES: u64 = 1;
/// Latency of a multiply.
const MUL_CYCLES: u64 = 3;
/// Load-to-use latency on a cache hit.
const LOAD_CYCLES: u64 = 2;
/// Branch misprediction penalty.
const MISPREDICT_CYCLES: u64 = 12;

/// In-order scoreboard: per-register ready cycle, starting at cycle zero.
#[derive(Debug, Clone, Default)]
pub struct Scoreboard {
    /// The guest's registers, then [`ZERO`] and [`SINK`].
    ready: [u64; MAX_GPRS + 2],
    /// Current cycle (advances as instructions issue).
    pub now: u64,
}

/// A source slot nothing writes: always ready.
const ZERO: u8 = MAX_GPRS as u8;
/// A destination slot nothing reads.
const SINK: u8 = ZERO + 1;

/// Which latency an op is charged.
enum Unit {
    Alu,
    Mul,
    Load,
    Store,
}

/// The registers an op reads and writes, unused slots filled with
/// [`ZERO`] and [`SINK`], and its unit.
fn op_regs(op: &Op) -> ([u8; 3], u8, Unit) {
    let src_of = |s: Operand| match s {
        Operand::Reg(r) => r,
        Operand::Imm(_) => ZERO,
    };
    match *op {
        Op::Alu {
            op, rd, rn, src, ..
        } => {
            let unit = if op == AluOp::Mul {
                Unit::Mul
            } else {
                Unit::Alu
            };
            ([rn, src_of(src), ZERO], rd, unit)
        }
        Op::Cmp { rn, src, .. } => ([rn, src_of(src), ZERO], SINK, Unit::Alu),
        Op::Load { rd, base, .. } => ([base, ZERO, ZERO], rd, Unit::Load),
        Op::Store { rs, base, .. } => ([rs, base, ZERO], SINK, Unit::Store),
        Op::BranchReg { rm } => ([rm, ZERO, ZERO], SINK, Unit::Alu),
        Op::Call { link, .. } => match link {
            LinkKind::Register(lr) => ([ZERO; 3], lr, Unit::Alu),
            LinkKind::Push(sp) => ([sp, ZERO, ZERO], sp, Unit::Alu),
        },
        Op::CallReg { rm, link, .. } => match link {
            LinkKind::Register(lr) => ([rm, ZERO, ZERO], lr, Unit::Alu),
            LinkKind::Push(sp) => ([rm, sp, ZERO], sp, Unit::Alu),
        },
        Op::Ret(RetKind::Register(r)) => ([r, ZERO, ZERO], SINK, Unit::Alu),
        Op::Ret(RetKind::Pop(sp)) => ([sp, ZERO, ZERO], sp, Unit::Load),
        Op::CopRead { rd, .. } => ([ZERO; 3], rd, Unit::Alu),
        Op::CopWrite { rs, .. } => ([rs, ZERO, ZERO], SINK, Unit::Alu),
        _ => ([ZERO; 3], SINK, Unit::Alu),
    }
}

impl Scoreboard {
    /// Issue one op: stall until its sources are ready, charge its
    /// latency, and mark its destination. `mem_extra` is additional
    /// latency from the cache model (0 for non-memory ops). Returns the
    /// cycles this op added.
    pub fn issue(&mut self, op: &Op, mem_extra: u64) -> u64 {
        let ([a, b, c], dst, unit) = op_regs(op);
        let ready = |r: u8| self.ready[usize::from(r)];
        let issue_at = (self.now + 1).max(ready(a)).max(ready(b)).max(ready(c));
        let latency = match unit {
            Unit::Alu => ALU_CYCLES,
            Unit::Mul => MUL_CYCLES,
            Unit::Load => LOAD_CYCLES + mem_extra,
            Unit::Store => 1 + mem_extra,
        };
        self.ready[usize::from(dst)] = issue_at + latency;
        let added = issue_at - self.now + latency;
        self.now = issue_at;
        added
    }

    /// Reset for a new run.
    pub fn reset(&mut self) {
        self.ready = [0; MAX_GPRS + 2];
        self.now = 0;
    }
}

/// A bimodal (2-bit saturating counter) branch predictor.
///
/// The `Default` predictor has no counters and must not observe.
#[derive(Debug, Clone, Default)]
pub struct BranchPredictor {
    counters: Vec<u8>,
    mask: u32,
}

impl BranchPredictor {
    /// A predictor with `1 << bits` counters.
    pub fn new(bits: u8) -> Self {
        let n = 1usize << bits;
        BranchPredictor {
            // lint:allow(hot-path): one-time constructor allocation
            counters: vec![1; n], // weakly not-taken
            mask: n as u32 - 1,
        }
    }

    /// Record an executed conditional branch; returns the cycle penalty
    /// (0 on correct prediction).
    pub fn observe(&mut self, pc: u32, taken: bool) -> u64 {
        let c = &mut self.counters[((pc >> 2) & self.mask) as usize];
        let penalty = if (*c >= 2) == taken {
            0
        } else {
            MISPREDICT_CYCLES
        };
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
        penalty
    }

    /// Untrain for a new run: every counter weakly not-taken again.
    pub fn reset(&mut self) {
        self.counters.fill(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simbench_core::ir::MemSize;

    fn add(rd: u8, rn: u8) -> Op {
        Op::Alu {
            op: AluOp::Add,
            rd,
            rn,
            src: Operand::Imm(1),
            set_flags: false,
        }
    }

    fn load(rd: u8) -> Op {
        Op::Load {
            rd,
            base: 0,
            off: 0,
            size: MemSize::B4,
            nonpriv: false,
        }
    }

    #[test]
    fn scoreboard_tracks_dependencies() {
        let mut sb = Scoreboard::default();
        assert_eq!(sb.issue(&load(1), 0), 1 + LOAD_CYCLES);
        // The dependent add waits for r1; the independent one does not.
        let dependent = sb.issue(&add(2, 1), 0);
        let independent = sb.issue(&add(3, 0), 0);
        assert_eq!(independent, 1 + ALU_CYCLES);
        assert_eq!(dependent, independent + 1, "a one-cycle load-use stall");
    }

    #[test]
    fn unused_slots_neither_stall_nor_mark() {
        let mut sb = Scoreboard::default();
        // A store marks no register, however long its memory access...
        let store = Op::Store {
            rs: 1,
            base: 2,
            off: 0,
            size: MemSize::B4,
            nonpriv: false,
        };
        assert_eq!(sb.issue(&store, 50), 1 + 1 + 50);
        // ...and an immediate operand never waits.
        assert_eq!(sb.issue(&add(3, 0), 0), 1 + ALU_CYCLES);
    }

    #[test]
    fn multiply_slower_than_add() {
        let mut sb = Scoreboard::default();
        let add = sb.issue(&add(1, 0), 0);
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
        assert_eq!((add, mul), (1 + ALU_CYCLES, 1 + MUL_CYCLES));
    }

    #[test]
    fn predictor_learns_a_loop() {
        let mut bp = BranchPredictor::new(4);
        // A loop branch taken 100 times: after warmup, no penalties.
        let (mut mispredicts, mut late_penalty) = (0, 0);
        for i in 0..100 {
            let p = bp.observe(0x8000, true);
            mispredicts += u32::from(p > 0);
            if i > 4 {
                late_penalty += p;
            }
        }
        assert_eq!(late_penalty, 0, "steady-state loop predicted");
        assert!(mispredicts <= 4);
    }

    #[test]
    fn reset_clears() {
        let mut sb = Scoreboard::default();
        sb.issue(&load(1), 5);
        sb.reset();
        assert_eq!(sb.now, 0);
        assert_eq!(sb.issue(&add(2, 1), 0), 1 + ALU_CYCLES, "r1 is ready");
    }
}
