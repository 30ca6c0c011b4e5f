//! The machine: CPU + system registers + physical bus.

use crate::cpu::CpuState;
use crate::digest::{Fnv1a, StateDelta, StateDigest};
use crate::image::GuestImage;
use crate::isa::Isa;

/// A complete guest machine instance for architecture `I` on bus `B`.
///
/// Engines borrow a machine mutably for the duration of a run; the
/// machine itself is engine-agnostic, so the same loaded image can be
/// executed by different engines for differential testing.
#[derive(Debug)]
pub struct Machine<I: Isa, B> {
    /// Architectural register state.
    pub cpu: CpuState,
    /// ISA-specific system registers.
    pub sys: I::Sys,
    /// Physical memory and devices.
    pub bus: B,
}

impl<I: Isa, B: crate::bus::Bus> Machine<I, B> {
    /// Create a machine with the image loaded and the CPU at its entry
    /// point, in the architectural reset state (kernel mode, MMU off,
    /// IRQs masked).
    ///
    /// `bus` must come with zeroed RAM: RAM is zero where no section
    /// lands, and images leave out the zero bytes they would carry (see
    /// [`GuestImage::push_nonzero`]).
    ///
    /// # Panics
    ///
    /// Panics if the image does not fit in the bus's RAM.
    pub fn boot(image: &GuestImage, mut bus: B) -> Self {
        for s in &image.sections {
            s.assert_fits(bus.ram().len());
            bus.load(s.addr, &s.bytes);
        }
        Machine {
            cpu: CpuState::at_reset(image.entry),
            sys: I::Sys::default(),
            bus,
        }
    }

    /// Pack the non-register CPU status into one word for hashing and
    /// diffing: flags in the low nibble layout NZCV, then privilege and
    /// the IRQ mask.
    fn status_word(cpu: &CpuState) -> u32 {
        (cpu.flags.n as u32) << 5
            | (cpu.flags.z as u32) << 4
            | (cpu.flags.c as u32) << 3
            | (cpu.flags.v as u32) << 2
            | (cpu.level.is_kernel() as u32) << 1
            | cpu.irq_enabled as u32
    }

    /// Digest of the architectural state: GPRs, PC, flags, privilege,
    /// IRQ mask, ISA system registers (via [`Isa::sys_regs`]), and all
    /// of RAM.
    ///
    /// Engine-private state (TLBs, decode caches, event counters) and
    /// device-internal state are excluded: the former is legitimately
    /// engine-specific, the latter surfaces through RAM and registers
    /// as soon as the guest reads it.
    pub fn state_digest(&self) -> StateDigest {
        let mut cpu = Fnv1a::new();
        for r in &self.cpu.regs[..I::GPRS] {
            cpu.write_u32(*r);
        }
        cpu.write_u32(self.cpu.pc);
        cpu.write_u32(Self::status_word(&self.cpu));
        let mut sys = Fnv1a::new();
        I::sys_regs(&self.sys, &mut |_, v| sys.write_u32(v));
        let mut ram = Fnv1a::new();
        ram.write_bytes(self.bus.ram());
        StateDigest {
            cpu: cpu.finish(),
            sys: sys.finish(),
            ram: ram.finish(),
        }
    }

    /// Field-by-field architectural diff against another machine of the
    /// same ISA, for reporting after a digest mismatch.
    ///
    /// RAM is compared word-wise and reported as `ram[0x<pa>]` deltas,
    /// capped at [`Machine::MAX_RAM_DELTAS`] entries.
    pub fn state_diff<B2: crate::bus::Bus>(&self, other: &Machine<I, B2>) -> Vec<StateDelta> {
        const REG_NAMES: [&str; crate::cpu::MAX_GPRS] = [
            "r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7", "r8", "r9", "r10", "r11", "r12", "r13",
            "r14", "r15",
        ];
        let mut deltas = Vec::new();
        let mut push = |field: String, a: u32, b: u32| {
            if a != b {
                deltas.push(StateDelta { field, a, b });
            }
        };
        for (i, name) in REG_NAMES.iter().enumerate().take(I::GPRS) {
            push(name.to_string(), self.cpu.regs[i], other.cpu.regs[i]);
        }
        push("pc".to_string(), self.cpu.pc, other.cpu.pc);
        push(
            "status(nzcv|kernel|irq)".to_string(),
            Self::status_word(&self.cpu),
            Self::status_word(&other.cpu),
        );
        let mut mine = Vec::new();
        I::sys_regs(&self.sys, &mut |n, v| mine.push((n, v)));
        let mut idx = 0;
        I::sys_regs(&other.sys, &mut |n, v| {
            let (name, a) = mine[idx];
            debug_assert_eq!(name, n, "sys_regs must visit in a fixed order");
            push(format!("sys.{name}"), a, v);
            idx += 1;
        });
        let (ra, rb) = (self.bus.ram(), other.bus.ram());
        push("ram_len".to_string(), ra.len() as u32, rb.len() as u32);
        let mut ram_deltas = 0usize;
        for (i, (ca, cb)) in ra.chunks_exact(4).zip(rb.chunks_exact(4)).enumerate() {
            if ca != cb {
                deltas.push(StateDelta {
                    field: format!("ram[{:#010x}]", i * 4),
                    a: u32::from_le_bytes(ca.try_into().unwrap()),
                    b: u32::from_le_bytes(cb.try_into().unwrap()),
                });
                ram_deltas += 1;
                if ram_deltas >= Self::MAX_RAM_DELTAS {
                    break;
                }
            }
        }
        deltas
    }

    /// Cap on reported `ram[...]` deltas in [`Machine::state_diff`].
    const MAX_RAM_DELTAS: usize = 16;
}
