//! The petix architecture + platform support package.

use simbench_core::asm::{PReg, PortableAsm};
use simbench_core::fault::ExceptionKind;
use simbench_core::image::GuestImage;
use simbench_isa_petix::sys::{cr, VECTOR_STRIDE};
use simbench_isa_petix::{PetixAsm, PtFlags, TableBuilder};

use crate::support::{BootSpec, HandlerKind, Layout, Support};

/// petix support package.
#[derive(Debug, Clone, Copy, Default)]
pub struct PetixSupport;

impl PetixSupport {
    /// New support package.
    pub fn new() -> Self {
        PetixSupport
    }

    fn emit_handler(&self, a: &mut PetixAsm, kind: HandlerKind, layout: &Layout) {
        match kind {
            HandlerKind::Eret => a.eret(),
            HandlerKind::ResumeFromLink => {
                // The faulted call pushed its return address: unwind the
                // stack into the banked resume register (the paper notes
                // this unwinding is required on x86). Clobbers D.
                a.pop(PReg::D);
                a.mov_to_cr(cr::SAVED_PC, PReg::D);
                a.eret();
            }
            HandlerKind::AckIrqEret => {
                // Clobbers D and E, as on armlet.
                a.mov_imm(PReg::D, layout.intc);
                a.mov_imm(PReg::E, 1);
                a.store(
                    PReg::E,
                    PReg::D,
                    simbench_platform::devices::INTC_ACK as i32,
                );
                a.eret();
            }
        }
    }
}

impl Support for PetixSupport {
    type Asm = PetixAsm;
    const ISA_NAME: &'static str = "petix";
    const HAS_NONPRIV: bool = false;

    fn build(
        &self,
        spec: BootSpec,
        body: impl FnOnce(&mut Self::Asm, &Self, &Layout),
    ) -> GuestImage {
        let layout = self.layout();
        let mut a = PetixAsm::new();

        // Static x86-style two-level page tables, identity mapped.
        let mut tb = TableBuilder::new(layout.tables);
        tb.map_range(0, 0, 0x0060_0000, PtFlags::KERNEL);
        tb.map_range(layout.data, layout.data, 0x0020_0000, PtFlags::USER_FULL);
        tb.map_range(layout.cold, layout.cold, layout.cold_len, PtFlags::KERNEL);
        tb.map_range(
            simbench_platform::DEVICE_BASE,
            simbench_platform::DEVICE_BASE,
            0x5000,
            PtFlags::KERNEL_DEVICE,
        );
        let (cr3, blob) = tb.into_blob();

        // Vector table.
        a.org(layout.vectors);
        let mut handler_labels = Vec::new();
        for kind in ExceptionKind::ALL {
            let l = a.new_label();
            let entry = layout.vectors + VECTOR_STRIDE * kind.vector_index() as u32;
            while a.here() < entry {
                a.nop();
            }
            a.b(l);
            handler_labels.push((kind, l));
        }

        // Handlers.
        a.org(layout.handlers);
        for (kind, l) in handler_labels {
            a.bind(l);
            self.emit_handler(&mut a, spec.handlers.for_kind(kind), &layout);
        }

        // Boot.
        a.org(layout.boot);
        let code_entry = a.new_label();
        a.mov_imm(PReg::Sp, layout.stack_top);
        a.mov_imm(PReg::A, cr3);
        a.mov_to_cr(cr::CR3, PReg::A);
        a.mov_to_cr(cr::TLB_FLUSH, PReg::A);
        a.mov_imm(PReg::A, 1);
        a.mov_to_cr(cr::CR0, PReg::A);
        if spec.enable_irqs {
            a.mov_imm(PReg::A, layout.intc);
            a.mov_imm(PReg::B, 1);
            a.store(
                PReg::B,
                PReg::A,
                simbench_platform::devices::INTC_ENABLE as i32,
            );
            a.mov_imm(PReg::A, 1);
            a.mov_to_cr(cr::IRQ_CTL, PReg::A);
        }
        a.b(code_entry);

        // Benchmark body.
        a.org(layout.code);
        a.bind(code_entry);
        body(&mut a, self, &layout);

        // Page tables: only their non-zero chunks ship.
        let mut image = a.finish(layout.boot);
        image.push_nonzero(cr3, &blob);
        image
    }

    fn emit_safe_coproc_read(&self, a: &mut Self::Asm, rd: PReg) {
        // The FPU control word: side-effect-free, not constant-foldable
        // without device knowledge (the x86 analogue the paper uses is a
        // repeated FPU reset; a FCW read exercises the same trap path).
        a.mov_from_cr(rd, cr::FPCW);
    }

    fn emit_nonpriv_load(&self, _a: &mut Self::Asm, _rd: PReg, _base: PReg, _off: i32) -> bool {
        false // no ldrt equivalent on x86-style ISAs (paper §II-A)
    }

    fn emit_nonpriv_store(&self, _a: &mut Self::Asm, _rs: PReg, _base: PReg, _off: i32) -> bool {
        false
    }

    fn emit_tlb_inv_page(&self, a: &mut Self::Asm, rva: PReg) {
        a.mov_to_cr(cr::INVLPG, rva);
    }

    fn emit_tlb_flush(&self, a: &mut Self::Asm, scratch: PReg) {
        a.mov_to_cr(cr::TLB_FLUSH, scratch);
    }
}
