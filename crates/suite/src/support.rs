//! Architecture/platform support packages.
//!
//! The paper's benchmarks contain no architecture- or platform-specific
//! code: everything of that kind lives in *support packages* (§II-C).
//! [`Support`] is that boundary here, and its provided
//! [`Support::build`] holds everything the guests share: the memory
//! [`Layout`] and its identity-mapped ranges, the exception vector table
//! and the `Eret` and `AckIrqEret` handlers, the boot sequence (stack,
//! page-table base, TLB flush, MMU on, optional IRQ unmask) and shipping
//! the page tables as their non-zero bytes.
//!
//! A port supplies a [`PortableAsm`] assembler and a `Support` impl that
//! says only where the guests differ:
//!
//! * [`Support::page_tables`]: the table builder and its flags,
//! * [`Support::emit_table_base`], [`Support::emit_mmu_on`] and
//!   [`Support::emit_irq_control`]: the boot sequence's system-register
//!   writes,
//! * [`Support::emit_vector_fill`]: the filler between vector entries
//!   (a `nop` unless overridden),
//! * [`Support::emit_resume_from_link`]: the body of the
//!   [`HandlerKind::ResumeFromLink`] handler,
//! * the operations benchmarks request: the safe coprocessor read,
//!   non-privileged access and TLB maintenance.
//!
//! A port changes no benchmark.

use simbench_core::asm::{PReg, PortableAsm};
use simbench_core::fault::ExceptionKind;
use simbench_core::image::GuestImage;
use simbench_core::mmu::{PtFlags, PteEncoding, TableBuilder};
use simbench_platform::devices::{INTC_ACK, INTC_ENABLE};

/// Guest-visible memory layout shared by every support package.
///
/// All code/data regions are identity-mapped (VA == PA) so the paper's
/// bare-metal structure — boot with MMU off, enable it, keep running —
/// works without relocation.
#[derive(Debug, Clone, Copy)]
pub struct Layout {
    /// Vector table base (VA 0).
    pub vectors: u32,
    /// Exception handlers.
    pub handlers: u32,
    /// Boot code / image entry.
    pub boot: u32,
    /// Benchmark code.
    pub code: u32,
    /// Read-write data.
    pub data: u32,
    /// Top of the stack (grows down).
    pub stack_top: u32,
    /// Physical base of the page tables.
    pub tables: u32,
    /// Large cold-access region base.
    pub cold: u32,
    /// Cold region length in bytes.
    pub cold_len: u32,
    /// A virtual address guaranteed unmapped (fault benchmarks).
    pub unmapped: u32,
    /// Identity-mapped UART.
    pub uart: u32,
    /// Identity-mapped interrupt controller.
    pub intc: u32,
    /// Identity-mapped safe device.
    pub safedev: u32,
    /// Identity-mapped control device.
    pub ctl: u32,
}

impl Default for Layout {
    fn default() -> Self {
        Layout {
            vectors: 0x0000_0000,
            handlers: 0x0000_1000,
            boot: 0x0000_8000,
            code: 0x0001_0000,
            data: 0x0200_0000,
            stack_top: 0x0210_0000,
            tables: 0x0300_0000,
            cold: 0x0400_0000,
            cold_len: 16 << 20,
            unmapped: 0x7000_0000,
            uart: simbench_platform::UART_BASE,
            intc: simbench_platform::INTC_BASE,
            safedev: simbench_platform::SAFEDEV_BASE,
            ctl: simbench_platform::CTL_BASE,
        }
    }
}

/// The three handler shapes the suite needs (paper §II-B3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HandlerKind {
    /// Return to the banked resume address (which both ISAs set to the
    /// *next* instruction for synchronous exceptions).
    #[default]
    Eret,
    /// Recover the caller's return address — from the link register on
    /// armlet, by unwinding the stack on petix — and resume there. Used
    /// by the Instruction Access Fault benchmark.
    ResumeFromLink,
    /// Acknowledge the interrupt controller, then return. Used by the
    /// External Software Interrupt benchmark.
    AckIrqEret,
}

/// Handler selection for all five vectors.
#[derive(Debug, Clone, Copy, Default)]
pub struct Handlers {
    /// Undefined instruction.
    pub undef: HandlerKind,
    /// System call.
    pub syscall: HandlerKind,
    /// Data abort.
    pub data_abort: HandlerKind,
    /// Prefetch abort.
    pub prefetch_abort: HandlerKind,
    /// External interrupt.
    pub irq: HandlerKind,
}

impl Handlers {
    /// The handler for a given exception kind.
    pub fn for_kind(&self, kind: ExceptionKind) -> HandlerKind {
        match kind {
            ExceptionKind::Undef => self.undef,
            ExceptionKind::Syscall => self.syscall,
            ExceptionKind::DataAbort => self.data_abort,
            ExceptionKind::PrefetchAbort => self.prefetch_abort,
            ExceptionKind::Irq => self.irq,
        }
    }
}

/// Boot-time options.
#[derive(Debug, Clone, Copy, Default)]
pub struct BootSpec {
    /// Handler shapes to install.
    pub handlers: Handlers,
    /// Enable IRQ delivery and unmask INTC line 0 before entering the
    /// benchmark body.
    pub enable_irqs: bool,
}

/// One identity-mapped range of the boot page tables:
/// `(start, length in bytes, flags)`.
pub type IdentityRange = (u32, u32, PtFlags);

/// An architecture + platform support package.
pub trait Support {
    /// The architecture's assembler.
    type Asm: PortableAsm + Default;

    /// Architecture name (matches `Isa::NAME`).
    const ISA_NAME: &'static str;

    /// Whether the architecture has non-privileged load/store
    /// instructions (armlet yes, petix no — paper §II-A).
    const HAS_NONPRIV: bool;

    /// The memory layout.
    fn layout(&self) -> Layout {
        Layout::default()
    }

    /// Assemble a complete bootable benchmark image: vector table,
    /// handlers, page tables, boot code, then the benchmark `body`
    /// emitted at `layout().code`. The body receives the assembler, the
    /// support package (for arch-specific operations) and the layout; it
    /// must end with `halt`.
    fn build(
        &self,
        spec: BootSpec,
        body: impl FnOnce(&mut Self::Asm, &Self, &Layout),
    ) -> GuestImage {
        let layout = self.layout();
        let mut a = Self::Asm::default();
        let tables = self.page_tables(
            layout.tables,
            &[
                (0, 0x0060_0000, PtFlags::KERNEL),
                (layout.data, 0x0020_0000, PtFlags::USER_FULL),
                (layout.cold, layout.cold_len, PtFlags::KERNEL),
                (
                    simbench_platform::DEVICE_BASE,
                    0x5000,
                    PtFlags::KERNEL_DEVICE,
                ),
            ],
        );

        // Vector table: a branch per exception kind, `VECTOR_STRIDE` apart.
        a.org(layout.vectors);
        let vectors = ExceptionKind::ALL.map(|kind| {
            let handler = a.new_label();
            while a.here() < kind.vector(layout.vectors) {
                self.emit_vector_fill(&mut a);
            }
            a.b(handler);
            (kind, handler)
        });

        // Handlers.
        a.org(layout.handlers);
        for (kind, handler) in vectors {
            a.bind(handler);
            match spec.handlers.for_kind(kind) {
                HandlerKind::Eret => {}
                HandlerKind::ResumeFromLink => self.emit_resume_from_link(&mut a),
                HandlerKind::AckIrqEret => {
                    // Clobbers D and E (IRQ-driven benchmarks keep D/E
                    // dead in their kernels).
                    a.mov_imm(PReg::D, layout.intc);
                    a.mov_imm(PReg::E, 1);
                    a.store(PReg::E, PReg::D, INTC_ACK as i32);
                }
            }
            a.eret();
        }

        // Boot: stack, table base, TLB flush, MMU on, optional IRQ
        // unmask, then jump into the benchmark body.
        a.org(layout.boot);
        let code_entry = a.new_label();
        a.mov_imm(PReg::Sp, layout.stack_top);
        a.mov_imm(PReg::A, layout.tables);
        self.emit_table_base(&mut a, PReg::A);
        self.emit_tlb_flush(&mut a, PReg::A);
        a.mov_imm(PReg::A, 1);
        self.emit_mmu_on(&mut a, PReg::A);
        if spec.enable_irqs {
            a.mov_imm(PReg::A, layout.intc);
            a.mov_imm(PReg::B, 1);
            a.store(PReg::B, PReg::A, INTC_ENABLE as i32);
            a.mov_imm(PReg::A, 1);
            self.emit_irq_control(&mut a, PReg::A);
        }
        a.b(code_entry);

        // Benchmark body.
        a.org(layout.code);
        a.bind(code_entry);
        body(&mut a, self, &layout);

        // Page tables: only their non-zero chunks ship.
        let mut image = a.finish(layout.boot);
        image.push_nonzero(layout.tables, &tables);
        image
    }

    /// The bytes of page tables loaded at physical `base` that
    /// identity-map `ranges`, later ranges overriding earlier ones.
    fn page_tables(&self, base: u32, ranges: &[IdentityRange]) -> Vec<u8>;

    /// Emit the write of the page-table base held in `rs`.
    fn emit_table_base(&self, a: &mut Self::Asm, rs: PReg);

    /// Emit the write that turns the MMU on; `rs` holds 1.
    fn emit_mmu_on(&self, a: &mut Self::Asm, rs: PReg);

    /// Emit the write of the current IRQ enable; `rs` holds 1.
    fn emit_irq_control(&self, a: &mut Self::Asm, rs: PReg);

    /// Emit one unit of the filler between vector-table entries.
    fn emit_vector_fill(&self, a: &mut Self::Asm) {
        a.nop();
    }

    /// Emit the [`HandlerKind::ResumeFromLink`] handler up to its `eret`:
    /// point the banked resume address at the faulted call's return
    /// address. May clobber `PReg::D`.
    fn emit_resume_from_link(&self, a: &mut Self::Asm);

    /// Emit the designated side-effect-free coprocessor read (armlet:
    /// CP15 DACR; petix: FPU control word).
    fn emit_safe_coproc_read(&self, a: &mut Self::Asm, rd: PReg);

    /// Emit a non-privileged load `rd = [base + off]` if the
    /// architecture supports one. Returns `false` (emitting nothing) on
    /// architectures without the feature.
    fn emit_nonpriv_load(&self, a: &mut Self::Asm, rd: PReg, base: PReg, off: i32) -> bool;

    /// Emit a non-privileged store, mirroring [`Support::emit_nonpriv_load`].
    fn emit_nonpriv_store(&self, a: &mut Self::Asm, rs: PReg, base: PReg, off: i32) -> bool;

    /// Emit a single-page TLB invalidation for the virtual address held
    /// in `rva`.
    fn emit_tlb_inv_page(&self, a: &mut Self::Asm, rva: PReg);

    /// Emit a full TLB flush. May clobber `scratch`.
    fn emit_tlb_flush(&self, a: &mut Self::Asm, scratch: PReg);
}

/// [`Support::page_tables`] for a guest with the shared 10/10/12 table
/// format, whose entries `E` encodes.
pub fn identity_tables<E: PteEncoding>(base: u32, ranges: &[IdentityRange]) -> Vec<u8> {
    let mut tb = TableBuilder::<E>::new(base);
    for &(start, len, flags) in ranges {
        tb.map_range(start, start, len, flags);
    }
    tb.into_blob().1
}

/// Emit a benchmark-phase mark (1 = kernel start, 2 = kernel end).
/// Clobbers `PReg::D` and `PReg::Lr` only — benchmark state in
/// `A`/`B`/`E` survives across marks.
pub fn emit_phase_mark<A: PortableAsm>(a: &mut A, layout: &Layout, mark: u32) {
    a.mov_imm(PReg::D, layout.ctl);
    a.mov_imm(PReg::Lr, mark);
    a.store(PReg::Lr, PReg::D, 0);
}

/// Emit a counted loop: `C = iterations; do { body } while (--C != 0)`.
/// The body must preserve `PReg::C`.
pub fn emit_counted_loop<A: PortableAsm>(a: &mut A, iterations: u32, body: impl FnOnce(&mut A)) {
    use simbench_core::ir::{AluOp, Cond};
    a.mov_imm(PReg::C, iterations);
    let top = a.new_label();
    a.bind(top);
    body(a);
    a.alu_ri(AluOp::Sub, PReg::C, PReg::C, 1);
    a.cmp_ri(PReg::C, 0);
    a.b_cond(Cond::Ne, top);
}
