//! The portable guest-assembly interface.
//!
//! SimBench's benchmarks are written once against [`PortableAsm`] — the
//! analogue of the paper's "standards-compliant C" benchmark bodies — and
//! each ISA crate supplies only instruction selection: labels, label uses
//! and the output buffer are provided here, once. Architecture-specific
//! operations (MMU setup, coprocessor reads, non-privileged accesses)
//! are *not* part of this trait; they live in the suite's support
//! packages, exactly as the paper splits benchmarks from architecture /
//! platform support.

use crate::image::GuestImage;
use crate::ir::{AluOp, Cond};

/// Portable register names available to benchmark code.
///
/// `A`–`F` are general-purpose scratch registers; `Sp` and `Lr` map to the
/// architecture's stack pointer and link register (petix reserves its
/// stack pointer for hardware-pushed frames but still maps both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PReg {
    /// Scratch register 0.
    A,
    /// Scratch register 1.
    B,
    /// Scratch register 2.
    C,
    /// Scratch register 3.
    D,
    /// Scratch register 4.
    E,
    /// Scratch register 5. Reserved as the self-modifying-code landing
    /// register: rewritten first words target this register.
    F,
    /// Stack pointer.
    Sp,
    /// Link register.
    Lr,
}

impl PReg {
    /// All portable registers.
    pub const ALL: [PReg; 8] = [
        PReg::A,
        PReg::B,
        PReg::C,
        PReg::D,
        PReg::E,
        PReg::F,
        PReg::Sp,
        PReg::Lr,
    ];
}

/// A code label. Created unbound, bound once, referenced freely before or
/// after binding (uses are resolved at [`PortableAsm::finish`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(pub(crate) usize);

impl Label {
    /// The label's index (stable within one assembler).
    pub fn index(self) -> usize {
        self.0
    }
}

/// What an instruction does with the label it names: the four portable
/// operations whose encoding depends on where a label is bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelUse {
    /// Unconditional branch to the label.
    B,
    /// Conditional branch to the label.
    BCond(Cond),
    /// Direct call of the label.
    Call,
    /// `rd = address-of(label)`.
    MovAddr(PReg),
}

/// A guest's encoder of label uses: appends to `out` the bytes of `use`
/// at address `at` naming `target`
/// ([`PortableAsm::encode_label_use`]).
pub(crate) type EncodeUse = fn(LabelUse, u32, u32, &mut Vec<u8>);

/// A recorded label use: chunk index, address, label, use and length.
type Fixup = (usize, u32, Label, LabelUse, usize);

/// Sparse output buffer with labels and label uses, shared by every ISA
/// assembler. ISA crates embed one and layer encoding on top.
#[derive(Debug, Clone, Default)]
pub struct AsmBuffer {
    chunks: Vec<(u32, Vec<u8>)>,
    labels: Vec<Option<u32>>,
    fixups: Vec<Fixup>,
}

impl AsmBuffer {
    /// An empty buffer with no cursor; call [`AsmBuffer::org`] first.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current emission address.
    ///
    /// # Panics
    ///
    /// Panics if no chunk has been opened with [`AsmBuffer::org`].
    pub fn here(&self) -> u32 {
        let (base, bytes) = self.chunks.last().expect("org() before emitting");
        base + bytes.len() as u32
    }

    /// Start emitting at `addr` (opens a new chunk).
    pub fn org(&mut self, addr: u32) {
        self.chunks.push((addr, Vec::new()));
    }

    /// Pad with zero bytes to an `align`-byte boundary.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    pub fn align(&mut self, align: u32) {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        while self.here() & (align - 1) != 0 {
            self.emit(&[0]);
        }
    }

    /// Reserve `n` zero bytes.
    pub fn skip(&mut self, n: u32) {
        self.cursor().extend(std::iter::repeat_n(0, n as usize));
    }

    /// Append raw bytes at the cursor.
    pub fn emit(&mut self, bytes: &[u8]) {
        self.cursor().extend_from_slice(bytes);
    }

    /// Append a little-endian 32-bit word.
    pub fn emit_u32(&mut self, w: u32) {
        self.emit(&w.to_le_bytes());
    }

    fn cursor(&mut self) -> &mut Vec<u8> {
        &mut self.chunks.last_mut().expect("org() before emitting").1
    }

    /// Allocate an unbound label.
    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Bind a label to the cursor.
    ///
    /// # Panics
    ///
    /// Panics if the label is already bound.
    pub fn bind(&mut self, l: Label) {
        let addr = self.here();
        let slot = &mut self.labels[l.0];
        assert!(slot.is_none(), "label bound twice");
        *slot = Some(addr);
    }

    /// Address of a bound label.
    pub fn label_addr(&self, l: Label) -> Option<u32> {
        self.labels.get(l.0).copied().flatten()
    }

    /// Emit `use` of `l` at the cursor, encoded with the use's own
    /// address as a placeholder target, and record it for
    /// [`AsmBuffer::finish`] to encode again once `l` is bound.
    pub(crate) fn use_label(&mut self, l: Label, use_: LabelUse, encode: EncodeUse) {
        let at = self.here();
        let chunk = self.chunks.len() - 1;
        let out = self.cursor();
        let start = out.len();
        encode(use_, at, at, out);
        let len = out.len() - start;
        self.fixups.push((chunk, at, l, use_, len));
    }

    /// Encode every label use again with its label's address, then
    /// finish into a bootable image entering at `entry`. Empty chunks
    /// are dropped.
    ///
    /// # Panics
    ///
    /// Panics if a used label was never bound, or if a use's encoding
    /// changes length with its target.
    pub(crate) fn finish(mut self, entry: u32, encode: EncodeUse) -> GuestImage {
        let mut insn = Vec::new();
        for &(chunk, at, l, use_, len) in &self.fixups {
            let target = self.labels[l.0]
                .unwrap_or_else(|| panic!("unbound label {l:?} referenced at {at:#x}"));
            insn.clear();
            encode(use_, at, target, &mut insn);
            assert_eq!(insn.len(), len, "{use_:?} at {at:#x} changed length");
            let (base, bytes) = &mut self.chunks[chunk];
            let i = (at - *base) as usize;
            bytes[i..i + len].copy_from_slice(&insn);
        }
        let mut img = GuestImage::new(entry);
        for (addr, bytes) in self.chunks {
            if !bytes.is_empty() {
                img.push_section(addr, bytes);
            }
        }
        img
    }
}

/// The portable assembler interface benchmarks are written against.
///
/// A guest implements instruction selection: the buffer accessors,
/// [`PortableAsm::encode_label_use`] and the operations that do not
/// name a label. Labels, the cursor and label-use resolution are
/// provided, once, on top of [`AsmBuffer`].
///
/// Immediate-range contract: `alu_ri` and `cmp_ri` accept `imm` up to
/// 4095; `load`/`store` displacements span ±2047 bytes. Every ISA
/// encoding honours at least these ranges; use [`PortableAsm::mov_imm`]
/// (unrestricted) plus register forms beyond them.
pub trait PortableAsm: Sized {
    /// The output buffer.
    fn buf(&self) -> &AsmBuffer;
    /// The output buffer, mutably.
    fn buf_mut(&mut self) -> &mut AsmBuffer;
    /// Append to `out` the encoding of `use_` at address `at` naming
    /// `target`. Called once with a placeholder target when the use is
    /// emitted and again with the label's address at
    /// [`PortableAsm::finish`], so its length must not depend on
    /// `target`.
    fn encode_label_use(use_: LabelUse, at: u32, target: u32, out: &mut Vec<u8>);

    /// Current emission address.
    fn here(&self) -> u32 {
        self.buf().here()
    }
    /// Start emitting at an address.
    fn org(&mut self, addr: u32) {
        self.buf_mut().org(addr);
    }
    /// Align the cursor.
    fn align(&mut self, align: u32) {
        self.buf_mut().align(align);
    }
    /// Reserve zeroed bytes.
    fn skip(&mut self, n: u32) {
        self.buf_mut().skip(n);
    }
    /// Emit a raw data word.
    fn word(&mut self, w: u32) {
        self.buf_mut().emit_u32(w);
    }
    /// Emit raw bytes.
    fn bytes(&mut self, data: &[u8]) {
        self.buf_mut().emit(data);
    }
    /// Allocate an unbound label.
    fn new_label(&mut self) -> Label {
        self.buf_mut().new_label()
    }
    /// Bind a label at the cursor.
    fn bind(&mut self, l: Label) {
        self.buf_mut().bind(l);
    }
    /// Address of a bound label.
    fn label_addr(&self, l: Label) -> Option<u32> {
        self.buf().label_addr(l)
    }

    /// `rd = imm` (any 32-bit value).
    fn mov_imm(&mut self, rd: PReg, imm: u32);
    /// `rd = address-of(label)` (fixed up at finish).
    fn mov_label(&mut self, rd: PReg, l: Label) {
        self.buf_mut()
            .use_label(l, LabelUse::MovAddr(rd), Self::encode_label_use);
    }
    /// `rd = rn <op> rm`.
    fn alu_rr(&mut self, op: AluOp, rd: PReg, rn: PReg, rm: PReg);
    /// `rd = rn <op> imm`, `imm <= 4095`.
    fn alu_ri(&mut self, op: AluOp, rd: PReg, rn: PReg, imm: u32);
    /// Compare `rn` with `imm` (sets flags), `imm <= 4095`.
    fn cmp_ri(&mut self, rn: PReg, imm: u32);
    /// Compare `rn` with `rm` (sets flags).
    fn cmp_rr(&mut self, rn: PReg, rm: PReg);
    /// Word load `rd = [base + off]`, `|off| <= 2047`.
    fn load(&mut self, rd: PReg, base: PReg, off: i32);
    /// Word store `[base + off] = rs`.
    fn store(&mut self, rs: PReg, base: PReg, off: i32);
    /// Byte load (zero-extended).
    fn load8(&mut self, rd: PReg, base: PReg, off: i32);
    /// Byte store.
    fn store8(&mut self, rs: PReg, base: PReg, off: i32);
    /// Unconditional branch.
    fn b(&mut self, l: Label) {
        self.buf_mut()
            .use_label(l, LabelUse::B, Self::encode_label_use);
    }
    /// Conditional branch.
    fn b_cond(&mut self, c: Cond, l: Label) {
        self.buf_mut()
            .use_label(l, LabelUse::BCond(c), Self::encode_label_use);
    }
    /// Indirect branch through a register.
    fn br_reg(&mut self, r: PReg);
    /// Direct call (links per the architecture's discipline).
    fn call(&mut self, l: Label) {
        self.buf_mut()
            .use_label(l, LabelUse::Call, Self::encode_label_use);
    }
    /// Indirect call through a register.
    fn call_reg(&mut self, r: PReg);
    /// Return from a call.
    fn ret(&mut self);
    /// System call.
    fn svc(&mut self, imm: u16);
    /// Architecturally undefined instruction.
    fn udf(&mut self);
    /// Return from exception.
    fn eret(&mut self);
    /// Stop the machine.
    fn halt(&mut self);
    /// No-op.
    fn nop(&mut self);

    /// Emit code computing a *valid, harmless* 4-byte instruction
    /// encoding into `rd`, parameterised by the iteration counter in
    /// `riter` so the stored word differs every iteration. Used by the
    /// self-modifying-code benchmarks; the encoding, when executed, loads
    /// an immediate into [`PReg::F`].
    fn emit_smc_word(&mut self, rd: PReg, riter: PReg);

    /// The static form of the harmless instruction (what functions are
    /// pre-seeded with at their rewrite slot).
    fn smc_nop_word(&self) -> u32;

    /// Resolve label uses and produce the bootable image, entering at
    /// `entry`.
    fn finish(mut self, entry: u32) -> GuestImage {
        std::mem::take(self.buf_mut()).finish(entry, Self::encode_label_use)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_layout_and_labels() {
        let mut b = AsmBuffer::new();
        b.org(0x1000);
        let l = b.new_label();
        b.emit_u32(0xaaaa_bbbb);
        b.bind(l);
        assert_eq!(b.label_addr(l), Some(0x1004));
        assert_eq!(b.here(), 0x1004);
        b.align(16);
        assert_eq!(b.here(), 0x1010);
        b.skip(4);
        assert_eq!(b.here(), 0x1014);
    }

    /// A toy encoding: one tag byte, then the target as a little-endian
    /// word.
    fn toy(use_: LabelUse, _at: u32, target: u32, out: &mut Vec<u8>) {
        let tag = match use_ {
            LabelUse::B => 0xB0,
            LabelUse::BCond(c) => 0xC0 | c.code(),
            LabelUse::Call => 0xCA,
            LabelUse::MovAddr(_) => 0xAD,
        };
        out.push(tag);
        out.extend_from_slice(&target.to_le_bytes());
    }

    #[test]
    fn uses_resolve_forward_backward_and_across_chunks() {
        let mut b = AsmBuffer::new();
        b.org(0x1000);
        let l = b.new_label();
        b.use_label(l, LabelUse::B, toy); // forward, other chunk
        b.org(0x1800); // empty: dropped from the image
        b.org(0x2000);
        b.emit(&[0xEE]);
        b.use_label(l, LabelUse::BCond(Cond::Ne), toy); // forward, same chunk
        b.bind(l);
        b.emit(&[0xEE]);
        b.use_label(l, LabelUse::Call, toy); // backward
        let img = b.finish(0x1000, toy);
        assert_eq!((img.entry, img.sections.len()), (0x1000, 2));
        assert_eq!(img.sections[0].addr, 0x1000);
        assert_eq!(img.sections[0].bytes, [0xB0, 0x06, 0x20, 0, 0]);
        assert_eq!(img.sections[1].addr, 0x2000);
        let ne = 0xC0 | Cond::Ne.code();
        assert_eq!(
            img.sections[1].bytes,
            [0xEE, ne, 0x06, 0x20, 0, 0, 0xEE, 0xCA, 0x06, 0x20, 0, 0]
        );
    }

    #[test]
    #[should_panic(expected = "unbound label Label(1) referenced at 0x3005")]
    fn an_unbound_label_panics_naming_its_use() {
        let mut b = AsmBuffer::new();
        b.org(0x3000);
        let bound = b.new_label();
        let unbound = b.new_label();
        b.bind(bound);
        b.use_label(bound, LabelUse::B, toy);
        b.use_label(unbound, LabelUse::MovAddr(PReg::A), toy);
        let _ = b.finish(0x3000, toy);
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn double_bind_panics() {
        let mut b = AsmBuffer::new();
        b.org(0);
        let l = b.new_label();
        b.bind(l);
        b.bind(l);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_alignment_panics() {
        let mut b = AsmBuffer::new();
        b.org(0);
        b.align(3);
    }
}
