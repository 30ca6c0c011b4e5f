//! # simbench-isa-spec
//!
//! Declarative ISA decode specs and the generator that turns them into
//! Rust decoders. Each guest ISA describes its instruction encodings in
//! a compact line-based `spec/<name>.isa` file: mask/value patterns per
//! encoding group, operand field extraction, and 1–4 micro-op emission
//! templates. `specgen` (this crate's binary) compiles the spec into a
//! committed `src/decode_gen.rs` module that produces the shared
//! fixed-capacity [`OpList`] IR — no heap allocation, no formatted
//! panics, capacity checked at compile time — so the generated decoder
//! is a drop-in for the hand-written ones it replaced.
//!
//! ## Spec format
//!
//! `#` starts a comment. Top-level directives:
//!
//! - `isa <name>` — ISA name (must match the crate's spec file stem).
//! - `mode fixed32 | bytevar | half16_32` — length discipline:
//!   - `fixed32`: every instruction is one little-endian 32-bit word;
//!     `decode(word: u32, pc)` dispatches on bits `[31:28]`.
//!   - `bytevar`: x86-style byte-granular lengths; the first byte
//!     (`opc`, bits `[7:0]`) determines the total length, recorded per
//!     group with `len N`; generates `insn_len(opc) -> Option<usize>`
//!     alongside `decode(bytes: &[u8], pc)`.
//!   - `half16_32`: RISC-V-C-style 16/32-bit halfword parcels; the low
//!     two bits of the first halfword select the length (`0b11` → 32);
//!     32-bit groups dispatch on bits `[6:2]`, 16-bit groups on bits
//!     `[15:13]`.
//! - `prelude <rust>` — verbatim line in the generated module header
//!   (extra `use` items for emission templates).
//!
//! Each `group <name>` block then gives, in order:
//!
//! - `match HI:LO = V` / `match HI:LO = A..=B` — bit-pattern tests. One
//!   match must cover the mode's dispatch field (ranges are allowed
//!   only there); the rest become residual mask/value tests, applied in
//!   spec order, so overlapping groups resolve first-match-wins.
//! - `field NAME = HI:LO` — zero-extended operand extraction (`u32`).
//! - `sfield NAME = HI:LO` — sign-extended extraction (`i32`).
//! - `try NAME = EXPR` — bind an `Option`-valued Rust expression,
//!   rejecting the word (`DecodeError`) on `None`.
//! - `let NAME = EXPR` — bind a plain Rust expression.
//! - `emit VARIANT { .. }` — an [`Op`] constructor template (1–4 per
//!   group). Templates may use bound names, `pc`, `next` (the fallthrough
//!   pc), and in `bytevar` mode `opc`.
//! - `class Alu|Mem|Branch|System|Nop` — the group's [`InsnClass`].
//! - `len N` — total instruction bytes (`bytevar`/`half16_32` only).
//!
//! [`OpList`]: https://docs.rs/simbench-core
//! [`Op`]: https://docs.rs/simbench-core
//! [`InsnClass`]: https://docs.rs/simbench-core

use std::fmt;

/// A parse or validation failure, pointing at a spec line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based spec line (0 for file-level problems).
    pub line: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "spec line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for SpecError {}

fn err<T>(line: usize, msg: impl Into<String>) -> Result<T, SpecError> {
    Err(SpecError {
        line,
        msg: msg.into(),
    })
}

/// Instruction-length discipline of an ISA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Fixed 32-bit words, dispatch on bits `[31:28]`.
    Fixed32,
    /// Byte-variable lengths, dispatch on the first byte.
    ByteVar,
    /// 16/32-bit halfword parcels, RVC-style length in bits `[1:0]`.
    Half16_32,
}

/// One `match HI:LO = ..` bit-pattern test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldMatch {
    /// High bit (inclusive).
    pub hi: u32,
    /// Low bit (inclusive).
    pub lo: u32,
    /// First accepted field value.
    pub first: u32,
    /// Last accepted field value (== `first` for exact matches).
    pub last: u32,
    /// Spec line, for diagnostics.
    pub line: usize,
}

/// One operand binding inside a group, in spec order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Binding {
    /// Zero-extended bit-field extraction.
    Field {
        /// Bound name.
        name: String,
        /// High bit (inclusive).
        hi: u32,
        /// Low bit (inclusive).
        lo: u32,
    },
    /// Sign-extended bit-field extraction.
    SField {
        /// Bound name.
        name: String,
        /// High bit (inclusive).
        hi: u32,
        /// Low bit (inclusive).
        lo: u32,
    },
    /// `Option`-valued expression; `None` rejects the instruction.
    Try {
        /// Bound name.
        name: String,
        /// Rust expression of type `Option<T>`.
        expr: String,
    },
    /// Plain expression binding.
    Let {
        /// Bound name.
        name: String,
        /// Rust expression.
        expr: String,
    },
}

impl Binding {
    fn name(&self) -> &str {
        match self {
            Binding::Field { name, .. }
            | Binding::SField { name, .. }
            | Binding::Try { name, .. }
            | Binding::Let { name, .. } => name,
        }
    }
}

/// One encoding group: patterns, operand bindings, op templates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Group {
    /// Group name (diagnostics and generated comments).
    pub name: String,
    /// Spec line of the `group` directive.
    pub line: usize,
    /// Bit-pattern tests; exactly one covers the dispatch field.
    pub matches: Vec<FieldMatch>,
    /// Operand bindings, in order.
    pub bindings: Vec<Binding>,
    /// `Op::` constructor templates (1–4).
    pub emits: Vec<String>,
    /// `InsnClass` variant name.
    pub class: String,
    /// Total instruction bytes (required unless `fixed32`).
    pub len: Option<u32>,
}

/// A parsed ISA spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spec {
    /// ISA name.
    pub name: String,
    /// Length discipline.
    pub mode: Mode,
    /// Verbatim header lines for the generated module.
    pub prelude: Vec<String>,
    /// Encoding groups in spec (= match priority) order.
    pub groups: Vec<Group>,
}

fn parse_num(s: &str, line: usize) -> Result<u32, SpecError> {
    let s = s.trim();
    let parsed = if let Some(hex) = s.strip_prefix("0x") {
        u32::from_str_radix(&hex.replace('_', ""), 16)
    } else {
        s.replace('_', "").parse()
    };
    match parsed {
        Ok(v) => Ok(v),
        Err(_) => err(line, format!("bad number {s:?}")),
    }
}

fn parse_bits(s: &str, line: usize) -> Result<(u32, u32), SpecError> {
    let Some((hi, lo)) = s.trim().split_once(':') else {
        return err(line, format!("expected HI:LO bit range, got {s:?}"));
    };
    let (hi, lo) = (parse_num(hi, line)?, parse_num(lo, line)?);
    if hi < lo || hi > 63 || hi - lo + 1 > 32 {
        return err(line, format!("bad bit range {s:?}"));
    }
    Ok((hi, lo))
}

fn parse_name(s: &str, line: usize) -> Result<String, SpecError> {
    let s = s.trim();
    let ok = !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
        && !s.starts_with(|c: char| c.is_ascii_digit());
    if !ok {
        return err(line, format!("bad name {s:?}"));
    }
    Ok(s.to_string())
}

impl Spec {
    /// Parse a spec file.
    ///
    /// # Errors
    ///
    /// [`SpecError`] with the offending line on malformed input; full
    /// semantic validation happens in [`generate`].
    pub fn parse(text: &str) -> Result<Spec, SpecError> {
        let mut name = None;
        let mut mode = None;
        let mut prelude = Vec::new();
        let mut groups: Vec<Group> = Vec::new();

        for (i, raw) in text.lines().enumerate() {
            let ln = i + 1;
            // `prelude` lines are verbatim Rust and keep their text.
            let line = if raw.trim_start().starts_with("prelude") {
                raw.trim()
            } else {
                match raw.split('#').next() {
                    Some(code) => code.trim(),
                    None => "",
                }
            };
            if line.is_empty() {
                continue;
            }
            let (word, rest) = match line.split_once(char::is_whitespace) {
                Some((w, r)) => (w, r.trim()),
                None => (line, ""),
            };
            match word {
                "isa" => name = Some(parse_name(rest, ln)?),
                "mode" => {
                    mode = Some(match rest {
                        "fixed32" => Mode::Fixed32,
                        "bytevar" => Mode::ByteVar,
                        "half16_32" => Mode::Half16_32,
                        other => return err(ln, format!("unknown mode {other:?}")),
                    });
                }
                "prelude" => prelude.push(rest.to_string()),
                "group" => groups.push(Group {
                    name: parse_name(rest, ln)?,
                    line: ln,
                    matches: Vec::new(),
                    bindings: Vec::new(),
                    emits: Vec::new(),
                    class: String::new(),
                    len: None,
                }),
                "match" | "field" | "sfield" | "try" | "let" | "emit" | "class" | "len" => {
                    let Some(group) = groups.last_mut() else {
                        return err(ln, format!("{word:?} before any `group`"));
                    };
                    match word {
                        "match" => {
                            let Some((bits, val)) = rest.split_once('=') else {
                                return err(ln, "expected `match HI:LO = VALUE`");
                            };
                            let (hi, lo) = parse_bits(bits, ln)?;
                            let (first, last) = match val.split_once("..=") {
                                Some((a, b)) => (parse_num(a, ln)?, parse_num(b, ln)?),
                                None => {
                                    let v = parse_num(val, ln)?;
                                    (v, v)
                                }
                            };
                            let limit = ((1u64 << (hi - lo + 1)) - 1) as u32;
                            if first > last || last > limit {
                                return err(ln, format!("match value out of range for {bits}"));
                            }
                            group.matches.push(FieldMatch {
                                hi,
                                lo,
                                first,
                                last,
                                line: ln,
                            });
                        }
                        "field" | "sfield" => {
                            let Some((n, bits)) = rest.split_once('=') else {
                                return err(ln, format!("expected `{word} NAME = HI:LO`"));
                            };
                            let name = parse_name(n, ln)?;
                            let (hi, lo) = parse_bits(bits, ln)?;
                            group.bindings.push(if word == "field" {
                                Binding::Field { name, hi, lo }
                            } else {
                                Binding::SField { name, hi, lo }
                            });
                        }
                        "try" | "let" => {
                            let Some((n, expr)) = rest.split_once('=') else {
                                return err(ln, format!("expected `{word} NAME = EXPR`"));
                            };
                            let name = parse_name(n, ln)?;
                            let expr = expr.trim().to_string();
                            if expr.is_empty() {
                                return err(ln, "empty expression");
                            }
                            group.bindings.push(if word == "try" {
                                Binding::Try { name, expr }
                            } else {
                                Binding::Let { name, expr }
                            });
                        }
                        "emit" => group.emits.push(rest.to_string()),
                        "class" => group.class = parse_name(rest, ln)?,
                        "len" => group.len = Some(parse_num(rest, ln)?),
                        _ => unreachable!(),
                    }
                }
                other => return err(ln, format!("unknown directive {other:?}")),
            }
        }

        let Some(name) = name else {
            return err(0, "missing `isa` directive");
        };
        let Some(mode) = mode else {
            return err(0, "missing `mode` directive");
        };
        if groups.is_empty() {
            return err(0, "no groups");
        }
        Ok(Spec {
            name,
            mode,
            prelude,
            groups,
        })
    }
}

/// Capacity of the core IR's per-instruction op list
/// (`simbench_core::ir::MAX_OPS_PER_INSN`, repeated because this crate
/// has no dependency on core; a workspace test holds the two equal).
/// Emission templates beyond this would overflow `OpList` at runtime, so
/// the generator rejects them statically.
pub const MAX_OPS_PER_INSN: usize = 2;

const INSN_CLASSES: &[&str] = &["Alu", "Mem", "Branch", "System", "Nop"];

/// True if `text` references `name` as a standalone identifier.
fn uses_ident(text: &str, name: &str) -> bool {
    let mut from = 0;
    while let Some(rel) = text[from..].find(name) {
        let at = from + rel;
        let pre = text[..at].chars().next_back();
        let post = text[at + name.len()..].chars().next();
        let is_ident = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
        if !is_ident(pre) && !is_ident(post) {
            return true;
        }
        from = at + name.len();
    }
    false
}

fn hex(v: u32) -> String {
    if v < 10 {
        format!("{v}")
    } else {
        format!("{v:#x}")
    }
}

/// Generated-file marker; the first line of every `decode_gen.rs`.
const GENERATED_MARKER: &str = "// @generated by simbench-isa-spec";

struct Gen<'a> {
    spec: &'a Spec,
    out: String,
}

/// The dispatch field (hi, lo) for groups of byte-length `len` (only
/// `half16_32` varies by length).
fn dispatch_bits(mode: Mode, len: u32) -> (u32, u32) {
    match mode {
        Mode::Fixed32 => (31, 28),
        Mode::ByteVar => (7, 0),
        Mode::Half16_32 => {
            if len == 4 {
                (6, 2)
            } else {
                (15, 13)
            }
        }
    }
}

impl Group {
    /// Split this group's matches into (dispatch value range, residual
    /// matches).
    fn dispatch(&self, mode: Mode) -> Result<((u32, u32), Vec<&FieldMatch>), SpecError> {
        let len = self.len.unwrap_or(4);
        let (hi, lo) = dispatch_bits(mode, len);
        let mut key = None;
        let mut residual = Vec::new();
        for m in &self.matches {
            if (m.hi, m.lo) == (hi, lo) {
                if key.is_some() {
                    return err(m.line, "duplicate dispatch match");
                }
                key = Some((m.first, m.last));
            } else {
                if m.first != m.last {
                    return err(m.line, "ranges are only allowed on the dispatch field");
                }
                residual.push(m);
            }
        }
        match key {
            Some(k) => Ok((k, residual)),
            None => err(
                self.line,
                format!(
                    "group {:?} has no match on the dispatch field [{hi}:{lo}]",
                    self.name
                ),
            ),
        }
    }

    fn validate(&self, mode: Mode) -> Result<(), SpecError> {
        if self.emits.is_empty() || self.emits.len() > MAX_OPS_PER_INSN {
            return err(
                self.line,
                format!(
                    "group {:?} must emit 1..={MAX_OPS_PER_INSN} ops, has {}",
                    self.name,
                    self.emits.len()
                ),
            );
        }
        if !INSN_CLASSES.contains(&self.class.as_str()) {
            return err(
                self.line,
                format!(
                    "group {:?}: bad or missing class {:?}",
                    self.name, self.class
                ),
            );
        }
        match (mode, self.len) {
            (Mode::Fixed32, None | Some(4)) => {}
            (Mode::Fixed32, Some(n)) => {
                return err(self.line, format!("fixed32 group with len {n}"));
            }
            (Mode::ByteVar, Some(1..=8)) => {}
            (Mode::Half16_32, Some(2 | 4)) => {}
            _ => {
                return err(
                    self.line,
                    format!("group {:?}: missing or invalid `len`", self.name),
                );
            }
        }
        // Every binding must be used by a later binding or an emit, and
        // names must be unique and not collide with generated locals.
        let reserved = ["w", "pc", "next", "opc", "bytes", "len", "h0", "word"];
        for (i, b) in self.bindings.iter().enumerate() {
            let name = b.name();
            if reserved.contains(&name) {
                return err(self.line, format!("binding {name:?} shadows a builtin"));
            }
            let mut used = false;
            for later in &self.bindings[i + 1..] {
                if later.name() == name {
                    return err(self.line, format!("duplicate binding {name:?}"));
                }
                if let Binding::Try { expr, .. } | Binding::Let { expr, .. } = later {
                    used = used || uses_ident(expr, name);
                }
            }
            used = used || self.emits.iter().any(|e| uses_ident(e, name));
            if !used {
                return err(
                    self.line,
                    format!("group {:?}: binding {name:?} is never used", self.name),
                );
            }
        }
        Ok(())
    }

    /// True if any binding expression or emit template references `name`.
    fn references(&self, name: &str) -> bool {
        self.bindings.iter().any(|b| match b {
            Binding::Try { expr, .. } | Binding::Let { expr, .. } => uses_ident(expr, name),
            _ => false,
        }) || self.emits.iter().any(|e| uses_ident(e, name))
    }

    fn has_sfield(&self) -> bool {
        self.bindings
            .iter()
            .any(|b| matches!(b, Binding::SField { .. }))
    }
}

impl Gen<'_> {
    fn push(&mut self, s: &str) {
        self.out.push_str(s);
        self.out.push('\n');
    }

    /// `u32`-valued extraction expression for bits `[hi:lo]` of the
    /// window `w` (whose width depends on the mode).
    fn extract(&self, hi: u32, lo: u32) -> String {
        let width = hi - lo + 1;
        let w64 = self.spec.mode == Mode::ByteVar;
        let shifted = if lo == 0 {
            "w".to_string()
        } else {
            format!("(w >> {lo})")
        };
        let full = if w64 { 64 } else { 32 };
        if lo + width == full && lo == 0 {
            return if w64 { "w as u32".to_string() } else { shifted };
        }
        if lo + width == full {
            // Top-aligned field: the shift already dropped the low
            // bits, so no mask (and no parens) is needed.
            return if w64 {
                format!("{shifted} as u32")
            } else {
                format!("w >> {lo}")
            };
        }
        let mask = ((1u64 << width) - 1) as u32;
        if w64 {
            format!("({shifted} & {mask:#x}) as u32")
        } else {
            format!("{shifted} & {mask:#x}")
        }
    }

    /// Residual mask/value condition for one non-dispatch match.
    fn condition(&self, m: &FieldMatch) -> String {
        format!("{} == {}", self.extract(m.hi, m.lo), hex(m.first))
    }

    /// The body of one group: bindings, then `Ok(Decoded::new(..))`.
    /// `tail` is true when the group ends its arm (no `return`).
    fn group_body(&mut self, g: &Group, tail: bool) -> Result<(), SpecError> {
        let len = g.len.unwrap_or(4);
        if g.references("next") {
            self.push(&format!("let next = pc.wrapping_add({len});"));
        }
        for b in &g.bindings {
            let line = match b {
                Binding::Field { name, hi, lo } => {
                    format!("let {name} = {};", self.extract(*hi, *lo))
                }
                Binding::SField { name, hi, lo } => {
                    format!(
                        "let {name} = sext({}, {});",
                        self.extract(*hi, *lo),
                        hi - lo + 1
                    )
                }
                Binding::Try { name, expr } => {
                    format!("let {name} = {expr}.ok_or(DecodeError {{ pc }})?;")
                }
                Binding::Let { name, expr } => format!("let {name} = {expr};"),
            };
            self.push(&line);
        }
        let ops = g
            .emits
            .iter()
            .map(|e| format!("Op::{e}"))
            .collect::<Vec<_>>()
            .join(", ");
        let ret = if tail { "" } else { "return " };
        let semi = if tail { "" } else { ";" };
        self.push(&format!(
            "{ret}Ok(Decoded::new({len}, [{ops}], InsnClass::{})){semi}",
            g.class
        ));
        Ok(())
    }

    /// One dispatch-match arm holding `groups` (same dispatch value
    /// range, spec order). Residual-free groups must come last; earlier
    /// groups guard with their residual tests and `return`.
    fn bucket_arm(&mut self, pattern: &str, groups: &[&Group]) -> Result<(), SpecError> {
        self.push(&format!("{pattern} => {{"));
        for (i, g) in groups.iter().enumerate() {
            let (_, residual) = g.dispatch(self.spec.mode)?;
            let last = i == groups.len() - 1;
            self.push(&format!("// {}", g.name));
            if residual.is_empty() {
                if !last {
                    return err(
                        g.line,
                        format!("group {:?} shadows later groups in its arm", g.name),
                    );
                }
                self.group_body(g, true)?;
            } else {
                let cond = residual
                    .iter()
                    .map(|m| self.condition(m))
                    .collect::<Vec<_>>()
                    .join(" && ");
                self.push(&format!("if {cond} {{"));
                self.group_body(g, false)?;
                self.push("}");
                if last {
                    self.push("Err(DecodeError { pc })");
                }
            }
        }
        self.push("}");
        Ok(())
    }

    /// Emit the `match` over the dispatch field for `groups` (all the
    /// groups of one length class, for `half16_32`; all groups
    /// otherwise). Buckets keep spec order; their value ranges must be
    /// disjoint.
    fn dispatch_match(&mut self, scrutinee: &str, groups: &[&Group]) -> Result<(), SpecError> {
        let mut buckets: Vec<((u32, u32), Vec<&Group>)> = Vec::new();
        for g in groups {
            let (key, _) = g.dispatch(self.spec.mode)?;
            match buckets.iter_mut().find(|(k, _)| *k == key) {
                Some((_, v)) => v.push(g),
                None => {
                    if let Some((k, _)) = buckets
                        .iter()
                        .find(|((f, l), _)| key.0 <= *l && *f <= key.1)
                    {
                        return err(
                            g.line,
                            format!(
                                "group {:?}: dispatch {:?} overlaps earlier bucket {k:?}",
                                g.name, key
                            ),
                        );
                    }
                    buckets.push((key, vec![g]));
                }
            }
        }
        self.push(&format!("match {scrutinee} {{"));
        for ((first, last), groups) in &buckets {
            let pattern = if first == last {
                hex(*first)
            } else {
                format!("{}..={}", hex(*first), hex(*last))
            };
            self.bucket_arm(&pattern, groups)?;
        }
        self.push("_ => Err(DecodeError { pc }),");
        self.push("}");
        Ok(())
    }

    fn finish_imports(mut self) -> String {
        // Assemble the final file: header, imports (filtered to what the
        // body uses), preludes, then the body generated so far.
        let spec = self.spec;
        let body = std::mem::take(&mut self.out);
        let mut head = String::new();
        let mut push = |s: &str| {
            head.push_str(s);
            head.push('\n');
        };
        push(&format!(
            "{GENERATED_MARKER} from spec/{}.isa — do not edit by hand.",
            spec.name
        ));
        push("// Regenerate with: cargo run -p simbench-isa-spec --bin specgen");
        push(&format!(
            "//! Generated `{}` decoder (see `spec/{}.isa`).",
            spec.name, spec.name
        ));
        push("");
        let ir_names = [
            "AluOp",
            "Cond",
            "DecodeError",
            "Decoded",
            "InsnClass",
            "LinkKind",
            "MemSize",
            "Op",
            "Operand",
            "RetKind",
        ];
        let used: Vec<&str> = ir_names
            .iter()
            .copied()
            .filter(|n| uses_ident(&body, n))
            .collect();
        push(&format!("use simbench_core::ir::{{{}}};", used.join(", ")));
        for p in &spec.prelude {
            push(p);
        }
        push("");
        head.push_str(&body);
        head
    }

    fn sext_helper(&mut self) {
        self.push("#[inline]");
        self.push("const fn sext(value: u32, bits: u32) -> i32 {");
        self.push("let shift = 32 - bits;");
        self.push("((value << shift) as i32) >> shift");
        self.push("}");
        self.push("");
    }
}

/// Generate the decoder module source for `spec` (unformatted; run the
/// output through `rustfmt` before committing).
///
/// # Errors
///
/// [`SpecError`] on semantic problems: bad classes, unused bindings,
/// overlapping dispatch buckets, shadowed groups, missing lengths.
pub fn generate(spec: &Spec) -> Result<String, SpecError> {
    for g in &spec.groups {
        g.validate(spec.mode)?;
        g.dispatch(spec.mode)?; // surface dispatch errors early
    }
    let mut gen = Gen {
        spec,
        out: String::new(),
    };
    if spec.groups.iter().any(Group::has_sfield) {
        gen.sext_helper();
    }
    match spec.mode {
        Mode::Fixed32 => {
            gen.push("/// Decode the 32-bit word at `pc`.");
            gen.push("///");
            gen.push("/// # Errors");
            gen.push("///");
            gen.push("/// [`DecodeError`] for words outside every encoding group.");
            gen.push("pub fn decode(word: u32, pc: u32) -> Result<Decoded, DecodeError> {");
            gen.push("let w = word;");
            let groups: Vec<&Group> = spec.groups.iter().collect();
            gen.dispatch_match("w >> 28", &groups)?;
            gen.push("}");
        }
        Mode::ByteVar => {
            generate_bytevar_len(&mut gen)?;
            gen.push("/// Decode one instruction starting at `bytes[0]` (the byte at `pc`).");
            gen.push("///");
            gen.push("/// # Errors");
            gen.push("///");
            gen.push("/// [`DecodeError`] for invalid opcodes or a buffer shorter than");
            gen.push("/// the instruction (callers retry with more bytes).");
            gen.push("pub fn decode(bytes: &[u8], pc: u32) -> Result<Decoded, DecodeError> {");
            gen.push("let opc = match bytes.first() {");
            gen.push("Some(&b) => b,");
            gen.push("None => return Err(DecodeError { pc }),");
            gen.push("};");
            gen.push("let len = match insn_len(opc) {");
            gen.push("Some(len) => len,");
            gen.push("None => return Err(DecodeError { pc }),");
            gen.push("};");
            gen.push("if bytes.len() < len {");
            gen.push("return Err(DecodeError { pc });");
            gen.push("}");
            gen.push("let w = window(bytes, len);");
            let groups: Vec<&Group> = spec.groups.iter().collect();
            gen.dispatch_match("opc", &groups)?;
            gen.push("}");
            gen.push("");
            let max = spec.groups.iter().filter_map(|g| g.len).max().unwrap_or(1);
            let b: Vec<String> = (0..8)
                .map(|k| if k < max { format!("b{k}") } else { "0".into() })
                .collect();
            gen.push("/// Little-endian instruction window: byte `k` at bits `[8k+7:8k]`,");
            gen.push(&format!(
                "/// read whole, past `len`, from a buffer of {max} bytes or more."
            ));
            gen.push("#[inline]");
            gen.push("fn window(bytes: &[u8], len: usize) -> u64 {");
            let head = b[..max as usize].join(", ");
            gen.push(&format!("if let Some(&[{head}]) = bytes.first_chunk() {{"));
            gen.push(&format!("return u64::from_le_bytes([{}]);", b.join(", ")));
            gen.push("}");
            gen.push("let mut w = [0u8; 8];");
            gen.push("w[..len].copy_from_slice(&bytes[..len]);");
            gen.push("u64::from_le_bytes(w)");
            gen.push("}");
        }
        Mode::Half16_32 => {
            gen.push("/// Total byte length of the instruction whose first halfword is");
            gen.push("/// `h0`: 4 when the low two bits are `0b11`, else 2. Total — every");
            gen.push("/// halfword has a defined length (decode may still reject it).");
            gen.push("pub const fn insn_len(h0: u16) -> usize {");
            gen.push("if h0 & 3 == 3 {");
            gen.push("4");
            gen.push("} else {");
            gen.push("2");
            gen.push("}");
            gen.push("}");
            gen.push("");
            gen.push("/// Decode one instruction starting at `bytes[0]` (the byte at `pc`).");
            gen.push("///");
            gen.push("/// # Errors");
            gen.push("///");
            gen.push("/// [`DecodeError`] for invalid encodings or a buffer shorter than");
            gen.push("/// the instruction (callers retry with more bytes).");
            gen.push("pub fn decode(bytes: &[u8], pc: u32) -> Result<Decoded, DecodeError> {");
            gen.push("if bytes.len() < 2 {");
            gen.push("return Err(DecodeError { pc });");
            gen.push("}");
            gen.push("let h0 = u16::from_le_bytes([bytes[0], bytes[1]]);");
            gen.push("let len = insn_len(h0);");
            gen.push("if bytes.len() < len {");
            gen.push("return Err(DecodeError { pc });");
            gen.push("}");
            gen.push("if len == 4 {");
            gen.push("let w = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);");
            let wide: Vec<&Group> = spec.groups.iter().filter(|g| g.len == Some(4)).collect();
            gen.dispatch_match("(w >> 2) & 0x1f", &wide)?;
            gen.push("} else {");
            gen.push("let w = h0 as u32;");
            let narrow: Vec<&Group> = spec.groups.iter().filter(|g| g.len == Some(2)).collect();
            gen.dispatch_match("(w >> 13) & 0x7", &narrow)?;
            gen.push("}");
            gen.push("}");
        }
    }
    Ok(gen.finish_imports())
}

/// Build the `bytevar` length table: walk all 256 first-byte values,
/// take each one's bucket length, and emit run-length-compressed match
/// arms.
fn generate_bytevar_len(gen: &mut Gen<'_>) -> Result<(), SpecError> {
    let spec = gen.spec;
    let mut lens = [None::<u32>; 256];
    for g in &spec.groups {
        let ((first, last), _) = g.dispatch(spec.mode)?;
        let len = g.len.unwrap_or(0);
        for opc in first..=last {
            match lens[opc as usize] {
                None => lens[opc as usize] = Some(len),
                Some(prev) if prev == len => {}
                Some(prev) => {
                    return err(
                        g.line,
                        format!(
                            "group {:?}: opcode {opc:#x} has conflicting lengths {prev} and {len}",
                            g.name
                        ),
                    );
                }
            }
        }
    }
    gen.push("/// Total byte length of the instruction whose first byte is `opc`,");
    gen.push("/// or `None` if no instruction starts with that byte. `Some` does");
    gen.push("/// not promise the instruction decodes — later bytes can still be");
    gen.push("/// rejected — only that the first byte fixes the length.");
    gen.push("pub const fn insn_len(opc: u8) -> Option<usize> {");
    gen.push("match opc {");
    let mut opc = 0usize;
    while opc < 256 {
        let Some(len) = lens[opc] else {
            opc += 1;
            continue;
        };
        let start = opc;
        while opc < 256 && lens[opc] == Some(len) {
            opc += 1;
        }
        let end = opc - 1;
        let pattern = if start == end {
            format!("{start:#04x}")
        } else {
            format!("{start:#04x}..={end:#04x}")
        };
        gen.push(&format!("{pattern} => Some({len}),"));
    }
    gen.push("_ => None,");
    gen.push("}");
    gen.push("}");
    gen.push("");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: &str = "
# A two-group toy ISA.
isa toy
mode fixed32

group udf
  match 31:28 = 0x0
  emit Udf
  class System

group mov
  match 31:28 = 0x3
  field rd = 23:20
  field imm = 15:0
  emit Alu { op: AluOp::Mov, rd: rd as u8, rn: 0, src: Operand::Imm(imm), set_flags: false }
  class Alu
";

    #[test]
    fn parses_and_generates() {
        let spec = Spec::parse(TINY).unwrap();
        assert_eq!(spec.name, "toy");
        assert_eq!(spec.mode, Mode::Fixed32);
        assert_eq!(spec.groups.len(), 2);
        let out = generate(&spec).unwrap();
        assert!(out.starts_with(GENERATED_MARKER));
        assert!(out.contains("pub fn decode(word: u32, pc: u32)"));
        assert!(out.contains("match w >> 28"));
        assert!(out.contains("let rd = (w >> 20) & 0xf;"));
        // Only referenced IR names are imported.
        assert!(out.contains("use simbench_core::ir::"));
        assert!(!out.contains("MemSize"));
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = Spec::parse(TINY).unwrap();
        assert_eq!(generate(&spec).unwrap(), generate(&spec).unwrap());
    }

    #[test]
    fn unused_binding_is_rejected() {
        let text = TINY.replace("field imm = 15:0", "field imm = 15:0\n  field junk = 7:4");
        let spec = Spec::parse(&text).unwrap();
        let e = generate(&spec).unwrap_err();
        assert!(e.msg.contains("junk"), "{e}");
    }

    #[test]
    fn overlapping_dispatch_is_rejected() {
        let text = "
isa t
mode bytevar
group a
  match 7:0 = 0x10..=0x1F
  len 2
  emit Nop
  class Nop
group b
  match 7:0 = 0x1F
  len 2
  emit Halt
  class System
";
        let spec = Spec::parse(text).unwrap();
        let e = generate(&spec).unwrap_err();
        assert!(e.msg.contains("overlaps"), "{e}");
    }

    #[test]
    fn conflicting_lengths_are_rejected() {
        let text = "
isa t
mode bytevar
group a
  match 7:0 = 0x10
  match 15:8 = 0
  len 2
  emit Nop
  class Nop
group b
  match 7:0 = 0x10
  len 4
  emit Halt
  class System
";
        let spec = Spec::parse(text).unwrap();
        let e = generate(&spec).unwrap_err();
        assert!(e.msg.contains("conflicting lengths"), "{e}");
    }

    #[test]
    fn shadowing_group_is_rejected() {
        // Residual-free group before another group in the same bucket.
        let text = "
isa t
mode fixed32
group a
  match 31:28 = 0x9
  emit Nop
  class Nop
group b
  match 31:28 = 0x9
  match 27:24 = 1
  emit Halt
  class System
";
        let spec = Spec::parse(text).unwrap();
        let e = generate(&spec).unwrap_err();
        assert!(e.msg.contains("shadows"), "{e}");
    }

    #[test]
    fn bytevar_length_table_compresses_runs() {
        let text = "
isa t
mode bytevar
group a
  match 7:0 = 0x00..=0x03
  len 1
  emit Nop
  class Nop
group b
  match 7:0 = 0x04
  len 1
  emit Halt
  class System
group c
  match 7:0 = 0x10
  len 2
  field v = 15:8
  emit Svc(v as u16)
  class System
";
        let spec = Spec::parse(text).unwrap();
        let out = generate(&spec).unwrap();
        assert!(out.contains("0x00..=0x04 => Some(1),"), "{out}");
        assert!(out.contains("0x10 => Some(2),"), "{out}");
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = Spec::parse("isa t\nmode fixed32\nmatch 3:0 = 1\n").unwrap_err();
        assert_eq!(e.line, 3);
        let e = Spec::parse("isa t\nmode warp9\n").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn sign_extended_fields_emit_sext() {
        let text = "
isa t
mode fixed32
group b
  match 31:28 = 0x6
  sfield off = 23:0
  emit Branch { target: next.wrapping_add((off << 2) as u32) }
  class Branch
";
        let spec = Spec::parse(text).unwrap();
        let out = generate(&spec).unwrap();
        assert!(out.contains("const fn sext"), "{out}");
        assert!(out.contains("let off = sext(w & 0xffffff, 24);"), "{out}");
        assert!(out.contains("let next = pc.wrapping_add(4);"), "{out}");
    }
}
