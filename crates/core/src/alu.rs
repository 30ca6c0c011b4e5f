//! ALU semantics with ARM-style flag behaviour, implemented once and used
//! by every engine so differential tests cannot diverge on arithmetic.

use crate::cpu::Flags;
use crate::ir::{AluOp, Cond};

/// Result of an ALU evaluation: value plus the flags that *would* be set
/// (the caller decides whether to commit them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AluResult {
    /// The computed value.
    pub value: u32,
    /// Flags as they would be after a flag-setting form.
    pub flags: Flags,
}

#[inline]
fn nz(value: u32, prev: Flags) -> Flags {
    Flags {
        n: (value as i32) < 0,
        z: value == 0,
        c: prev.c,
        v: prev.v,
    }
}

#[inline]
fn add_with(a: u32, b: u32, carry_in: bool) -> AluResult {
    let (s1, c1) = a.overflowing_add(b);
    let (value, c2) = s1.overflowing_add(carry_in as u32);
    let c = c1 || c2;
    let v = ((a ^ value) & (b ^ value)) >> 31 != 0;
    AluResult {
        value,
        flags: Flags {
            n: (value as i32) < 0,
            z: value == 0,
            c,
            v,
        },
    }
}

#[inline]
fn sub_with(a: u32, b: u32, carry_in: bool) -> AluResult {
    // ARM convention: sub is add of !b with carry; C set means "no borrow".
    add_with(a, !b, carry_in)
}

/// Evaluate `a <op> b` under the incoming flags (`Adc`/`Sbc` consume C).
///
/// Shift amounts use only the low five bits of `b`; a shift amount of
/// zero leaves C unchanged, and logical/move ops never touch C or V,
/// mirroring the simplified shifter model described under "Substitutions"
/// in the README.
#[inline]
pub fn eval(op: AluOp, a: u32, b: u32, flags: Flags) -> AluResult {
    match op {
        AluOp::Add => add_with(a, b, false),
        AluOp::Adc => add_with(a, b, flags.c),
        AluOp::Sub => sub_with(a, b, true),
        AluOp::Sbc => sub_with(a, b, flags.c),
        AluOp::Rsb => sub_with(b, a, true),
        AluOp::And => AluResult {
            value: a & b,
            flags: nz(a & b, flags),
        },
        AluOp::Orr => AluResult {
            value: a | b,
            flags: nz(a | b, flags),
        },
        AluOp::Eor => AluResult {
            value: a ^ b,
            flags: nz(a ^ b, flags),
        },
        AluOp::Bic => AluResult {
            value: a & !b,
            flags: nz(a & !b, flags),
        },
        AluOp::Mov => AluResult {
            value: b,
            flags: nz(b, flags),
        },
        AluOp::Mvn => AluResult {
            value: !b,
            flags: nz(!b, flags),
        },
        AluOp::Mul => {
            let value = a.wrapping_mul(b);
            AluResult {
                value,
                flags: nz(value, flags),
            }
        }
        AluOp::Lsl => {
            let amt = b & 31;
            let value = a << amt;
            let mut f = nz(value, flags);
            if amt != 0 {
                f.c = (a >> (32 - amt)) & 1 != 0;
            }
            AluResult { value, flags: f }
        }
        AluOp::Lsr => {
            let amt = b & 31;
            let value = a >> amt;
            let mut f = nz(value, flags);
            if amt != 0 {
                f.c = (a >> (amt - 1)) & 1 != 0;
            }
            AluResult { value, flags: f }
        }
        AluOp::Asr => {
            let amt = b & 31;
            let value = ((a as i32) >> amt) as u32;
            let mut f = nz(value, flags);
            if amt != 0 {
                f.c = (a >> (amt - 1)) & 1 != 0;
            }
            AluResult { value, flags: f }
        }
        AluOp::Ror => {
            let amt = b & 31;
            let value = a.rotate_right(amt);
            let mut f = nz(value, flags);
            if amt != 0 {
                f.c = (value as i32) < 0;
            }
            AluResult { value, flags: f }
        }
    }
}

/// Evaluate a comparison (`Cmp` = subtract, `Tst` = and) returning only
/// the flags.
#[inline]
pub fn compare(a: u32, b: u32, is_tst: bool, flags: Flags) -> Flags {
    if is_tst {
        eval(AluOp::And, a, b, flags).flags
    } else {
        eval(AluOp::Sub, a, b, flags).flags
    }
}

/// Evaluate a branch condition against the flags.
#[inline]
pub fn cond_holds(cond: Cond, f: Flags) -> bool {
    match cond {
        Cond::Eq => f.z,
        Cond::Ne => !f.z,
        Cond::Cs => f.c,
        Cond::Cc => !f.c,
        Cond::Mi => f.n,
        Cond::Pl => !f.n,
        Cond::Vs => f.v,
        Cond::Vc => !f.v,
        Cond::Hi => f.c && !f.z,
        Cond::Ls => !f.c || f.z,
        Cond::Ge => f.n == f.v,
        Cond::Lt => f.n != f.v,
        Cond::Gt => !f.z && f.n == f.v,
        Cond::Le => f.z || f.n != f.v,
        Cond::Al => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const F0: Flags = Flags {
        n: false,
        z: false,
        c: false,
        v: false,
    };

    #[test]
    fn add_flags() {
        let r = eval(AluOp::Add, 1, 2, F0);
        assert_eq!(r.value, 3);
        assert!(!r.flags.c && !r.flags.v && !r.flags.z && !r.flags.n);

        let r = eval(AluOp::Add, u32::MAX, 1, F0);
        assert_eq!(r.value, 0);
        assert!(r.flags.c && r.flags.z && !r.flags.v);

        let r = eval(AluOp::Add, i32::MAX as u32, 1, F0);
        assert_eq!(r.value, 0x8000_0000);
        assert!(r.flags.v && r.flags.n && !r.flags.c);
    }

    #[test]
    fn sub_carry_is_no_borrow() {
        let r = eval(AluOp::Sub, 5, 3, F0);
        assert_eq!(r.value, 2);
        assert!(r.flags.c, "no borrow => C set");

        let r = eval(AluOp::Sub, 3, 5, F0);
        assert_eq!(r.value, 3u32.wrapping_sub(5));
        assert!(!r.flags.c, "borrow => C clear");
        assert!(r.flags.n);
    }

    #[test]
    fn adc_sbc_consume_carry() {
        let c1 = Flags { c: true, ..F0 };
        assert_eq!(eval(AluOp::Adc, 1, 1, c1).value, 3);
        assert_eq!(eval(AluOp::Adc, 1, 1, F0).value, 2);
        // SBC with C set behaves like SUB.
        assert_eq!(eval(AluOp::Sbc, 5, 3, c1).value, 2);
        // SBC with C clear subtracts one more.
        assert_eq!(eval(AluOp::Sbc, 5, 3, F0).value, 1);
    }

    #[test]
    fn rsb_reverses() {
        assert_eq!(eval(AluOp::Rsb, 3, 10, F0).value, 7);
    }

    #[test]
    fn logical_preserve_cv() {
        let f = Flags {
            c: true,
            v: true,
            ..F0
        };
        let r = eval(AluOp::And, 0xF0, 0x0F, f);
        assert_eq!(r.value, 0);
        assert!(r.flags.z && r.flags.c && r.flags.v);
        let r = eval(AluOp::Mov, 0, 0x8000_0000, f);
        assert!(r.flags.n && r.flags.c && r.flags.v);
    }

    #[test]
    fn shifts() {
        let r = eval(AluOp::Lsl, 0x8000_0001, 1, F0);
        assert_eq!(r.value, 2);
        assert!(r.flags.c, "top bit shifted out");

        let r = eval(AluOp::Lsr, 0x3, 1, F0);
        assert_eq!(r.value, 1);
        assert!(r.flags.c, "low bit shifted out");

        let r = eval(AluOp::Asr, 0x8000_0000, 4, F0);
        assert_eq!(r.value, 0xF800_0000);

        let r = eval(AluOp::Ror, 0x1, 1, F0);
        assert_eq!(r.value, 0x8000_0000);
        assert!(r.flags.c);

        // Amount 0 leaves C untouched.
        let f = Flags { c: true, ..F0 };
        let r = eval(AluOp::Lsl, 7, 0, f);
        assert_eq!(r.value, 7);
        assert!(r.flags.c);
    }

    #[test]
    fn mul_low_bits() {
        let r = eval(AluOp::Mul, 0x1_0001, 0x1_0001, F0);
        assert_eq!(r.value, 0x1_0001u32.wrapping_mul(0x1_0001));
    }

    #[test]
    fn compare_forms() {
        let f = compare(3, 3, false, F0);
        assert!(f.z && f.c);
        let f = compare(0b1010, 0b0101, true, F0);
        assert!(f.z);
    }

    #[test]
    fn conditions() {
        let f = compare(3, 3, false, F0); // equal
        assert!(cond_holds(Cond::Eq, f));
        assert!(cond_holds(Cond::Ge, f));
        assert!(cond_holds(Cond::Le, f));
        assert!(cond_holds(Cond::Cs, f));
        assert!(!cond_holds(Cond::Ne, f));
        assert!(!cond_holds(Cond::Lt, f));

        let f = compare(2, 5, false, F0); // 2 < 5
        assert!(cond_holds(Cond::Lt, f));
        assert!(cond_holds(Cond::Cc, f), "unsigned below => borrow");
        assert!(cond_holds(Cond::Ls, f));
        assert!(!cond_holds(Cond::Hi, f));

        let f = compare(0x8000_0000, 1, false, F0); // i32::MIN cmp 1
        assert!(cond_holds(Cond::Vs, f), "i32::MIN - 1 overflows");
        assert!(
            cond_holds(Cond::Lt, f),
            "signed: i32::MIN < 1 despite overflow (N != V)"
        );

        assert!(cond_holds(Cond::Al, F0));
    }
}
