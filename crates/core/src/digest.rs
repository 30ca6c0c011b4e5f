//! Architectural state digests and diffs for differential testing.
//!
//! A [`StateDigest`] summarises everything two engines must agree on
//! after retiring the same number of instructions from the same image:
//! the CPU register state, the ISA system registers, and physical RAM.
//! Engine-private state (TLBs, decode caches, counters) is deliberately
//! excluded — the paper's premise is that engines share *architectural*
//! semantics while differing in cost profile.
//!
//! Hashing is FNV-1a over 64-bit lanes: dependency-free, deterministic
//! across hosts, and fast enough to digest the platform's full RAM at
//! every lockstep checkpoint.

use std::fmt;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a hasher over 64-bit lanes.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher in its initial state.
    pub fn new() -> Self {
        Fnv1a(FNV_OFFSET)
    }

    /// Mix one 64-bit lane.
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(FNV_PRIME);
    }

    /// Mix one 32-bit word.
    #[inline]
    pub fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    /// Mix a byte slice, eight bytes per lane (the tail is zero-padded,
    /// which is fine for fixed-length inputs like RAM).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.write_u64(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.write_u64(u64::from_le_bytes(tail));
        }
        self.write_u64(bytes.len() as u64);
    }

    /// The accumulated hash.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// A snapshot digest of one machine's architectural state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateDigest {
    /// Hash over GPRs, PC, flags, privilege level, and the IRQ mask.
    pub cpu: u64,
    /// Hash over the ISA system-register file.
    pub sys: u64,
    /// Hash over all of physical RAM.
    pub ram: u64,
}

impl StateDigest {
    /// A single hash combining all three components.
    pub fn combined(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(self.cpu);
        h.write_u64(self.sys);
        h.write_u64(self.ram);
        h.finish()
    }
}

impl fmt::Display for StateDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cpu:{:016x} sys:{:016x} ram:{:016x}",
            self.cpu, self.sys, self.ram
        )
    }
}

/// One architectural field that differs between two machines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateDelta {
    /// Field name: `r0`..`r15`, `pc`, `flags`, `level`, `irq_enabled`,
    /// `sys.<reg>`, or `ram[0x<pa>]` (word granule).
    pub field: String,
    /// Value in the first machine.
    pub a: u32,
    /// Value in the second machine.
    pub b: u32,
}

impl fmt::Display for StateDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {:#010x} != {:#010x}", self.field, self.a, self.b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_distinguishes_inputs() {
        let mut a = Fnv1a::new();
        a.write_bytes(&[1, 2, 3]);
        let mut b = Fnv1a::new();
        b.write_bytes(&[1, 2, 4]);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn fnv_length_matters() {
        // Zero-padding alone must not collide [1] with [1, 0].
        let mut a = Fnv1a::new();
        a.write_bytes(&[1]);
        let mut b = Fnv1a::new();
        b.write_bytes(&[1, 0]);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn digest_display_is_stable() {
        let d = StateDigest {
            cpu: 1,
            sys: 2,
            ram: 3,
        };
        assert_eq!(
            d.to_string(),
            "cpu:0000000000000001 sys:0000000000000002 ram:0000000000000003"
        );
    }

    #[test]
    fn delta_display() {
        let d = StateDelta {
            field: "r3".into(),
            a: 0x10,
            b: 0x20,
        };
        assert_eq!(d.to_string(), "r3: 0x00000010 != 0x00000020");
    }
}
