//! Bootable guest images.

use std::fmt;

/// A chunk of bytes to be loaded at a fixed physical address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// Load address (physical; boot code runs MMU-off with an identity
    /// view, so link addresses equal load addresses).
    pub addr: u32,
    /// Raw contents.
    pub bytes: Vec<u8>,
}

impl Section {
    /// One-past-the-end address of the section.
    pub fn end(&self) -> u32 {
        self.addr + self.bytes.len() as u32
    }

    /// # Panics
    ///
    /// Panics if the section lies outside a RAM of `ram_len` bytes.
    pub(crate) fn assert_fits(&self, ram_len: usize) {
        let end = self.addr as usize + self.bytes.len();
        assert!(
            end <= ram_len,
            "image section {:#x}..{end:#x} exceeds RAM",
            self.addr
        );
    }
}

/// A bare-metal bootable guest image: what the assembler/linker produces
/// and what a [`crate::machine::Machine`] boots.
///
/// RAM is zero where no section lands: every bus a machine boots on
/// starts with zeroed RAM, so an image need not ship zero bytes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GuestImage {
    /// Reset vector: the first instruction executed.
    pub entry: u32,
    /// Sections, non-overlapping, in any order.
    pub sections: Vec<Section>,
}

impl GuestImage {
    /// Create an empty image entering at `entry`.
    pub fn new(entry: u32) -> Self {
        GuestImage {
            entry,
            sections: Vec::new(),
        }
    }

    /// Append a section.
    ///
    /// # Panics
    ///
    /// Panics if the new section overlaps an existing one — overlapping
    /// sections are always an assembler bug.
    pub fn push_section(&mut self, addr: u32, bytes: Vec<u8>) {
        let end = addr + bytes.len() as u32;
        for s in &self.sections {
            assert!(
                end <= s.addr || addr >= s.end(),
                "section {addr:#x}..{end:#x} overlaps {:#x}..{:#x}",
                s.addr,
                s.end()
            );
        }
        self.sections.push(Section { addr, bytes });
    }

    /// Append `bytes` at `addr` as sections holding only its non-zero
    /// 64-byte chunks (counted from `addr`), adjacent chunks merged.
    /// What the guest sees is the same as for one section of all of
    /// `bytes`, because RAM is zero where no section lands.
    ///
    /// # Panics
    ///
    /// Panics as [`GuestImage::push_section`] does.
    pub fn push_nonzero(&mut self, addr: u32, bytes: &[u8]) {
        const CHUNK: usize = 64;
        static ZERO: [u8; CHUNK] = [0; CHUNK];
        let mut start = None;
        for (i, chunk) in bytes.chunks(CHUNK).enumerate() {
            match (start, *chunk == ZERO[..chunk.len()]) {
                (None, false) => start = Some(i * CHUNK),
                (Some(s), true) => {
                    self.push_section(addr + s as u32, bytes[s..i * CHUNK].to_vec());
                    start = None;
                }
                _ => {}
            }
        }
        if let Some(s) = start {
            self.push_section(addr + s as u32, bytes[s..].to_vec());
        }
    }

    /// Total payload bytes.
    pub fn size(&self) -> usize {
        self.sections.iter().map(|s| s.bytes.len()).sum()
    }

    /// Highest address written by any section.
    pub fn limit(&self) -> u32 {
        self.sections.iter().map(Section::end).max().unwrap_or(0)
    }

    /// Copy all sections into `ram`.
    ///
    /// # Panics
    ///
    /// Panics if any section lies outside `ram`.
    pub fn load_into(&self, ram: &mut [u8]) {
        for s in &self.sections {
            s.assert_fits(ram.len());
            let start = s.addr as usize;
            ram[start..start + s.bytes.len()].copy_from_slice(&s.bytes);
        }
    }
}

impl fmt::Display for GuestImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "entry {:#010x}, {} sections, {} bytes",
            self.entry,
            self.sections.len(),
            self.size()
        )?;
        let mut sections: Vec<_> = self.sections.iter().collect();
        sections.sort_by_key(|s| s.addr);
        for s in sections {
            writeln!(
                f,
                "  {:#010x}..{:#010x} ({} bytes)",
                s.addr,
                s.end(),
                s.bytes.len()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_and_limits() {
        let mut img = GuestImage::new(0x8000);
        img.push_section(0x10, vec![1, 2, 3, 4]);
        img.push_section(0x20, vec![9]);
        assert_eq!(img.size(), 5);
        assert_eq!(img.limit(), 0x21);
        let mut ram = vec![0u8; 0x40];
        img.load_into(&mut ram);
        assert_eq!(&ram[0x10..0x14], &[1, 2, 3, 4]);
        assert_eq!(ram[0x20], 9);
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlap_detected() {
        let mut img = GuestImage::new(0);
        img.push_section(0x10, vec![0; 8]);
        img.push_section(0x14, vec![0; 8]);
    }

    #[test]
    fn adjacent_sections_allowed() {
        let mut img = GuestImage::new(0);
        img.push_section(0x10, vec![0; 8]);
        img.push_section(0x18, vec![0; 8]);
        assert_eq!(img.sections.len(), 2);
    }

    /// `(address, length)` of each section.
    fn spans(img: &GuestImage) -> Vec<(u32, usize)> {
        img.sections
            .iter()
            .map(|s| (s.addr, s.bytes.len()))
            .collect()
    }

    #[test]
    fn an_all_zero_blob_ships_nothing() {
        let mut img = GuestImage::new(0);
        img.push_nonzero(0x1000, &[0; 4096 + 10]);
        img.push_nonzero(0x4000, &[]);
        assert!(img.sections.is_empty());
    }

    #[test]
    fn a_nonzero_byte_in_the_last_partial_chunk_ships() {
        let mut blob = vec![0; 200];
        blob[199] = 7;
        let mut img = GuestImage::new(0);
        img.push_nonzero(0x1000, &blob);
        assert_eq!(spans(&img), [(0x1000 + 192, 8)]);
        assert_eq!(img.sections[0].bytes[7], 7);
    }

    #[test]
    fn adjacent_nonzero_chunks_merge_into_one_section() {
        let mut blob = vec![0; 512];
        blob[63] = 1; // chunk 0
        blob[64] = 2; // chunk 1
        blob[191] = 3; // chunk 2, still adjacent
        blob[320] = 4; // chunk 5, after two zero chunks
        let mut img = GuestImage::new(0);
        img.push_nonzero(0x2000, &blob);
        assert_eq!(spans(&img), [(0x2000, 192), (0x2000 + 320, 64)]);
        let mut ram = vec![0; 0x3000];
        img.load_into(&mut ram);
        assert_eq!(ram[0x2000..0x2200], blob[..], "the same bytes, once loaded");
    }

    #[test]
    #[should_panic(expected = "exceeds RAM")]
    fn load_out_of_bounds() {
        let mut img = GuestImage::new(0);
        img.push_section(0x100, vec![0; 8]);
        let mut ram = vec![0u8; 0x100];
        img.load_into(&mut ram);
    }
}
