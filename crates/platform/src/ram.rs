//! Guest RAM as a recycled resource.
//!
//! A cell-run touches a few dozen pages of its 96 MiB, so allocating
//! RAM afresh per platform costs an mmap, one host page fault per
//! touched page and a munmap that no engine mechanism accounts for.
//! [`Ram`] therefore returns its buffer to a process-wide pool on drop
//! and [`Ram::take`] hands it out again, all-zero: one dirty bit per
//! 4 KiB page records what must be zeroed first.
//!
//! The invariant — a page whose bit is clear is all-zero — holds
//! because the bytes have exactly three mutation paths: [`Ram::write`]
//! and [`Ram::load`] mark the pages they touch, and [`Ram::untracked`]
//! hands out the raw slice and gives up on recycling the buffer.

use std::mem;

use simbench_core::bus::ram_write;
use simbench_core::ir::MemSize;
use simbench_core::pool::Pool;
use simbench_core::{PAGE_SHIFT, PAGE_SIZE};

const PAGE: usize = PAGE_SIZE as usize;

/// A buffer with more dirty pages than this is freed rather than
/// pooled. Zeroing a page by hand costs 0.1–0.2 µs where a fresh
/// mapping costs about 2 µs plus 1.1 µs for each page its next user
/// touches (some twenty for a suite cell), so this is where cleaning a
/// buffer stops being cheaper than replacing it; it also bounds what
/// one run can leave resident in the pool, at 1 MiB.
const MAX_POOLED_DIRTY_PAGES: usize = 256;

/// Buffers between users: at most as many as platforms were ever alive
/// at once.
static POOL: Pool<Ram> = Pool::new();

#[derive(Debug)]
pub(crate) struct Ram {
    bytes: Vec<u8>,
    /// Bit `p % 64` of word `p / 64` is set if page `p` may be nonzero.
    dirty: Vec<u64>,
    /// False once the raw slice has been handed out: the dirty bits no
    /// longer describe the bytes, and the buffer is freed on drop.
    tracked: bool,
}

impl Ram {
    /// `size` zero bytes: a pooled buffer of exactly that size, cleaned
    /// outside the pool's lock, or else a new allocation.
    pub(crate) fn take(size: usize) -> Ram {
        static OBS_REUSED: simbench_obs::Counter =
            simbench_obs::Counter::new("platform.ram_reused");
        static OBS_FRESH: simbench_obs::Counter = simbench_obs::Counter::new("platform.ram_fresh");
        static OBS_REZEROED: simbench_obs::Counter =
            simbench_obs::Counter::new("platform.pages_rezeroed");
        match POOL.take(|r| r.bytes.len() == size) {
            Some(mut ram) => {
                OBS_REUSED.add(1);
                OBS_REZEROED.add(ram.rezero());
                ram
            }
            None => {
                OBS_FRESH.add(1);
                Ram {
                    bytes: vec![0; size],
                    dirty: vec![0; size.div_ceil(PAGE).div_ceil(64)],
                    tracked: true,
                }
            }
        }
    }

    pub(crate) fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The raw bytes, for callers whose writes this type cannot see.
    pub(crate) fn untracked(&mut self) -> &mut [u8] {
        self.tracked = false;
        &mut self.bytes
    }

    /// Store little-endian at `pa`. Caller guarantees bounds. The pages
    /// are marked before the store, so that no unwinding panic can
    /// leave a written page unmarked.
    #[inline]
    pub(crate) fn write(&mut self, pa: u32, val: u32, size: MemSize) {
        self.mark(pa as usize, size.bytes() as usize);
        ram_write(&mut self.bytes, pa, val, size);
    }

    /// Copy `bytes` to `addr`, marking first as [`Ram::write`] does.
    ///
    /// # Panics
    ///
    /// Panics if the range lies outside RAM.
    pub(crate) fn load(&mut self, addr: u32, bytes: &[u8]) {
        let start = addr as usize;
        self.mark(start, bytes.len());
        self.bytes[start..start + bytes.len()].copy_from_slice(bytes);
    }

    /// Mark every page of `start .. start + len` (in bounds) dirty: one
    /// bit for a range inside one page, as every aligned store is.
    #[inline]
    fn mark(&mut self, start: usize, len: usize) {
        if len == 0 {
            return;
        }
        let (first, last) = (start >> PAGE_SHIFT, (start + len - 1) >> PAGE_SHIFT);
        self.dirty[first / 64] |= 1 << (first % 64);
        for page in first + 1..=last {
            self.dirty[page / 64] |= 1 << (page % 64);
        }
    }

    fn dirty_pages(&self) -> usize {
        self.dirty.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Zero every dirty page and clear its bit. Returns the page count.
    fn rezero(&mut self) -> u64 {
        let mut pages = 0;
        for (w, word) in self.dirty.iter_mut().enumerate() {
            let mut bits = mem::take(word);
            while bits != 0 {
                let start = (w * 64 + bits.trailing_zeros() as usize) << PAGE_SHIFT;
                let end = (start + PAGE).min(self.bytes.len());
                self.bytes[start..end].fill(0);
                bits &= bits - 1;
                pages += 1;
            }
        }
        pages
    }
}

/// On the buffer rather than on [`crate::Platform`], whose fields stay
/// movable.
impl Drop for Ram {
    fn drop(&mut self) {
        if !self.tracked || self.dirty_pages() > MAX_POOLED_DIRTY_PAGES {
            return;
        }
        let recycled = Ram {
            bytes: mem::take(&mut self.bytes),
            dirty: mem::take(&mut self.dirty),
            tracked: true,
        };
        POOL.give(recycled);
    }
}

/// Through [`Platform`], as every user reaches the pool. The pool
/// matches on exact size and unit tests share one process, so each
/// test owns a RAM size no other test uses.
#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Barrier;

    use simbench_core::bus::Bus;

    use super::*;
    use crate::Platform;

    const B1: MemSize = MemSize::B1;
    const B2: MemSize = MemSize::B2;
    const B4: MemSize = MemSize::B4;

    /// How many buffers of `size` bytes the pool holds. Counted by
    /// taking them out, which is safe because no other test uses `size`.
    fn pooled(size: usize) -> usize {
        let held: Vec<Ram> = std::iter::from_fn(|| POOL.take(|r| r.bytes.len() == size)).collect();
        let n = held.len();
        held.into_iter().for_each(|r| POOL.give(r));
        n
    }

    fn all_zero(p: &Platform) -> bool {
        p.ram().iter().all(|&b| b == 0)
    }

    /// Drop `p` and take a platform of the same size: it must be the
    /// same allocation, and clean.
    fn recycle(p: Platform) -> Platform {
        let (at, size) = (p.ram().as_ptr(), p.ram().len());
        drop(p);
        let q = Platform::with_ram(size);
        assert_eq!(q.ram().as_ptr(), at, "the pooled buffer comes back");
        assert!(all_zero(&q), "recycled RAM is all-zero");
        q
    }

    #[test]
    fn written_ram_is_recycled_clean() {
        let mut p = Platform::with_ram(0x5000);
        p.write(0, 0xAB, B1).unwrap(); // first page
        p.write(0x0FFE, 0xABCD, B2).unwrap(); // ends on a page boundary
        p.write(0x2FFE, 0xDEAD_BEEF, B4).unwrap(); // straddles pages 2 and 3
        p.write(0x4FFC, 0xDEAD_BEEF, B4).unwrap(); // last page, ends with RAM
        assert_eq!(p.ram.dirty, [0b11101]);
        let mut p = recycle(p);
        assert_eq!(p.ram.dirty, [0]);
        // A second generation, dirtying the page the first left clean.
        p.write(0x1800, 1, B4).unwrap();
        recycle(p);
    }

    #[test]
    fn loaded_ram_is_recycled_clean() {
        let mut p = Platform::with_ram(0x46000);
        p.load(0x0FF0, &[0xAA; 0x2020]); // pages 0 to 3
        p.load(0x45FFF, &[0xBB]); // last byte: page 69, second word
        p.load(0x5000, &[]);
        p.load(0x46000, &[]); // empty at the very end is in range
        assert_eq!(p.ram.dirty, [0b1111, 1 << 5]);
        assert_eq!(p.ram()[0x3000 + 0xF], 0xAA);
        recycle(p);
    }

    #[test]
    fn raw_borrower_is_freed_not_recycled() {
        let mut p = Platform::with_ram(0x7000);
        p.ram_mut()[0x1234] = 7;
        drop(p);
        assert_eq!(pooled(0x7000), 0);
        assert!(all_zero(&Platform::with_ram(0x7000)));
    }

    #[test]
    fn too_dirty_a_buffer_is_freed() {
        let size = (MAX_POOLED_DIRTY_PAGES + 1) * PAGE;
        let mut p = Platform::with_ram(size);
        p.load(0, &vec![1; size - PAGE]);
        let p = recycle(p); // at the limit
        let mut p = recycle(p); // and clean
        p.load(0, &vec![1; size]);
        drop(p);
        assert_eq!(pooled(size), 0);
    }

    #[test]
    fn pool_matches_on_exact_size() {
        let mut p = Platform::with_ram(0x8000);
        p.write(0x100, 1, B4).unwrap();
        let at = p.ram().as_ptr();
        drop(p);
        let other = Platform::with_ram(0x9000);
        assert_eq!(other.ram().len(), 0x9000);
        assert!(all_zero(&other));
        assert_eq!(pooled(0x8000), 1, "still waiting for its size");
        assert_eq!(Platform::with_ram(0x8000).ram().as_ptr(), at);
    }

    #[test]
    fn platform_dropped_by_a_panic_is_recycled_clean() {
        let mut at = std::ptr::null();
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let mut p = Platform::with_ram(0xA000);
            at = p.ram().as_ptr();
            p.write(0x3000, u32::MAX, B4).unwrap();
            panic!("mid-run");
        }));
        assert!(unwound.is_err());
        let q = Platform::with_ram(0xA000);
        assert_eq!(q.ram().as_ptr(), at);
        assert!(all_zero(&q));
    }

    #[test]
    fn concurrent_platforms_never_share_a_buffer() {
        const SIZE: usize = 0xB000;
        let both_live = Barrier::new(2);
        std::thread::scope(|s| {
            for tag in [0x1111_1111u32, 0x2222_2222] {
                let both_live = &both_live;
                s.spawn(move || {
                    for _ in 0..200 {
                        let mut p = Platform::with_ram(SIZE);
                        assert!(all_zero(&p));
                        for pa in (0..SIZE as u32).step_by(PAGE) {
                            p.write(pa, tag, B4).unwrap();
                        }
                        // Both threads hold a tagged platform here.
                        both_live.wait();
                        for pa in (0..SIZE as u32).step_by(PAGE) {
                            assert_eq!(p.read(pa, B4).unwrap(), tag);
                        }
                    }
                });
            }
        });
        assert_eq!(pooled(SIZE), 2, "one buffer per simultaneously live user");
    }
}
