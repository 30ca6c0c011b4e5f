//! Timing-model structures for the detailed engine: a set-associative
//! cache model with true-LRU replacement and a simple DRAM latency
//! model. Every access updates the modelled state; a repeat of the last
//! line, which is resident and most recently used, changes none of it
//! and is answered without re-searching its set. That bookkeeping *is*
//! the slowness of detailed simulation the paper measures for Gem5.

/// One cache way, valid while its epoch is the cache's.
#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u32,
    epoch: u16,
    lru: u8,
}

/// A set-associative cache model with LRU replacement.
///
/// Live epochs start at 1, so a zeroed line is invalid and a flush is an
/// epoch bump; lines are swept only when the epoch wraps. The `Default`
/// cache has no lines and must not be accessed: it is what `mem::take`
/// leaves in an engine that hands its model on.
#[derive(Debug, Clone, Default)]
pub struct CacheModel {
    lines: Vec<Line>,
    ways: usize,
    set_mask: u32,
    line_shift: u32,
    epoch: u16,
    /// The line address the last access served, if any since the flush.
    last: Option<u32>,
    /// Cycle cost of a hit.
    pub hit_cycles: u64,
    /// Cycle cost of a miss (fill from the next level).
    pub miss_cycles: u64,
}

impl CacheModel {
    /// A cache of `size_bytes` with `ways` ways and `line_bytes` lines.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is not a power-of-two split.
    pub fn new(
        size_bytes: usize,
        ways: usize,
        line_bytes: usize,
        hit_cycles: u64,
        miss_cycles: u64,
    ) -> Self {
        assert!(line_bytes.is_power_of_two() && size_bytes.is_multiple_of(ways * line_bytes));
        let n_sets = size_bytes / (ways * line_bytes);
        assert!(n_sets.is_power_of_two());
        CacheModel {
            // lint:allow(hot-path): one-time constructor allocation
            lines: vec![Line::default(); n_sets * ways],
            ways,
            set_mask: n_sets as u32 - 1,
            line_shift: line_bytes.trailing_zeros(),
            epoch: 1,
            last: None,
            hit_cycles,
            miss_cycles,
        }
    }

    /// Simulate an access; returns charged cycles.
    pub fn access(&mut self, pa: u32) -> u64 {
        let line_addr = pa >> self.line_shift;
        if self.last == Some(line_addr) {
            // Its LRU age is already 0: a hit that ages nothing.
            return self.hit_cycles;
        }
        self.last = Some(line_addr);
        let set = (line_addr & self.set_mask) as usize;
        let tag = line_addr >> self.set_mask.trailing_ones();
        let epoch = self.epoch;
        let ways = &mut self.lines[set * self.ways..][..self.ways];

        match ways.iter().position(|l| l.epoch == epoch && l.tag == tag) {
            Some(i) => {
                let old = ways[i].lru;
                for line in ways.iter_mut() {
                    if line.lru < old {
                        line.lru += 1;
                    }
                }
                ways[i].lru = 0;
                self.hit_cycles
            }
            None => {
                // Evict the LRU way.
                let victim = ways
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, l)| if l.epoch == epoch { l.lru } else { u8::MAX })
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                for line in ways.iter_mut() {
                    line.lru = line.lru.saturating_add(1);
                }
                ways[victim] = Line { tag, epoch, lru: 0 };
                self.miss_cycles
            }
        }
    }

    /// Invalidate everything (context switches, SMC).
    pub fn flush(&mut self) {
        self.last = None;
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.lines.fill(Line::default());
            self.epoch = 1;
        }
    }
}

/// Accumulated pipeline timing for the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Cycles lost to instruction-cache misses.
    pub icache_stall: u64,
    /// Cycles lost to data-cache misses.
    pub dcache_stall: u64,
    /// Cycles lost to TLB walks.
    pub tlb_stall: u64,
    /// Branch redirect penalties.
    pub branch_penalty: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_miss() {
        let mut c = CacheModel::new(1024, 2, 64, 1, 20);
        assert_eq!(c.access(0x100), 20, "cold miss");
        assert_eq!(c.access(0x104), 1, "same line hits");
        assert_eq!(c.access(0x140), 20, "the next line misses");
        assert_eq!(c.access(0x100), 1, "the first still hits");
    }

    #[test]
    fn lru_eviction_order() {
        // 2 ways, 1 set: 128 bytes total, 64-byte lines.
        let mut c = CacheModel::new(128, 2, 64, 1, 20);
        c.access(0x000); // A
        c.access(0x040); // B
        c.access(0x000); // A hit → B becomes LRU
        c.access(0x080); // C evicts B
        assert_eq!(c.access(0x000), 1, "A still resident");
        assert_eq!(c.access(0x040), 20, "B was evicted");
    }

    #[test]
    fn flush_invalidates() {
        let mut c = CacheModel::new(1024, 2, 64, 1, 20);
        c.access(0x100);
        c.flush();
        assert_eq!(c.access(0x100), 20);
    }

    #[test]
    fn flush_is_an_epoch_bump_swept_on_wrap() {
        let mut c = CacheModel::new(128, 2, 64, 1, 20);
        c.access(0x000);
        c.access(0x040);
        c.flush();
        assert!(c.lines.iter().all(|l| l.epoch == 1), "not swept");
        assert_eq!(c.access(0x000), 20);
        // A line filled at epoch 1 must not read as valid after the
        // wrap, when epoch 1 comes round again.
        c.epoch = u16::MAX;
        c.flush();
        assert_eq!(c.epoch, 1);
        assert!(c.lines.iter().all(|l| l.epoch == 0), "swept on wrap");
        assert_eq!(c.access(0x040), 20);
    }
}
