//! Timing-model structures for the detailed engine: a set-associative
//! cache model with true-LRU replacement and a simple DRAM latency
//! model. Every simulated access does real bookkeeping work — that work
//! *is* the slowness of detailed simulation the paper measures for Gem5.

/// One cache way.
#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u32,
    valid: bool,
    lru: u8,
}

/// A set-associative cache model with LRU replacement.
#[derive(Debug, Clone)]
pub struct CacheModel {
    sets: Vec<Line>,
    ways: usize,
    set_mask: u32,
    line_shift: u32,
    hits: u64,
    misses: u64,
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
            sets: vec![
                Line {
                    tag: 0,
                    valid: false,
                    lru: 0
                };
                n_sets * ways
            ],
            ways,
            set_mask: n_sets as u32 - 1,
            line_shift: line_bytes.trailing_zeros(),
            hits: 0,
            misses: 0,
            hit_cycles,
            miss_cycles,
        }
    }

    /// Simulate an access; returns charged cycles.
    pub fn access(&mut self, pa: u32) -> u64 {
        let line_addr = pa >> self.line_shift;
        let set = (line_addr & self.set_mask) as usize;
        let tag = line_addr >> self.set_mask.trailing_ones();
        let base = set * self.ways;
        let ways = &mut self.sets[base..base + self.ways];

        // LRU search: real per-access work.
        let mut hit_way = None;
        for (i, line) in ways.iter().enumerate() {
            if line.valid && line.tag == tag {
                hit_way = Some(i);
                break;
            }
        }
        match hit_way {
            Some(i) => {
                let old = ways[i].lru;
                for line in ways.iter_mut() {
                    if line.lru < old {
                        line.lru += 1;
                    }
                }
                ways[i].lru = 0;
                self.hits += 1;
                self.hit_cycles
            }
            None => {
                // Evict the LRU way.
                let victim = ways
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, l)| if l.valid { l.lru } else { u8::MAX })
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                for line in ways.iter_mut() {
                    line.lru = line.lru.saturating_add(1);
                }
                ways[victim] = Line {
                    tag,
                    valid: true,
                    lru: 0,
                };
                self.misses += 1;
                self.miss_cycles
            }
        }
    }

    /// Invalidate everything (context switches, SMC).
    pub fn flush(&mut self) {
        for line in &mut self.sets {
            line.valid = false;
        }
    }

    /// (hits, misses).
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
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
        assert_eq!(c.stats(), (1, 1));
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
}
