//! Set-associative TLB with per-set LRU replacement and invalidation.

use uvm_types::{PageId, TlbConfig};

#[derive(Debug, Clone, Copy)]
struct Entry {
    page: PageId,
    stamp: u64,
}

/// A set-associative TLB.
///
/// Sets are indexed by `page mod sets`; within a set, replacement is LRU by
/// access stamp. Associativities are small (≤ 16 in every configuration in
/// the paper), so per-set linear scans are the fastest structure.
///
/// # Examples
///
/// ```
/// use uvm_sim::Tlb;
/// use uvm_types::{PageId, TlbConfig};
///
/// let mut tlb = Tlb::new(TlbConfig { entries: 4, ways: 2, latency_cycles: 1 });
/// assert!(!tlb.lookup(PageId(0)));
/// tlb.fill(PageId(0));
/// assert!(tlb.lookup(PageId(0)));
/// tlb.invalidate(PageId(0));
/// assert!(!tlb.lookup(PageId(0)));
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    cfg: TlbConfig,
    sets: Vec<Vec<Entry>>,
    clock: u64,
}

impl Tlb {
    /// Creates an empty TLB.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (see [`TlbConfig::validate`]).
    pub fn new(cfg: TlbConfig) -> Self {
        #[expect(clippy::expect_used, reason = "constructor contract, documented panic")]
        cfg.validate().expect("valid TLB geometry");
        let n_sets = cfg.sets() as usize;
        Tlb {
            cfg,
            sets: vec![Vec::with_capacity(cfg.ways as usize); n_sets],
            clock: 0,
        }
    }

    /// Access latency in cycles.
    pub fn latency(&self) -> u32 {
        self.cfg.latency_cycles
    }

    fn set_index(&self, page: PageId) -> usize {
        (page.0 % self.cfg.sets() as u64) as usize
    }

    /// Looks up `page`, refreshing its recency on a hit.
    pub fn lookup(&mut self, page: PageId) -> bool {
        self.clock += 1;
        let clock = self.clock;
        let idx = self.set_index(page);
        for e in &mut self.sets[idx] {
            if e.page == page {
                e.stamp = clock;
                return true;
            }
        }
        false
    }

    /// Installs a translation for `page`, evicting the set's LRU entry if
    /// the set is full. A page already present only has its recency
    /// refreshed.
    pub fn fill(&mut self, page: PageId) {
        self.clock += 1;
        let clock = self.clock;
        let ways = self.cfg.ways as usize;
        let idx = self.set_index(page);
        let set = &mut self.sets[idx];
        if let Some(e) = set.iter_mut().find(|e| e.page == page) {
            e.stamp = clock;
            return;
        }
        if set.len() == ways {
            #[expect(clippy::expect_used, reason = "set is full on this branch")]
            let lru = set
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(i, _)| i)
                .expect("set nonempty");
            set.swap_remove(lru);
        }
        set.push(Entry { page, stamp: clock });
    }

    /// Removes any translation for `page` (TLB shootdown on eviction).
    pub fn invalidate(&mut self, page: PageId) {
        let idx = self.set_index(page);
        self.sets[idx].retain(|e| e.page != page);
    }

    /// Number of valid entries (diagnostic accessor).
    pub fn occupancy(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tlb(entries: u32, ways: u32) -> Tlb {
        Tlb::new(TlbConfig {
            entries,
            ways,
            latency_cycles: 1,
        })
    }

    #[test]
    fn fill_then_hit() {
        let mut t = tlb(8, 2);
        for p in 0..8u64 {
            assert!(!t.lookup(PageId(p)));
            t.fill(PageId(p));
            assert!(t.lookup(PageId(p)));
        }
    }

    #[test]
    fn set_conflict_evicts_lru_within_set() {
        // 4 sets x 2 ways; pages 0, 4, 8 all map to set 0.
        let mut t = tlb(8, 2);
        t.fill(PageId(0));
        t.fill(PageId(4));
        t.lookup(PageId(0)); // 0 more recent than 4
        t.fill(PageId(8)); // evicts 4
        assert!(t.lookup(PageId(0)));
        assert!(!t.lookup(PageId(4)));
        assert!(t.lookup(PageId(8)));
    }

    #[test]
    fn capacity_sweep_thrashes() {
        // Sweeping 2x the TLB reach leaves only the second half resident.
        let mut t = tlb(16, 16);
        for p in 0..32u64 {
            t.fill(PageId(p));
        }
        assert_eq!(t.occupancy(), 16);
        for p in 0..16u64 {
            assert!(!t.lookup(PageId(p)), "page {p} should be evicted");
        }
        for p in 16..32u64 {
            assert!(t.lookup(PageId(p)), "page {p} should be present");
        }
    }

    #[test]
    fn invalidate_removes_entry() {
        let mut t = tlb(8, 4);
        t.fill(PageId(3));
        t.invalidate(PageId(3));
        assert!(!t.lookup(PageId(3)));
        // Invalidating an absent page is a no-op.
        t.invalidate(PageId(99));
        assert_eq!(t.occupancy(), 0);
    }

    #[test]
    fn double_fill_does_not_duplicate() {
        let mut t = tlb(4, 2);
        t.fill(PageId(1));
        t.fill(PageId(1));
        assert_eq!(t.occupancy(), 1);
    }

    #[test]
    fn fully_associative_uses_global_lru() {
        let mut t = tlb(4, 4);
        for p in 0..4u64 {
            t.fill(PageId(p));
        }
        t.lookup(PageId(0));
        t.fill(PageId(9)); // evicts 1, the LRU
        assert!(t.lookup(PageId(0)));
        assert!(!t.lookup(PageId(1)));
    }
}
