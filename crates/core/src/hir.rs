//! The hit-information record cache (HIR, Section IV-B).
//!
//! A small set-associative cache beside the GPU's page table walker. Each
//! entry is tagged with a page set address and carries one saturating
//! counter per page of the set, recording how many page-walk *hits* each
//! page received since the last flush. Every `transfer_interval`-th page
//! fault the touched entries are copied (in first-touch order, preserving
//! a relaxed reference order) to a buffer and shipped to the GPU driver
//! over PCIe, then the cache is flushed.

use uvm_types::{HirGeometry, PageId, PageSetId};

/// One flushed HIR entry: a page set and its per-page hit counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HirRecord {
    /// The page set this entry described.
    pub set: PageSetId,
    /// Per-page hit counts (index = page offset within the set); values
    /// saturate at the counter maximum (3 for 2-bit counters).
    pub counts: Vec<u8>,
}

impl HirRecord {
    /// Entry size on the wire: 48-bit tag + `pages * counter_bits` data,
    /// byte-rounded. 10 bytes for the paper's configuration.
    pub fn wire_bytes(pages_per_set: u32, counter_bits: u32) -> u64 {
        (48 + pages_per_set as u64 * counter_bits as u64).div_ceil(8)
    }
}

#[derive(Debug, Clone)]
struct Way {
    tag: PageSetId,
    counts: Vec<u8>,
    stamp: u64,
    valid: bool,
}

/// The GPU-side HIR cache.
///
/// # Examples
///
/// ```
/// use hpe_core::HirCache;
/// use uvm_types::{HirGeometry, PageId};
///
/// let mut hir = HirCache::new(HirGeometry::paper_default(), 4);
/// hir.record(PageId(0x80001));
/// hir.record(PageId(0x80001));
/// let records = hir.flush();
/// assert_eq!(records.len(), 1);
/// assert_eq!(records[0].counts[1], 2);
/// assert!(hir.flush().is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct HirCache {
    geom: HirGeometry,
    set_shift: u32,
    pages_per_set: u32,
    ways: Vec<Way>,
    touch_order: Vec<PageSetId>,
    clock: u64,
    conflict_evictions: u64,
}

impl HirCache {
    /// Creates an empty HIR cache for page sets of `2^set_shift` pages.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid.
    pub fn new(geom: HirGeometry, set_shift: u32) -> Self {
        #[expect(clippy::expect_used, reason = "constructor contract, documented panic")]
        geom.validate().expect("valid HIR geometry");
        let pages_per_set = 1u32 << set_shift;
        let n = geom.entries as usize;
        HirCache {
            geom,
            set_shift,
            pages_per_set,
            ways: vec![
                Way {
                    tag: PageSetId(0),
                    counts: vec![0; pages_per_set as usize],
                    stamp: 0,
                    valid: false,
                };
                n
            ],
            touch_order: Vec::new(),
            clock: 0,
            conflict_evictions: 0,
        }
    }

    /// Records one page-walk hit for `page`.
    pub fn record(&mut self, page: PageId) {
        self.clock += 1;
        let clock = self.clock;
        let tag = page.page_set(self.set_shift);
        let offset = page.set_offset(self.set_shift) as usize;
        let cmax = self.geom.counter_max() as u8;
        let sets = self.geom.sets() as usize;
        let ways = self.geom.ways as usize;
        let base = (tag.0 as usize % sets) * ways;

        // Hit: bump the page's counter.
        for i in base..base + ways {
            if self.ways[i].valid && self.ways[i].tag == tag {
                let c = &mut self.ways[i].counts[offset];
                *c = (*c + 1).min(cmax);
                self.ways[i].stamp = clock;
                return;
            }
        }
        // Miss: take an invalid way, else the LRU way (a conflict — that
        // entry's information is lost, Section IV-B issue 2).
        #[expect(clippy::expect_used, reason = "a validated geometry has nonzero ways")]
        let slot = (base..base + ways)
            .find(|&i| !self.ways[i].valid)
            .unwrap_or_else(|| {
                (base..base + ways)
                    .min_by_key(|&i| self.ways[i].stamp)
                    .expect("ways nonzero")
            });
        if self.ways[slot].valid {
            self.conflict_evictions += 1;
        }
        let way = &mut self.ways[slot];
        way.tag = tag;
        way.counts.fill(0);
        way.counts[offset] = 1;
        way.stamp = clock;
        way.valid = true;
        self.touch_order.push(tag);
    }

    /// Copies the touched entries to the transfer buffer in first-touch
    /// order and flushes the cache. Only touched entries are transferred.
    pub fn flush(&mut self) -> Vec<HirRecord> {
        let mut records = Vec::new();
        let sets = self.geom.sets() as usize;
        let ways = self.geom.ways as usize;
        for tag in std::mem::take(&mut self.touch_order) {
            let base = (tag.0 as usize % sets) * ways;
            for i in base..base + ways {
                if self.ways[i].valid && self.ways[i].tag == tag {
                    records.push(HirRecord {
                        set: tag,
                        counts: self.ways[i].counts.clone(),
                    });
                    self.ways[i].valid = false;
                    break;
                }
            }
        }
        // Every valid way was inserted at some point since the last flush,
        // so its tag is in the touch order and was invalidated above
        // (conflict-displaced entries were overwritten in place, and a set
        // never holds two ways with the same tag).
        debug_assert!(self.ways.iter().all(|w| !w.valid));
        records
    }

    /// Number of currently touched (valid) entries.
    pub fn touched_len(&self) -> usize {
        self.ways.iter().filter(|w| w.valid).count()
    }

    /// Insertions that displaced a live entry (information loss).
    pub fn conflict_evictions(&self) -> u64 {
        self.conflict_evictions
    }

    /// Bytes one flush of `n` records occupies on PCIe.
    pub fn transfer_bytes(&self, n_records: usize) -> u64 {
        n_records as u64 * HirRecord::wire_bytes(self.pages_per_set, self.geom.counter_bits)
    }

    /// Validates the cache's structural invariants (the simulator's
    /// sanitizer hook): the way array matches the geometry, every valid
    /// way sits in the set its tag routes to, no set holds two ways with
    /// the same tag (so per-set occupancy never exceeds the
    /// associativity), counter vectors have one slot per page, and way
    /// stamps never exceed the logical clock.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.ways.len() != self.geom.entries as usize {
            return Err(format!(
                "HIR way array has {} slots, geometry says {}",
                self.ways.len(),
                self.geom.entries
            ));
        }
        let sets = self.geom.sets() as usize;
        let ways = self.geom.ways as usize;
        let mut occupancy = vec![0usize; sets];
        for (i, w) in self.ways.iter().enumerate() {
            if !w.valid {
                continue;
            }
            let home = w.tag.0 as usize % sets;
            if i / ways != home {
                return Err(format!(
                    "HIR way {i} holds tag {} which routes to set {home}, not set {}",
                    w.tag.0,
                    i / ways
                ));
            }
            occupancy[home] += 1;
            if w.counts.len() != self.pages_per_set as usize {
                return Err(format!(
                    "HIR way {i} has {} counters for {}-page sets",
                    w.counts.len(),
                    self.pages_per_set
                ));
            }
            if w.stamp > self.clock {
                return Err(format!(
                    "HIR way {i} stamp {} exceeds clock {}",
                    w.stamp, self.clock
                ));
            }
            if self.ways[home * ways..i]
                .iter()
                .any(|o| o.valid && o.tag == w.tag)
            {
                return Err(format!("HIR set {home} holds tag {} in two ways", w.tag.0));
            }
        }
        if let Some((set, &n)) = occupancy.iter().enumerate().find(|&(_, &n)| n > ways) {
            return Err(format!(
                "HIR set {set} occupancy {n} exceeds associativity {ways}"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_geom(entries: u32, ways: u32) -> HirGeometry {
        HirGeometry {
            entries,
            ways,
            counter_bits: 2,
        }
    }

    #[test]
    fn records_accumulate_and_saturate() {
        let mut hir = HirCache::new(small_geom(8, 2), 4);
        for _ in 0..5 {
            hir.record(PageId(0x100));
        }
        let recs = hir.flush();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].set, PageSetId(0x10));
        assert_eq!(recs[0].counts[0], 3); // 2-bit saturation
    }

    #[test]
    fn flush_preserves_first_touch_order() {
        let mut hir = HirCache::new(small_geom(16, 4), 4);
        // Touch sets 3, 1, 2 in that order, with re-touches interleaved.
        for set in [3u64, 1, 2, 3, 1] {
            hir.record(PageId(set << 4));
        }
        let order: Vec<u64> = hir.flush().iter().map(|r| r.set.0).collect();
        assert_eq!(order, vec![3, 1, 2]);
    }

    #[test]
    fn flush_empties_cache() {
        let mut hir = HirCache::new(small_geom(8, 2), 4);
        hir.record(PageId(7));
        assert_eq!(hir.touched_len(), 1);
        assert_eq!(hir.flush().len(), 1);
        assert_eq!(hir.touched_len(), 0);
        assert!(hir.flush().is_empty());
    }

    #[test]
    fn way_conflict_loses_victim_information() {
        // 2 sets x 1 way: sets 0 and 2 collide (both index 0).
        let mut hir = HirCache::new(small_geom(2, 1), 4);
        hir.record(PageId(0x00)); // set 0
        hir.record(PageId(0x20)); // set 2 -> displaces set 0
        assert_eq!(hir.conflict_evictions(), 1);
        let recs = hir.flush();
        // Set 0 is in the touch order but its entry was displaced.
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].set, PageSetId(2));
    }

    #[test]
    fn reinserted_tag_not_duplicated_in_flush() {
        let mut hir = HirCache::new(small_geom(2, 1), 4);
        hir.record(PageId(0x00)); // set 0
        hir.record(PageId(0x20)); // displaces set 0
        hir.record(PageId(0x01)); // set 0 re-inserted (displaces set 2)
        let recs = hir.flush();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].set, PageSetId(0));
        assert_eq!(recs[0].counts[1], 1);
    }

    #[test]
    fn distinct_offsets_tracked_separately() {
        let mut hir = HirCache::new(small_geom(8, 2), 2); // 4-page sets
        hir.record(PageId(0b100)); // set 1 offset 0
        hir.record(PageId(0b111)); // set 1 offset 3
        hir.record(PageId(0b111));
        let recs = hir.flush();
        assert_eq!(recs[0].counts, vec![1, 0, 0, 2]);
    }

    #[test]
    fn wire_size_matches_paper() {
        // Section V-C: 48-bit tag + 16 x 2-bit counters = 80 bits = 10 B.
        assert_eq!(HirRecord::wire_bytes(16, 2), 10);
        let hir = HirCache::new(HirGeometry::paper_default(), 4);
        assert_eq!(hir.transfer_bytes(150), 1500);
    }

    #[test]
    fn lru_way_is_displaced_on_conflict() {
        // 1 set x 2 ways; three distinct tags.
        let mut hir = HirCache::new(small_geom(2, 2), 4);
        hir.record(PageId(0x00)); // set 0
        hir.record(PageId(0x10)); // set 1
        hir.record(PageId(0x05)); // set 0 again (refresh)
        hir.record(PageId(0x20)); // set 2 -> displaces set 1 (LRU)
        let tags: Vec<u64> = hir.flush().iter().map(|r| r.set.0).collect();
        assert_eq!(tags, vec![0, 2]);
    }
}
