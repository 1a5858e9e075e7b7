//! The page set chain (Section IV-C): HPE's driver-side metadata.
//!
//! The chain holds one entry per *page set* (a group of contiguous virtual
//! pages), partitioned by recency into three segments:
//!
//! * **old** — sets not touched in the last or current interval,
//! * **middle** — sets touched in the previous interval,
//! * **new** — sets touched in the current interval.
//!
//! Every `interval_len` page faults the partitions rotate: middle drains
//! into old, new becomes middle. Within an interval, once a set has been
//! placed in the new partition, further touches do not move it again.
//!
//! Each entry carries the page set tag, a saturating touch counter, a bit
//! vector of *faulted* pages (only page faults update it), and a division
//! flag. When a set's counter saturates with some pages never faulted, the
//! set is **divided**: the faulted pages remain in the current entry (the
//! *primary*) and the untouched pages form a *secondary* set when later
//! touched. The division result is remembered in a history buffer so
//! re-migrated pages route to the right half (Fig. 6).

use std::collections::HashMap;

use uvm_policies::chain::RecencyChain;
use uvm_types::{PageId, PageSetId};

use crate::config::{HpeConfig, StrategyKind};

/// Key of a chain entry: the page set plus which half of a divided set it
/// represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SetKey {
    /// The page set address.
    pub set: PageSetId,
    /// `true` for the secondary half of a divided set.
    pub secondary: bool,
}

/// One chain entry (Fig. 5: tag, saturating counter, bit vector, flag).
#[derive(Debug, Clone)]
pub struct SetEntry {
    /// Entry key (tag + half).
    pub key: SetKey,
    /// Touch counter, saturating at the configured maximum (64).
    pub counter: u32,
    /// Pages of the set that have *faulted* (bit per page offset; only
    /// faults update this, Section IV-C note 1).
    pub bits: u64,
    /// Pages of the set currently resident in GPU memory.
    pub resident: u64,
    /// Whether this set has been divided.
    pub divided: bool,
}

impl SetEntry {
    /// Lowest-offset resident page, if any (HPE evicts in address order).
    fn first_resident_offset(&self) -> Option<u32> {
        if self.resident == 0 {
            None
        } else {
            Some(self.resident.trailing_zeros())
        }
    }
}

/// Which partition a selection came from (diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partition {
    /// The old partition (preferred source of eviction candidates).
    Old,
    /// The middle partition.
    Middle,
    /// The new partition (last resort).
    New,
}

/// Result of a victim selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Selection {
    /// The page to evict.
    pub page: PageId,
    /// Chain-entry comparisons performed (Fig. 14's search overhead).
    pub comparisons: u64,
    /// Partition the victim came from.
    pub partition: Partition,
}

/// Aggregate counter statistics for classification (Section IV-D).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterStats {
    /// Sets whose counter is divisible by the page set size.
    pub regular: u64,
    /// Sets whose counter is not divisible by the page set size.
    pub irregular: u64,
    /// Sets with counter equal to 1x or 2x the page set size.
    pub small_regular: u64,
    /// Sets with counter equal to 3x or 4x the page set size.
    pub large_regular: u64,
}

/// The page set chain.
#[derive(Debug)]
pub struct PageSetChain {
    set_shift: u32,
    set_size: u32,
    counter_max: u32,
    division_enabled: bool,
    entries: HashMap<SetKey, SetEntry>,
    old: RecencyChain<SetKey>,
    middle: RecencyChain<SetKey>,
    new: RecencyChain<SetKey>,
    /// History buffer: primary bit masks from first divisions.
    divisions: HashMap<PageSetId, u64>,
    divided_count: u64,
}

impl PageSetChain {
    /// Creates an empty chain from an HPE configuration.
    pub fn new(cfg: &HpeConfig) -> Self {
        PageSetChain {
            set_shift: cfg.page_set_shift(),
            set_size: cfg.page_set_size,
            counter_max: cfg.counter_max,
            division_enabled: cfg.enable_division,
            entries: HashMap::new(),
            old: RecencyChain::new(),
            middle: RecencyChain::new(),
            new: RecencyChain::new(),
            divisions: HashMap::new(),
            divided_count: 0,
        }
    }

    fn full_mask(&self) -> u64 {
        if self.set_size == 64 {
            u64::MAX
        } else {
            (1u64 << self.set_size) - 1
        }
    }

    /// Routes a page to its entry key via the history buffer (Fig. 6
    /// steps 1–4) and returns its offset within the set.
    pub fn route(&self, page: PageId) -> (SetKey, u32) {
        let set = page.page_set(self.set_shift);
        let offset = page.set_offset(self.set_shift);
        let secondary = match self.divisions.get(&set) {
            Some(primary_bits) => primary_bits & (1u64 << offset) == 0,
            None => false,
        };
        (SetKey { set, secondary }, offset)
    }

    /// Records `count` touches to `page` (Fig. 6 step 5): updates or
    /// creates the entry, moves it to the new partition's MRU position if
    /// it was in old or middle, and checks the division rule.
    pub fn touch(&mut self, page: PageId, count: u32, is_fault: bool) {
        let (key, offset) = self.route(page);
        let mask = 1u64 << offset;
        let counter_max = self.counter_max;
        let entry = self.entries.entry(key).or_insert_with(|| SetEntry {
            key,
            counter: 0,
            bits: 0,
            resident: 0,
            divided: false,
        });
        entry.counter = (entry.counter + count).min(counter_max);
        if is_fault {
            entry.bits |= mask;
            entry.resident |= mask;
        }

        // Movement: old/middle -> MRU of new; entries already in new stay
        // where they are (no re-movement within an interval).
        if !self.new.contains(&key) {
            self.old.remove(&key);
            self.middle.remove(&key);
            self.new.insert_mru(key);
        }

        // Division check (Section IV-C): when the counter saturates with
        // some pages never faulted, split the set. Only the first division
        // result is kept; secondaries never divide again.
        if self.division_enabled && !key.secondary {
            let full = self.full_mask();
            #[expect(clippy::expect_used, reason = "inserted two lines up")]
            let entry = self.entries.get_mut(&key).expect("just inserted");
            if entry.counter >= counter_max
                && !entry.divided
                && !self.divisions.contains_key(&key.set)
                && entry.bits != full
                && entry.bits != 0
            {
                self.divisions.insert(key.set, entry.bits);
                entry.divided = true;
                self.divided_count += 1;
            }
        }
    }

    /// Rotates the partitions at the end of an interval: middle drains
    /// into old (preserving recency order), new becomes middle.
    pub fn rotate_interval(&mut self) {
        let mid: Vec<SetKey> = self.middle.iter().copied().collect();
        for k in mid {
            self.old.insert_mru(k);
        }
        self.middle = std::mem::take(&mut self.new);
    }

    /// Selects a victim page under `strategy` with the given MRU-C search
    /// jump, following the partition preference old → middle → new.
    /// Returns `None` only if no resident page is tracked.
    pub fn select_victim(&mut self, strategy: StrategyKind, jump: u32) -> Option<Selection> {
        for partition in [Partition::Old, Partition::Middle, Partition::New] {
            if let Some(sel) = self.select_from(partition, strategy, jump) {
                return Some(sel);
            }
        }
        None
    }

    fn select_from(
        &mut self,
        partition: Partition,
        strategy: StrategyKind,
        jump: u32,
    ) -> Option<Selection> {
        let mut comparisons = 0u64;
        // Lazily drop entries with no resident pages (evicted sets whose
        // stale HIR records re-created them).
        let mut zombies: Vec<SetKey> = Vec::new();
        let chosen: Option<SetKey> = {
            let chain = match partition {
                Partition::Old => &self.old,
                Partition::Middle => &self.middle,
                Partition::New => &self.new,
            };
            let entries = &self.entries;
            let live = |k: &SetKey| entries.get(k).map(|e| e.resident != 0).unwrap_or(false);
            match strategy {
                StrategyKind::Lru => {
                    let mut found = None;
                    for k in chain.iter() {
                        comparisons += 1;
                        if live(k) {
                            found = Some(*k);
                            break;
                        }
                        zombies.push(*k);
                    }
                    found
                }
                StrategyKind::MruC => {
                    // Search from the MRU position (offset by the jump,
                    // wrapping — the adjusted search point must still be
                    // able to reach every candidate) for a set whose
                    // counter equals the page set size; if all counters
                    // exceed the set size, fall back to the minimum
                    // counter; if neither exists, the minimum counter
                    // overall.
                    let mut exact: Option<SetKey> = None;
                    let mut min_above: Option<(u32, SetKey)> = None;
                    let mut min_any: Option<(u32, SetKey)> = None;
                    let len = chain.len();
                    let skip = if len == 0 { 0 } else { jump as usize % len };
                    for k in chain
                        .iter_rev()
                        .skip(skip)
                        .chain(chain.iter_rev().take(skip))
                    {
                        comparisons += 1;
                        if !live(k) {
                            zombies.push(*k);
                            continue;
                        }
                        let c = self.entries[k].counter;
                        if c == self.set_size {
                            exact = Some(*k);
                            break;
                        }
                        if c > self.set_size && min_above.map(|(m, _)| c < m).unwrap_or(true) {
                            min_above = Some((c, *k));
                        }
                        if min_any.map(|(m, _)| c < m).unwrap_or(true) {
                            min_any = Some((c, *k));
                        }
                    }
                    exact
                        .or(min_above.map(|(_, k)| k))
                        .or(min_any.map(|(_, k)| k))
                }
            }
        };
        for z in zombies {
            self.remove_key(z);
        }
        let key = chosen?;
        #[expect(clippy::expect_used, reason = "key came from the live scan above")]
        let entry = self.entries.get_mut(&key).expect("chosen entry exists");
        #[expect(clippy::expect_used, reason = "zombies were pruned above")]
        let offset = entry
            .first_resident_offset()
            .expect("chosen entry has a resident page");
        entry.resident &= !(1u64 << offset);
        let page = key.set.page_at(self.set_shift, offset);
        if entry.resident == 0 {
            self.remove_key(key);
        }
        Some(Selection {
            page,
            comparisons,
            partition,
        })
    }

    fn remove_key(&mut self, key: SetKey) {
        self.entries.remove(&key);
        if !self.old.remove(&key) && !self.middle.remove(&key) {
            self.new.remove(&key);
        }
    }

    /// Counter statistics over all live entries, for classification.
    pub fn counter_stats(&self) -> CounterStats {
        let s = self.set_size;
        let mut st = CounterStats::default();
        // lint:allow(hash-iteration) — commutative accumulation
        for e in self.entries.values() {
            if e.counter == 0 {
                continue;
            }
            if e.counter % s == 0 {
                st.regular += 1;
                if e.counter == s || e.counter == 2 * s {
                    st.small_regular += 1;
                } else if e.counter == 3 * s || e.counter == 4 * s {
                    st.large_regular += 1;
                }
            } else {
                st.irregular += 1;
            }
        }
        st
    }

    /// Number of entries in the old partition.
    pub fn old_len(&self) -> usize {
        self.old.len()
    }

    /// Number of entries in the middle partition.
    pub fn middle_len(&self) -> usize {
        self.middle.len()
    }

    /// Number of entries in the new partition.
    pub fn new_len(&self) -> usize {
        self.new.len()
    }

    /// Total number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the chain has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of page sets divided so far.
    pub fn divided_count(&self) -> u64 {
        self.divided_count
    }

    /// The recorded primary bit mask for `set`, if it was divided.
    pub fn division_of(&self, set: PageSetId) -> Option<u64> {
        self.divisions.get(&set).copied()
    }

    /// Looks up an entry (diagnostics/tests).
    pub fn entry(&self, key: SetKey) -> Option<&SetEntry> {
        self.entries.get(&key)
    }

    /// Iterates all live entries in unspecified order (diagnostics).
    pub fn iter_entries(&self) -> impl Iterator<Item = &SetEntry> {
        self.entries.values() // lint:allow(hash-iteration) — order documented as unspecified
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> HpeConfig {
        HpeConfig::paper_default()
    }

    fn chain() -> PageSetChain {
        PageSetChain::new(&cfg())
    }

    fn key(set: u64) -> SetKey {
        SetKey {
            set: PageSetId(set),
            secondary: false,
        }
    }

    /// Faults all 16 pages of `set`.
    fn fault_set(c: &mut PageSetChain, set: u64) {
        for p in PageSetId(set).pages(4) {
            c.touch(p, 1, true);
        }
    }

    #[test]
    fn touch_creates_entry_in_new_partition() {
        let mut c = chain();
        c.touch(PageId(0x35), 1, true);
        assert_eq!(c.new_len(), 1);
        assert_eq!(c.old_len(), 0);
        let e = c.entry(key(3)).unwrap();
        assert_eq!(e.counter, 1);
        assert_eq!(e.bits, 1 << 5);
        assert_eq!(e.resident, 1 << 5);
    }

    #[test]
    fn hits_update_counter_but_not_bits() {
        let mut c = chain();
        c.touch(PageId(0x35), 3, false);
        let e = c.entry(key(3)).unwrap();
        assert_eq!(e.counter, 3);
        assert_eq!(e.bits, 0);
        assert_eq!(e.resident, 0);
    }

    #[test]
    fn counter_saturates_at_64() {
        let mut c = chain();
        for _ in 0..40 {
            c.touch(PageId(0x10), 3, false);
        }
        assert_eq!(c.entry(key(1)).unwrap().counter, 64);
    }

    #[test]
    fn rotation_moves_partitions() {
        let mut c = chain();
        c.touch(PageId(0x10), 1, true); // set 1 in new
        c.rotate_interval();
        assert_eq!((c.old_len(), c.middle_len(), c.new_len()), (0, 1, 0));
        c.touch(PageId(0x20), 1, true); // set 2 in new
        c.rotate_interval();
        assert_eq!((c.old_len(), c.middle_len(), c.new_len()), (1, 1, 0));
        // Touching the old entry moves it back to new.
        c.touch(PageId(0x11), 1, true);
        assert_eq!((c.old_len(), c.middle_len(), c.new_len()), (0, 1, 1));
    }

    #[test]
    fn rotation_preserves_recency_order_into_old() {
        let mut c = chain();
        c.touch(PageId(0x10), 1, true);
        c.touch(PageId(0x20), 1, true);
        c.rotate_interval();
        c.rotate_interval();
        // Old now holds sets 1 (older) then 2 (more recent).
        c.touch(PageId(0x30), 1, true);
        fault_set(&mut c, 3);
        // LRU selection from old must pick set 1 first.
        let sel = c.select_victim(StrategyKind::Lru, 0).unwrap();
        assert_eq!(sel.page.page_set(4), PageSetId(1));
        assert_eq!(sel.partition, Partition::Old);
    }

    #[test]
    fn eviction_takes_pages_in_address_order_until_set_empty() {
        let mut c = chain();
        fault_set(&mut c, 5);
        c.rotate_interval();
        c.rotate_interval();
        for i in 0..16u64 {
            let sel = c.select_victim(StrategyKind::Lru, 0).unwrap();
            assert_eq!(sel.page, PageId(0x50 + i), "eviction {i}");
        }
        // All pages evicted: entry removed.
        assert!(c.is_empty());
        assert!(c.select_victim(StrategyKind::Lru, 0).is_none());
    }

    #[test]
    fn mruc_prefers_counter_equal_set_size_from_mru() {
        let mut c = chain();
        // Three sets in old: set 1 (counter 16), set 2 (counter 64),
        // set 3 (counter 16). MRU order in old: 1 (oldest) .. 3 (newest).
        for s in [1u64, 2, 3] {
            fault_set(&mut c, s);
        }
        for _ in 0..48 {
            c.touch(PageId(0x20), 1, false);
        }
        c.rotate_interval();
        c.rotate_interval();
        let sel = c.select_victim(StrategyKind::MruC, 0).unwrap();
        // Scan from MRU: set 3 has counter 16 -> selected immediately.
        assert_eq!(sel.page.page_set(4), PageSetId(3));
        assert_eq!(sel.comparisons, 1);
    }

    #[test]
    fn mruc_falls_back_to_minimum_counter() {
        let mut c = chain();
        for s in [1u64, 2] {
            fault_set(&mut c, s);
        }
        // Push both counters above the set size: 1 -> 32, 2 -> 64.
        for p in PageSetId(1).pages(4) {
            c.touch(p, 1, false);
        }
        for _ in 0..48 {
            c.touch(PageId(0x20), 1, false);
        }
        c.rotate_interval();
        c.rotate_interval();
        let sel = c.select_victim(StrategyKind::MruC, 0).unwrap();
        assert_eq!(sel.page.page_set(4), PageSetId(1)); // min counter 32
        assert_eq!(sel.comparisons, 2); // full scan required
    }

    #[test]
    fn mruc_jump_skips_entries() {
        let mut c = chain();
        for s in 1..=4u64 {
            fault_set(&mut c, s);
        }
        c.rotate_interval();
        c.rotate_interval();
        // MRU order in old: 1, 2, 3, 4 (4 = MRU). Jump 2 skips 4 and 3.
        let sel = c.select_victim(StrategyKind::MruC, 2).unwrap();
        assert_eq!(sel.page.page_set(4), PageSetId(2));
        // Jumps wrap around the partition (100 % 4 = 0 -> MRU first).
        let sel = c.select_victim(StrategyKind::MruC, 100).unwrap();
        assert_eq!(sel.page.page_set(4), PageSetId(4));
        // A jump one short of the length reaches the LRU entry first.
        let sel = c.select_victim(StrategyKind::MruC, 3).unwrap();
        assert_eq!(sel.page.page_set(4), PageSetId(1));
    }

    #[test]
    fn partition_preference_old_middle_new() {
        let mut c = chain();
        fault_set(&mut c, 1); // will be in new
        let sel = c.select_victim(StrategyKind::Lru, 0).unwrap();
        assert_eq!(sel.partition, Partition::New);
        c.rotate_interval();
        let sel = c.select_victim(StrategyKind::Lru, 0).unwrap();
        assert_eq!(sel.partition, Partition::Middle);
        c.rotate_interval();
        let sel = c.select_victim(StrategyKind::Lru, 0).unwrap();
        assert_eq!(sel.partition, Partition::Old);
    }

    #[test]
    fn division_splits_partially_faulted_set() {
        let mut c = chain();
        // Fault only even offsets of set 7, then drive the counter to 64
        // with hits.
        for off in (0..16u32).step_by(2) {
            c.touch(PageSetId(7).page_at(4, off), 1, true);
        }
        for _ in 0..56 {
            c.touch(PageId(0x70), 1, false);
        }
        assert_eq!(c.divided_count(), 1);
        let primary_bits = c.division_of(PageSetId(7)).unwrap();
        assert_eq!(primary_bits, 0x5555);
        // An odd page now routes to the secondary entry.
        let (k, off) = c.route(PageId(0x71));
        assert!(k.secondary);
        assert_eq!(off, 1);
        c.touch(PageId(0x71), 1, true);
        assert!(c
            .entry(SetKey {
                set: PageSetId(7),
                secondary: true
            })
            .is_some());
        // Evicting everything from the primary leaves the secondary alive.
        c.rotate_interval();
        c.rotate_interval();
        let mut primary_evictions = 0;
        while let Some(sel) = c.select_victim(StrategyKind::Lru, 0) {
            if !sel.page.0 % 2 == 0 {
                break;
            }
            primary_evictions += 1;
            if primary_evictions > 32 {
                break;
            }
        }
        assert!(c.division_of(PageSetId(7)).is_some(), "history kept");
    }

    #[test]
    fn fully_faulted_set_does_not_divide() {
        let mut c = chain();
        fault_set(&mut c, 3);
        for _ in 0..48 {
            c.touch(PageId(0x30), 1, false);
        }
        assert_eq!(c.entry(key(3)).unwrap().counter, 64);
        assert_eq!(c.divided_count(), 0);
    }

    #[test]
    fn first_division_result_is_kept() {
        let mut c = chain();
        // Divide with only offset 0 faulted.
        c.touch(PageId(0x80), 1, true);
        for _ in 0..63 {
            c.touch(PageId(0x80), 1, false);
        }
        assert_eq!(c.division_of(PageSetId(8)), Some(1));
        // Evict the lone primary page; entry removed, history kept.
        let sel = c.select_victim(StrategyKind::Lru, 0).unwrap();
        assert_eq!(sel.page, PageId(0x80));
        // Re-fault more pages and saturate again: division must not change.
        c.touch(PageId(0x80), 1, true);
        c.touch(PageId(0x82), 1, true); // secondary (offset 2)
        for _ in 0..70 {
            c.touch(PageId(0x80), 1, false);
        }
        assert_eq!(c.division_of(PageSetId(8)), Some(1));
        assert_eq!(c.divided_count(), 1);
    }

    #[test]
    fn zombie_entries_are_lazily_removed() {
        let mut c = chain();
        // Hit-only entry (stale HIR record for an evicted set).
        c.touch(PageId(0x10), 2, false);
        // A live faulted set.
        fault_set(&mut c, 2);
        c.rotate_interval();
        c.rotate_interval();
        let before = c.len();
        assert_eq!(before, 2);
        let sel = c.select_victim(StrategyKind::Lru, 0).unwrap();
        assert_eq!(sel.page.page_set(4), PageSetId(2));
        // The zombie was cleaned up during the scan.
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn counter_stats_classify_counters() {
        let mut c = chain();
        fault_set(&mut c, 1); // 16 = small regular
        fault_set(&mut c, 2);
        for p in PageSetId(2).pages(4) {
            c.touch(p, 2, false);
        } // 48 = large regular
        c.touch(PageId(0x30), 5, false); // 5 = irregular
        let st = c.counter_stats();
        assert_eq!(st.regular, 2);
        assert_eq!(st.irregular, 1);
        assert_eq!(st.small_regular, 1);
        assert_eq!(st.large_regular, 1);
    }

    #[test]
    fn movement_happens_once_per_interval() {
        let mut c = chain();
        c.touch(PageId(0x10), 1, true);
        c.rotate_interval(); // set 1 in middle
        c.touch(PageId(0x11), 1, true); // moves to new
        assert_eq!(c.new_len(), 1);
        // Second touch within the interval: stays at its position in new.
        c.touch(PageId(0x20), 1, true);
        c.touch(PageId(0x12), 1, true);
        // Set 2 remains MRU of new (set 1 did not move again).
        let sel_order: Vec<SetKey> = c.new.iter().copied().collect();
        assert_eq!(sel_order[0].set, PageSetId(1));
        assert_eq!(sel_order[1].set, PageSetId(2));
    }
}
