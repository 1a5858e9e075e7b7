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

/// End-of-list marker for slot links.
const NIL: u32 = u32::MAX;

/// One table slot: an entry, its links on the partition list it is on,
/// and that list's tag.
#[derive(Debug, Clone)]
struct Slot {
    entry: SetEntry,
    /// Neighbour towards the LRU end.
    prev: u32,
    /// Neighbour towards the MRU end.
    next: u32,
    /// The partition list holding this slot; `None` for a free slot.
    list: Option<Partition>,
}

const FREE_SLOT: Slot = Slot {
    entry: SetEntry {
        key: SetKey {
            set: PageSetId(0),
            secondary: false,
        },
        counter: 0,
        bits: 0,
        resident: 0,
        divided: false,
    },
    prev: NIL,
    next: NIL,
    list: None,
};

/// An intrusive doubly-linked list threaded through the slots.
#[derive(Debug, Clone, Copy)]
struct List {
    /// LRU end.
    head: u32,
    /// MRU end.
    tail: u32,
    len: usize,
}

const EMPTY_LIST: List = List {
    head: NIL,
    tail: NIL,
    len: 0,
};

const PARTITIONS: [Partition; 3] = [Partition::Old, Partition::Middle, Partition::New];

/// The table slot of `key`: `2 * set + secondary`.
fn slot_index(key: SetKey) -> usize {
    key.set.0 as usize * 2 + usize::from(key.secondary)
}

/// The page set chain.
///
/// Entries live in a dense slot table indexed by `2 * set + secondary`,
/// and the old, middle and new partitions are intrusive lists threaded
/// through the slots, so a touch, a chain comparison and a removal are
/// array accesses. The table grows on demand, so memory grows with the
/// largest page id seen; the simulator's page ids are dense in
/// `0..footprint_pages`.
#[derive(Debug)]
pub struct PageSetChain {
    set_shift: u32,
    set_size: u32,
    counter_max: u32,
    division_enabled: bool,
    slots: Vec<Slot>,
    /// The partition lists, indexed by `Partition as usize`.
    lists: [List; 3],
    /// Number of slots holding an entry.
    live: usize,
    /// History buffer: the primary bit mask of each page set's first
    /// division, 0 for an undivided set (a recorded mask is never 0).
    divisions: Vec<u64>,
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
            slots: Vec::new(),
            lists: [EMPTY_LIST; 3],
            live: 0,
            divisions: Vec::new(),
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
        let secondary = self
            .division_of(set)
            .is_some_and(|primary_bits| primary_bits & (1u64 << offset) == 0);
        (SetKey { set, secondary }, offset)
    }

    /// Records `count` touches to `page` (Fig. 6 step 5): updates or
    /// creates the entry, moves it to the new partition's MRU position if
    /// it was in old or middle, and checks the division rule.
    pub fn touch(&mut self, page: PageId, count: u32, is_fault: bool) {
        let (key, offset) = self.route(page);
        let idx = slot_index(key);
        if idx >= self.slots.len() {
            self.slots.resize(idx + 1, FREE_SLOT);
        }
        let slot = &mut self.slots[idx];
        if slot.list.is_none() {
            slot.entry = SetEntry {
                key,
                ..FREE_SLOT.entry
            };
            self.live += 1;
        }
        let entry = &mut slot.entry;
        entry.counter = (entry.counter + count).min(self.counter_max);
        if is_fault {
            let mask = 1u64 << offset;
            entry.bits |= mask;
            entry.resident |= mask;
        }

        // Movement: old/middle -> MRU of new; entries already in new stay
        // where they are (no re-movement within an interval).
        if slot.list != Some(Partition::New) {
            self.unlink(idx);
            self.link_mru(Partition::New, idx);
        }

        // Division check (Section IV-C): when the counter saturates with
        // some pages never faulted, split the set. Only the first division
        // result is kept; secondaries never divide again.
        if self.division_enabled && !key.secondary {
            let full = self.full_mask();
            let undivided = self.division_of(key.set).is_none();
            let entry = &mut self.slots[idx].entry;
            if entry.counter >= self.counter_max
                && !entry.divided
                && undivided
                && entry.bits != full
                && entry.bits != 0
            {
                let set = key.set.0 as usize;
                if set >= self.divisions.len() {
                    self.divisions.resize(set + 1, 0);
                }
                self.divisions[set] = entry.bits;
                entry.divided = true;
                self.divided_count += 1;
            }
        }
    }

    /// Rotates the partitions at the end of an interval: middle is
    /// spliced onto old's MRU end (preserving recency order), new becomes
    /// middle.
    pub fn rotate_interval(&mut self) {
        let [mut old, middle, new] = self.lists;
        self.retag(middle.head, Partition::Old);
        self.retag(new.head, Partition::Middle);
        if middle.len > 0 {
            if old.len == 0 {
                old.head = middle.head;
            } else {
                self.slots[old.tail as usize].next = middle.head;
                self.slots[middle.head as usize].prev = old.tail;
            }
            old.tail = middle.tail;
            old.len += middle.len;
        }
        self.lists = [old, new, EMPTY_LIST];
    }

    /// Selects a victim page under `strategy` with the given MRU-C search
    /// jump, following the partition preference old → middle → new.
    /// Returns `None` only if no resident page is tracked.
    pub fn select_victim(&mut self, strategy: StrategyKind, jump: u32) -> Option<Selection> {
        for partition in PARTITIONS {
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
        let mut zombies: Vec<u32> = Vec::new();
        let list = self.lists[partition as usize];
        let chosen: Option<u32> = match strategy {
            StrategyKind::Lru => {
                let mut found = None;
                for i in self.walk(list.head, true) {
                    comparisons += 1;
                    if self.slots[i as usize].entry.resident != 0 {
                        found = Some(i);
                        break;
                    }
                    zombies.push(i);
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
                let mut exact: Option<u32> = None;
                let mut min_above: Option<(u32, u32)> = None;
                let mut min_any: Option<(u32, u32)> = None;
                let skip = if list.len == 0 {
                    0
                } else {
                    jump as usize % list.len
                };
                for i in self
                    .walk(list.tail, false)
                    .skip(skip)
                    .chain(self.walk(list.tail, false).take(skip))
                {
                    comparisons += 1;
                    let e = &self.slots[i as usize].entry;
                    if e.resident == 0 {
                        zombies.push(i);
                        continue;
                    }
                    let c = e.counter;
                    if c == self.set_size {
                        exact = Some(i);
                        break;
                    }
                    if c > self.set_size && min_above.map(|(m, _)| c < m).unwrap_or(true) {
                        min_above = Some((c, i));
                    }
                    if min_any.map(|(m, _)| c < m).unwrap_or(true) {
                        min_any = Some((c, i));
                    }
                }
                exact
                    .or(min_above.map(|(_, i)| i))
                    .or(min_any.map(|(_, i)| i))
            }
        };
        for z in zombies {
            self.remove_slot(z as usize);
        }
        let idx = chosen? as usize;
        let entry = &mut self.slots[idx].entry;
        // The chosen entry is live, so it has a resident page; HPE evicts
        // a set's pages in address order.
        let offset = entry.resident.trailing_zeros();
        entry.resident &= !(1u64 << offset);
        let page = entry.key.set.page_at(self.set_shift, offset);
        if entry.resident == 0 {
            self.remove_slot(idx);
        }
        Some(Selection {
            page,
            comparisons,
            partition,
        })
    }

    /// Slot indices from `from` along the list, towards the MRU end
    /// (`next` links) or towards the LRU end (`prev` links).
    fn walk(&self, from: u32, towards_mru: bool) -> impl Iterator<Item = u32> + '_ {
        std::iter::successors((from != NIL).then_some(from), move |&i| {
            let slot = &self.slots[i as usize];
            let n = if towards_mru { slot.next } else { slot.prev };
            (n != NIL).then_some(n)
        })
    }

    /// Tags every slot of the list starting at `head` with `partition`.
    fn retag(&mut self, head: u32, partition: Partition) {
        let mut i = head;
        while i != NIL {
            let slot = &mut self.slots[i as usize];
            slot.list = Some(partition);
            i = slot.next;
        }
    }

    /// Links slot `idx` at the MRU end of `partition`'s list.
    fn link_mru(&mut self, partition: Partition, idx: usize) {
        let list = &mut self.lists[partition as usize];
        // Slot indices fit in u32: a table of 2^32 slots cannot be
        // allocated.
        let i = idx as u32;
        let slot = &mut self.slots[idx];
        slot.prev = list.tail;
        slot.next = NIL;
        slot.list = Some(partition);
        if list.tail == NIL {
            list.head = i;
        } else {
            self.slots[list.tail as usize].next = i;
        }
        list.tail = i;
        list.len += 1;
    }

    /// Unlinks slot `idx` from the list it is on, if any, leaving its tag
    /// as is.
    fn unlink(&mut self, idx: usize) {
        let Slot {
            prev, next, list, ..
        } = self.slots[idx];
        let Some(partition) = list else {
            return;
        };
        let list = &mut self.lists[partition as usize];
        if prev == NIL {
            list.head = next;
        } else {
            self.slots[prev as usize].next = next;
        }
        if next == NIL {
            list.tail = prev;
        } else {
            self.slots[next as usize].prev = prev;
        }
        list.len -= 1;
    }

    /// Drops the entry in slot `idx` from its list and frees the slot.
    fn remove_slot(&mut self, idx: usize) {
        self.unlink(idx);
        self.slots[idx].list = None;
        self.live -= 1;
    }

    /// Counter statistics over all live entries, for classification.
    pub fn counter_stats(&self) -> CounterStats {
        let s = self.set_size;
        let mut st = CounterStats::default();
        let live = PARTITIONS
            .into_iter()
            .flat_map(|p| self.walk(self.lists[p as usize].head, true));
        for e in live.map(|i| &self.slots[i as usize].entry) {
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
        self.lists[Partition::Old as usize].len
    }

    /// Number of entries in the middle partition.
    pub fn middle_len(&self) -> usize {
        self.lists[Partition::Middle as usize].len
    }

    /// Number of entries in the new partition.
    pub fn new_len(&self) -> usize {
        self.lists[Partition::New as usize].len
    }

    /// Total number of entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the chain has no entries.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of page sets divided so far.
    pub fn divided_count(&self) -> u64 {
        self.divided_count
    }

    /// The recorded primary bit mask for `set`, if it was divided.
    pub fn division_of(&self, set: PageSetId) -> Option<u64> {
        self.divisions
            .get(set.0 as usize)
            .copied()
            .filter(|&bits| bits != 0)
    }

    /// Looks up an entry (diagnostics/tests).
    pub fn entry(&self, key: SetKey) -> Option<&SetEntry> {
        self.slots
            .get(slot_index(key))
            .filter(|s| s.list.is_some())
            .map(|s| &s.entry)
    }

    /// Iterates all live entries in ascending `(set, secondary)` order
    /// (diagnostics).
    pub fn iter_entries(&self) -> impl Iterator<Item = &SetEntry> {
        self.slots
            .iter()
            .filter(|s| s.list.is_some())
            .map(|s| &s.entry)
    }

    /// Walks the three partition lists and checks their structure: each
    /// list's walked length equals its stored length, `prev`/`next`
    /// links are symmetric, every slot's tag names the list it is on, and
    /// the live-slot count equals the sum of the list lengths.
    ///
    /// # Errors
    ///
    /// Returns a description of the first broken link, tag or count.
    pub fn check_links(&self) -> Result<(), String> {
        let mut on_lists = 0;
        for partition in PARTITIONS {
            let list = self.lists[partition as usize];
            let (mut prev, mut i, mut walked) = (NIL, list.head, 0);
            while i != NIL {
                if walked == self.slots.len() {
                    return Err(format!("{partition:?} list has a cycle"));
                }
                let slot = self
                    .slots
                    .get(i as usize)
                    .ok_or_else(|| format!("{partition:?} list links to slot {i} out of range"))?;
                if slot.list != Some(partition) {
                    return Err(format!(
                        "slot {i} on the {partition:?} list is tagged {:?}",
                        slot.list
                    ));
                }
                if slot.prev != prev {
                    return Err(format!(
                        "slot {i} on the {partition:?} list has prev {} but follows {prev}",
                        slot.prev
                    ));
                }
                (prev, i, walked) = (i, slot.next, walked + 1);
            }
            if prev != list.tail {
                return Err(format!(
                    "{partition:?} list ends at slot {prev} but its tail is {}",
                    list.tail
                ));
            }
            if walked != list.len {
                return Err(format!(
                    "{partition:?} list holds {walked} slots but stores length {}",
                    list.len
                ));
            }
            on_lists += walked;
        }
        let tagged = self.slots.iter().filter(|s| s.list.is_some()).count();
        if tagged != on_lists || self.live != on_lists {
            return Err(format!(
                "{tagged} tagged slots and live count {} but the lists hold {on_lists}",
                self.live
            ));
        }
        Ok(())
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
        // LRU evicts the primary's 8 even pages in address order, then the
        // secondary's lone page, then nothing.
        c.rotate_interval();
        c.rotate_interval();
        let evicted: Vec<u64> = std::iter::from_fn(|| c.select_victim(StrategyKind::Lru, 0))
            .map(|sel| sel.page.0)
            .collect();
        let mut expected: Vec<u64> = (0x70..0x80).step_by(2).collect();
        expected.push(0x71);
        assert_eq!(evicted, expected);
        assert!(c.is_empty());
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
    fn link_check_catches_a_broken_link_and_a_wrong_tag() {
        let mut c = chain();
        for s in 1..=3u64 {
            fault_set(&mut c, s);
        }
        c.rotate_interval();
        c.touch(PageId(0x40), 1, true);
        c.check_links().unwrap();

        // Set 2 sits between sets 1 and 3 on the middle list.
        let mid = slot_index(key(2));
        c.slots[mid].prev = NIL;
        let err = c.check_links().unwrap_err();
        assert!(err.contains("prev"), "{err}");
        c.slots[mid].prev = slot_index(key(1)) as u32;
        c.check_links().unwrap();

        c.slots[mid].list = Some(Partition::Old);
        let err = c.check_links().unwrap_err();
        assert!(err.contains("tagged Some(Old)"), "{err}");
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
        let new = c.lists[Partition::New as usize];
        let order: Vec<SetKey> = c
            .walk(new.head, true)
            .map(|i| c.slots[i as usize].entry.key)
            .collect();
        assert_eq!(order, vec![key(1), key(2)]);
    }
}
