//! RRIP (re-reference interval prediction), frequency-priority variant,
//! enhanced with the paper's *delay field* (Section V-B).
//!
//! The paper observes that plain RRIP suffers *instant thrashing* when
//! applied to unified memory: newly migrated pages inserted with a distant
//! re-reference prediction are evicted before their imminent re-references
//! arrive. The enhancement records the global page-fault number at
//! insertion in a per-page delay field and refuses to evict a page until at
//! least `delay_threshold` faults have passed since its migration.

use std::collections::VecDeque;
use uvm_types::{PageId, PolicyStats};

use crate::{EvictionPolicy, FaultOutcome};

/// Insertion prediction for newly migrated pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RripInsertion {
    /// Insert with a *long* re-reference interval (`RRPV = max - 1`).
    /// The paper uses this for all pattern types except type II, with a
    /// delay threshold of 0.
    Long,
    /// Insert with a *distant* re-reference interval (`RRPV = max`).
    /// The paper uses this for type II (thrashing) applications, with a
    /// delay threshold of 128.
    Distant,
}

/// RRIP configuration.
///
/// # Examples
///
/// ```
/// use uvm_policies::{RripConfig, RripInsertion};
///
/// let cfg = RripConfig::for_thrashing();
/// assert_eq!(cfg.insertion, RripInsertion::Distant);
/// assert_eq!(cfg.delay_threshold, 128);
/// assert_eq!(RripConfig::default().delay_threshold, 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RripConfig {
    /// Width of the re-reference prediction value register (RRPV saturates
    /// at `2^m_bits - 1`).
    pub m_bits: u8,
    /// Insertion prediction for new pages.
    pub insertion: RripInsertion,
    /// Minimum number of page faults that must pass after a page's
    /// migration before it may be evicted (0 disables the enhancement).
    pub delay_threshold: u64,
}

impl RripConfig {
    /// The paper's configuration for type II (thrashing) applications:
    /// distant insertion, delay threshold 128.
    pub fn for_thrashing() -> Self {
        RripConfig {
            m_bits: 2,
            insertion: RripInsertion::Distant,
            delay_threshold: 128,
        }
    }
}

impl Default for RripConfig {
    /// The paper's configuration for non-thrashing patterns: long
    /// insertion, delay threshold 0.
    fn default() -> Self {
        RripConfig {
            m_bits: 2,
            insertion: RripInsertion::Long,
            delay_threshold: 0,
        }
    }
}

/// Page-table marker for a page that holds no frame (never a valid slot).
const NO_FRAME: u32 = u32::MAX;

/// One occupied frame slot. A migrated page takes the slot its victim
/// freed, as a cache fill takes the invalidated way. The victim scan
/// prefers the lowest slot, modelling hardware RRIP's scan-from-way-0 —
/// which is what makes a freshly migrated distant-RRPV page the immediate
/// next victim (the paper's "instant thrashing") while a long-RRPV one is
/// spared until aging.
#[derive(Debug, Clone, Copy)]
struct Frame {
    page: PageId,
    /// RRPV relative to the policy's global age: the page's RRPV is
    /// `min(base + age, max)`, summed with wrapping arithmetic (the true
    /// sum is never negative). Qualified frames keep the sum `<= max`.
    base: u64,
    /// Global fault number at migration (the paper's delay field).
    delay: u64,
    /// Still delay-blocked: queued in the FIFO, not yet in an RRPV set.
    blocked: bool,
}

/// A set of frame slots: one bit per slot plus one summary bit per
/// non-zero word, so the lowest member is found in a few word reads.
#[derive(Debug, Clone, Default)]
struct SlotSet {
    words: Vec<u64>,
    summary: Vec<u64>,
}

impl SlotSet {
    fn insert(&mut self, slot: u32) {
        let w = slot as usize / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
            self.summary.resize(w / 64 + 1, 0);
        }
        self.words[w] |= 1 << (slot % 64);
        self.summary[w / 64] |= 1 << (w % 64);
    }

    fn remove(&mut self, slot: u32) {
        let w = slot as usize / 64;
        self.words[w] &= !(1 << (slot % 64));
        if self.words[w] == 0 {
            self.summary[w / 64] &= !(1 << (w % 64));
        }
    }

    fn first(&self) -> Option<u32> {
        let (i, s) = self.summary.iter().enumerate().find(|(_, s)| **s != 0)?;
        let w = i * 64 + s.trailing_zeros() as usize;
        Some(w as u32 * 64 + self.words[w].trailing_zeros())
    }
}

/// RRIP-FP with the delay-field enhancement.
///
/// Hit promotion is *frequency priority*: each page-walk hit decrements the
/// page's RRPV by one. Victim selection repeatedly ages all pages (capped
/// increment of every RRPV) until some delay-qualified page reaches the
/// maximum RRPV, then evicts the lowest-slot such page (the hardware
/// scan-from-way-0 order). If every resident page is delay-blocked, the
/// page migrated longest ago goes.
///
/// The model is exact but nothing scans. Pages live in a dense table
/// indexed by frame slot, and RRPVs are stored relative to a global age,
/// so aging everything is one addition. Delay-qualified frames sit in one
/// bitset per RRPV; the victim is the lowest slot of the highest
/// non-empty set. Delay-blocked frames wait in a FIFO by migration fault
/// number and join the sets once enough faults have passed; a fault
/// number lower than the last one re-files every frame. The policy's
/// `search_comparisons` counts the modelled hardware scan, one frame per
/// resident page per selection.
///
/// Page ids index a dense table, so memory grows with the largest page id
/// seen; the simulator's page ids are dense in `0..footprint_pages`.
///
/// # Examples
///
/// ```
/// use uvm_policies::{EvictionPolicy, Rrip, RripConfig};
/// use uvm_types::PageId;
///
/// let mut rrip = Rrip::new(RripConfig::default());
/// rrip.on_fault(PageId(1), 0);
/// rrip.on_fault(PageId(2), 1);
/// rrip.on_walk_hit(PageId(1)); // 1 now predicted nearer than 2
/// assert_eq!(rrip.select_victim(), Some(PageId(2)));
/// ```
#[derive(Debug)]
pub struct Rrip {
    cfg: RripConfig,
    /// Frame records, indexed by slot; `None` for a free (or abandoned)
    /// slot. The next never-used slot is `frames.len()`.
    frames: Vec<Option<Frame>>,
    /// Page id → frame slot, `NO_FRAME` if not resident.
    page_frame: Vec<u32>,
    freed_slots: Vec<u32>,
    resident: usize,
    /// Global aging offset added to every frame's `base`.
    age: u64,
    /// Delay-qualified frames, one set per RRPV, indexed by
    /// `base mod 2^m_bits` (so a set keeps its index as the age moves).
    qualified: Vec<SlotSet>,
    /// Delay-blocked frames as `(delay, slot)`, sorted by delay. Entries
    /// whose frame has since left are skipped when reached.
    blocked: VecDeque<(u64, u32)>,
    current_fault: u64,
    stats: PolicyStats,
}

impl Rrip {
    /// Creates an RRIP policy with the given configuration.
    pub fn new(cfg: RripConfig) -> Self {
        assert!(
            cfg.m_bits >= 1 && cfg.m_bits <= 8,
            "m_bits must be in 1..=8"
        );
        Rrip {
            cfg,
            frames: Vec::new(),
            page_frame: Vec::new(),
            freed_slots: Vec::new(),
            resident: 0,
            age: 0,
            qualified: vec![SlotSet::default(); 1 << cfg.m_bits],
            blocked: VecDeque::new(),
            current_fault: 0,
            stats: PolicyStats::default(),
        }
    }

    fn rrpv_max(&self) -> u8 {
        ((1u16 << self.cfg.m_bits) - 1) as u8
    }

    fn insertion_rrpv(&self) -> u8 {
        match self.cfg.insertion {
            RripInsertion::Long => self.rrpv_max() - 1,
            RripInsertion::Distant => self.rrpv_max(),
        }
    }

    /// Number of pages the policy believes are resident.
    pub fn resident_len(&self) -> usize {
        self.resident
    }

    /// Current RRPV of `page`, if resident (test/diagnostic accessor).
    pub fn rrpv(&self, page: PageId) -> Option<u8> {
        self.frame_of(page).map(|(_, f)| self.effective(f.base))
    }

    /// The slot and record of `page`'s frame, if resident.
    fn frame_of(&self, page: PageId) -> Option<(u32, Frame)> {
        let slot = *self.page_frame.get(page.0 as usize)?;
        Some((slot, (*self.frames.get(slot as usize)?)?))
    }

    /// The RRPV a frame with this `base` has at the current age.
    fn effective(&self, base: u64) -> u8 {
        base.wrapping_add(self.age).min(u64::from(self.rrpv_max())) as u8
    }

    /// The `base` a frame of RRPV `rrpv` has at the current age.
    fn base_for(&self, rrpv: u8) -> u64 {
        u64::from(rrpv).wrapping_sub(self.age)
    }

    /// The qualified set holding frames of RRPV `rrpv`.
    fn set_for(&mut self, rrpv: u8) -> &mut SlotSet {
        let i = self.base_for(rrpv) & u64::from(self.rrpv_max());
        &mut self.qualified[i as usize]
    }

    fn qualifies(&self, delay: u64) -> bool {
        self.current_fault.saturating_sub(delay) >= self.cfg.delay_threshold
    }

    /// Files the frame in `slot` by its delay: into its RRPV set if
    /// qualified (normalising `base` to the set's range), else onto the
    /// blocked FIFO.
    fn file(&mut self, slot: u32) {
        let Some(mut f) = self.frames[slot as usize] else {
            return;
        };
        f.blocked = !self.qualifies(f.delay);
        if f.blocked {
            // Only fault numbers that go backwards land before the back.
            let at = self.blocked.partition_point(|&(delay, _)| delay <= f.delay);
            self.blocked.insert(at, (f.delay, slot));
        } else {
            let rrpv = self.effective(f.base);
            f.base = self.base_for(rrpv);
            self.set_for(rrpv).insert(slot);
        }
        self.frames[slot as usize] = Some(f);
    }

    /// Rebuilds the sets and the FIFO from scratch, for when fault
    /// numbers went backwards and qualification is no longer monotone.
    fn refile_all(&mut self) {
        self.qualified = vec![SlotSet::default(); self.qualified.len()];
        self.blocked.clear();
        for slot in 0..self.frames.len() as u32 {
            self.file(slot);
        }
    }

    /// Whether a FIFO entry still describes a blocked frame.
    fn is_queued(&self, delay: u64, slot: u32) -> bool {
        matches!(self.frames[slot as usize], Some(f) if f.blocked && f.delay == delay)
    }

    /// Moves every blocked frame whose delay has now passed into its RRPV
    /// set, and drops stale FIFO entries on the way.
    fn promote_qualified(&mut self) {
        while let Some(&(delay, slot)) = self.blocked.front() {
            if self.is_queued(delay, slot) {
                if !self.qualifies(delay) {
                    break;
                }
                self.file(slot);
            }
            self.blocked.pop_front();
        }
    }

    /// The blocked frame migrated longest ago, lowest slot first.
    fn oldest_blocked(&self) -> Option<u32> {
        let &(oldest, _) = self.blocked.front()?;
        self.blocked
            .iter()
            .take_while(|&&(delay, _)| delay == oldest)
            .filter(|&&(delay, slot)| self.is_queued(delay, slot))
            .map(|&(_, slot)| slot)
            .min()
    }

    /// Empties the frame in `slot`, returning its page.
    fn vacate(&mut self, slot: u32) -> Option<PageId> {
        let f = self.frames[slot as usize].take()?;
        if !f.blocked {
            let rrpv = self.effective(f.base);
            self.set_for(rrpv).remove(slot);
        }
        self.page_frame[f.page.0 as usize] = NO_FRAME;
        self.resident -= 1;
        Some(f.page)
    }
}

impl EvictionPolicy for Rrip {
    fn name(&self) -> String {
        format!(
            "RRIP({})",
            match self.cfg.insertion {
                RripInsertion::Long => "long",
                RripInsertion::Distant => "distant",
            }
        )
    }

    fn on_walk_hit(&mut self, page: PageId) {
        let Some((slot, mut f)) = self.frame_of(page) else {
            return;
        };
        let rrpv = self.effective(f.base);
        if rrpv == 0 {
            return;
        }
        if !f.blocked {
            self.set_for(rrpv).remove(slot);
            self.set_for(rrpv - 1).insert(slot);
        }
        f.base = self.base_for(rrpv - 1);
        self.frames[slot as usize] = Some(f);
    }

    fn on_fault(&mut self, page: PageId, fault_num: u64) -> FaultOutcome {
        let rewound = fault_num + 1 < self.current_fault;
        self.current_fault = fault_num + 1;
        // A re-fault of a resident page moves it to a fresh slot; the old
        // one is abandoned, not freed.
        if let Some((old, _)) = self.frame_of(page) {
            self.vacate(old);
        }
        let slot = self.freed_slots.pop().unwrap_or_else(|| {
            self.frames.push(None);
            self.frames.len() as u32 - 1
        });
        let idx = page.0 as usize;
        if idx >= self.page_frame.len() {
            self.page_frame.resize(idx + 1, NO_FRAME);
        }
        self.page_frame[idx] = slot;
        self.frames[slot as usize] = Some(Frame {
            page,
            base: self.base_for(self.insertion_rrpv()),
            delay: fault_num,
            blocked: false,
        });
        self.resident += 1;
        if rewound {
            self.refile_all();
        } else {
            self.file(slot);
        }
        FaultOutcome::default()
    }

    fn select_victim(&mut self) -> Option<PageId> {
        self.stats.selections += 1;
        if self.resident == 0 {
            return None;
        }
        // The modelled hardware scan reads every resident frame.
        self.stats.search_comparisons += self.resident as u64;
        self.promote_qualified();
        // Repeated aging first pushes the highest-RRPV qualified page to
        // the maximum; the scan then takes the lowest slot among those.
        let max = self.rrpv_max();
        let best = (0..=max)
            .rev()
            .find_map(|rrpv| self.set_for(rrpv).first().map(|slot| (rrpv, slot)));
        let slot = match best {
            Some((rrpv, slot)) => {
                self.age += u64::from(max - rrpv);
                slot
            }
            // Every resident page is delay-blocked: fall back to the page
            // migrated longest ago.
            None => self.oldest_blocked()?,
        };
        let victim = self.vacate(slot)?;
        self.freed_slots.push(slot);
        Some(victim)
    }

    fn stats(&self) -> PolicyStats {
        self.stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::replay;

    #[test]
    fn long_insertion_evicts_unreferenced_first() {
        let mut rrip = Rrip::new(RripConfig::default());
        for p in 0..4u64 {
            rrip.on_fault(PageId(p), p);
        }
        // Promote 0 twice, 1 once.
        rrip.on_walk_hit(PageId(0));
        rrip.on_walk_hit(PageId(0));
        rrip.on_walk_hit(PageId(1));
        // 2 and 3 still at long (= max-1); aging pushes them to max first,
        // and the lower slot (2) is scanned first.
        let v1 = rrip.select_victim().unwrap();
        let v2 = rrip.select_victim().unwrap();
        assert_eq!((v1, v2), (PageId(2), PageId(3)));
    }

    #[test]
    fn zero_threshold_exhibits_instant_thrashing() {
        // Without the delay field, a freshly migrated page at distant RRPV
        // fills the slot the scan points at and is evicted right back —
        // the pathology the paper documents.
        let mut rrip = Rrip::new(RripConfig {
            m_bits: 2,
            insertion: RripInsertion::Distant,
            delay_threshold: 0,
        });
        for p in 0..4u64 {
            rrip.on_fault(PageId(p), p);
        }
        // Steady state: evict, migrate a new page into the freed slot.
        assert_eq!(rrip.select_victim(), Some(PageId(0)));
        rrip.on_fault(PageId(100), 4);
        // The newcomer reused slot 0 at distant RRPV: instantly re-victim.
        assert_eq!(rrip.select_victim(), Some(PageId(100)));
        // With a delay threshold the same newcomer would be protected:
        let mut protected = Rrip::new(RripConfig {
            m_bits: 2,
            insertion: RripInsertion::Distant,
            delay_threshold: 3,
        });
        for p in 0..4u64 {
            protected.on_fault(PageId(p), p);
        }
        assert_eq!(protected.select_victim(), Some(PageId(0)));
        protected.on_fault(PageId(100), 4);
        assert_ne!(protected.select_victim(), Some(PageId(100)));
    }

    #[test]
    fn aging_is_applied_to_survivors() {
        let mut rrip = Rrip::new(RripConfig::default());
        rrip.on_fault(PageId(0), 0);
        rrip.on_walk_hit(PageId(0)); // rrpv 1
        rrip.on_fault(PageId(1), 1); // rrpv 2
        assert_eq!(rrip.select_victim(), Some(PageId(1))); // aging by 1
        assert_eq!(rrip.rrpv(PageId(0)), Some(2));
    }

    #[test]
    fn distant_insertion_with_delay_resists_instant_thrashing() {
        let cfg = RripConfig {
            m_bits: 2,
            insertion: RripInsertion::Distant,
            delay_threshold: 4,
        };
        let mut rrip = Rrip::new(cfg);
        for p in 0..3u64 {
            rrip.on_fault(PageId(p), p);
        }
        // Fault 3 arrives; pages 0..3 inserted at faults 0,1,2. With
        // current_fault = 3, only page 0 satisfies 3 - 0 >= 4? No — none
        // do, so the fallback evicts the oldest migration (page 0).
        rrip.on_fault(PageId(3), 3);
        assert_eq!(rrip.select_victim(), Some(PageId(0)));
    }

    #[test]
    fn delay_qualified_page_preferred_over_blocked() {
        let cfg = RripConfig {
            m_bits: 2,
            insertion: RripInsertion::Distant,
            delay_threshold: 10,
        };
        let mut rrip = Rrip::new(cfg);
        rrip.on_fault(PageId(0), 0);
        rrip.on_fault(PageId(1), 11); // current_fault = 12
                                      // Page 0: 12 - 0 >= 10 qualified. Page 1: 12 - 11 = 1 blocked.
        assert_eq!(rrip.select_victim(), Some(PageId(0)));
    }

    #[test]
    fn cyclic_sweep_with_distant_insertion_retains_subset() {
        // Distant insertion drops each newcomer into the slot the scan
        // points at, so the slot churns and the *rest of memory is
        // retained* — beating LRU's 100% post-warmup miss rate on a
        // cyclic sweep (without the delay field; the delay trades this
        // retention for protection of pages with imminent replays).
        let refs: Vec<u64> = (0..32).cycle().take(32 * 12).collect();
        let faults = replay(
            &mut Rrip::new(RripConfig {
                m_bits: 2,
                insertion: RripInsertion::Distant,
                delay_threshold: 0,
            }),
            &refs,
            24,
        );
        assert!(
            faults < 32 * 12,
            "distant RRIP should not miss every reference, got {faults}"
        );
    }

    #[test]
    fn widest_register_ages_without_wrapping() {
        // m_bits = 8: RRPV saturates at 255, and aging a blocked page that
        // already sits there must leave it at 255, not wrap it to 0.
        let mut rrip = Rrip::new(RripConfig {
            m_bits: 8,
            insertion: RripInsertion::Distant,
            delay_threshold: 5,
        });
        rrip.on_fault(PageId(1), 0);
        rrip.on_walk_hit(PageId(1));
        rrip.on_fault(PageId(2), 10);
        assert_eq!(rrip.select_victim(), Some(PageId(1)));
        assert_eq!(rrip.rrpv(PageId(2)), Some(255));
    }

    #[test]
    fn victim_none_when_empty() {
        assert_eq!(Rrip::new(RripConfig::default()).select_victim(), None);
    }

    #[test]
    #[should_panic(expected = "m_bits")]
    fn rejects_zero_width() {
        Rrip::new(RripConfig {
            m_bits: 0,
            insertion: RripInsertion::Long,
            delay_threshold: 0,
        });
    }
}
