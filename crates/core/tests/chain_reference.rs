//! Reference-model test for the page set chain: `PageSetChain` must make
//! the same selections and hold the same entries as `RefChain`, a
//! straightforward chain built from a `HashMap` of entries and three
//! `RecencyChain` partitions.

use std::cell::Cell;
use std::collections::{BTreeSet, HashMap};

use hpe_core::{
    CounterStats, HpeConfig, PageSetChain, Partition, Selection, SetEntry, SetKey, StrategyKind,
};
use uvm_policies::chain::RecencyChain;
use uvm_types::{PageId, PageSetId};
use uvm_util::prop::{shrink_vec, Checker};
use uvm_util::Rng;

/// The page set chain kept as a map of entries plus one recency chain
/// per partition.
struct RefChain {
    set_shift: u32,
    set_size: u32,
    counter_max: u32,
    entries: HashMap<SetKey, SetEntry>,
    old: RecencyChain<SetKey>,
    middle: RecencyChain<SetKey>,
    new: RecencyChain<SetKey>,
    divisions: HashMap<PageSetId, u64>,
}

impl RefChain {
    fn new(cfg: &HpeConfig) -> Self {
        RefChain {
            set_shift: cfg.page_set_shift(),
            set_size: cfg.page_set_size,
            counter_max: cfg.counter_max,
            entries: HashMap::new(),
            old: RecencyChain::new(),
            middle: RecencyChain::new(),
            new: RecencyChain::new(),
            divisions: HashMap::new(),
        }
    }

    fn route(&self, page: PageId) -> (SetKey, u32) {
        let set = page.page_set(self.set_shift);
        let offset = page.set_offset(self.set_shift);
        let secondary = match self.divisions.get(&set) {
            Some(primary_bits) => primary_bits & (1u64 << offset) == 0,
            None => false,
        };
        (SetKey { set, secondary }, offset)
    }

    fn touch(&mut self, page: PageId, count: u32, is_fault: bool) {
        let (key, offset) = self.route(page);
        let mask = 1u64 << offset;
        let counter_max = self.counter_max;
        let full = (1u64 << self.set_size) - 1;
        let entry = self.entries.entry(key).or_insert(SetEntry {
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
        if !self.new.contains(&key) {
            self.old.remove(&key);
            self.middle.remove(&key);
            self.new.insert_mru(key);
        }
        if !key.secondary
            && entry.counter >= counter_max
            && !entry.divided
            && !self.divisions.contains_key(&key.set)
            && entry.bits != full
            && entry.bits != 0
        {
            self.divisions.insert(key.set, entry.bits);
            entry.divided = true;
        }
    }

    fn rotate_interval(&mut self) {
        let mid: Vec<SetKey> = self.middle.iter().copied().collect();
        for k in mid {
            self.old.insert_mru(k);
        }
        self.middle = std::mem::take(&mut self.new);
    }

    fn select_victim(&mut self, strategy: StrategyKind, jump: u32) -> Option<Selection> {
        [Partition::Old, Partition::Middle, Partition::New]
            .into_iter()
            .find_map(|p| self.select_from(p, strategy, jump))
    }

    fn select_from(
        &mut self,
        partition: Partition,
        strategy: StrategyKind,
        jump: u32,
    ) -> Option<Selection> {
        let chain = match partition {
            Partition::Old => &self.old,
            Partition::Middle => &self.middle,
            Partition::New => &self.new,
        };
        let order: Vec<SetKey> = match strategy {
            StrategyKind::Lru => chain.iter().copied().collect(),
            StrategyKind::MruC => {
                let skip = if chain.is_empty() {
                    0
                } else {
                    jump as usize % chain.len()
                };
                chain
                    .iter_rev()
                    .skip(skip)
                    .chain(chain.iter_rev().take(skip))
                    .copied()
                    .collect()
            }
        };
        let mut comparisons = 0u64;
        let mut zombies = Vec::new();
        let mut exact = None;
        let mut min_above: Option<(u32, SetKey)> = None;
        let mut min_any: Option<(u32, SetKey)> = None;
        for k in order {
            comparisons += 1;
            let e = &self.entries[&k];
            if e.resident == 0 {
                zombies.push(k);
                continue;
            }
            let c = e.counter;
            if strategy == StrategyKind::Lru || c == self.set_size {
                exact = Some(k);
                break;
            }
            if c > self.set_size && min_above.is_none_or(|(m, _)| c < m) {
                min_above = Some((c, k));
            }
            if min_any.is_none_or(|(m, _)| c < m) {
                min_any = Some((c, k));
            }
        }
        for z in zombies {
            self.remove_key(z);
        }
        let key = exact
            .or(min_above.map(|(_, k)| k))
            .or(min_any.map(|(_, k)| k))?;
        let entry = self.entries.get_mut(&key)?;
        let offset = entry.resident.trailing_zeros();
        entry.resident &= !(1u64 << offset);
        if entry.resident == 0 {
            self.remove_key(key);
        }
        Some(Selection {
            page: key.set.page_at(self.set_shift, offset),
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

    fn counter_stats(&self) -> CounterStats {
        let s = self.set_size;
        let mut st = CounterStats::default();
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
}

#[derive(Debug, Clone)]
enum Op {
    Touch { page: u64, count: u32, fault: bool },
    Rotate,
    SelectLru,
    SelectMruc { jump: u32 },
}

/// Page sets the cases draw from: a few low ones and a few whose pages lie
/// above 2^16, so the tables grow sparsely.
const SETS: [u64; 6] = [0, 1, 5, 0x1000, 0x1001, 0x1003];

fn gen_op(rng: &mut Rng) -> Op {
    match rng.pick_weighted(&[24, 1, 2, 2]) {
        0 => {
            let set = SETS[rng.gen_range(0usize..SETS.len())];
            // Favour the low offsets so sets saturate half-faulted and
            // divide.
            let offset = if rng.gen_bool(0.6) {
                rng.gen_range(0u64..4)
            } else {
                rng.gen_range(0u64..16)
            };
            Op::Touch {
                page: set << 4 | offset,
                count: rng.gen_range(1u32..4),
                fault: rng.gen_bool(0.3),
            }
        }
        1 => Op::Rotate,
        2 => Op::SelectLru,
        _ => Op::SelectMruc {
            jump: rng.gen_range(0u32..41),
        },
    }
}

fn entry_fields(e: &SetEntry) -> (SetKey, u32, u64, u64, bool) {
    (e.key, e.counter, e.bits, e.resident, e.divided)
}

#[test]
fn chain_matches_reference_model() {
    let divided_cases = Cell::new(0u32);
    let secondary_cases = Cell::new(0u32);
    Checker::new().cases(512).run_shrink(
        |rng| rng.gen_vec(1..600, gen_op),
        |ops| {
            shrink_vec(ops)
                .into_iter()
                .filter(|v| !v.is_empty())
                .collect()
        },
        |ops| {
            let cfg = HpeConfig::paper_default();
            let mut chain = PageSetChain::new(&cfg);
            let mut model = RefChain::new(&cfg);
            let mut touched: BTreeSet<SetKey> = BTreeSet::new();
            for (step, op) in ops.iter().enumerate() {
                match *op {
                    Op::Touch { page, count, fault } => {
                        let (key, _) = model.route(PageId(page));
                        assert_eq!(chain.route(PageId(page)), model.route(PageId(page)));
                        touched.insert(key);
                        chain.touch(PageId(page), count, fault);
                        model.touch(PageId(page), count, fault);
                    }
                    Op::Rotate => {
                        chain.rotate_interval();
                        model.rotate_interval();
                        chain.check_links().unwrap();
                    }
                    Op::SelectLru | Op::SelectMruc { .. } => {
                        let (strategy, jump) = match *op {
                            Op::SelectMruc { jump } => (StrategyKind::MruC, jump),
                            _ => (StrategyKind::Lru, 0),
                        };
                        assert_eq!(
                            chain.select_victim(strategy, jump),
                            model.select_victim(strategy, jump),
                            "selection at step {step}"
                        );
                    }
                }
                assert_eq!(
                    (chain.old_len(), chain.middle_len(), chain.new_len()),
                    (model.old.len(), model.middle.len(), model.new.len()),
                    "partition lengths at step {step}"
                );
                assert_eq!(chain.len(), model.entries.len(), "length at step {step}");
                assert_eq!(
                    chain.counter_stats(),
                    model.counter_stats(),
                    "counter stats at step {step}"
                );
                for &key in &touched {
                    assert_eq!(
                        chain.division_of(key.set),
                        model.divisions.get(&key.set).copied(),
                        "division of {:?} at step {step}",
                        key.set
                    );
                    assert_eq!(
                        chain.entry(key).map(entry_fields),
                        model.entries.get(&key).map(entry_fields),
                        "entry {key:?} at step {step}"
                    );
                }
            }
            chain.check_links().unwrap();
            // Live entries come out in ascending key order.
            let keys: Vec<SetKey> = chain.iter_entries().map(|e| e.key).collect();
            let mut expected: Vec<SetKey> = model.entries.keys().copied().collect();
            expected.sort();
            assert_eq!(keys, expected);

            if !model.divisions.is_empty() {
                divided_cases.set(divided_cases.get() + 1);
            }
            if touched.iter().any(|k| k.secondary) {
                secondary_cases.set(secondary_cases.get() + 1);
            }
        },
    );
    // The cases must reach divisions and secondary sets, or the model
    // comparison says nothing about them.
    assert!(divided_cases.get() > 0, "no case divided a page set");
    assert!(secondary_cases.get() > 0, "no case touched a secondary set");
}
