//! An arena-backed doubly-linked recency chain with O(1) operations.
//!
//! This is the building block for page-level recency policies ([`crate::Lru`])
//! and anything else that needs "move to MRU" / "pop LRU" without the
//! per-operation allocation of `LinkedList` or the O(n) shifting of a
//! `VecDeque`.

use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Node<K> {
    key: K,
    prev: usize,
    next: usize,
}

/// A recency-ordered set of keys: one end is LRU, the other MRU.
///
/// All operations are O(1) expected time.
///
/// # Examples
///
/// ```
/// use uvm_policies::chain::RecencyChain;
///
/// let mut chain = RecencyChain::new();
/// chain.insert_mru(1);
/// chain.insert_mru(2);
/// chain.insert_mru(3);
/// chain.touch(&1);                   // 1 becomes MRU
/// assert_eq!(chain.lru(), Some(&2));
/// assert_eq!(chain.pop_lru(), Some(2));
/// assert_eq!(chain.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct RecencyChain<K> {
    nodes: Vec<Node<K>>,
    map: HashMap<K, usize>,
    head: usize, // LRU end
    tail: usize, // MRU end
    free: Vec<usize>,
}

impl<K: Eq + Hash + Clone> RecencyChain<K> {
    /// Creates an empty chain.
    pub fn new() -> Self {
        RecencyChain {
            nodes: Vec::new(),
            map: HashMap::new(),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
        }
    }

    /// Number of keys in the chain.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Inserts `key` at the MRU position. Returns `false` (and moves the
    /// key to MRU) if it was already present.
    pub fn insert_mru(&mut self, key: K) -> bool {
        if self.map.contains_key(&key) {
            self.touch(&key);
            return false;
        }
        let idx = self.alloc(key.clone());
        self.map.insert(key, idx);
        self.link_at_tail(idx);
        true
    }

    /// Inserts `key` at the LRU position (bimodal/LIP-style insertion).
    /// If already present the key is *demoted* to LRU.
    pub fn insert_lru(&mut self, key: K) -> bool {
        if let Some(&idx) = self.map.get(&key) {
            if self.head != idx {
                self.unlink(idx);
                self.link_at_head(idx);
            }
            return false;
        }
        let idx = self.alloc(key.clone());
        self.map.insert(key, idx);
        self.link_at_head(idx);
        true
    }

    /// Moves `key` to the MRU position. Returns `false` if absent.
    pub fn touch(&mut self, key: &K) -> bool {
        let Some(&idx) = self.map.get(key) else {
            return false;
        };
        if self.tail == idx {
            return true;
        }
        self.unlink(idx);
        self.link_at_tail(idx);
        true
    }

    /// The LRU key, if any.
    pub fn lru(&self) -> Option<&K> {
        (self.head != NIL).then(|| &self.nodes[self.head].key)
    }

    /// The MRU key, if any.
    pub fn mru(&self) -> Option<&K> {
        (self.tail != NIL).then(|| &self.nodes[self.tail].key)
    }

    /// Removes and returns the LRU key.
    pub fn pop_lru(&mut self) -> Option<K> {
        let key = self.lru()?.clone();
        self.remove(&key);
        Some(key)
    }

    /// Removes `key`. Returns `true` if it was present.
    pub fn remove(&mut self, key: &K) -> bool {
        let Some(idx) = self.map.remove(key) else {
            return false;
        };
        self.unlink(idx);
        self.free.push(idx);
        true
    }

    /// Iterates keys from LRU to MRU.
    pub fn iter(&self) -> Iter<'_, K> {
        Iter {
            chain: self,
            idx: self.head,
            forward: true,
        }
    }

    /// Iterates keys from MRU to LRU.
    pub fn iter_rev(&self) -> Iter<'_, K> {
        Iter {
            chain: self,
            idx: self.tail,
            forward: false,
        }
    }

    fn alloc(&mut self, key: K) -> usize {
        let node = Node {
            key,
            prev: NIL,
            next: NIL,
        };
        if let Some(idx) = self.free.pop() {
            self.nodes[idx] = node;
            idx
        } else {
            self.nodes.push(node);
            self.nodes.len() - 1
        }
    }

    fn link_at_head(&mut self, idx: usize) {
        self.nodes[idx].next = self.head;
        self.nodes[idx].prev = NIL;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        } else {
            self.tail = idx;
        }
        self.head = idx;
    }

    fn link_at_tail(&mut self, idx: usize) {
        self.nodes[idx].prev = self.tail;
        self.nodes[idx].next = NIL;
        if self.tail != NIL {
            self.nodes[self.tail].next = idx;
        } else {
            self.head = idx;
        }
        self.tail = idx;
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = NIL;
    }
}

impl<K: Eq + Hash + Clone> Default for RecencyChain<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Eq + Hash + Clone> FromIterator<K> for RecencyChain<K> {
    fn from_iter<I: IntoIterator<Item = K>>(iter: I) -> Self {
        let mut chain = RecencyChain::new();
        for k in iter {
            chain.insert_mru(k);
        }
        chain
    }
}

/// Iterator over a [`RecencyChain`] in either direction.
#[derive(Debug)]
pub struct Iter<'a, K> {
    chain: &'a RecencyChain<K>,
    idx: usize,
    forward: bool,
}

impl<'a, K> Iterator for Iter<'a, K> {
    type Item = &'a K;

    fn next(&mut self) -> Option<&'a K> {
        if self.idx == NIL {
            return None;
        }
        let node = &self.chain.nodes[self.idx];
        self.idx = if self.forward { node.next } else { node.prev };
        Some(&node.key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvm_util::prop::{shrink_vec, Checker};

    #[test]
    fn basic_order() {
        let mut c: RecencyChain<u32> = (0..5).collect();
        assert_eq!(c.len(), 5);
        assert_eq!(c.lru(), Some(&0));
        assert_eq!(c.mru(), Some(&4));
        c.touch(&0);
        assert_eq!(c.lru(), Some(&1));
        assert_eq!(c.mru(), Some(&0));
        let order: Vec<u32> = c.iter().copied().collect();
        assert_eq!(order, vec![1, 2, 3, 4, 0]);
    }

    #[test]
    fn reverse_iteration_mirrors_forward() {
        let mut c: RecencyChain<u32> = (0..6).collect();
        c.touch(&2);
        let fwd: Vec<u32> = c.iter().copied().collect();
        let mut rev: Vec<u32> = c.iter_rev().copied().collect();
        rev.reverse();
        assert_eq!(fwd, rev);
        assert_eq!(c.iter_rev().next(), Some(&2)); // MRU first
    }

    #[test]
    fn reinsert_moves_to_mru() {
        let mut c: RecencyChain<u32> = (0..3).collect();
        assert!(!c.insert_mru(0));
        assert_eq!(c.mru(), Some(&0));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn remove_middle_and_reuse_slot() {
        let mut c: RecencyChain<u32> = (0..3).collect();
        assert!(c.remove(&1));
        assert!(!c.remove(&1));
        assert_eq!(c.iter().copied().collect::<Vec<_>>(), vec![0, 2]);
        c.insert_mru(9);
        assert_eq!(c.iter().copied().collect::<Vec<_>>(), vec![0, 2, 9]);
        // The freed arena slot was reused: no growth beyond 3 nodes.
        assert_eq!(c.nodes.len(), 3);
    }

    #[test]
    fn pop_lru_drains_in_order() {
        let mut c: RecencyChain<u32> = (0..4).collect();
        let drained: Vec<u32> = std::iter::from_fn(|| c.pop_lru()).collect();
        assert_eq!(drained, vec![0, 1, 2, 3]);
        assert!(c.is_empty());
        assert_eq!(c.lru(), None);
        assert_eq!(c.mru(), None);
        assert_eq!(c.pop_lru(), None);
    }

    #[test]
    fn insert_lru_places_and_demotes() {
        let mut c: RecencyChain<u32> = (0..3).collect();
        assert!(c.insert_lru(9));
        assert_eq!(c.lru(), Some(&9));
        // Demoting an existing MRU key to LRU.
        assert!(!c.insert_lru(2));
        assert_eq!(c.lru(), Some(&2));
        assert_eq!(c.iter().copied().collect::<Vec<_>>(), vec![2, 9, 0, 1]);
        // Into an empty chain.
        let mut e: RecencyChain<u32> = RecencyChain::new();
        e.insert_lru(5);
        assert_eq!(e.lru(), Some(&5));
        assert_eq!(e.mru(), Some(&5));
    }

    #[test]
    fn touch_absent_returns_false() {
        let mut c: RecencyChain<u32> = RecencyChain::new();
        assert!(!c.touch(&7));
        c.insert_mru(7);
        assert!(c.touch(&7));
    }

    /// Reference model: a Vec where the last element is MRU.
    #[derive(Default)]
    struct Model(Vec<u16>);

    impl Model {
        fn insert_mru(&mut self, k: u16) {
            self.0.retain(|&x| x != k);
            self.0.push(k);
        }
        fn insert_lru(&mut self, k: u16) {
            self.0.retain(|&x| x != k);
            self.0.insert(0, k);
        }
        fn touch(&mut self, k: u16) {
            if self.0.contains(&k) {
                self.insert_mru(k);
            }
        }
        fn remove(&mut self, k: u16) {
            self.0.retain(|&x| x != k);
        }
        fn pop_lru(&mut self) -> Option<u16> {
            if self.0.is_empty() {
                None
            } else {
                Some(self.0.remove(0))
            }
        }
    }

    #[test]
    fn matches_vec_model() {
        Checker::new().run_shrink(
            |rng| {
                rng.gen_vec(0..400, |r| {
                    (r.gen_range(0u16..5) as u8, r.gen_range(0u16..24))
                })
            },
            shrink_vec,
            |ops| {
                let mut chain = RecencyChain::new();
                let mut model = Model::default();
                for &(op, k) in ops {
                    match op {
                        0 => {
                            chain.insert_mru(k);
                            model.insert_mru(k);
                        }
                        1 => {
                            chain.touch(&k);
                            model.touch(k);
                        }
                        2 => {
                            chain.remove(&k);
                            model.remove(k);
                        }
                        4 => {
                            chain.insert_lru(k);
                            model.insert_lru(k);
                        }
                        _ => {
                            assert_eq!(chain.pop_lru(), model.pop_lru());
                        }
                    }
                    assert_eq!(chain.len(), model.0.len());
                    assert_eq!(chain.iter().copied().collect::<Vec<_>>(), model.0);
                }
            },
        );
    }
}
