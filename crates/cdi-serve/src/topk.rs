//! K-way merge of per-shard top-K lists.
//!
//! Each shard answers "my k worst targets" from its own accumulator table;
//! the service merges those N sorted lists into the global k worst. The
//! merge is a classic heap-of-heads: `O(N + k log N)` comparisons instead
//! of re-sorting the concatenation, which is what the `topk_merge` bench
//! measures against fleet size.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use cdi_core::event::Target;

/// The one top-K order, shared by the shards' select and the merge:
/// `a > b` when `a` ranks first — higher score by `total_cmp`, ties to the
/// smaller target.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ranked {
    pub(crate) score: f64,
    pub(crate) target: Target,
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ranked {}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score.total_cmp(&other.score).then_with(|| other.target.cmp(&self.target))
    }
}

/// Merge descending-sorted `(target, score)` lists into the global top
/// `k`, preserving the shards' order: score descending, ties by target.
pub fn merge_top_k(lists: &[Vec<(Target, f64)>], k: usize) -> Vec<(Target, f64)> {
    // A max-heap of list heads: rank, then the lower list index for full
    // determinism, then the head's position in its list.
    let mut heap = BinaryHeap::with_capacity(lists.len());
    for (li, list) in lists.iter().enumerate() {
        if let Some(&(target, score)) = list.first() {
            heap.push((Ranked { score, target }, Reverse(li), 0));
        }
    }
    let mut out = Vec::with_capacity(k.min(lists.iter().map(Vec::len).sum()));
    while out.len() < k {
        let Some((head, Reverse(li), pos)) = heap.pop() else { break };
        out.push((head.target, head.score));
        if let Some(&(target, score)) = lists[li].get(pos + 1) {
            heap.push((Ranked { score, target }, Reverse(li), pos + 1));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(id: u64) -> Target {
        Target::Vm(id)
    }

    #[test]
    fn merges_sorted_lists_globally() {
        let lists = vec![
            vec![(t(1), 0.9), (t(4), 0.4)],
            vec![(t(2), 0.7), (t(5), 0.1)],
            vec![(t(3), 0.8)],
        ];
        let top = merge_top_k(&lists, 3);
        assert_eq!(top.iter().map(|x| x.0).collect::<Vec<_>>(), vec![t(1), t(3), t(2)]);
    }

    #[test]
    fn k_larger_than_total_returns_everything() {
        let lists = vec![vec![(t(1), 0.5)], vec![], vec![(t(2), 0.3)]];
        let top = merge_top_k(&lists, 10);
        assert_eq!(top.len(), 2);
    }

    #[test]
    fn ties_break_by_target_order() {
        let lists = vec![vec![(t(9), 0.5)], vec![(t(2), 0.5)], vec![(t(5), 0.5)]];
        let top = merge_top_k(&lists, 3);
        assert_eq!(top.iter().map(|x| x.0).collect::<Vec<_>>(), vec![t(2), t(5), t(9)]);
    }

    #[test]
    fn nan_scores_sort_last_not_first() {
        // total_cmp puts NaN above +inf in descending order? No: total_cmp
        // orders +NaN greatest, so a NaN head would merge first — the
        // shards never produce NaN (cdi() is a ratio of finite integrals),
        // but the merge must still terminate and include every element.
        let lists = vec![vec![(t(1), f64::NAN)], vec![(t(2), 0.5)]];
        let top = merge_top_k(&lists, 2);
        assert_eq!(top.len(), 2);
    }
}
