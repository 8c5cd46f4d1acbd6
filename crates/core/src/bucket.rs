//! A bucket queue for the unit-weight settles of IncKWS (§4.2, Fig. 3) and
//! IncRPQ (§5.2, Fig. 5).
//!
//! Both settle distances smallest first, and every relaxation made while
//! settling distance `d` offers `d + 1`. A queue with one bucket per
//! distance then needs no heap: it walks the buckets upward. Sorting a
//! bucket when it becomes current makes the pops exactly the sequence a
//! `BinaryHeap<Reverse<(u32, K)>>` would give on the same pushes — stale
//! entries included, since equal entries are identical — so the settle
//! order, and everything it decides (`WorkStats`, `mpre` lists, `next`
//! pointers), is the heap's.

/// A min-queue of `(distance, key)` pairs that pops in the order
/// `BinaryHeap<Reverse<(u32, K)>>` would.
///
/// The contract:
/// - pushes made before the first pop may use any distance;
/// - after the first pop, every push must be at a distance above the last
///   popped one (checked by a `debug_assert`);
/// - [`clear`](Self::clear) starts over.
///
/// Memory: bucket `d` holds the keys queued at distance `d`, so the table
/// is as long as the largest distance ever pushed — never sized by |V|.
/// `clear` keeps every bucket's capacity, so a queue kept beside a view
/// amortizes its allocations across commits.
#[derive(Debug, Clone)]
pub struct BucketQueue<K> {
    /// `buckets[d]`: the keys queued at distance `d`. The current bucket is
    /// sorted descending, so its smallest key pops off the back.
    buckets: Vec<Vec<K>>,
    /// Before the first pop, the least distance pushed; after it, the
    /// distance being settled. No queued key sits below it.
    cur: usize,
    /// True once the first pop has sorted the current bucket.
    settling: bool,
    /// Number of queued keys.
    len: usize,
}

impl<K> Default for BucketQueue<K> {
    fn default() -> Self {
        BucketQueue {
            buckets: Vec::new(),
            cur: 0,
            settling: false,
            len: 0,
        }
    }
}

impl<K: Ord + Copy> BucketQueue<K> {
    /// Queue `key` at distance `d`.
    pub fn push(&mut self, d: u32, key: K) {
        let d = d as usize;
        if self.settling {
            debug_assert!(
                d > self.cur,
                "bucket queue: push at {d}, at or below the distance it settles ({})",
                self.cur
            );
        } else if self.len == 0 || d < self.cur {
            self.cur = d;
        }
        if d >= self.buckets.len() {
            self.buckets.resize_with(d + 1, Vec::new);
        }
        self.buckets[d].push(key);
        self.len += 1;
    }

    /// Remove and return the smallest `(distance, key)`.
    pub fn pop(&mut self) -> Option<(u32, K)> {
        if self.len == 0 {
            return None;
        }
        if !self.settling {
            self.settling = true;
            self.sort_current();
        }
        loop {
            if let Some(key) = self.buckets[self.cur].pop() {
                self.len -= 1;
                return Some((self.cur as u32, key));
            }
            // Some key is queued, and none below `cur`: it is further up.
            self.cur += 1;
            self.sort_current();
        }
    }

    /// True when no key is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drop every queued key and lift the push restriction; the buckets
    /// keep their capacity.
    pub fn clear(&mut self) {
        if self.len > 0 {
            self.buckets.iter_mut().for_each(Vec::clear);
        }
        self.cur = 0;
        self.settling = false;
        self.len = 0;
    }

    fn sort_current(&mut self) {
        self.buckets[self.cur].sort_unstable_by(|a, b| b.cmp(a));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The same pushes into a bucket queue and a heap; pops compared one by
    /// one as they interleave with further pushes.
    struct Twin {
        queue: BucketQueue<(u32, u16)>,
        heap: BinaryHeap<Reverse<(u32, (u32, u16))>>,
    }

    impl Twin {
        fn new() -> Self {
            Twin {
                queue: BucketQueue::default(),
                heap: BinaryHeap::new(),
            }
        }

        fn push(&mut self, d: u32, key: (u32, u16)) {
            self.queue.push(d, key);
            self.heap.push(Reverse((d, key)));
        }

        fn pop(&mut self) -> Option<(u32, (u32, u16))> {
            let popped = self.queue.pop();
            assert_eq!(popped, self.heap.pop().map(|Reverse(e)| e));
            assert_eq!(self.queue.is_empty(), self.heap.is_empty());
            popped
        }

        fn clear(&mut self) {
            self.queue.clear();
            self.heap.clear();
            assert!(self.queue.is_empty() && self.pop().is_none());
        }
    }

    #[test]
    fn pops_the_heap_sequence() {
        let mut rng = StdRng::seed_from_u64(27);
        // One queue across every case: each starts from a `clear`, some of
        // them with keys left from a case abandoned half-settled.
        let mut t = Twin::new();
        for case in 0..600 {
            t.clear();
            // A narrow key range repeats keys at a distance, and the
            // repeats include exact duplicates (stale entries).
            let keys = [1u32, 3, 40][case % 3];
            let key = |rng: &mut StdRng| (rng.gen_range(0..keys), rng.gen_range(0..2u16));
            let far = [0u32, 2, 30, 500][case % 4];
            for _ in 0..rng.gen_range(0..60usize) {
                let d = rng.gen_range(0..=far);
                t.push(d, key(&mut rng));
            }
            let abandon_after = rng.gen_bool(0.2).then(|| rng.gen_range(0..40usize));
            let mut pops = 0;
            while let Some((d, _)) = t.pop() {
                pops += 1;
                if abandon_after == Some(pops) {
                    break;
                }
                // 0.8 pushes per pop on average, stopping at a horizon as a
                // bound `b` stops relaxations: every case drains.
                if d < far + 8 && rng.gen_bool(0.4) {
                    for _ in 0..rng.gen_range(1..4usize) {
                        t.push(d + 1, key(&mut rng));
                    }
                }
            }
        }
    }

    #[test]
    fn empty_and_one_bucket() {
        let mut t = Twin::new();
        assert!(t.pop().is_none());
        for key in [(5, 0), (2, 1), (5, 0), (9, 0), (2, 0)] {
            t.push(7, key);
        }
        while t.pop().is_some() {}
        assert!(t.pop().is_none(), "drained stays drained");
    }

    #[test]
    fn a_cleared_queue_keeps_its_buckets() {
        let mut q = BucketQueue::default();
        q.push(9, 1u32);
        q.push(4, 2);
        assert_eq!(q.pop(), Some((4, 2)));
        q.clear();
        assert!(q.is_empty() && q.buckets.len() == 10);
        assert!(q.buckets[9].capacity() > 0);
        // Settling 4 restricted pushes to 5 and up; after `clear` any goes.
        q.push(0, 3);
        assert_eq!((q.pop(), q.pop()), (Some((0, 3)), None));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "at or below the distance it settles")]
    fn a_push_at_the_settling_distance_trips_the_assertion() {
        let mut q = BucketQueue::default();
        q.push(3, 1u32);
        q.push(5, 2);
        assert_eq!(q.pop(), Some((3, 1)));
        q.push(3, 0);
    }
}
