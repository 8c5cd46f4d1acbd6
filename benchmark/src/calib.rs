//! Drift correction. On a shared box the memory system's speed wanders with
//! the neighbours: a CPU-bound loop repeats within ±1 % over minutes, while
//! anything that chases pointers or probes hash sets — all of this engine —
//! runs 5–20 % slower for tens of seconds at a time. The wander is slow and
//! multiplicative, so a fixed piece of work timed *beside* a measurement
//! tells how fast the machine was just then.
//!
//! [`Reference`] is that fixed work. It is the benchmark's own code over the
//! benchmark's own data (no engine crate is involved, so an engine change can
//! never move it): breadth-first searches over an adjacency list, a hash-set
//! build and probe, and an allocation-heavy clone — the memory behaviour of
//! graph algorithms. The runner samples it at fixed points of every round and
//! scales each wall time by `NOMINAL ÷ (mean of the two samples around it)`,
//! i.e. reports the time the work would have taken with the machine in its
//! nominal state. In a noisy stretch this took the run-to-run spread of the
//! median commit from 17 % to 3 % (README, "Repeatability").

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};
use std::time::Instant;

/// What one [`Reference::sample`] takes on the quiet 2.1 GHz box the
/// benchmark was sized on. Corrected times are times "at this speed".
pub const NOMINAL_S: f64 = 0.0125;

const NODES: usize = 24_000;
const DEGREE: usize = 9;
const SEARCHES: u32 = 6;

/// Multiply-rotate hasher (so the kernel does not depend on `std`'s
/// randomly keyed default, nor on the engine's `FxHasher`).
#[derive(Default)]
struct Mix(u64);

impl Hasher for Mix {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(b as u32);
        }
    }

    fn write_u32(&mut self, x: u32) {
        self.0 = (self.0.rotate_left(5) ^ x as u64).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// The fixed reference work and its (constant) data.
pub struct Reference {
    adjacency: Vec<Vec<u32>>,
    edges: Vec<(u32, u32)>,
    visited: Vec<u32>,
    search: u32,
}

impl Default for Reference {
    fn default() -> Self {
        Reference::new()
    }
}

impl Reference {
    /// A fixed random digraph (24 000 nodes, out-degree 9) from a constant
    /// xorshift stream: the same data in every run on every machine.
    pub fn new() -> Reference {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut adjacency: Vec<Vec<u32>> = vec![Vec::new(); NODES];
        let mut edges = Vec::with_capacity(NODES * DEGREE);
        for (u, out) in adjacency.iter_mut().enumerate() {
            for _ in 0..DEGREE {
                let w = (next() % NODES as u64) as u32;
                out.push(w);
                edges.push((u as u32, w));
            }
        }
        Reference {
            adjacency,
            edges,
            visited: vec![0; NODES],
            search: 0,
        }
    }

    /// Do the fixed work once; returns the seconds it took.
    pub fn sample(&mut self) -> f64 {
        let start = Instant::now();
        let mut sink = 0u64;
        for s in 0..SEARCHES {
            self.search += 1;
            let root = s * 997 % NODES as u32;
            let mut queue = vec![root];
            self.visited[root as usize] = self.search;
            let mut head = 0;
            while head < queue.len() {
                for &w in &self.adjacency[queue[head] as usize] {
                    if self.visited[w as usize] != self.search {
                        self.visited[w as usize] = self.search;
                        queue.push(w);
                    }
                }
                head += 1;
            }
            sink += queue.len() as u64;
        }
        let mut set: HashSet<(u32, u32), BuildHasherDefault<Mix>> = HashSet::default();
        set.extend(self.edges.iter().copied());
        for &(u, w) in &self.edges {
            sink += set.contains(&(w, u)) as u64;
        }
        sink += self.adjacency.clone().len() as u64;
        std::hint::black_box(sink);
        start.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_work_is_fixed() {
        let (mut a, mut b) = (Reference::new(), Reference::new());
        assert_eq!(a.edges, b.edges);
        assert_eq!(a.edges.len(), NODES * DEGREE);
        assert!(a.sample() > 0.0 && b.sample() > 0.0);
        // Sampling leaves the data as it was (only the visit stamps move).
        assert_eq!(a.adjacency, Reference::new().adjacency);
    }
}
