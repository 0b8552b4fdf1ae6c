//! The reader query mix: top-k, per-tag neighbours and point lookups
//! against one acquired snapshot.

use setcorr::serve::Snapshot;
use std::hint::black_box;
use std::time::Instant;

/// Entries a top-k or neighbourhood query asks for.
const K: usize = 10;

/// Query kinds of the mix, in rotation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// Global top-k by Jaccard.
    TopK,
    /// Top-k neighbours of one tag.
    Neighbors,
    /// Coefficient of one tagset.
    Point,
}

impl Query {
    /// Every kind, in rotation order.
    pub const ALL: [Query; 3] = [Query::TopK, Query::Neighbors, Query::Point];
}

/// Small deterministic generator for picking query targets.
pub struct Picker(u64);

impl Picker {
    /// Picker seeded with `seed` (any value).
    pub fn new(seed: u64) -> Self {
        Picker(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        // xorshift64
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Run one query of `kind` against `snap` and return its latency in µs.
/// Targets are picked from the snapshot's own coefficients so neighbour
/// and point queries hit.
pub fn timed(snap: &Snapshot, kind: Query, picker: &mut Picker) -> f64 {
    let coeffs = snap.coefficients();
    let target = if coeffs.is_empty() {
        None
    } else {
        Some(&coeffs[(picker.next() % coeffs.len() as u64) as usize])
    };
    let start = Instant::now();
    match (kind, target) {
        (Query::Neighbors, Some(c)) => {
            let tag = c.tags.iter().next().expect("tracked tagsets are non-empty");
            black_box(snap.neighbors(tag, K).count());
        }
        (Query::Point, Some(c)) => {
            black_box(snap.coefficient(&c.tags).is_some());
        }
        _ => {
            black_box(snap.top_k(K).count());
        }
    }
    start.elapsed().as_secs_f64() * 1e6
}
