//! A fixed reference workload, timed right after every untraced
//! repetition, that factors the host's speed out of the end-to-end times.
//!
//! On a shared host, neighbours slow whole stretches of a run for seconds
//! to minutes, by up to 1.8x, and a slow stretch can last longer than a
//! run. No statistic over one run's repetitions removes that. The
//! reference shares no code with the simulator, so a change to the
//! simulator leaves it alone, while a slow host slows both: a repetition's
//! host times are scaled by [`NOMINAL_S`] over the reference's time next
//! to it. `README.md`, "Steadiness and bounds", gives the measurements.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Random keys sorted, 1.6 MB of them.
const SORTED: usize = 200_000;

/// Map inserts, and the key range they and the lookups draw from.
const INSERTS: u64 = 60_000;
const KEYS: u64 = 100_000;

/// Map lookups.
const LOOKUPS: u64 = 200_000;

/// The reference's time on the 2-vCPU Xeon host the bounds were set on,
/// in its uncontended phases, seconds. It only sets the scale: host times
/// are reported as if every repetition had run next to a reference that
/// took this long.
pub const NOMINAL_S: f64 = 0.025;

/// The reference: sorts [`SORTED`] keys from a fixed SplitMix64 stream,
/// then inserts into and looks up in a `BTreeMap`, a mix of allocation,
/// branches and cache misses like the simulator's. Of the candidates
/// tried, it tracked the simulator's slow stretches closest. Returns a
/// checksum that is the same on every call.
#[must_use]
pub fn work() -> u64 {
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut keys: Vec<u64> = (0..SORTED).map(|_| next()).collect();
    keys.sort_unstable();
    let mut map = BTreeMap::new();
    for i in 0..INSERTS {
        map.insert(next() % KEYS, i);
    }
    let found = (0..LOOKUPS)
        .filter_map(|i| map.get(&(i % KEYS)))
        .fold(0u64, |sum, &v| sum.wrapping_add(v));
    found ^ keys[SORTED / 2]
}

/// Host seconds one run of [`work`] takes now.
#[must_use]
pub fn seconds() -> f64 {
    let started = Instant::now();
    black_box(work());
    started.elapsed().as_secs_f64()
}
