//! The hasher of the integer-keyed maps on the per-edge path.
//!
//! Every arriving edge looks up two vertices and an edge id in the graph, a
//! dispatch list by edge type, a lazy-bitmap row per endpoint and — per
//! stored partial match — a join key in the match store, three times. The
//! keys are one to six machine words, so SipHash's fixed set-up and
//! finalisation rounds are most of each lookup. [`FastHasher`] spends one
//! folded 64×64→128 multiply per word instead, and one more to finish.
//!
//! Vertex ids come from the stream, so bucket placement must stay
//! unpredictable to whoever writes it: both the initial state and the
//! multiplier are secret seeds, drawn once per process from the same
//! OS-seeded source as `std`'s `RandomState`.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// A `HashMap` on the [`FastHasher`]; construct with `FastMap::default()`.
pub type FastMap<K, V> = HashMap<K, V, FastState>;

/// The two process-wide seeds: the initial state, which is also the
/// finishing multiplier, and the per-word multiplier. Both are forced odd —
/// non-zero, and an odd multiplier keeps the low product word a bijection of
/// its other factor.
fn seeds() -> [u64; 2] {
    static SEEDS: OnceLock<[u64; 2]> = OnceLock::new();
    *SEEDS.get_or_init(|| {
        // Every `RandomState::new()` carries different keys; its hash of the
        // empty input is a 64-bit draw from them.
        let draw = || RandomState::new().build_hasher().finish() | 1;
        [draw(), draw()]
    })
}

/// The [`BuildHasher`] of a [`FastMap`]: a copy of the process seeds, so
/// every map of one process places a key identically and building a hasher
/// is two register moves.
#[derive(Debug, Clone, Copy)]
pub struct FastState {
    seeds: [u64; 2],
}

impl Default for FastState {
    fn default() -> Self {
        Self { seeds: seeds() }
    }
}

impl BuildHasher for FastState {
    type Hasher = FastHasher;

    #[inline]
    fn build_hasher(&self) -> FastHasher {
        FastHasher {
            state: self.seeds[0],
            seeds: self.seeds,
        }
    }
}

/// The 64×64→128 multiply, folded: high word XOR low word. The fold carries
/// every bit of `a` into both ends of the result.
#[inline]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    product as u64 ^ (product >> 64) as u64
}

/// A seeded word hasher: each written word is XORed into the state, which
/// is then fold-multiplied by one secret seed; `finish` fold-multiplies once
/// more, by the other. `HashMap` reads its slot index off the low bits and
/// its control byte off the top seven, and one multiply by a *random*
/// multiplier does not serve both for every seed: over 20 000 seed pairs,
/// about one in a hundred put five times the mean — the worst 43 times — of
/// some structured key family (dense ids, multiples of 2^31) into one of 128
/// slots. With the finishing multiply the worst slot of every family in the
/// tests stayed within 2.4 times the mean over the same pairs.
#[derive(Debug, Clone, Copy)]
pub struct FastHasher {
    state: u64,
    seeds: [u64; 2],
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        folded_multiply(self.state, self.seeds[0])
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.state = folded_multiply(self.state ^ word, self.seeds[1]);
    }

    #[inline]
    fn write_u8(&mut self, word: u8) {
        self.write_u64(u64::from(word));
    }

    #[inline]
    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    #[inline]
    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    #[inline]
    fn write_isize(&mut self, word: isize) {
        self.write_u64(word as u64);
    }

    /// Byte strings, eight bytes per word with a zero-padded tail (`str`
    /// and slice keys write their own terminator / length prefix).
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{EdgeType, VertexId};

    /// Asserts that `keys` spread over a `slots`-slot table under both the
    /// bits `HashMap` indexes with (the low ones) and the ones it tags with
    /// (the top seven): no slot holds more than four times the mean.
    fn assert_spread(
        state: FastState,
        what: &str,
        keys: impl Iterator<Item = u64> + Clone,
        slots: usize,
    ) {
        assert!(slots.is_power_of_two() && slots <= 128);
        let n = keys.clone().count();
        assert!(n / slots >= 16, "{what}: too few keys per slot to judge");
        for (bits, shift) in [("low", 0), ("top", 57)] {
            let mut histogram = vec![0usize; slots];
            for k in keys.clone() {
                let h = state.hash_one(VertexId(k)) >> shift;
                histogram[h as usize & (slots - 1)] += 1;
            }
            let worst = *histogram.iter().max().unwrap();
            assert!(
                worst <= 4 * n / slots,
                "{what}: a {bits}-bit slot holds {worst} of {n} keys over {slots} slots"
            );
        }
    }

    #[test]
    fn structured_keys_spread_over_low_and_top_bits() {
        // This process's seeds, and a pair under which a single multiply
        // puts 43 times the mean of the multiples of 2^31 into one slot.
        let weak_multiplier = FastState {
            seeds: [0xf242_dece_bdc7_7f45, 0xd601_4273_ffff_a0bb],
        };
        for state in [FastState::default(), weak_multiplier] {
            assert_spread(state, "dense ids", 0..8192, 128);
            for k in [1, 4, 12, 16, 20, 31, 32] {
                let keys = (0..8192).map(|i| i << k);
                assert_spread(state, &format!("multiples of 2^{k}"), keys, 128);
            }
            // Only 256 such keys exist, so the table is smaller.
            assert_spread(state, "top byte only", (0..256).map(|i| i << 56), 16);
            let keys = (0..256).map(|i| i << 56 | 0xabcdef);
            assert_spread(state, "top byte over a fixed body", keys, 16);
        }
    }

    #[test]
    fn narrow_words_hash_like_their_widened_value() {
        let state = FastState::default();
        assert_eq!(state.hash_one(7u32), state.hash_one(7u64));
        assert_eq!(state.hash_one(7u8), state.hash_one(7usize));
        assert_eq!(state.hash_one(EdgeType(7)), state.hash_one(VertexId(7)));
        assert_ne!(state.hash_one(7u64), state.hash_one(8u64));
        // Byte strings go word by word; the order of the words matters.
        assert_ne!(
            state.hash_one("0123456789ab"),
            state.hash_one("89ab01234567")
        );
        assert_eq!(
            state.hash_one("0123456789ab"),
            state.hash_one("0123456789ab")
        );
    }

    #[test]
    fn seeds_are_nonzero_and_shared_by_every_map_of_the_process() {
        let (a, b) = (
            FastMap::<u64, u64>::default(),
            FastMap::<VertexId, ()>::default(),
        );
        assert_eq!(a.hasher().seeds, b.hasher().seeds);
        assert_eq!(a.hasher().seeds, seeds());
        assert!(seeds().iter().all(|&s| s != 0));
        assert_ne!(seeds()[0], seeds()[1]);
        // A map built on another thread sees the same seeds.
        let other = std::thread::spawn(|| FastMap::<u64, u64>::default().hasher().seeds)
            .join()
            .unwrap();
        assert_eq!(other, seeds());
    }

    #[test]
    fn fast_map_round_trips_clone_and_default() {
        let mut map = FastMap::<VertexId, u64>::default();
        assert!(map.is_empty());
        for i in 0..1000u64 {
            map.insert(VertexId(i << 20), i);
        }
        let copy = map.clone();
        assert_eq!(copy, map);
        assert_eq!(copy.hasher().seeds, map.hasher().seeds);
        assert!((0..1000u64).all(|i| copy.get(&VertexId(i << 20)) == Some(&i)));
        assert_eq!(copy.get(&VertexId(1)), None);
    }
}
