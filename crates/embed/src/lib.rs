//! # argus-embed — deterministic text embeddings
//!
//! Approximate caching retrieves "the most similar cached prompt" via
//! embedding similarity search (§2.1). The paper uses CLIP text embeddings
//! inside a Qdrant vector database; offline we substitute a *hashed random
//! projection* embedding: each token deterministically maps to a fixed
//! pseudo-random unit direction, and a prompt embeds to the normalized sum
//! of its token directions.
//!
//! This preserves the property the system depends on — prompts sharing
//! vocabulary land close in cosine space, unrelated prompts are near
//! orthogonal — while remaining dependency-free and bit-reproducible.
//!
//! # Example
//!
//! ```
//! use argus_embed::{embed, cosine};
//! let a = embed("photo of a red apple on a table");
//! let b = embed("photo of a green apple on a table");
//! let c = embed("cyberpunk city at night, neon rain");
//! assert!(cosine(&a, &b) > cosine(&a, &c));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::LazyLock;

use argus_prompts::{fnv1a, tokens, vocab};

/// Embedding dimensionality. 64 dimensions keeps k-NN fast while making
/// unrelated-token collisions negligible for cache-retrieval purposes.
pub const DIM: usize = 64;

/// A unit-norm (or zero) prompt embedding.
#[derive(Debug, Clone, PartialEq)]
pub struct Embedding {
    v: [f32; DIM],
    /// Cached Euclidean norm of `v`. [`cosine`] is the hottest operation
    /// in the retrieval plane (every k-NN candidate pays one), and the
    /// norms of both operands are invariant — computing them once at
    /// construction, with the same expression, keeps the similarity
    /// bit-identical while cutting two of the three inner products per
    /// candidate.
    norm: f32,
}

impl Embedding {
    /// The zero embedding (produced by empty text).
    pub fn zero() -> Self {
        Embedding {
            v: [0.0; DIM],
            norm: 0.0,
        }
    }

    /// Wraps raw coordinates, caching their norm.
    fn from_array(v: [f32; DIM]) -> Self {
        let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        Embedding { v, norm }
    }

    /// The raw coordinates.
    pub fn as_slice(&self) -> &[f32] {
        &self.v
    }

    /// The raw coordinates as a fixed-size array (what the lane kernels
    /// take).
    pub fn as_array(&self) -> &[f32; DIM] {
        &self.v
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f32 {
        self.norm
    }
}

/// SplitMix64 step, used to expand a token hash into coordinates.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The fixed pseudo-random direction assigned to a token, from its
/// [`fnv1a`] hash.
fn direction(hash: u64) -> [f32; DIM] {
    let mut state = hash;
    let mut v = [0.0f32; DIM];
    for x in v.iter_mut() {
        // Map to roughly uniform in [-1, 1); distributional shape is
        // irrelevant for random projections, only independence matters.
        let bits = splitmix(&mut state);
        *x = (bits >> 11) as f32 / (1u64 << 53) as f32 * 2.0 - 1.0;
    }
    v
}

/// The directions of every token in the prompt vocabulary
/// ([`argus_prompts::vocab::phrases`]), keyed by token hash in an
/// open-addressing table. A direction depends only on its hash, so a
/// lookup returns exactly what [`direction`] would compute.
struct DirectionTable {
    /// Slot → index into `entries`, or [`DirectionTable::EMPTY`].
    slots: Vec<u32>,
    entries: Vec<(u64, [f32; DIM])>,
}

impl DirectionTable {
    const EMPTY: u32 = u32::MAX;

    fn new(hashes: impl Iterator<Item = u64>) -> Self {
        let mut hashes: Vec<u64> = hashes.collect();
        hashes.sort_unstable();
        hashes.dedup();
        let mut table = DirectionTable {
            slots: vec![Self::EMPTY; (2 * hashes.len()).next_power_of_two()],
            entries: Vec::with_capacity(hashes.len()),
        };
        for h in hashes {
            let mut i = table.home(h);
            while table.slots[i] != Self::EMPTY {
                i = (i + 1) & (table.slots.len() - 1);
            }
            table.slots[i] = table.entries.len() as u32;
            table.entries.push((h, direction(h)));
        }
        table
    }

    /// The first slot probed for `h`. A product's low bits depend only
    /// on its operands' low bits, so FNV's high half is folded in.
    fn home(&self, h: u64) -> usize {
        (h ^ (h >> 32)) as usize & (self.slots.len() - 1)
    }

    fn get(&self, h: u64) -> Option<&[f32; DIM]> {
        let mut i = self.home(h);
        loop {
            // At most half the slots are full, so the probe ends.
            let e = self.slots[i];
            if e == Self::EMPTY {
                return None;
            }
            let (key, dir) = &self.entries[e as usize];
            if *key == h {
                return Some(dir);
            }
            i = (i + 1) & (self.slots.len() - 1);
        }
    }
}

static VOCAB_DIRECTIONS: LazyLock<DirectionTable> = LazyLock::new(|| {
    DirectionTable::new(
        vocab::phrases()
            .flat_map(tokens)
            .map(|t| fnv1a(t.as_bytes())),
    )
});

/// Embeds prompt text into a unit-norm vector (zero vector for empty text).
///
/// Vocabulary tokens read their direction from a table built once;
/// any other token computes it on the fly. Directions are summed in token
/// order either way, so the result does not depend on which path a token
/// took.
pub fn embed(text: &str) -> Embedding {
    let table = &*VOCAB_DIRECTIONS;
    let mut v = [0.0f32; DIM];
    let mut empty = true;
    for t in tokens(text) {
        empty = false;
        let h = fnv1a(t.as_bytes());
        let computed;
        let dir = match table.get(h) {
            Some(dir) => dir,
            None => {
                computed = direction(h);
                &computed
            }
        };
        for (a, b) in v.iter_mut().zip(dir.iter()) {
            *a += b;
        }
    }
    if empty {
        return Embedding::zero();
    }
    let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
    Embedding::from_array(v)
}

/// Cosine similarity of two embeddings, in `[-1, 1]`; 0 if either is zero.
pub fn cosine(a: &Embedding, b: &Embedding) -> f32 {
    let dot: f32 = a.v.iter().zip(b.v.iter()).map(|(x, y)| x * y).sum();
    cosine_of_dot(dot, a.norm, b.norm)
}

/// The cosine similarity behind a dot product `dot` of vectors with
/// norms `a_norm` and `b_norm`: `dot / (a_norm * b_norm)` clamped to
/// `[-1, 1]`, and 0 when either norm is 0. [`cosine`] and [`cosines`]
/// both finish here, as do the indexes that keep norms beside lane-major
/// coordinates.
#[inline]
pub fn cosine_of_dot(dot: f32, a_norm: f32, b_norm: f32) -> f32 {
    // Both arms are computed so a lane loop can select instead of branch.
    let similarity = (dot / (a_norm * b_norm)).clamp(-1.0, 1.0);
    if a_norm == 0.0 || b_norm == 0.0 {
        0.0
    } else {
        similarity
    }
}

/// Rows scored per pass of the lane kernels ([`dot_lanes`], [`cosines`]).
pub const LANES: usize = 8;

/// The lane kernel: dot products of `query` with [`LANES`] rows, where
/// `column(d)` returns coordinate `d` of every row.
///
/// Each lane keeps its own accumulator, starts at `-0.0` and adds
/// `query[d] * row[d]` in dimension order — exactly the fold
/// `Iterator::<f32>::sum` runs over the products, so every lane is bit
/// for bit the serial `query.iter().zip(row).map(|(x, y)| x * y).sum()`.
/// Rust never contracts `acc + x * y` into a fused multiply-add. What
/// the lanes buy is independence: eight add chains in flight instead of
/// one, which the compiler keeps in vector registers.
#[inline(always)]
fn lanes(query: &[f32; DIM], column: impl Fn(usize) -> [f32; LANES]) -> [f32; LANES] {
    let mut acc = [-0.0f32; LANES];
    for (d, &q) in query.iter().enumerate() {
        let col = column(d);
        for (a, &y) in acc.iter_mut().zip(col.iter()) {
            *a += q * y;
        }
    }
    acc
}

/// Dot products of `query` with the [`LANES`] rows of a lane-major
/// block (`block[d][lane]` is coordinate `d` of row `lane`). Lane `i` is
/// bit-equal to the serial dot product of `query` with row `i`.
pub fn dot_lanes(query: &[f32; DIM], block: &[[f32; LANES]; DIM]) -> [f32; LANES] {
    lanes(query, |d| block[d])
}

/// [`cosine`] of `query` with up to [`LANES`] row-major embeddings at
/// once: lane `i < rows.len()` is bit-equal to `cosine(query, rows[i])`,
/// and the lanes past `rows.len()` are 0.
///
/// # Panics
/// Panics if `rows` holds more than [`LANES`] embeddings.
pub fn cosines(query: &Embedding, rows: &[&Embedding]) -> [f32; LANES] {
    assert!(rows.len() <= LANES, "cosines takes at most {LANES} rows");
    let mut out = [0.0f32; LANES];
    let Some(last) = rows.len().checked_sub(1) else {
        return out;
    };
    // A short batch repeats its last row into the spare lanes, so the
    // gather reads no branch per coordinate.
    let coords: [&[f32; DIM]; LANES] = std::array::from_fn(|i| &rows[i.min(last)].v);
    let dots = lanes(&query.v, |d| coords.map(|row| row[d]));
    for ((o, &dot), e) in out.iter_mut().zip(dots.iter()).zip(rows) {
        *o = cosine_of_dot(dot, query.norm, e.norm);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn embedding_is_deterministic() {
        let a = embed("a bear in a snowy forest");
        let b = embed("a bear in a snowy forest");
        assert_eq!(a, b);
    }

    #[test]
    fn embeddings_are_unit_norm() {
        let e = embed("photo of kids walking with dog");
        assert!((e.norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn empty_text_is_zero() {
        let e = embed("");
        assert_eq!(e, Embedding::zero());
        assert_eq!(e.norm(), 0.0);
        assert_eq!(cosine(&e, &embed("anything")), 0.0);
    }

    #[test]
    fn identical_texts_have_similarity_one() {
        let a = embed("black vase with white roses");
        assert!((cosine(&a, &a) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn shared_vocabulary_raises_similarity() {
        let apple1 = embed("photo of a red apple lying on a table");
        let apple2 = embed("photo of a shiny red apple on a wooden table");
        let city = embed("neon skyline rainy cyberpunk metropolis");
        assert!(cosine(&apple1, &apple2) > 0.5);
        // Disjoint token sets: only random-projection noise remains.
        assert!(cosine(&apple1, &city) < 0.35);
        assert!(cosine(&apple1, &city) < cosine(&apple1, &apple2));
    }

    #[test]
    fn word_order_is_ignored_bag_of_words() {
        let a = embed("red apple on table");
        let b = embed("table on apple red");
        assert!((cosine(&a, &b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn unrelated_tokens_are_near_orthogonal() {
        let a = embed("zyxwv");
        let b = embed("qponm");
        assert!(cosine(&a, &b).abs() < 0.35);
    }

    /// Reference embedding: the owned tokenizer and a fresh SplitMix
    /// expansion per token. The memoized [`embed`] must match it bit for
    /// bit.
    fn reference_embed(text: &str) -> Embedding {
        let tokens = argus_prompts::tokenize(text);
        if tokens.is_empty() {
            return Embedding::zero();
        }
        let mut v = [0.0f32; DIM];
        for t in &tokens {
            let dir = direction(fnv1a(t.as_bytes()));
            for (a, b) in v.iter_mut().zip(dir.iter()) {
                *a += b;
            }
        }
        let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        if norm > 0.0 {
            for x in v.iter_mut() {
                *x /= norm;
            }
        }
        Embedding::from_array(v)
    }

    fn assert_bit_equal(a: &Embedding, b: &Embedding) {
        let bits = |e: &Embedding| e.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a), bits(b));
        assert_eq!(a.norm().to_bits(), b.norm().to_bits());
    }

    #[test]
    fn vocabulary_tokens_hit_the_direction_table() {
        let table = &*VOCAB_DIRECTIONS;
        for t in vocab::phrases().flat_map(tokens) {
            let h = fnv1a(t.as_bytes());
            assert_eq!(table.get(h), Some(&direction(h)), "{t}");
        }
        assert!(table.get(fnv1a(b"zyxwv")).is_none());
    }

    #[test]
    fn memoized_embedding_matches_the_reference_on_generated_prompts() {
        let mut generator =
            argus_prompts::PromptGenerator::new(3).with_drift(argus_prompts::DriftSchedule {
                start_at: 0,
                ramp: 1,
                max_fraction: 0.5,
            });
        for p in generator.generate_batch(500) {
            assert_bit_equal(&embed(&p.text), &reference_embed(&p.text));
        }
    }

    /// The serial dot product every lane must reproduce bit for bit.
    fn serial_dot(a: &[f32; DIM], b: &[f32; DIM]) -> f32 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    /// A coordinate drawn from `r`: signed zeros often, so products of
    /// `-0.0` and all-zero rows occur, otherwise uniform in `[-1, 1)`
    /// times a power of two, so the sums round.
    fn coordinate(r: u64) -> f32 {
        match r % 6 {
            0 => 0.0,
            1 => -0.0,
            _ => {
                let unit = (r >> 11) as f32 / (1u64 << 53) as f32 * 2.0 - 1.0;
                unit * f32::powi(2.0, (r >> 3) as i32 % 9 - 4)
            }
        }
    }

    /// `n` rows from `draws` (one coordinate each), with every row whose
    /// index is in `zero_rows` set to `-0.0`/`0.0` throughout.
    fn rows_from(draws: &[u64], n: usize, zero_rows: u64) -> Vec<[f32; DIM]> {
        (0..n)
            .map(|i| {
                std::array::from_fn(|d| {
                    let x = coordinate(draws[i * DIM + d]);
                    if zero_rows >> i & 1 == 1 {
                        x.signum() * 0.0
                    } else {
                        x
                    }
                })
            })
            .collect()
    }

    /// Fills the first `rows.len()` lanes of a block (NaN elsewhere, as
    /// a partly filled block holds leftovers) and checks each against the
    /// serial sum.
    fn assert_lanes_match(query: &[f32; DIM], rows: &[[f32; DIM]]) {
        let mut block = [[f32::NAN; LANES]; DIM];
        for (lane, row) in rows.iter().enumerate() {
            for d in 0..DIM {
                block[d][lane] = row[d];
            }
        }
        let dots = dot_lanes(query, &block);
        for (lane, row) in rows.iter().enumerate() {
            assert_eq!(dots[lane].to_bits(), serial_dot(query, row).to_bits());
        }
    }

    #[test]
    fn lanes_start_at_negative_zero_like_the_serial_sum() {
        // Every product is -0.0: the serial sum is -0.0, and a lane that
        // started at +0.0 would return +0.0.
        let query = [0.0f32; DIM];
        let row = [-1.0f32; DIM];
        let serial = serial_dot(&query, &row);
        assert_eq!(serial.to_bits(), (-0.0f32).to_bits());
        let block = [[-1.0f32; LANES]; DIM];
        for lane in dot_lanes(&query, &block) {
            assert_eq!(lane.to_bits(), serial.to_bits());
        }
    }

    #[test]
    fn cosines_match_cosine_on_generated_prompts() {
        let pool: Vec<Embedding> = argus_prompts::PromptGenerator::new(9)
            .generate_batch(40)
            .iter()
            .map(|p| embed(&p.text))
            .chain([Embedding::zero()])
            .collect();
        let query = embed("photo of a red apple on a wooden table");
        for chunk in pool.chunks(LANES) {
            let rows: Vec<&Embedding> = chunk.iter().collect();
            let sims = cosines(&query, &rows);
            for (sim, e) in sims.iter().zip(chunk) {
                assert_eq!(sim.to_bits(), cosine(&query, e).to_bits());
            }
        }
    }

    proptest! {
        #[test]
        fn prop_lane_kernel_is_bit_identical_to_the_serial_sum(
            draws in proptest::collection::vec(0u64..=u64::MAX, DIM * (LANES + 1)),
            n in 0usize..=LANES,
            zero_rows in 0u64..512,
        ) {
            let rows = rows_from(&draws, LANES + 1, zero_rows);
            let query = rows[LANES];
            assert_lanes_match(&query, &rows[..n]);
        }

        #[test]
        fn prop_cosines_are_bit_identical_to_cosine(
            draws in proptest::collection::vec(0u64..=u64::MAX, DIM * (LANES + 1)),
            n in 0usize..=LANES,
            zero_rows in 0u64..512,
        ) {
            let embeddings: Vec<Embedding> = rows_from(&draws, LANES + 1, zero_rows)
                .into_iter()
                .map(Embedding::from_array)
                .collect();
            let query = &embeddings[LANES];
            let rows: Vec<&Embedding> = embeddings[..n].iter().collect();
            let sims = cosines(query, &rows);
            for (lane, &sim) in sims.iter().enumerate() {
                let want = rows.get(lane).map_or(0.0, |e| cosine(query, e));
                prop_assert_eq!(sim.to_bits(), want.to_bits());
            }
        }

        #[test]
        fn prop_memoized_embedding_is_bit_identical(
            words in "[a-z ]{0,40}",
            mixed in "[a-zA-Z0-9 ,.;!?()-]{0,60}",
            unicode in "[aZ9 ,.ÀÉéßΣσςİǅﬁ²٣Ω-]{0,40}",
        ) {
            let vocabulary = "photo of a red apple lying on a table, 4k";
            for text in [
                words.as_str(),
                mixed.as_str(),
                unicode.as_str(),
                &format!("{vocabulary} {mixed}"),
                &format!("{unicode}{vocabulary}"),
            ] {
                assert_bit_equal(&embed(text), &reference_embed(text));
            }
        }

        #[test]
        fn prop_cosine_bounded(s1 in "[a-z ]{0,60}", s2 in "[a-z ]{0,60}") {
            let c = cosine(&embed(&s1), &embed(&s2));
            prop_assert!((-1.0..=1.0).contains(&c));
        }

        #[test]
        fn prop_norm_is_unit_or_zero(s in "[a-z0-9 ]{0,80}") {
            let n = embed(&s).norm();
            prop_assert!(n == 0.0 || (n - 1.0).abs() < 1e-4);
        }
    }
}
