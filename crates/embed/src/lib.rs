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
    if a.norm == 0.0 || b.norm == 0.0 {
        0.0
    } else {
        (dot / (a.norm * b.norm)).clamp(-1.0, 1.0)
    }
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

    proptest! {
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
