//! # argus-prompts — synthetic DiffusionDB-like prompt stream
//!
//! The paper drives every experiment with 10 k real prompts from
//! DiffusionDB [76], preserving arrival order. That dataset is not available
//! offline, so this crate synthesizes an equivalent stream: compositional
//! prompts ("{style} of {subject} {relation} {subject}, {modifiers}") drawn
//! from a themed vocabulary, each carrying a latent *complexity* in `[0, 1]`
//! derived from its structure (object count, spatial relations, attribute
//! density).
//!
//! Complexity is the property that matters downstream: the paper's
//! Observation 1 is that *many prompts are approximation-tolerant* and that
//! "factors such as prompt complexity … may influence this". Our quality
//! oracle (crate `argus-quality`) maps complexity to per-level quality, and
//! the classifier must recover it from the text — exactly the learning
//! problem the paper's BERT classifier solves.
//!
//! Temporal drift (new themes entering the stream) is a first-class knob so
//! that Fig. 18's drift-triggered retraining is reproducible.
//!
//! # Example
//!
//! ```
//! use argus_prompts::PromptGenerator;
//! let mut generator = PromptGenerator::new(42);
//! let p = generator.generate();
//! assert!(!p.text.is_empty());
//! assert!((0.0..=1.0).contains(&p.complexity));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod generator;
pub mod vocab;

pub use generator::{DriftSchedule, PromptGenerator};

use std::borrow::Cow;
use std::fmt;

/// Unique identifier of a prompt within a run, in arrival order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PromptId(pub u64);

impl fmt::Display for PromptId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A synthetic text-to-image prompt.
#[derive(Debug, Clone, PartialEq)]
pub struct Prompt {
    /// Arrival-order identifier.
    pub id: PromptId,
    /// The prompt text.
    pub text: String,
    /// Latent structural complexity in `[0, 1]`. Higher complexity means
    /// lower approximation tolerance (more objects/relations to preserve —
    /// cf. the disappearing "dog" of the paper's Fig. 6).
    pub complexity: f64,
    /// The vocabulary theme the prompt was drawn from (drives drift).
    pub theme: usize,
}

/// The prompt tokenizer, shared by the embedding and the classifier
/// feature extractor: splits text on every non-alphanumeric character,
/// drops empty pieces and lower-cases the rest. A piece that is already
/// lowercase ASCII is yielded borrowed, so the common case allocates
/// nothing; any other piece goes through [`str::to_lowercase`].
///
/// # Example
///
/// ```
/// use std::borrow::Cow;
/// let toks: Vec<_> = argus_prompts::tokens("A red apple!").collect();
/// assert_eq!(toks, ["a", "red", "apple"]);
/// assert!(matches!(toks[1], Cow::Borrowed(_)));
/// ```
pub fn tokens(text: &str) -> impl Iterator<Item = Cow<'_, str>> {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|s| !s.is_empty())
        .map(|s| {
            // Pieces hold only alphanumerics, so an all-ASCII piece is
            // letters and digits, and `to_lowercase` would return it as is.
            if s.bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit())
            {
                Cow::Borrowed(s)
            } else {
                Cow::Owned(s.to_lowercase())
            }
        })
}

/// [`tokens`], collected into owned strings.
///
/// # Example
///
/// ```
/// let toks = argus_prompts::tokenize("A red apple, lying on a table!");
/// assert_eq!(toks, vec!["a", "red", "apple", "lying", "on", "a", "table"]);
/// ```
pub fn tokenize(text: &str) -> Vec<String> {
    tokens(text).map(Cow::into_owned).collect()
}

/// FNV-1a offset basis: the hash of the empty byte string.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues an FNV-1a hash state over more bytes, so that
/// `fnv1a_continue(fnv1a(a), b) == fnv1a(a ++ b)`. This lets a caller hash
/// a concatenation (a `"left right"` bigram) without building it.
pub fn fnv1a_continue(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// FNV-1a hash of a byte string: the token hash behind both the embedding
/// directions and the classifier's hashed features.
///
/// The multiplier is `0x1000_0000_01b3`, not the published 64-bit FNV
/// prime `0x100_0000_01b3`. Every embedding direction and feature bucket
/// (and so every pinned golden) depends on it, so it stays as is.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_continue(FNV_OFFSET, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn tokenize_strips_punctuation_and_lowercases() {
        assert_eq!(
            tokenize("Hyper-Realistic 4K render; (masterpiece)"),
            vec!["hyper", "realistic", "4k", "render", "masterpiece"]
        );
        assert!(tokenize("").is_empty());
        assert!(tokenize("...!!!").is_empty());
    }

    /// The splitting rule as a plain `String` pipeline, kept as the
    /// reference the borrowing iterator must reproduce.
    fn reference_tokenize(text: &str) -> Vec<String> {
        text.split(|c: char| !c.is_alphanumeric())
            .filter(|s| !s.is_empty())
            .map(|s| s.to_lowercase())
            .collect()
    }

    proptest! {
        #[test]
        fn prop_tokens_match_the_reference_split(
            s in "[a-zA-Z0-9 ,.;:!?'()_-]{0,60}",
            u in "[azAZ09 ,.ÀÉéßΣσςİǅﬁ²٣ΑΩ-]{0,40}",
        ) {
            for text in [s.as_str(), u.as_str(), &format!("{s}{u}")] {
                let toks: Vec<Cow<'_, str>> = tokens(text).collect();
                let owned: Vec<String> = toks.iter().map(|t| t.to_string()).collect();
                prop_assert_eq!(&owned, &reference_tokenize(text));
                prop_assert_eq!(&tokenize(text), &owned);
                // Borrowed exactly when the source piece needs no lowering.
                let pieces = text.split(|c: char| !c.is_alphanumeric()).filter(|p| !p.is_empty());
                for (t, piece) in toks.iter().zip(pieces) {
                    let plain = piece.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit());
                    prop_assert_eq!(matches!(t, Cow::Borrowed(_)), plain);
                }
            }
        }
    }

    #[test]
    fn non_ascii_tokens_use_full_unicode_lowercasing() {
        // Final-sigma and multi-char expansions are what the ASCII fast
        // path must never see.
        assert_eq!(
            tokenize("ΟΔΟΣ İstanbul"),
            reference_tokenize("ΟΔΟΣ İstanbul")
        );
        assert_eq!(tokenize("ΟΔΟΣ"), vec!["οδος"]);
    }

    #[test]
    fn fnv1a_values_are_pinned() {
        assert_eq!(fnv1a(b""), FNV_OFFSET);
        assert_eq!(fnv1a(b"a"), 0xaf74_d84c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0xf8ac_2471_f739_67e8);
        assert_eq!(fnv1a_continue(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
    }

    #[test]
    fn prompt_id_display() {
        assert_eq!(PromptId(17).to_string(), "p17");
    }
}
