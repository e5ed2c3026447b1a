//! Hashed text features for the approximation-level predictor.

use argus_prompts::{fnv1a, fnv1a_continue, tokens};

/// Default feature dimensionality (hash buckets).
pub const DEFAULT_DIM: usize = 2048;

/// Sparse hashed bag-of-n-grams features with structural extras.
///
/// Features: unigram and bigram hash buckets (counts), a token-count
/// bucket, and a spatial-relation indicator — the structural signals that
/// correlate with the latent complexity the oracle penalizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureExtractor {
    dim: usize,
}

impl Default for FeatureExtractor {
    fn default() -> Self {
        FeatureExtractor { dim: DEFAULT_DIM }
    }
}

/// Words signalling multi-object composition (raise complexity).
const RELATION_WORDS: &[&str] = &[
    "next", "top", "under", "holding", "beside", "front", "behind", "with", "against", "looking",
];

impl FeatureExtractor {
    /// Creates an extractor with `dim` hash buckets.
    ///
    /// # Panics
    /// Panics if `dim < 16`.
    pub fn new(dim: usize) -> Self {
        assert!(dim >= 16, "feature dimension too small: {dim}");
        FeatureExtractor { dim }
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Extracts sparse `(index, value)` features from prompt text.
    /// Indices may repeat (hash collisions accumulate downstream).
    ///
    /// Order: one unigram per token, then one bigram per adjacent pair,
    /// then the structural features. A bigram hashes as the string
    /// `"{left} {right}"` would, by continuing the left token's hash over
    /// `" "` and the right token, so no bigram string is built.
    pub fn features(&self, text: &str) -> Vec<(usize, f32)> {
        // The last 8 buckets are reserved for structural features.
        let hash_span = self.dim - 8;
        let bucket = |h: u64| (h as usize) % hash_span;
        let mut out = Vec::with_capacity(32);
        let mut bigrams = Vec::with_capacity(16);
        let mut prev: Option<u64> = None;
        let (mut relations, mut ofs) = (0usize, 0usize);
        for t in tokens(text) {
            let h = fnv1a(t.as_bytes());
            out.push((bucket(h), 1.0));
            if let Some(left) = prev {
                let pair = fnv1a_continue(fnv1a_continue(left, b" "), t.as_bytes());
                bigrams.push((bucket(pair), 0.5));
            }
            prev = Some(h);
            relations += usize::from(RELATION_WORDS.contains(&t.as_ref()));
            ofs += usize::from(t == "of");
        }
        let n = out.len();
        out.append(&mut bigrams);
        // Token-count bucket (length proxies modifier/subject density).
        out.push((hash_span + (n / 4).min(3), 1.0));
        // Relation-word count (multi-object prompts).
        out.push((hash_span + 4, relations as f32));
        // "of" count (proxies compositional phrases: "photo of", "a loaf
        // of bread").
        out.push((hash_span + 5, ofs as f32));
        // Bias feature.
        out.push((hash_span + 7, 1.0));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn features_are_deterministic_and_bounded() {
        let fx = FeatureExtractor::default();
        let a = fx.features("photo of a bear in a snowy forest");
        let b = fx.features("photo of a bear in a snowy forest");
        assert_eq!(a, b);
        for &(i, v) in &a {
            assert!(i < fx.dim());
            assert!(v.is_finite());
        }
    }

    #[test]
    fn different_texts_differ() {
        let fx = FeatureExtractor::default();
        assert_ne!(fx.features("a red apple"), fx.features("a blue sky"));
    }

    #[test]
    fn relation_words_are_counted() {
        let fx = FeatureExtractor::default();
        let span = fx.dim() - 8;
        let with_rel = fx.features("a dog next to a cat beside a bear");
        let rel_feat = with_rel.iter().find(|&&(i, _)| i == span + 4).unwrap();
        assert_eq!(rel_feat.1, 2.0);
        let without = fx.features("a lonely dog");
        let rel_feat = without.iter().find(|&&(i, _)| i == span + 4).unwrap();
        assert_eq!(rel_feat.1, 0.0);
    }

    /// Reference extractor: owned tokens and a `format!`-built string per
    /// bigram. The allocation-free [`FeatureExtractor::features`] must
    /// reproduce it exactly.
    fn reference_features(dim: usize, text: &str) -> Vec<(usize, f32)> {
        let tokens = argus_prompts::tokenize(text);
        let mut out = Vec::new();
        let hash_span = dim - 8;
        for t in &tokens {
            out.push(((fnv1a(t.as_bytes()) as usize) % hash_span, 1.0));
        }
        for w in tokens.windows(2) {
            let bigram = format!("{} {}", w[0], w[1]);
            out.push(((fnv1a(bigram.as_bytes()) as usize) % hash_span, 0.5));
        }
        out.push((hash_span + (tokens.len() / 4).min(3), 1.0));
        let relations = tokens
            .iter()
            .filter(|t| RELATION_WORDS.contains(&t.as_str()))
            .count();
        out.push((hash_span + 4, relations as f32));
        let ofs = tokens.iter().filter(|t| t.as_str() == "of").count();
        out.push((hash_span + 5, ofs as f32));
        out.push((hash_span + 7, 1.0));
        out
    }

    fn assert_same_features(a: &[(usize, f32)], b: &[(usize, f32)]) {
        let bits =
            |f: &[(usize, f32)]| f.iter().map(|&(i, v)| (i, v.to_bits())).collect::<Vec<_>>();
        assert_eq!(bits(a), bits(b));
    }

    #[test]
    fn features_match_the_format_bigram_reference_on_generated_prompts() {
        let prompts = argus_prompts::PromptGenerator::new(8).generate_batch(500);
        for dim in [DEFAULT_DIM, 16, 1000] {
            let fx = FeatureExtractor::new(dim);
            for p in &prompts {
                assert_same_features(&fx.features(&p.text), &reference_features(dim, &p.text));
            }
        }
    }

    proptest! {
        #[test]
        fn prop_features_match_the_format_bigram_reference(
            mixed in "[a-zA-Z0-9 ,.;!?()-]{0,60}",
            unicode in "[aZ9 ,.ÀÉéßΣσςİǅﬁ²٣Ω-]{0,40}",
        ) {
            let fx = FeatureExtractor::default();
            let relations = "a dog next to a cat, photo of a bear Holding OF";
            for text in [
                mixed.as_str(),
                unicode.as_str(),
                &format!("{relations} {mixed}"),
                &format!("{unicode} {relations}"),
            ] {
                assert_same_features(&fx.features(text), &reference_features(DEFAULT_DIM, text));
            }
        }
    }

    #[test]
    fn bias_always_present() {
        let fx = FeatureExtractor::default();
        let span = fx.dim() - 8;
        for text in ["", "one", "a much longer prompt with many words included"] {
            let f = fx.features(text);
            assert!(f.iter().any(|&(i, v)| i == span + 7 && v == 1.0));
        }
    }

    #[test]
    #[should_panic(expected = "feature dimension too small")]
    fn tiny_dim_rejected() {
        let _ = FeatureExtractor::new(8);
    }
}
