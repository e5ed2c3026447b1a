//! The themed vocabulary behind the synthetic prompt stream.
//!
//! Themes model the topical clusters of a production prompt feed (portraits,
//! landscapes, product shots, fantasy art, …). Drift introduces later themes
//! over time, shifting the token distribution the classifier was trained on.

/// One topical theme: a pool of subjects, settings, styles and modifiers.
#[derive(Debug, Clone, Copy)]
pub struct Theme {
    /// Theme name (diagnostic only).
    pub name: &'static str,
    /// Concrete subjects (nouns / noun phrases).
    pub subjects: &'static [&'static str],
    /// Scene settings ("on a table", "in a forest", …).
    pub settings: &'static [&'static str],
    /// Style prefixes ("photo", "oil painting", …).
    pub styles: &'static [&'static str],
    /// Attribute modifiers appended to the prompt.
    pub modifiers: &'static [&'static str],
}

/// Spatial/compositional relations connecting two subjects. Relations raise
/// complexity: they are what higher approximation levels fail to preserve
/// (the paper's Fig. 6 "dog disappears at K=20" example).
pub const RELATIONS: &[&str] = &[
    "next to",
    "on top of",
    "under",
    "holding",
    "beside",
    "in front of",
    "behind",
    "walking with",
    "looking at",
    "leaning against",
];

/// The full theme catalog. The first [`BASE_THEMES`] themes form the
/// training-time distribution; later themes appear only through drift.
pub const THEMES: &[Theme] = &[
    Theme {
        name: "still-life",
        subjects: &[
            "a red apple",
            "a ceramic vase",
            "a loaf of bread",
            "a glass of wine",
            "a stack of books",
            "a brass candlestick",
            "a bowl of cherries",
            "a yellow banana",
            "a black vase with white roses",
            "an old pocket watch",
        ],
        settings: &[
            "lying on a table",
            "on a wooden shelf",
            "near a window",
            "on a linen cloth",
            "in soft morning light",
            "against a dark backdrop",
        ],
        styles: &[
            "photo",
            "still life painting",
            "studio photograph",
            "macro shot",
        ],
        modifiers: &[
            "high detail",
            "soft shadows",
            "4k",
            "sharp focus",
            "warm tones",
            "shallow depth of field",
        ],
    },
    Theme {
        name: "portraits",
        subjects: &[
            "a happy man",
            "an old fisherman",
            "a young woman with freckles",
            "a child laughing",
            "a bearded wizard",
            "a woman in a red coat",
            "twin sisters",
            "a stern judge",
            "a smiling grandmother",
            "a jazz musician",
        ],
        settings: &[
            "in a sunlit room",
            "against a brick wall",
            "at golden hour",
            "in a rainy street",
            "by candlelight",
            "in a crowded market",
        ],
        styles: &["photo", "portrait", "oil painting", "charcoal sketch"],
        modifiers: &[
            "cinematic lighting",
            "85mm lens",
            "bokeh",
            "highly detailed face",
            "dramatic contrast",
            "natural skin tones",
        ],
    },
    Theme {
        name: "animals",
        subjects: &[
            "a bear",
            "a dog",
            "kids walking with a dog",
            "a tabby cat",
            "a barn owl",
            "a red fox",
            "a koi fish",
            "a galloping horse",
            "a hummingbird",
            "a sleeping lion",
        ],
        settings: &[
            "in a snowy forest",
            "by a river",
            "in tall grass",
            "on a mountain ridge",
            "under northern lights",
            "at the edge of a pond",
        ],
        styles: &["photo", "wildlife photograph", "watercolor", "ink drawing"],
        modifiers: &[
            "national geographic",
            "telephoto",
            "high detail fur",
            "golden light",
            "misty atmosphere",
            "award winning",
        ],
    },
    Theme {
        name: "landscapes",
        subjects: &[
            "a mountain lake",
            "a desert canyon",
            "a terraced rice field",
            "a lighthouse on a cliff",
            "an alpine meadow",
            "a volcanic island",
            "a frozen waterfall",
            "rolling vineyard hills",
            "a bamboo forest",
            "a coastal village",
        ],
        settings: &[
            "at sunrise",
            "under a storm front",
            "in autumn",
            "after fresh snow",
            "beneath a starry sky",
            "wrapped in fog",
        ],
        styles: &["photo", "panorama", "matte painting", "drone shot"],
        modifiers: &[
            "ultra wide angle",
            "hdr",
            "volumetric light",
            "8k",
            "epic scale",
            "vivid colors",
        ],
    },
    Theme {
        name: "urban",
        subjects: &[
            "a neon-lit alley",
            "a rusty tram",
            "a rooftop garden",
            "a subway platform",
            "a street food stall",
            "a glass skyscraper",
            "an abandoned factory",
            "a cobblestone square",
            "a vintage bicycle",
            "a flooded underpass",
        ],
        settings: &[
            "at night",
            "in heavy rain",
            "during rush hour",
            "at dawn",
            "in winter haze",
            "after the market closes",
        ],
        styles: &[
            "photo",
            "street photography",
            "cyberpunk concept art",
            "isometric render",
        ],
        modifiers: &[
            "neon reflections",
            "film grain",
            "moody",
            "wet asphalt",
            "long exposure",
            "detailed signage",
        ],
    },
    Theme {
        name: "fantasy",
        subjects: &[
            "a dragon perched on ruins",
            "an elven archer",
            "a floating castle",
            "a crystal golem",
            "a fire phoenix",
            "a moss-covered troll",
            "an enchanted sword",
            "a spirit deer",
            "a witch's cottage",
            "a portal in the forest",
        ],
        settings: &[
            "in a misty vale",
            "above the clouds",
            "inside a glowing cavern",
            "at the world's edge",
            "during an eclipse",
            "in an ancient library",
        ],
        styles: &[
            "digital painting",
            "fantasy concept art",
            "book illustration",
            "tarot card",
        ],
        modifiers: &[
            "intricate",
            "glowing runes",
            "trending on artstation",
            "ethereal light",
            "hyper detailed",
            "dark fantasy palette",
        ],
    },
    // ---- drift-only themes below (enter the stream over time) ----
    Theme {
        name: "sci-fi",
        subjects: &[
            "a ringed space station",
            "a chrome android",
            "a terraformed crater",
            "a plasma engine",
            "a derelict starship",
            "a martian greenhouse",
            "a quantum computer core",
            "an orbital elevator",
            "a cryo pod",
            "a swarm of drones",
        ],
        settings: &[
            "in deep space",
            "on a red desert planet",
            "inside a hangar bay",
            "under twin suns",
            "in zero gravity",
            "beneath a dyson swarm",
        ],
        styles: &[
            "sci-fi concept art",
            "retrofuturist poster",
            "3d render",
            "film still",
        ],
        modifiers: &[
            "octane render",
            "lens flare",
            "hard surface detail",
            "holographic ui",
            "atmospheric haze",
            "unreal engine",
        ],
    },
    Theme {
        name: "food",
        subjects: &[
            "a stack of pancakes",
            "a steaming bowl of ramen",
            "a chocolate lava cake",
            "a charcuterie board",
            "a wood-fired pizza",
            "a matcha latte",
            "a summer fruit tart",
            "a bento box",
            "a pot of seafood paella",
            "freshly baked croissants",
        ],
        settings: &[
            "on a marble counter",
            "in a rustic kitchen",
            "at a street market",
            "on a picnic blanket",
            "under cafe lights",
            "beside a window seat",
        ],
        styles: &[
            "food photograph",
            "editorial photo",
            "flat lay",
            "close-up shot",
        ],
        modifiers: &[
            "steam rising",
            "glossy glaze",
            "appetizing",
            "soft natural light",
            "michelin plating",
            "crumbs scattered",
        ],
    },
    Theme {
        name: "abstract",
        subjects: &[
            "flowing liquid metal",
            "a fractal bloom",
            "colliding ink clouds",
            "geometric glass shards",
            "a ribbon of smoke",
            "woven light fibers",
            "melting gradients",
            "a particle vortex",
            "folded paper waves",
            "magnetic filings in bloom",
        ],
        settings: &[
            "on a black void",
            "in a white studio",
            "under ultraviolet light",
            "suspended mid-air",
            "across a curved horizon",
            "within a glass cube",
        ],
        styles: &[
            "abstract render",
            "generative art",
            "macro photograph",
            "double exposure",
        ],
        modifiers: &[
            "iridescent",
            "caustics",
            "subsurface scattering",
            "minimalist",
            "chromatic aberration",
            "silky motion blur",
        ],
    },
];

/// Number of themes present from the start (pre-drift distribution).
pub const BASE_THEMES: usize = 6;

/// Every phrase the generator can put into a prompt: each theme's
/// subjects, settings, styles and modifiers, the relations, and the
/// `"{style} of …"` joiner. Tokenizing these yields the stream's whole
/// token vocabulary.
pub fn phrases() -> impl Iterator<Item = &'static str> {
    THEMES
        .iter()
        .flat_map(|t| {
            [t.subjects, t.settings, t.styles, t.modifiers]
                .into_iter()
                .flatten()
                .copied()
        })
        .chain(RELATIONS.iter().copied())
        .chain(std::iter::once("of"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_shape() {
        assert!(THEMES.len() > BASE_THEMES);
        for t in THEMES {
            assert!(t.subjects.len() >= 10, "{}: too few subjects", t.name);
            assert!(t.settings.len() >= 6, "{}: too few settings", t.name);
            assert!(t.styles.len() >= 4, "{}: too few styles", t.name);
            assert!(t.modifiers.len() >= 6, "{}: too few modifiers", t.name);
        }
        assert!(RELATIONS.len() >= 8);
    }

    #[test]
    fn generated_prompts_use_only_catalog_tokens() {
        let vocab: std::collections::BTreeSet<String> =
            phrases().flat_map(crate::tokenize).collect();
        let mut generator = crate::PromptGenerator::new(5).with_drift(crate::DriftSchedule {
            start_at: 0,
            ramp: 1,
            max_fraction: 0.5,
        });
        for p in generator.generate_batch(2000) {
            for t in crate::tokens(&p.text) {
                assert!(vocab.contains(t.as_ref()), "{t:?} missing from phrases()");
            }
        }
    }

    #[test]
    fn theme_names_unique() {
        let mut names: Vec<&str> = THEMES.iter().map(|t| t.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), THEMES.len());
    }

    #[test]
    fn drift_themes_use_disjoint_subject_vocabulary() {
        // Drift only works if new themes actually introduce unseen tokens.
        let base: std::collections::HashSet<&str> = THEMES[..BASE_THEMES]
            .iter()
            .flat_map(|t| t.subjects.iter().copied())
            .collect();
        for t in &THEMES[BASE_THEMES..] {
            for s in t.subjects {
                assert!(!base.contains(s), "{}: subject {s:?} overlaps base", t.name);
            }
        }
    }
}
