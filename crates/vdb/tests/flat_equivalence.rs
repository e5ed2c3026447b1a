//! The lane-major [`FlatIndex`] against a kept copy of the row-major
//! `VecDeque` implementation it replaced: random insert, eviction,
//! `extract_if`, `set_capacity` and slot-reuse sequences must leave both
//! with the same `len`, and every `nearest` and `search(k)` must agree
//! bit for bit, similarities and tie order included.

use std::collections::VecDeque;

use argus_embed::{cosine, embed, Embedding};
use argus_prompts::PromptGenerator;
use argus_vdb::{FlatIndex, SearchHit};
use proptest::prelude::*;

/// The row-major flat index as it stood before lane-major blocks: one
/// serial `cosine` per entry, ranked by (similarity desc, FIFO position).
struct ReferenceFlat<P> {
    entries: VecDeque<(Embedding, P)>,
    capacity: Option<usize>,
}

impl<P: Clone> ReferenceFlat<P> {
    fn new(capacity: Option<usize>) -> Self {
        ReferenceFlat {
            entries: VecDeque::new(),
            capacity,
        }
    }

    fn insert(&mut self, embedding: Embedding, payload: P) -> Option<P> {
        let evicted = match self.capacity {
            Some(cap) if self.entries.len() >= cap => self.entries.pop_front().map(|(_, p)| p),
            _ => None,
        };
        self.entries.push_back((embedding, payload));
        evicted
    }

    fn search(&self, query: &Embedding, k: usize) -> Vec<SearchHit<P>> {
        let mut scored: Vec<(f32, usize)> = self
            .entries
            .iter()
            .enumerate()
            .map(|(i, (e, _))| (cosine(query, e), i))
            .collect();
        scored.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
        });
        scored
            .into_iter()
            .take(k)
            .map(|(similarity, i)| SearchHit {
                similarity,
                payload: self.entries[i].1.clone(),
            })
            .collect()
    }

    fn extract_if(&mut self, mut pred: impl FnMut(&Embedding, &P) -> bool) -> Vec<(Embedding, P)> {
        let mut out = Vec::new();
        let mut kept = VecDeque::new();
        for (e, p) in self.entries.drain(..) {
            if pred(&e, &p) {
                out.push((e, p));
            } else {
                kept.push_back((e, p));
            }
        }
        self.entries = kept;
        out
    }

    fn set_capacity(&mut self, capacity: usize) -> Vec<P> {
        let mut evicted = Vec::new();
        while self.entries.len() > capacity {
            evicted.push(self.entries.pop_front().expect("len checked").1);
        }
        self.capacity = Some(capacity);
        evicted
    }
}

fn bits(hits: &[SearchHit<u64>]) -> Vec<(u32, u64)> {
    hits.iter()
        .map(|h| (h.similarity.to_bits(), h.payload))
        .collect()
}

/// Compares every read the index offers for each query.
fn assert_same_reads(flat: &FlatIndex<u64>, reference: &ReferenceFlat<u64>, queries: &[Embedding]) {
    let len = reference.entries.len();
    assert_eq!(flat.len(), len);
    for q in queries {
        let want = reference.search(q, 1);
        let got = flat.nearest(q);
        assert_eq!(bits(&got.into_iter().collect::<Vec<_>>()), bits(&want));
        for k in [0, 1, 3, len, len + 5] {
            assert_eq!(
                bits(&flat.search(q, k)),
                bits(&reference.search(q, k)),
                "k={k}"
            );
        }
    }
}

/// A small pool with exact duplicates and the zero embedding, so
/// similarity ties (and their age tie-break) are common.
fn pool() -> Vec<Embedding> {
    let mut pool: Vec<Embedding> = PromptGenerator::new(14)
        .generate_batch(12)
        .iter()
        .map(|p| embed(&p.text))
        .collect();
    pool.extend(pool.clone().into_iter().take(4));
    pool.push(embed(""));
    pool.push(embed("same text"));
    pool.push(embed("same text"));
    pool
}

#[test]
fn lane_boundaries_and_slot_reuse_match_the_reference() {
    let pool = pool();
    let mut flat = FlatIndex::with_capacity_limit(33);
    let mut reference = ReferenceFlat::new(Some(33));
    // 33 entries span two 32-slot blocks; every eviction then recycles a
    // slot.
    for i in 0..100u64 {
        let e = pool[i as usize % pool.len()].clone();
        assert_eq!(flat.insert(e.clone(), i), reference.insert(e, i));
        assert_same_reads(&flat, &reference, &pool[..4]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_flat_index_matches_the_row_major_reference(
        ops in proptest::collection::vec(0u64..1_000_000, 1..240),
        cap in 0usize..80,
    ) {
        let pool = pool();
        let queries = [pool[0].clone(), pool[13].clone(), pool[16].clone(), embed("a bear")];
        let capacity = (cap > 0).then_some(cap);
        let mut flat = match capacity {
            Some(c) => FlatIndex::with_capacity_limit(c),
            None => FlatIndex::new(),
        };
        let mut reference = ReferenceFlat::new(capacity);
        for (step, &op) in ops.iter().enumerate() {
            let arg = op / 10;
            match op % 10 {
                0..=5 => {
                    let e = pool[arg as usize % pool.len()].clone();
                    let payload = step as u64;
                    prop_assert_eq!(flat.insert(e.clone(), payload), reference.insert(e, payload));
                }
                6 | 7 => {
                    let (m, r) = (arg % 4 + 2, arg % 2);
                    let got = flat.extract_if(|_, p| p % m == r);
                    let want = reference.extract_if(|_, p| p % m == r);
                    prop_assert_eq!(got, want);
                }
                8 => {
                    let c = arg as usize % 70 + 1;
                    prop_assert_eq!(flat.set_capacity(c), reference.set_capacity(c));
                }
                _ => assert_same_reads(&flat, &reference, &queries),
            }
        }
        assert_same_reads(&flat, &reference, &queries);
    }
}
