//! # argus-vdb — vector database substrate
//!
//! Approximate caching indexes every processed prompt's embedding in a
//! vector database (Qdrant in the paper, §4.7) and retrieves the nearest
//! cached prompt by cosine similarity to decide which intermediate noise
//! state to reuse. This crate is that database:
//!
//! * [`FlatIndex`] — exact brute-force cosine k-NN with an optional FIFO
//!   capacity limit (the cache does not grow without bound); top-k uses
//!   partial selection, so a query costs one scan plus `O(n)` selection
//!   rather than a full sort;
//! * [`LshIndex`] — hyperplane locality-sensitive hashing with multi-probe
//!   search and the same optional FIFO capacity limit, trading a little
//!   recall for sub-linear scan cost;
//! * [`SharedIndex`] — a thread-safe wrapper over any [`VectorIndex`],
//!   since all GPU workers share one VDB instance in the paper's
//!   deployment;
//! * [`shard`] — the sharded retrieval plane for fleet-scale deployments:
//!   [`ShardRouter`] routes embeddings to one of `N` worker-attached
//!   shards and [`ShardedIndex`] replicates each shard `R` ways so a
//!   worker failure degrades hit-rate instead of losing the cache.
//!
//! # Example
//!
//! ```
//! use argus_vdb::FlatIndex;
//! use argus_embed::embed;
//!
//! let mut index = FlatIndex::new();
//! index.insert(embed("a red apple on a table"), 1u32);
//! index.insert(embed("a portrait of an old fisherman"), 2u32);
//! let hits = index.search(&embed("a shiny red apple on a wooden table"), 1);
//! assert_eq!(hits[0].payload, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use argus_embed::{cosine_of_dot, cosines, dot_lanes, Embedding, DIM, LANES};
use parking_lot::RwLock;

pub mod shard;

pub use shard::{ShardRouter, ShardedIndex};

/// One k-NN search result.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchHit<P> {
    /// Cosine similarity to the query, in `[-1, 1]`.
    pub similarity: f32,
    /// The payload stored with the matched embedding.
    pub payload: P,
}

/// Common interface of the vector indexes, so [`SharedIndex`] (and any
/// deployment-level plumbing) can wrap either the exact or the
/// approximate backend.
pub trait VectorIndex<P> {
    /// Inserts an embedding with its payload, returning the payload
    /// evicted by a capacity limit, if any.
    fn insert(&mut self, embedding: Embedding, payload: P) -> Option<P>;

    /// Returns up to `k` nearest entries, best first, deterministically.
    fn search(&self, query: &Embedding, k: usize) -> Vec<SearchHit<P>>
    where
        P: Clone;

    /// Number of stored embeddings.
    fn len(&self) -> usize;

    /// Removes and returns every entry matching `pred`, oldest first; the
    /// survivors keep their FIFO age order. Backends without extraction
    /// support keep everything and return nothing — which degrades
    /// [`shard::ShardedIndex`]'s recovery anti-entropy pass to a no-op
    /// instead of breaking it.
    fn extract_if(&mut self, pred: &mut dyn FnMut(&Embedding, &P) -> bool) -> Vec<(Embedding, P)> {
        let _ = pred;
        Vec::new()
    }

    /// Replaces the capacity limit, evicting the oldest entries beyond the
    /// new cap (FIFO) and returning their payloads. Backends without
    /// bounded storage ignore the request.
    fn set_capacity(&mut self, capacity: usize) -> Vec<P> {
        let _ = capacity;
        Vec::new()
    }

    /// Whether the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The single best match, if the index is non-empty.
    fn nearest(&self, query: &Embedding) -> Option<SearchHit<P>>
    where
        P: Clone,
    {
        self.search(query, 1).into_iter().next()
    }
}

/// Generates `n` fixed pseudo-random hyperplanes from a seeded SplitMix64
/// stream, row-major — the substrate of [`Planes`].
fn seeded_planes(n: usize, seed: u64) -> Vec<[f32; DIM]> {
    let mut planes = Vec::with_capacity(n);
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for _ in 0..n {
        let mut plane = [0.0f32; DIM];
        for x in plane.iter_mut() {
            *x = (next() >> 11) as f32 / (1u64 << 53) as f32 * 2.0 - 1.0;
        }
        planes.push(plane);
    }
    planes
}

/// Fixed pseudo-random hyperplanes — the shared projection substrate of
/// [`LshIndex`] buckets and [`shard::ShardRouter`] cells (each caller
/// salts the seed differently).
///
/// The planes are held transposed, [`LANES`] to a lane-major block, so
/// one pass of [`dot_lanes`] projects an embedding onto eight planes;
/// each projection stays bit-equal to the serial dot product. Lanes past
/// the last plane are zero and never reported.
#[derive(Debug, Clone)]
pub(crate) struct Planes {
    blocks: Vec<[[f32; LANES]; DIM]>,
    len: usize,
}

impl Planes {
    /// `n` planes from [`seeded_planes`].
    pub(crate) fn seeded(n: usize, seed: u64) -> Self {
        let mut blocks = vec![[[0.0f32; LANES]; DIM]; n.div_ceil(LANES)];
        for (p, plane) in seeded_planes(n, seed).iter().enumerate() {
            for (d, &x) in plane.iter().enumerate() {
                blocks[p / LANES][d][p % LANES] = x;
            }
        }
        Planes { blocks, len: n }
    }

    /// Number of planes.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Calls `f(plane, projection)` for every plane, in plane order.
    pub(crate) fn project(&self, e: &Embedding, mut f: impl FnMut(usize, f32)) {
        for (b, block) in self.blocks.iter().enumerate() {
            let dots = dot_lanes(e.as_array(), block);
            let live = (self.len - b * LANES).min(LANES);
            for (lane, &dot) in dots[..live].iter().enumerate() {
                f(b * LANES + lane, dot);
            }
        }
    }

    /// The sign-pattern key of `e`: bit `b` is set when the projection
    /// onto plane `b` is non-negative.
    pub(crate) fn key(&self, e: &Embedding) -> u64 {
        let mut key = 0u64;
        self.project(e, |b, dot| {
            if dot >= 0.0 {
                key |= 1 << b;
            }
        });
        key
    }
}

/// A scored candidate: similarity, insertion sequence, slot.
type Scored = (f32, u64, usize);

/// Orders scored candidates best-first: similarity descending, then older
/// (lower insertion sequence) first — the deterministic tie-break every
/// index guarantees.
fn by_rank(a: &Scored, b: &Scored) -> std::cmp::Ordering {
    b.0.partial_cmp(&a.0)
        .unwrap_or(std::cmp::Ordering::Equal)
        .then(a.1.cmp(&b.1))
}

/// Selects the `k` best candidates under `cmp` in place and sorts only
/// those: `O(n)` selection plus `O(k log k)` ordering instead of a full
/// `O(n log n)` sort.
fn top_k_by<T>(
    scored: &mut Vec<T>,
    k: usize,
    cmp: impl Fn(&T, &T) -> std::cmp::Ordering + Copy,
) -> &[T] {
    if k < scored.len() {
        scored.select_nth_unstable_by(k, cmp);
        scored.truncate(k);
    }
    scored.sort_unstable_by(cmp);
    scored
}

/// The running single best candidate under [`by_rank`]'s order, kept
/// without materializing or sorting the candidates.
#[derive(Default)]
struct Best(Option<Scored>);

impl Best {
    fn offer(&mut self, similarity: f32, seq: u64, slot: usize) {
        let better = match self.0 {
            None => true,
            Some((best_sim, best_seq, _)) => {
                similarity > best_sim || (similarity == best_sim && seq < best_seq)
            }
        };
        if better {
            self.0 = Some((similarity, seq, slot));
        }
    }
}

/// [`Block::seqs`] stamp of a free lane.
const DEAD: u64 = u64::MAX;

/// [`LANES`] consecutive [`FlatIndex`] slots, lane-major: coordinate `d`
/// of every lane sits in one `[f32; LANES]` row, beside the lanes' norms
/// and insertion stamps. A scan reads one contiguous block per eight
/// entries and never touches the per-slot entries.
#[derive(Debug, Clone)]
struct Block {
    coords: [[f32; LANES]; DIM],
    norms: [f32; LANES],
    /// Insertion sequence per lane; [`DEAD`] for a free slot.
    seqs: [u64; LANES],
}

impl Block {
    fn empty() -> Self {
        Block {
            coords: [[0.0; LANES]; DIM],
            norms: [0.0; LANES],
            seqs: [DEAD; LANES],
        }
    }
}

/// Exact brute-force cosine index.
///
/// Entries live in recycled slots, and slot `s` is lane `s % LANES` of
/// lane-major block `s / LANES`, so a scan scores eight entries per
/// [`dot_lanes`] pass with every similarity bit-equal to
/// [`cosine`](argus_embed::cosine). A monotone insertion sequence stands
/// in for FIFO age: results rank by similarity, then older first.
///
/// With a capacity limit set, the oldest entries are evicted FIFO once the
/// limit is reached — modelling bounded cache storage.
#[derive(Debug, Clone)]
pub struct FlatIndex<P> {
    /// Slot → stored entry (`None` when the slot is free).
    slots: Vec<Option<(Embedding, P)>>,
    blocks: Vec<Block>,
    /// Live slots in insertion order (front = oldest).
    fifo: std::collections::VecDeque<usize>,
    /// Recycled slots.
    free: Vec<usize>,
    capacity: Option<usize>,
    next_seq: u64,
}

impl<P> Default for FlatIndex<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P> FlatIndex<P> {
    /// Creates an unbounded index.
    pub fn new() -> Self {
        FlatIndex {
            slots: Vec::new(),
            blocks: Vec::new(),
            fifo: std::collections::VecDeque::new(),
            free: Vec::new(),
            capacity: None,
            next_seq: 0,
        }
    }

    /// Creates an index that keeps at most `capacity` newest entries.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn with_capacity_limit(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity limit must be positive");
        let mut idx = Self::new();
        idx.capacity = Some(capacity);
        idx
    }

    /// Number of stored embeddings.
    pub fn len(&self) -> usize {
        self.fifo.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.fifo.is_empty()
    }

    /// Frees a live slot, returning its entry.
    fn release(&mut self, slot: usize) -> (Embedding, P) {
        self.blocks[slot / LANES].seqs[slot % LANES] = DEAD;
        self.free.push(slot);
        self.slots[slot].take().expect("released slots are live")
    }

    /// Inserts an embedding with its payload, evicting the oldest entry if
    /// at capacity. Returns the evicted payload, if any.
    pub fn insert(&mut self, embedding: Embedding, payload: P) -> Option<P> {
        let evicted = match self.capacity {
            Some(cap) if self.fifo.len() >= cap => {
                self.fifo.pop_front().map(|slot| self.release(slot).1)
            }
            _ => None,
        };
        let slot = self.free.pop().unwrap_or_else(|| {
            if self.slots.len().is_multiple_of(LANES) {
                self.blocks.push(Block::empty());
            }
            self.slots.push(None);
            self.slots.len() - 1
        });
        let block = &mut self.blocks[slot / LANES];
        let lane = slot % LANES;
        for (row, &x) in block.coords.iter_mut().zip(embedding.as_array()) {
            row[lane] = x;
        }
        block.norms[lane] = embedding.norm();
        block.seqs[lane] = self.next_seq;
        self.next_seq += 1;
        self.slots[slot] = Some((embedding, payload));
        self.fifo.push_back(slot);
        evicted
    }

    /// Scores every live entry against `query`, block by block, calling
    /// `f(similarity, seq, slot)` for each.
    fn scan(&self, query: &Embedding, mut f: impl FnMut(f32, u64, usize)) {
        for (b, block) in self.blocks.iter().enumerate() {
            let dots = dot_lanes(query.as_array(), &block.coords);
            let sims: [f32; LANES] = std::array::from_fn(|lane| {
                cosine_of_dot(dots[lane], query.norm(), block.norms[lane])
            });
            for (lane, (&sim, &seq)) in sims.iter().zip(&block.seqs).enumerate() {
                if seq != DEAD {
                    f(sim, seq, b * LANES + lane);
                }
            }
        }
    }

    fn payload(&self, slot: usize) -> &P {
        &self.slots[slot].as_ref().expect("scored slots are live").1
    }

    /// Returns up to `k` nearest entries by cosine similarity, best first.
    /// Ties break toward older entries (deterministic). Only the `k`
    /// winners are sorted; the rest of the scan is partial selection.
    pub fn search(&self, query: &Embedding, k: usize) -> Vec<SearchHit<P>>
    where
        P: Clone,
    {
        let mut scored: Vec<Scored> = Vec::with_capacity(self.len());
        self.scan(query, |sim, seq, slot| scored.push((sim, seq, slot)));
        top_k_by(&mut scored, k, by_rank)
            .iter()
            .map(|&(similarity, _, slot)| SearchHit {
                similarity,
                payload: self.payload(slot).clone(),
            })
            .collect()
    }

    /// The single best match, if the index is non-empty: what
    /// `search(query, 1)` returns, kept as a running best over the scan.
    pub fn nearest(&self, query: &Embedding) -> Option<SearchHit<P>>
    where
        P: Clone,
    {
        let mut best = Best::default();
        self.scan(query, |sim, seq, slot| best.offer(sim, seq, slot));
        best.0.map(|(similarity, _, slot)| SearchHit {
            similarity,
            payload: self.payload(slot).clone(),
        })
    }

    /// Removes and returns every entry matching `pred`, oldest first; the
    /// survivors keep their FIFO age order.
    pub fn extract_if(
        &mut self,
        mut pred: impl FnMut(&Embedding, &P) -> bool,
    ) -> Vec<(Embedding, P)> {
        let mut out = Vec::new();
        let mut kept = std::collections::VecDeque::with_capacity(self.fifo.len());
        for slot in std::mem::take(&mut self.fifo) {
            let (e, p) = self.slots[slot].as_ref().expect("fifo slots are live");
            if pred(e, p) {
                out.push(self.release(slot));
            } else {
                kept.push_back(slot);
            }
        }
        self.fifo = kept;
        out
    }

    /// Replaces the capacity limit, evicting the oldest entries beyond the
    /// new cap (FIFO) and returning their payloads.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn set_capacity(&mut self, capacity: usize) -> Vec<P> {
        assert!(capacity > 0, "capacity limit must be positive");
        let mut evicted = Vec::new();
        while self.fifo.len() > capacity {
            let slot = self.fifo.pop_front().expect("len checked");
            evicted.push(self.release(slot).1);
        }
        self.capacity = Some(capacity);
        evicted
    }
}

impl<P> VectorIndex<P> for FlatIndex<P> {
    fn insert(&mut self, embedding: Embedding, payload: P) -> Option<P> {
        FlatIndex::insert(self, embedding, payload)
    }

    fn search(&self, query: &Embedding, k: usize) -> Vec<SearchHit<P>>
    where
        P: Clone,
    {
        FlatIndex::search(self, query, k)
    }

    fn len(&self) -> usize {
        FlatIndex::len(self)
    }

    fn extract_if(&mut self, pred: &mut dyn FnMut(&Embedding, &P) -> bool) -> Vec<(Embedding, P)> {
        FlatIndex::extract_if(self, pred)
    }

    fn set_capacity(&mut self, capacity: usize) -> Vec<P> {
        FlatIndex::set_capacity(self, capacity)
    }

    fn nearest(&self, query: &Embedding) -> Option<SearchHit<P>>
    where
        P: Clone,
    {
        FlatIndex::nearest(self, query)
    }
}

/// One live LSH entry.
#[derive(Debug, Clone)]
struct LshEntry<P> {
    embedding: Embedding,
    payload: P,
    /// The bucket the entry hashed to (kept so eviction need not re-hash).
    bucket: u64,
    /// Monotone insertion sequence — the deterministic age tie-break.
    seq: u64,
}

/// Seed salt of the [`LshIndex`] hyperplanes ("lsh_vdb").
const LSH_SALT: u64 = 0x006c_7368_5f76_6462;

/// Hyperplane-LSH index with multi-probe search.
///
/// Embeddings hash to a bucket by the sign pattern of `bits` fixed random
/// hyperplane projections; search probes the query's bucket and all buckets
/// at Hamming distance 1, then ranks candidates by exact cosine, scored
/// [`LANES`] at a time ([`cosines`]). Entries stay row-major: a probe's
/// candidates are scattered slots, and a row is 4 cache lines where its
/// lane of a lane-major block would span 64 half-lines. An optional FIFO
/// capacity limit mirrors [`FlatIndex`]'s bounded-storage behaviour.
#[derive(Debug, Clone)]
pub struct LshIndex<P> {
    planes: Planes,
    buckets: std::collections::HashMap<u64, Vec<usize>>,
    entries: Vec<Option<LshEntry<P>>>,
    /// Live slots in insertion order (front = oldest).
    fifo: std::collections::VecDeque<usize>,
    /// Recycled slots.
    free: Vec<usize>,
    capacity: Option<usize>,
    next_seq: u64,
}

impl<P> LshIndex<P> {
    /// Creates an unbounded index with `bits` hyperplanes (4–20 is
    /// sensible).
    ///
    /// # Panics
    /// Panics unless `1 <= bits <= 24`.
    pub fn new(bits: usize, seed: u64) -> Self {
        assert!((1..=24).contains(&bits), "bits must be in 1..=24");
        LshIndex {
            planes: Planes::seeded(bits, seed ^ LSH_SALT),
            buckets: std::collections::HashMap::new(),
            entries: Vec::new(),
            fifo: std::collections::VecDeque::new(),
            free: Vec::new(),
            capacity: None,
            next_seq: 0,
        }
    }

    /// Creates an index that keeps at most `capacity` newest entries,
    /// evicting FIFO like [`FlatIndex::with_capacity_limit`].
    ///
    /// # Panics
    /// Panics unless `1 <= bits <= 24` and `capacity > 0`.
    pub fn with_capacity_limit(bits: usize, seed: u64, capacity: usize) -> Self {
        assert!(capacity > 0, "capacity limit must be positive");
        let mut idx = Self::new(bits, seed);
        idx.capacity = Some(capacity);
        idx
    }

    fn bucket_of(&self, e: &Embedding) -> u64 {
        self.planes.key(e)
    }

    /// Number of stored embeddings.
    pub fn len(&self) -> usize {
        self.fifo.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.fifo.is_empty()
    }

    fn live(&self, slot: usize) -> &LshEntry<P> {
        self.entries[slot]
            .as_ref()
            .expect("buckets hold live slots")
    }

    /// Evicts the oldest live entry, unlinking it from its bucket and
    /// recycling its slot.
    fn evict_oldest(&mut self) -> Option<P> {
        let slot = self.fifo.pop_front()?;
        let entry = self.entries[slot].take().expect("fifo slots are live");
        if let Some(b) = self.buckets.get_mut(&entry.bucket) {
            b.retain(|&i| i != slot);
        }
        self.free.push(slot);
        Some(entry.payload)
    }

    /// Inserts an embedding with its payload, evicting the oldest entry if
    /// at capacity. Returns the evicted payload, if any.
    pub fn insert(&mut self, embedding: Embedding, payload: P) -> Option<P> {
        let evicted = match self.capacity {
            Some(cap) if self.fifo.len() >= cap => self.evict_oldest(),
            _ => None,
        };
        let bucket = self.bucket_of(&embedding);
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = LshEntry {
            embedding,
            payload,
            bucket,
            seq,
        };
        let slot = match self.free.pop() {
            Some(s) => {
                self.entries[s] = Some(entry);
                s
            }
            None => {
                self.entries.push(Some(entry));
                self.entries.len() - 1
            }
        };
        self.buckets.entry(bucket).or_default().push(slot);
        self.fifo.push_back(slot);
        evicted
    }

    /// Scores the multi-probe candidates of `query` — its bucket, then the
    /// buckets at Hamming distance 1 — [`LANES`] at a time, calling
    /// `f(similarity, seq, slot)` for each.
    fn score_probes(&self, query: &Embedding, mut f: impl FnMut(f32, u64, usize)) {
        let key = self.bucket_of(query);
        let probes = std::iter::once(key).chain((0..self.planes.len()).map(|bit| key ^ (1 << bit)));
        let mut batch = [0usize; LANES];
        let mut n = 0;
        for slot in probes.filter_map(|k| self.buckets.get(&k)).flatten() {
            batch[n] = *slot;
            n += 1;
            if n == LANES {
                self.score_batch(query, &batch, &mut f);
                n = 0;
            }
        }
        if n > 0 {
            self.score_batch(query, &batch[..n], &mut f);
        }
    }

    /// Scores up to [`LANES`] live slots in one [`cosines`] pass.
    fn score_batch(&self, query: &Embedding, slots: &[usize], f: &mut impl FnMut(f32, u64, usize)) {
        let mut rows = [query; LANES];
        for (row, &slot) in rows.iter_mut().zip(slots) {
            *row = &self.live(slot).embedding;
        }
        let sims = cosines(query, &rows[..slots.len()]);
        for (&slot, &sim) in slots.iter().zip(sims.iter()) {
            f(sim, self.live(slot).seq, slot);
        }
    }

    /// Multi-probe k-NN: scans the query bucket and its Hamming-1
    /// neighbours, ranking candidates by exact cosine similarity (older
    /// entries win ties). Only the `k` winners are sorted.
    pub fn search(&self, query: &Embedding, k: usize) -> Vec<SearchHit<P>>
    where
        P: Clone,
    {
        let mut scored: Vec<Scored> = Vec::new();
        self.score_probes(query, |sim, seq, slot| scored.push((sim, seq, slot)));
        top_k_by(&mut scored, k, by_rank)
            .iter()
            .map(|&(similarity, _, slot)| SearchHit {
                similarity,
                payload: self.live(slot).payload.clone(),
            })
            .collect()
    }

    /// Alloc-free single-best search: the same candidate set (query bucket
    /// plus Hamming-1 neighbours) and the same similarity-descending,
    /// older-wins order as `search(query, 1)`, tracked as a running
    /// maximum instead of materializing and sorting candidate vectors —
    /// `nearest` is the cache plane's per-lookup hot path.
    pub fn nearest(&self, query: &Embedding) -> Option<SearchHit<P>>
    where
        P: Clone,
    {
        let mut best = Best::default();
        self.score_probes(query, |sim, seq, slot| best.offer(sim, seq, slot));
        best.0.map(|(similarity, _, slot)| SearchHit {
            similarity,
            payload: self.live(slot).payload.clone(),
        })
    }

    /// Removes and returns every entry matching `pred`, oldest first; the
    /// survivors keep their FIFO age order.
    pub fn extract_if(
        &mut self,
        mut pred: impl FnMut(&Embedding, &P) -> bool,
    ) -> Vec<(Embedding, P)> {
        let mut out = Vec::new();
        let mut kept = std::collections::VecDeque::with_capacity(self.fifo.len());
        for slot in std::mem::take(&mut self.fifo) {
            let matches = {
                let e = self.entries[slot].as_ref().expect("fifo slots are live");
                pred(&e.embedding, &e.payload)
            };
            if matches {
                let entry = self.entries[slot].take().expect("fifo slots are live");
                if let Some(b) = self.buckets.get_mut(&entry.bucket) {
                    b.retain(|&i| i != slot);
                }
                self.free.push(slot);
                out.push((entry.embedding, entry.payload));
            } else {
                kept.push_back(slot);
            }
        }
        self.fifo = kept;
        out
    }

    /// Replaces the capacity limit, evicting the oldest entries beyond the
    /// new cap (FIFO) and returning their payloads.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn set_capacity(&mut self, capacity: usize) -> Vec<P> {
        assert!(capacity > 0, "capacity limit must be positive");
        let mut evicted = Vec::new();
        while self.fifo.len() > capacity {
            evicted.push(self.evict_oldest().expect("len checked"));
        }
        self.capacity = Some(capacity);
        evicted
    }
}

impl<P> VectorIndex<P> for LshIndex<P> {
    fn insert(&mut self, embedding: Embedding, payload: P) -> Option<P> {
        LshIndex::insert(self, embedding, payload)
    }

    fn search(&self, query: &Embedding, k: usize) -> Vec<SearchHit<P>>
    where
        P: Clone,
    {
        LshIndex::search(self, query, k)
    }

    fn len(&self) -> usize {
        LshIndex::len(self)
    }

    fn extract_if(&mut self, pred: &mut dyn FnMut(&Embedding, &P) -> bool) -> Vec<(Embedding, P)> {
        LshIndex::extract_if(self, pred)
    }

    fn set_capacity(&mut self, capacity: usize) -> Vec<P> {
        LshIndex::set_capacity(self, capacity)
    }

    fn nearest(&self, query: &Embedding) -> Option<SearchHit<P>>
    where
        P: Clone,
    {
        LshIndex::nearest(self, query)
    }
}

/// A thread-safe index shared by all workers, mirroring the single Qdrant
/// instance of the paper's testbed. Wraps any [`VectorIndex`] backend; the
/// default is the exact [`FlatIndex`], and large deployments use
/// `SharedIndex<P, LshIndex<P>>` (§4.7).
#[derive(Debug)]
pub struct SharedIndex<P, I = FlatIndex<P>> {
    inner: RwLock<I>,
    _payload: std::marker::PhantomData<fn() -> P>,
}

impl<P, I: Default> Default for SharedIndex<P, I> {
    fn default() -> Self {
        Self::from_index(I::default())
    }
}

impl<P, I> SharedIndex<P, I> {
    /// Wraps an existing index.
    pub fn from_index(index: I) -> Self {
        SharedIndex {
            inner: RwLock::new(index),
            _payload: std::marker::PhantomData,
        }
    }
}

impl<P> SharedIndex<P, FlatIndex<P>> {
    /// Creates an empty shared flat index.
    pub fn new() -> Self {
        Self::from_index(FlatIndex::new())
    }

    /// Creates a shared flat index with a FIFO capacity limit.
    pub fn with_capacity_limit(capacity: usize) -> Self {
        Self::from_index(FlatIndex::with_capacity_limit(capacity))
    }
}

impl<P, I: VectorIndex<P>> SharedIndex<P, I> {
    /// Inserts under a write lock.
    pub fn insert(&self, embedding: Embedding, payload: P) -> Option<P> {
        self.inner.write().insert(embedding, payload)
    }

    /// Searches under a read lock.
    pub fn search(&self, query: &Embedding, k: usize) -> Vec<SearchHit<P>>
    where
        P: Clone,
    {
        self.inner.read().search(query, k)
    }

    /// The single best match.
    pub fn nearest(&self, query: &Embedding) -> Option<SearchHit<P>>
    where
        P: Clone,
    {
        self.inner.read().nearest(query)
    }

    /// Number of stored embeddings.
    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use argus_embed::embed;
    use argus_prompts::PromptGenerator;

    #[test]
    fn empty_index_behaviour() {
        let idx: FlatIndex<u32> = FlatIndex::new();
        assert!(idx.is_empty());
        assert_eq!(idx.len(), 0);
        assert!(idx.search(&embed("anything"), 3).is_empty());
        assert!(idx.nearest(&embed("anything")).is_none());
    }

    #[test]
    fn exact_match_ranks_first() {
        let mut idx = FlatIndex::new();
        idx.insert(embed("a bear in a snowy forest"), "bear");
        idx.insert(embed("a lighthouse on a cliff at sunrise"), "lighthouse");
        idx.insert(embed("neon alley at night in heavy rain"), "alley");
        let hits = idx.search(&embed("a bear in a snowy forest"), 2);
        assert_eq!(hits[0].payload, "bear");
        assert!((hits[0].similarity - 1.0).abs() < 1e-5);
        assert!(hits[0].similarity >= hits[1].similarity);
    }

    #[test]
    fn k_larger_than_len_returns_all() {
        let mut idx = FlatIndex::new();
        idx.insert(embed("one"), 1);
        idx.insert(embed("two"), 2);
        assert_eq!(idx.search(&embed("one"), 10).len(), 2);
    }

    #[test]
    fn capacity_limit_evicts_fifo() {
        let mut idx = FlatIndex::with_capacity_limit(2);
        assert_eq!(idx.insert(embed("first"), 1), None);
        assert_eq!(idx.insert(embed("second"), 2), None);
        assert_eq!(idx.insert(embed("third"), 3), Some(1));
        assert_eq!(idx.len(), 2);
        // "first" is gone: searching for it finds something else.
        let best = idx.nearest(&embed("first")).unwrap();
        assert_ne!(best.payload, 1);
    }

    #[test]
    #[should_panic(expected = "capacity limit must be positive")]
    fn zero_capacity_rejected() {
        let _ = FlatIndex::<u8>::with_capacity_limit(0);
    }

    #[test]
    fn lsh_finds_exact_duplicates() {
        let mut idx = LshIndex::new(10, 7);
        let mut generator = PromptGenerator::new(5);
        let prompts = generator.generate_batch(300);
        for (i, p) in prompts.iter().enumerate() {
            idx.insert(embed(&p.text), i);
        }
        assert_eq!(idx.len(), 300);
        let mut found = 0;
        for (i, p) in prompts.iter().enumerate().take(100) {
            let hits = idx.search(&embed(&p.text), 1);
            if hits.first().map(|h| h.payload) == Some(i) {
                found += 1;
            }
        }
        // Exact duplicates hash to the same bucket: recall must be perfect.
        assert_eq!(found, 100);
    }

    #[test]
    fn lsh_recall_against_flat_ground_truth() {
        let mut flat = FlatIndex::new();
        let mut lsh = LshIndex::new(6, 3);
        let prompts = PromptGenerator::new(6).generate_batch(500);
        for (i, p) in prompts.iter().enumerate() {
            let e = embed(&p.text);
            flat.insert(e.clone(), i);
            lsh.insert(e, i);
        }
        let queries = PromptGenerator::new(7).generate_batch(100);
        let mut agree = 0;
        for q in &queries {
            let e = embed(&q.text);
            let truth = flat.nearest(&e).unwrap();
            if let Some(hit) = lsh.search(&e, 1).first() {
                if hit.payload == truth.payload || hit.similarity >= truth.similarity - 0.05 {
                    agree += 1;
                }
            }
        }
        // Multi-probe LSH recall: at least 75% near-ground-truth.
        assert!(agree >= 75, "recall {agree}/100");
    }

    #[test]
    #[should_panic(expected = "bits must be in")]
    fn lsh_rejects_excessive_bits() {
        let _ = LshIndex::<u8>::new(32, 0);
    }

    #[test]
    fn shared_index_is_concurrent() {
        use std::sync::Arc;
        let idx = Arc::new(SharedIndex::with_capacity_limit(1000));
        let mut handles = Vec::new();
        for t in 0..4 {
            let idx = Arc::clone(&idx);
            // lint: allow(stray-thread) — concurrency smoke test; the
            // assertions below are insertion-order-insensitive.
            handles.push(std::thread::spawn(move || {
                let prompts = PromptGenerator::new(100 + t).generate_batch(50);
                for (i, p) in prompts.iter().enumerate() {
                    idx.insert(embed(&p.text), (t, i));
                    let _ = idx.search(&embed(&p.text), 3);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(idx.len(), 200);
        assert!(!idx.is_empty());
        assert!(idx.nearest(&embed("a bear")).is_some());
    }

    #[test]
    fn deterministic_tie_break_prefers_older() {
        let mut idx = FlatIndex::new();
        idx.insert(embed("same text"), "old");
        idx.insert(embed("same text"), "new");
        assert_eq!(idx.nearest(&embed("same text")).unwrap().payload, "old");
    }

    #[test]
    fn partial_selection_matches_full_sort() {
        // The top-k selection path must return exactly what a full sort
        // would, including tie order, for every k.
        let mut idx = FlatIndex::new();
        let prompts = PromptGenerator::new(11).generate_batch(200);
        for (i, p) in prompts.iter().enumerate() {
            idx.insert(embed(&p.text), i);
        }
        let query = embed("a painting of a castle by a river");
        let mut reference: Vec<(f32, usize)> = prompts
            .iter()
            .enumerate()
            .map(|(i, p)| (argus_embed::cosine(&query, &embed(&p.text)), i))
            .collect();
        reference.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
        });
        for k in [0, 1, 3, 17, 199, 200, 500] {
            let hits = idx.search(&query, k);
            assert_eq!(hits.len(), k.min(200));
            for (hit, want) in hits.iter().zip(&reference) {
                assert_eq!(hit.payload, want.1, "k={k}");
                assert_eq!(hit.similarity, want.0, "k={k}");
            }
        }
    }

    #[test]
    fn lsh_capacity_limit_evicts_fifo() {
        let mut idx = LshIndex::with_capacity_limit(8, 3, 2);
        assert_eq!(idx.insert(embed("first"), 1), None);
        assert_eq!(idx.insert(embed("second"), 2), None);
        assert_eq!(idx.insert(embed("third"), 3), Some(1));
        assert_eq!(idx.insert(embed("fourth"), 4), Some(2));
        assert_eq!(idx.len(), 2);
        // The evicted entries are unreachable through any probe.
        for q in ["first", "second"] {
            let hits = idx.search(&embed(q), 4);
            assert!(hits.iter().all(|h| h.payload > 2), "{q}: {hits:?}");
        }
        // Survivors stay findable.
        assert_eq!(idx.search(&embed("third"), 1)[0].payload, 3);
    }

    #[test]
    #[should_panic(expected = "capacity limit must be positive")]
    fn lsh_zero_capacity_rejected() {
        let _ = LshIndex::<u8>::with_capacity_limit(8, 0, 0);
    }

    #[test]
    fn lsh_tie_break_survives_slot_reuse() {
        // After eviction recycles slots, age ties must still resolve by
        // insertion order, not slot index.
        let mut idx = LshIndex::with_capacity_limit(6, 1, 3);
        idx.insert(embed("same text"), "a");
        idx.insert(embed("other text"), "b");
        idx.insert(embed("same text"), "c");
        idx.insert(embed("same text"), "d"); // evicts "a", reuses its slot
        let hits = idx.search(&embed("same text"), 3);
        assert_eq!(hits[0].payload, "c", "{hits:?}"); // older than "d"
    }

    /// A bucket key as the serial loop computed it: one `.sum()` chain
    /// per row-major plane.
    fn serial_key(planes: &[[f32; DIM]], e: &Embedding) -> u64 {
        let mut key = 0u64;
        for (b, plane) in planes.iter().enumerate() {
            let dot: f32 = e.as_slice().iter().zip(plane).map(|(x, y)| x * y).sum();
            if dot >= 0.0 {
                key |= 1 << b;
            }
        }
        key
    }

    fn generated(seed: u64, n: usize) -> Vec<Embedding> {
        PromptGenerator::new(seed)
            .generate_batch(n)
            .iter()
            .map(|p| embed(&p.text))
            .chain([embed("")])
            .collect()
    }

    #[test]
    fn plane_lanes_match_the_serial_projection() {
        let pool = generated(41, 300);
        // Plane counts below, at and across block boundaries.
        for bits in [1, 7, 8, 9, 16, 24] {
            let idx = LshIndex::<u8>::new(bits, 5);
            let rows = seeded_planes(bits, 5 ^ LSH_SALT);
            for e in &pool {
                assert_eq!(idx.bucket_of(e), serial_key(&rows, e), "bits={bits}");
                let mut seen = 0;
                idx.planes.project(e, |b, dot| {
                    let serial: f32 = e.as_slice().iter().zip(&rows[b]).map(|(x, y)| x * y).sum();
                    assert_eq!(dot.to_bits(), serial.to_bits(), "bits={bits} plane={b}");
                    assert_eq!(b, seen);
                    seen += 1;
                });
                assert_eq!(seen, bits);
            }
        }
    }

    #[test]
    fn lsh_lane_scoring_matches_serial_cosine() {
        let mut idx = LshIndex::with_capacity_limit(6, 9, 200);
        let pool = generated(42, 260);
        let by_payload: Vec<Embedding> = pool.clone();
        for (i, e) in pool.into_iter().enumerate() {
            idx.insert(e, i);
        }
        for q in generated(43, 40) {
            let hits = idx.search(&q, idx.len());
            for hit in &hits {
                let serial = argus_embed::cosine(&q, &by_payload[hit.payload]);
                assert_eq!(hit.similarity.to_bits(), serial.to_bits());
            }
            // Best first, older first among equals.
            for pair in hits.windows(2) {
                assert!(pair[0].similarity >= pair[1].similarity);
                if pair[0].similarity == pair[1].similarity {
                    assert!(pair[0].payload < pair[1].payload);
                }
            }
            let nearest = idx.nearest(&q);
            assert_eq!(nearest.as_ref(), hits.first());
        }
    }

    #[test]
    fn shared_lsh_index_works() {
        use std::sync::Arc;
        let idx: Arc<SharedIndex<usize, LshIndex<usize>>> = Arc::new(SharedIndex::from_index(
            LshIndex::with_capacity_limit(10, 7, 1000),
        ));
        let mut handles = Vec::new();
        for t in 0..4usize {
            let idx = Arc::clone(&idx);
            // lint: allow(stray-thread) — concurrency smoke test; the
            // assertions below are insertion-order-insensitive.
            handles.push(std::thread::spawn(move || {
                let prompts = PromptGenerator::new(200 + t as u64).generate_batch(50);
                for (i, p) in prompts.iter().enumerate() {
                    idx.insert(embed(&p.text), t * 100 + i);
                    let _ = idx.nearest(&embed(&p.text));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(idx.len(), 200);
        assert!(idx.nearest(&embed("a bear")).is_some());
    }
}
