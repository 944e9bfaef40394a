//! Message-batch wire encodings (paper §4.2, Fig. 5, Appendix E).
//!
//! Three encodings exist, matching the paper's communication analysis:
//!
//! * **Plain** — `(dst id, value)` per message. What push uses: Giraph
//!   neither concatenates nor combines at the sender because partial
//!   buffers are flushed at the sending threshold.
//! * **Concatenated** — messages grouped by destination share one id:
//!   `(dst id, count, values…)`. What b-pull uses for non-commutative
//!   algorithms (LPA, SA).
//! * **Combined** — one `(dst id, value)` per destination after running a
//!   [`Combiner`]. What b-pull uses for commutative algorithms
//!   (PageRank, SSSP).
//!
//! [`WireStats::saved_messages`] counts the messages merged away — the
//! quantity the paper calls `M_co`, which drives the `Q_t` switching
//! metric's network term.

use crate::combine::Combiner;
use hybridgraph_graph::VertexId;
use hybridgraph_storage::Record;

/// Which encoding a batch uses.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum BatchKind {
    /// `(dst, value)` pairs, no merging.
    Plain,
    /// Destination-grouped, id shared per group.
    Concatenated,
    /// One combined value per destination.
    Combined,
}

/// Statistics of one encoded batch.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Messages before any merging.
    pub raw_messages: u64,
    /// Values actually carried on the wire.
    pub wire_values: u64,
    /// Encoded payload bytes.
    pub wire_bytes: u64,
    /// Messages merged away by concatenation or combining (`M_co`).
    pub saved_messages: u64,
}

impl WireStats {
    /// Component-wise sum.
    pub fn plus(&self, other: &WireStats) -> WireStats {
        WireStats {
            raw_messages: self.raw_messages + other.raw_messages,
            wire_values: self.wire_values + other.wire_values,
            wire_bytes: self.wire_bytes + other.wire_bytes,
            saved_messages: self.saved_messages + other.saved_messages,
        }
    }
}

/// Encodes `msgs` with the given `kind`.
///
/// `msgs` is sorted by destination in place for the grouping encodings.
/// `combiner` must be provided iff `kind` is [`BatchKind::Combined`].
pub fn encode_batch<M: Record>(
    kind: BatchKind,
    msgs: &mut [(VertexId, M)],
    combiner: Option<&dyn Combiner<M>>,
) -> (Vec<u8>, WireStats) {
    let raw = msgs.len() as u64;
    match kind {
        BatchKind::Plain => {
            let mut out = Vec::with_capacity(msgs.len() * (4 + M::BYTES));
            for (dst, m) in msgs.iter() {
                dst.append_to(&mut out);
                m.append_to(&mut out);
            }
            let stats = WireStats {
                raw_messages: raw,
                wire_values: raw,
                wire_bytes: out.len() as u64,
                saved_messages: 0,
            };
            (out, stats)
        }
        BatchKind::Concatenated => {
            msgs.sort_by_key(|(d, _)| *d);
            let mut out = Vec::with_capacity(msgs.len() * M::BYTES + 16);
            let mut groups = 0u64;
            let mut i = 0;
            while i < msgs.len() {
                let dst = msgs[i].0;
                let mut end = i + 1;
                while end < msgs.len() && msgs[end].0 == dst {
                    end += 1;
                }
                dst.append_to(&mut out);
                ((end - i) as u32).append_to(&mut out);
                for (_, m) in &msgs[i..end] {
                    m.append_to(&mut out);
                }
                groups += 1;
                i = end;
            }
            let stats = WireStats {
                raw_messages: raw,
                wire_values: raw,
                wire_bytes: out.len() as u64,
                saved_messages: raw.saturating_sub(groups),
            };
            (out, stats)
        }
        BatchKind::Combined => {
            let combiner = combiner.expect("Combined encoding requires a combiner");
            msgs.sort_by_key(|(d, _)| *d);
            let mut out = Vec::with_capacity(msgs.len() * (4 + M::BYTES));
            let mut groups = 0u64;
            let mut i = 0;
            while i < msgs.len() {
                let dst = msgs[i].0;
                let mut acc = msgs[i].1.clone();
                let mut end = i + 1;
                while end < msgs.len() && msgs[end].0 == dst {
                    acc = combiner.combine(&acc, &msgs[end].1);
                    end += 1;
                }
                dst.append_to(&mut out);
                acc.append_to(&mut out);
                groups += 1;
                i = end;
            }
            let stats = WireStats {
                raw_messages: raw,
                wire_values: groups,
                wire_bytes: out.len() as u64,
                saved_messages: raw.saturating_sub(groups),
            };
            (out, stats)
        }
    }
}

/// Dense per-block combining: the [`BatchKind::Combined`] encoding of a
/// batch whose destinations all lie in one known vertex range, folded
/// into a slot array indexed by `dst - range.start` instead of sorted.
///
/// b-pull responds to a request for one Vblock, so every message it
/// generates for that request lands in the block's range. Folding each
/// message into its slot in generation order applies `combine(acc, m)`
/// in exactly the sequence that [`encode_batch`]'s stable sort followed
/// by a left fold does, and the payload is emitted in ascending `dst`,
/// so payload bytes and [`WireStats`] are identical to
/// `encode_batch(Combined, …)` over the same messages. The slot array is
/// reused across batches.
pub struct DenseCombined<M> {
    base: u32,
    slots: Vec<Option<M>>,
    raw: u64,
}

impl<M: Record> Default for DenseCombined<M> {
    fn default() -> Self {
        DenseCombined {
            base: 0,
            slots: Vec::new(),
            raw: 0,
        }
    }
}

impl<M: Record> DenseCombined<M> {
    /// Starts an empty batch for destinations in `range`.
    pub fn reset(&mut self, range: std::ops::Range<u32>) {
        if self.raw != 0 {
            // A batch folded but never finished: drop what it holds.
            self.slots.fill(None);
        }
        // `finish` leaves every slot empty, so this writes only the slots
        // a wider range adds.
        self.slots.resize(range.len(), None);
        self.base = range.start;
        self.raw = 0;
    }

    /// Folds one message into its destination's slot. `dst` must lie in
    /// the range given to [`DenseCombined::reset`].
    #[inline]
    pub fn fold(&mut self, dst: VertexId, m: M, combiner: &dyn Combiner<M>) {
        let slot = &mut self.slots[(dst.0 - self.base) as usize];
        *slot = Some(match slot.take() {
            None => m,
            Some(acc) => combiner.combine(&acc, &m),
        });
        self.raw += 1;
    }

    /// Messages folded since the last reset.
    pub fn raw_messages(&self) -> u64 {
        self.raw
    }

    /// Emits the combined payload in ascending `dst` and empties every
    /// slot.
    pub fn finish(&mut self) -> (Vec<u8>, WireStats) {
        let groups_bound = (self.raw as usize).min(self.slots.len());
        let mut out = Vec::with_capacity(groups_bound * (4 + M::BYTES));
        let mut groups = 0u64;
        for (off, slot) in self.slots.iter_mut().enumerate() {
            if let Some(acc) = slot.take() {
                VertexId(self.base + off as u32).append_to(&mut out);
                acc.append_to(&mut out);
                groups += 1;
            }
        }
        let stats = WireStats {
            raw_messages: self.raw,
            wire_values: groups,
            wire_bytes: out.len() as u64,
            saved_messages: self.raw.saturating_sub(groups),
        };
        self.raw = 0;
        (out, stats)
    }
}

/// Decodes a batch back into `(dst, value)` pairs.
///
/// Concatenated batches expand to one pair per value; combined batches
/// yield one pair per destination.
pub fn decode_batch<M: Record>(kind: BatchKind, bytes: &[u8]) -> Vec<(VertexId, M)> {
    let mut out = Vec::new();
    let mut at = 0usize;
    match kind {
        BatchKind::Plain | BatchKind::Combined => {
            let width = 4 + M::BYTES;
            assert_eq!(bytes.len() % width, 0, "batch length misaligned");
            while at < bytes.len() {
                let dst = VertexId::read_from(&bytes[at..at + 4]);
                let m = M::read_from(&bytes[at + 4..at + width]);
                out.push((dst, m));
                at += width;
            }
        }
        BatchKind::Concatenated => {
            while at < bytes.len() {
                let dst = VertexId::read_from(&bytes[at..at + 4]);
                let count = u32::read_from(&bytes[at + 4..at + 8]) as usize;
                at += 8;
                for _ in 0..count {
                    out.push((dst, M::read_from(&bytes[at..at + M::BYTES])));
                    at += M::BYTES;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combine::{MinCombiner, SumCombiner};

    fn sample() -> Vec<(VertexId, f64)> {
        vec![
            (VertexId(2), 1.0),
            (VertexId(1), 2.0),
            (VertexId(2), 3.0),
            (VertexId(1), 4.0),
            (VertexId(3), 5.0),
        ]
    }

    #[test]
    fn plain_roundtrip() {
        let mut msgs = sample();
        let (bytes, stats) = encode_batch(BatchKind::Plain, &mut msgs, None);
        assert_eq!(stats.raw_messages, 5);
        assert_eq!(stats.wire_values, 5);
        assert_eq!(stats.saved_messages, 0);
        assert_eq!(stats.wire_bytes, 5 * 12);
        let back: Vec<(VertexId, f64)> = decode_batch(BatchKind::Plain, &bytes);
        assert_eq!(back, sample());
    }

    #[test]
    fn concatenated_shares_ids() {
        let mut msgs = sample();
        let (bytes, stats) = encode_batch(BatchKind::Concatenated, &mut msgs, None);
        assert_eq!(stats.raw_messages, 5);
        // 3 groups: v1 (2 msgs), v2 (2 msgs), v3 (1 msg)
        assert_eq!(stats.saved_messages, 2);
        assert_eq!(stats.wire_bytes, 3 * 8 + 5 * 8);
        let mut back: Vec<(VertexId, f64)> = decode_batch(BatchKind::Concatenated, &bytes);
        back.sort_by(|a, b| (a.0, a.1).partial_cmp(&(b.0, b.1)).unwrap());
        let mut want = sample();
        want.sort_by(|a, b| (a.0, a.1).partial_cmp(&(b.0, b.1)).unwrap());
        assert_eq!(back, want);
    }

    #[test]
    fn combined_merges_values() {
        let mut msgs = sample();
        let (bytes, stats) = encode_batch(BatchKind::Combined, &mut msgs, Some(&SumCombiner));
        assert_eq!(stats.wire_values, 3);
        assert_eq!(stats.saved_messages, 2);
        assert_eq!(stats.wire_bytes, 3 * 12);
        let back: Vec<(VertexId, f64)> = decode_batch(BatchKind::Combined, &bytes);
        assert_eq!(
            back,
            vec![(VertexId(1), 6.0), (VertexId(2), 4.0), (VertexId(3), 5.0)]
        );
    }

    #[test]
    fn combined_with_min() {
        let mut msgs = vec![
            (VertexId(0), 4.0f32),
            (VertexId(0), 2.0),
            (VertexId(0), 9.0),
        ];
        let (bytes, stats) = encode_batch(BatchKind::Combined, &mut msgs, Some(&MinCombiner));
        assert_eq!(stats.wire_values, 1);
        let back: Vec<(VertexId, f32)> = decode_batch(BatchKind::Combined, &bytes);
        assert_eq!(back, vec![(VertexId(0), 2.0)]);
    }

    #[test]
    fn empty_batches() {
        for kind in [BatchKind::Plain, BatchKind::Concatenated] {
            let mut msgs: Vec<(VertexId, u32)> = Vec::new();
            let (bytes, stats) = encode_batch(kind, &mut msgs, None);
            assert!(bytes.is_empty());
            assert_eq!(stats, WireStats::default());
            assert!(decode_batch::<u32>(kind, &bytes).is_empty());
        }
    }

    #[test]
    fn concatenation_wins_on_high_fan_in() {
        // Each group carries a 4-byte count, so sharing the id pays off
        // once a destination receives more than two messages — the regime
        // pull-based generation puts every high-in-degree vertex in.
        let mut batch: Vec<(VertexId, f64)> =
            (0..100).map(|i| (VertexId(i / 10), i as f64)).collect();
        let mut plain_batch = batch.clone();
        let (_, plain) = encode_batch(BatchKind::Plain, &mut plain_batch, None);
        let (_, conc) = encode_batch(BatchKind::Concatenated, &mut batch, None);
        assert!(conc.wire_bytes < plain.wire_bytes);
        assert_eq!(conc.saved_messages, 90);
    }

    /// Runs `msgs` through both combined encodings for destinations in
    /// `range` and requires identical payload bytes and stats.
    fn dense_matches_sorted<M: Record>(
        dense: &mut DenseCombined<M>,
        range: std::ops::Range<u32>,
        msgs: &[(VertexId, M)],
        combiner: &dyn Combiner<M>,
        what: &str,
    ) {
        dense.reset(range);
        for (dst, m) in msgs {
            dense.fold(*dst, m.clone(), combiner);
        }
        let got = dense.finish();
        let mut sorted = msgs.to_vec();
        let want = encode_batch(BatchKind::Combined, &mut sorted, Some(combiner));
        assert_eq!(got, want, "{what}");
    }

    /// A combiner that keeps the smaller value and lets NaN through on
    /// either side, so the fold order shows in the result bits.
    struct NanMin;

    impl Combiner<f32> for NanMin {
        fn combine(&self, a: &f32, b: &f32) -> f32 {
            if a.is_nan() || b < a {
                *b
            } else {
                *a
            }
        }
    }

    #[test]
    fn dense_fold_matches_encode_batch_combined() {
        use hybridgraph_graph::rng::SplitMix64;
        let mut sum = DenseCombined::<f64>::default();
        let mut min = DenseCombined::<f32>::default();
        for seed in [7u64, 1913, 0xdead_beef] {
            println!("dense fold seed {seed}");
            let mut r = SplitMix64::new(seed);
            for case in 0..200 {
                let start = r.below_u32(1 << 20);
                let width = match case % 4 {
                    0 => 1,
                    1 => r.range_usize(2, 8),
                    _ => r.range_usize(8, 400),
                } as u32;
                let n = match case % 5 {
                    0 => 0,
                    1 => 1,
                    _ => r.range_usize(2, 3 * width as usize + 2),
                };
                let dst = |r: &mut SplitMix64| VertexId(start + r.below_u32(width));
                let what = format!("seed {seed} case {case}");
                // f64 sums spanning 1e-300..1e300 with mixed signs: the
                // grouping changes the result, so only the same fold
                // order reproduces it.
                let msgs: Vec<(VertexId, f64)> = (0..n)
                    .map(|_| {
                        let mag = 10f64.powi(r.range_i64_inclusive(-300, 300) as i32);
                        let sign = if r.next_bool() { -1.0 } else { 1.0 };
                        (dst(&mut r), sign * mag * (1.0 + r.next_f64()))
                    })
                    .collect();
                if case % 7 == 3 {
                    // A batch abandoned before `finish` must not leak into
                    // the next one.
                    sum.reset(start..start + width);
                    for (d, m) in &msgs {
                        sum.fold(*d, *m, &SumCombiner);
                    }
                }
                dense_matches_sorted(&mut sum, start..start + width, &msgs, &SumCombiner, &what);
                // f32 minimum with NaNs and signed zeros, under the
                // library combiner and one where NaN is order-sensitive.
                let msgs: Vec<(VertexId, f32)> = (0..n)
                    .map(|_| {
                        let v = match r.below_u32(6) {
                            0 => f32::NAN,
                            1 => -0.0,
                            2 => 0.0,
                            _ => r.range_f32(-1e30, 1e30),
                        };
                        (dst(&mut r), v)
                    })
                    .collect();
                dense_matches_sorted(&mut min, start..start + width, &msgs, &MinCombiner, &what);
                dense_matches_sorted(&mut min, start..start + width, &msgs, &NanMin, &what);
            }
        }
    }

    #[test]
    fn wire_stats_plus() {
        let a = WireStats {
            raw_messages: 1,
            wire_values: 1,
            wire_bytes: 12,
            saved_messages: 0,
        };
        let b = WireStats {
            raw_messages: 3,
            wire_values: 2,
            wire_bytes: 20,
            saved_messages: 1,
        };
        let c = a.plus(&b);
        assert_eq!(c.raw_messages, 4);
        assert_eq!(c.wire_bytes, 32);
        assert_eq!(c.saved_messages, 1);
    }
}
