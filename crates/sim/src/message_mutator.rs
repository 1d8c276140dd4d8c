//! Grammar-aware wire-frame mutation.
//!
//! The fuzzing half of the hardened-parsing story: [`MessageMutator`]
//! takes *valid* frames produced by the workload generators and damages
//! them in ways that target the parser's actual decision points — length
//! fields, framing boundaries, header structure — rather than flipping
//! random bits (which mostly produces trivially-invalid noise the first
//! byte of parsing rejects). Every choice derives from an order-stable
//! [`SimRng`] fork, so a hostile scenario replays bit-identically from
//! its seed (the seed-replay contract of DESIGN.md §12 extends to the
//! mutations).
//!
//! Each [`MutationKind`] comes with a *verdict contract*: either the
//! server's bounded parser must classify the frame as `Malformed` and
//! close the connection (counted in `NetStats::malformed_closes`), or the
//! frame is merely *incomplete* — a truncation or a slowloris stall — and
//! the server owes nothing but a clean teardown when the peer gives up.
//! The scenario driver turns those contracts into per-run invariants; the
//! unit tests below check them directly against [`HttpCodec`].

use flick_net::SimRng;

/// Bytes of unterminated header stream the head-flood mutation emits.
/// Deliberately past the 64 KiB `flick_grammar::limits::MAX_HEAD_BYTES`,
/// so a parser must reject the flood mid-stream instead of buffering it
/// forever.
pub const HEAD_FLOOD_BYTES: usize = 80 * 1024;

/// The grammar-aware damage a [`MessageMutator`] can do to a valid frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationKind {
    /// Declare a body length far past any sane parse bound (a 16 GiB
    /// `Content-Length` on a bodyless request).
    OversizedLength,
    /// Declare the body length twice, with disagreeing values — the
    /// classic request-smuggling ambiguity.
    DuplicateLength,
    /// Declare the body length in a shape strict parsers must reject
    /// (`+1`, hex, internal whitespace, empty).
    GarbledLength,
    /// Splice a second complete frame into the middle of the first one's
    /// request line, corrupting the method token.
    SpliceFrames,
    /// Stream header lines that never terminate, past the head limit —
    /// the slowloris that *floods* instead of trickling.
    HeadFlood,
    /// Cut the head short and hang up: an incomplete frame, not a
    /// malformed one.
    TruncateHead,
    /// Trickle a few valid bytes one write at a time, then stall and hang
    /// up — the classic slowloris, delivered byte-wise.
    Slowloris,
}

impl MutationKind {
    /// Every kind, in the order the mutator draws from.
    pub const ALL: [MutationKind; 7] = [
        MutationKind::OversizedLength,
        MutationKind::DuplicateLength,
        MutationKind::GarbledLength,
        MutationKind::SpliceFrames,
        MutationKind::HeadFlood,
        MutationKind::TruncateHead,
        MutationKind::Slowloris,
    ];

    /// Short name used in traces.
    pub fn name(&self) -> &'static str {
        match self {
            MutationKind::OversizedLength => "oversized-length",
            MutationKind::DuplicateLength => "duplicate-length",
            MutationKind::GarbledLength => "garbled-length",
            MutationKind::SpliceFrames => "splice",
            MutationKind::HeadFlood => "head-flood",
            MutationKind::TruncateHead => "truncate",
            MutationKind::Slowloris => "slowloris",
        }
    }

    /// The verdict contract: `true` if a bounded parser must classify the
    /// mutated frame as `Malformed` (and the server close the connection,
    /// counting it); `false` if the frame is merely incomplete and the
    /// client hanging up is the end of the story.
    pub fn expects_malformed_close(&self) -> bool {
        !matches!(self, MutationKind::TruncateHead | MutationKind::Slowloris)
    }
}

/// How the mutated bytes should reach the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// One write.
    Whole,
    /// Chunks of the given size — the head flood arrives as a stream, and
    /// the server is expected to slam the door mid-delivery.
    Chunked(usize),
    /// One byte per write, then stall: the sender never finishes.
    ByteWiseThenStall,
}

/// One mutated frame, ready to send.
#[derive(Debug, Clone)]
pub struct MutatedFrame {
    /// What was done to the frame.
    pub kind: MutationKind,
    /// The bytes to put on the wire.
    pub bytes: Vec<u8>,
    /// How to put them there.
    pub delivery: Delivery,
}

/// A seeded, grammar-aware frame mutator.
///
/// All randomness flows through the [`SimRng`] handed in at construction;
/// two mutators built from the same seed produce identical mutation
/// streams over identical inputs.
#[derive(Debug, Clone)]
pub struct MessageMutator {
    rng: SimRng,
}

impl MessageMutator {
    /// Wraps an existing (typically forked) generator.
    pub fn new(rng: SimRng) -> Self {
        MessageMutator { rng }
    }

    /// Convenience constructor from a bare seed.
    pub fn from_seed(seed: u64) -> Self {
        MessageMutator::new(SimRng::new(seed))
    }

    /// Draws the per-request hostile decision. Kept on the mutator's own
    /// stream so enabling hostile traffic never shifts the draw order of
    /// the driver's other decision streams.
    pub fn roll(&mut self, rate: f64) -> bool {
        self.rng.chance(rate)
    }

    /// Mutates one valid frame. `frame` must be a complete HTTP/1.1
    /// request (ending in `\r\n\r\n`); the output honours the chosen
    /// kind's verdict contract.
    pub fn mutate(&mut self, frame: &[u8]) -> MutatedFrame {
        let kind = MutationKind::ALL[self.rng.pick(MutationKind::ALL.len())];
        match kind {
            MutationKind::OversizedLength => {
                // 16 GiB and change: parses as digits, blows any sane
                // body bound.
                let declared = (1u64 << 34) + self.rng.pick(1000) as u64;
                let bytes = insert_headers(frame, &format!("Content-Length: {declared}\r\n"));
                MutatedFrame {
                    kind,
                    bytes,
                    delivery: Delivery::Whole,
                }
            }
            MutationKind::DuplicateLength => {
                let first = self.rng.pick(16);
                let second = first + 1 + self.rng.pick(16);
                let bytes = insert_headers(
                    frame,
                    &format!("Content-Length: {first}\r\nContent-Length: {second}\r\n"),
                );
                MutatedFrame {
                    kind,
                    bytes,
                    delivery: Delivery::Whole,
                }
            }
            MutationKind::GarbledLength => {
                const SHAPES: [&str; 4] = ["+1", "0x10", "1 1", ""];
                let value = SHAPES[self.rng.pick(SHAPES.len())];
                let bytes = insert_headers(frame, &format!("Content-Length: {value}\r\n"));
                MutatedFrame {
                    kind,
                    bytes,
                    delivery: Delivery::Whole,
                }
            }
            MutationKind::SpliceFrames => {
                // Cut inside the method token and graft a whole second
                // frame on: the first token of the result is the victim's
                // method prefix fused onto the donor's method — never a
                // valid method itself.
                let method_len = frame
                    .iter()
                    .position(|&b| b == b' ')
                    .unwrap_or(1)
                    .clamp(1, 8);
                let cut = 1 + self.rng.pick(method_len);
                let donor = b"GET /spliced HTTP/1.1\r\nHost: mutator\r\n\r\n";
                let mut bytes = frame[..cut].to_vec();
                bytes.extend_from_slice(donor);
                MutatedFrame {
                    kind,
                    bytes,
                    delivery: Delivery::Whole,
                }
            }
            MutationKind::HeadFlood => {
                let mut bytes = b"GET /flood HTTP/1.1\r\n".to_vec();
                let mut line = 0usize;
                while bytes.len() <= HEAD_FLOOD_BYTES {
                    bytes.extend_from_slice(format!("X-Flood-{line}: {:a<64}\r\n", "").as_bytes());
                    line += 1;
                }
                // No terminating blank line — the head never ends.
                MutatedFrame {
                    kind,
                    bytes,
                    delivery: Delivery::Chunked(8 * 1024),
                }
            }
            MutationKind::TruncateHead => {
                // Keep 1..=len-2 bytes: always at least one byte short of
                // the terminator, so the remainder is incomplete, never
                // complete.
                let keep = 1 + self.rng.pick(frame.len().saturating_sub(2).max(1));
                MutatedFrame {
                    kind,
                    bytes: frame[..keep.min(frame.len() - 1)].to_vec(),
                    delivery: Delivery::Whole,
                }
            }
            MutationKind::Slowloris => {
                let keep = (frame.len() / 2).clamp(1, 10);
                MutatedFrame {
                    kind,
                    bytes: frame[..keep].to_vec(),
                    delivery: Delivery::ByteWiseThenStall,
                }
            }
        }
    }
}

/// Inserts raw header lines just before a complete frame's terminating
/// blank line.
fn insert_headers(frame: &[u8], lines: &str) -> Vec<u8> {
    debug_assert!(
        frame.ends_with(b"\r\n\r\n"),
        "mutator input must be a complete frame"
    );
    let split = frame.len().saturating_sub(2);
    let mut bytes = Vec::with_capacity(frame.len() + lines.len());
    bytes.extend_from_slice(&frame[..split]);
    bytes.extend_from_slice(lines.as_bytes());
    bytes.extend_from_slice(&frame[split..]);
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use flick_grammar::http::HttpCodec;
    use flick_grammar::{ParseOutcome, WireCodec};

    const FRAME: &[u8] = b"GET /c0/t0 HTTP/1.1\r\nHost: sim\r\n\r\n";

    #[test]
    fn same_seed_same_mutation_stream() {
        let mut a = MessageMutator::from_seed(0xF00D);
        let mut b = MessageMutator::from_seed(0xF00D);
        for _ in 0..64 {
            assert_eq!(a.roll(0.3), b.roll(0.3));
            let (ma, mb) = (a.mutate(FRAME), b.mutate(FRAME));
            assert_eq!(ma.kind, mb.kind);
            assert_eq!(ma.bytes, mb.bytes);
            assert_eq!(ma.delivery, mb.delivery);
        }
    }

    /// The verdict contract, checked against the real bounded codec: every
    /// malformed-expecting mutation must actually parse as an error under
    /// default limits, and every incomplete-expecting mutation must parse
    /// as `Incomplete` (the server keeps waiting; the client hangs up).
    #[test]
    fn mutations_honour_their_verdict_contract() {
        let codec = HttpCodec::new();
        let mut mutator = MessageMutator::from_seed(0x5EED);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..256 {
            let mutated = mutator.mutate(FRAME);
            seen.insert(mutated.kind.name());
            let outcome = codec.parse(&mutated.bytes, None);
            if mutated.kind.expects_malformed_close() {
                assert!(
                    outcome.is_err(),
                    "{} must be malformed, parsed to {outcome:?}",
                    mutated.kind.name()
                );
            } else {
                assert!(
                    matches!(outcome, Ok(ParseOutcome::Incomplete)),
                    "{} must stay incomplete, parsed to {outcome:?}",
                    mutated.kind.name()
                );
            }
        }
        assert_eq!(
            seen.len(),
            MutationKind::ALL.len(),
            "256 draws must exercise every mutation kind: {seen:?}"
        );
    }

    /// The head flood must reject *incrementally* — before the stream ever
    /// terminates — once the buffered prefix passes the head bound.
    #[test]
    fn head_flood_rejects_mid_stream() {
        let codec = HttpCodec::new();
        let mut mutator = MessageMutator::from_seed(1);
        let flood = loop {
            let mutated = mutator.mutate(FRAME);
            if mutated.kind == MutationKind::HeadFlood {
                break mutated;
            }
        };
        assert!(flood.bytes.len() > HEAD_FLOOD_BYTES);
        // A prefix under the bound is still (correctly) incomplete…
        assert!(matches!(
            codec.parse(&flood.bytes[..32 * 1024], None),
            Ok(ParseOutcome::Incomplete)
        ));
        // …but past the bound the parser must give up rather than buffer.
        assert!(codec.parse(&flood.bytes, None).is_err());
    }

    #[test]
    fn splice_corrupts_the_method_of_any_victim() {
        let codec = HttpCodec::new();
        let mut mutator = MessageMutator::from_seed(2);
        let victims: [&[u8]; 3] = [
            FRAME,
            b"POST /submit HTTP/1.1\r\nHost: sim\r\nContent-Length: 0\r\n\r\n",
            b"DELETE /x HTTP/1.1\r\n\r\n",
        ];
        for victim in victims {
            for _ in 0..64 {
                let mutated = mutator.mutate(victim);
                if mutated.kind == MutationKind::SpliceFrames {
                    assert!(
                        codec.parse(&mutated.bytes, None).is_err(),
                        "spliced {mutated:?} must not parse"
                    );
                }
            }
        }
    }
}
