//! Everything `--seed` decides: the path pool, the body filler both ends
//! verify against, and the Hadoop word dictionary, counts and streams. The
//! program under test only ever sees the generated bytes.

use crate::util::{fnv1a, Rng};
use std::collections::HashSet;

pub const PATH_POOL: usize = 1024;
pub const SMALL_BODY: usize = 137;
pub const BULK_BODY: usize = 1 << 20;
/// Bodies are windows into one filler block; the window's offset is derived
/// from the request path, so neither end generates a body per request.
const FILLER_WINDOWS: usize = 4096;

pub const HADOOP_WORDS: usize = 4096;
pub const HADOOP_WORD_LEN: usize = 12;
pub const HADOOP_WRITE: usize = 32 * 1024;

/// What a request asks the back-end for; the first path segment encodes it
/// so the back-end needs no side channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `GET /s/…` → 137-byte body.
    Small,
    /// `GET /b/…` → 1 MiB body.
    BulkGet,
    /// `POST /u/…` with a 1 MiB body → 2-byte body.
    BulkPost,
}

impl Kind {
    pub fn tag(self) -> char {
        match self {
            Kind::Small => 's',
            Kind::BulkGet => 'b',
            Kind::BulkPost => 'u',
        }
    }

    pub fn from_path(path: &str) -> Option<Kind> {
        match path.as_bytes().get(1)? {
            b's' => Some(Kind::Small),
            b'b' => Some(Kind::BulkGet),
            b'u' => Some(Kind::BulkPost),
            _ => None,
        }
    }

    /// Bytes of the response body a request of this kind is answered with
    /// (for a GET, the `be=N;` prefix included).
    pub fn response_len(self) -> usize {
        match self {
            Kind::Small => SMALL_BODY,
            Kind::BulkGet => BULK_BODY,
            Kind::BulkPost => 2,
        }
    }

    /// Slot of this kind in per-(kind, path) tables.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One mapper's pre-generated record stream and what the reducer must see.
pub struct MapperStream {
    pub bytes: Vec<u8>,
    pub records: u64,
    pub sum: u64,
    pub words: HashSet<u32>,
}

pub struct Inputs {
    /// Path suffixes; a request path is `/{kind tag}/{suffix}`.
    suffixes: Vec<String>,
    filler: Vec<u8>,
}

impl Inputs {
    pub fn new(seed: u64) -> Inputs {
        let mut rng = Rng::new(seed ^ 0x5eed_0001);
        let suffixes = (0..PATH_POOL)
            .map(|i| format!("{i:03x}{:013x}", rng.next_u64() >> 12))
            .collect();
        let filler = (0..BULK_BODY + FILLER_WINDOWS)
            .map(|_| b'!' + (rng.next_u64() % 94) as u8)
            .collect();
        Inputs { suffixes, filler }
    }

    pub fn path(&self, kind: Kind, idx: usize) -> String {
        format!("/{}/{}", kind.tag(), self.suffixes[idx])
    }

    /// The `len` body bytes both ends agree on for `path`.
    pub fn body(&self, path: &str, len: usize) -> &[u8] {
        let offset = (fnv1a(path.as_bytes()) % FILLER_WINDOWS as u64) as usize;
        &self.filler[offset..offset + len]
    }

    /// Checks a received body against [`Inputs::body`]: the head, the last
    /// byte and sixteen positions spread over the rest.
    pub fn body_matches(&self, path: &str, got: &[u8]) -> bool {
        // `got` comes off the wire: no window exists for these lengths.
        if got.is_empty() || got.len() > BULK_BODY {
            return false;
        }
        let want = self.body(path, got.len());
        let head = got.len().min(64);
        got[..head] == want[..head]
            && got.last() == want.last()
            && (1..=16).all(|k| {
                let at = k * got.len() / 17;
                got[at] == want[at]
            })
    }
}

/// The Hadoop inputs of one round: `mappers` full streams for the measured
/// jobs and a tiny stream each for the first verified op of set-up.
pub struct HadoopInputs {
    pub full: Vec<MapperStream>,
    pub tiny: Vec<MapperStream>,
}

impl HadoopInputs {
    pub fn new(seed: u64, mappers: usize, bytes_per_mapper: usize) -> HadoopInputs {
        let mut rng = Rng::new(seed ^ 0x5eed_0002);
        let words: Vec<String> = (0..HADOOP_WORDS)
            .map(|i| {
                let mut word = format!("w{i:03x}");
                while word.len() < HADOOP_WORD_LEN {
                    word.push((b'a' + rng.below(26) as u8) as char);
                }
                word
            })
            .collect();
        let mut stream = |target: usize| {
            let mut s = MapperStream {
                bytes: Vec::with_capacity(target + 64),
                records: 0,
                sum: 0,
                words: HashSet::new(),
            };
            while s.bytes.len() < target {
                let word = rng.below(HADOOP_WORDS);
                let count = 1 + rng.below(99) as u64;
                let value = count.to_string();
                s.bytes
                    .extend_from_slice(&(HADOOP_WORD_LEN as u32).to_be_bytes());
                s.bytes
                    .extend_from_slice(&(value.len() as u32).to_be_bytes());
                s.bytes.extend_from_slice(words[word].as_bytes());
                s.bytes.extend_from_slice(value.as_bytes());
                s.records += 1;
                s.sum += count;
                s.words.insert(word as u32);
            }
            s
        };
        HadoopInputs {
            full: (0..mappers).map(|_| stream(bytes_per_mapper)).collect(),
            tiny: (0..mappers).map(|_| stream(512)).collect(),
        }
    }
}

/// Totals the reducer must report for a job made of `streams`.
pub fn expected(streams: &[MapperStream]) -> (u64, u64, u64) {
    let records = streams.iter().map(|s| s.records).sum();
    let sum = streams.iter().map(|s| s.sum).sum();
    let distinct: HashSet<u32> = streams
        .iter()
        .flat_map(|s| s.words.iter().copied())
        .collect();
    (records, sum, distinct.len() as u64)
}
