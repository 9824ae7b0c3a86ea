//! Seeded input generation: the corpus-mix pass order and the
//! daemon-mixed job stream. The same seed gives the same streams.

use walshcheck_core::{CheckMode, EngineKind};

use crate::check::CheckSpec;
use crate::known::CATALOGUE;

/// SplitMix64: a small, fast, well-mixed deterministic generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a stream label (so that streams derived
    /// from one seed are independent).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        // Multiply-shift; the bias is below 2^-32 for the small n used here.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Every engine, in a fixed order.
pub const ENGINES: [EngineKind; 4] = [
    EngineKind::Lil,
    EngineKind::Map,
    EngineKind::Mapi,
    EngineKind::Fujita,
];

/// Both check modes, in a fixed order.
pub const MODES: [CheckMode; 2] = [CheckMode::RowWise, CheckMode::Joint];

/// One in-process check of the mix: a catalogue case under one engine and
/// mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Item {
    /// Index into [`CATALOGUE`].
    pub case: usize,
    /// Engine.
    pub engine: EngineKind,
    /// Check mode.
    pub mode: CheckMode,
}

impl Item {
    /// The check this item runs: one thread, the session defaults
    /// otherwise (prefilter on).
    pub fn spec(self) -> CheckSpec {
        let case = &CATALOGUE[self.case];
        CheckSpec {
            property: case.property,
            engine: self.engine,
            mode: self.mode,
            glitch: case.glitch,
            threads: 1,
            prefilter: true,
        }
    }
}

/// The cross product of `cases` with every engine and mode: the content
/// of one pass, in catalogue order.
pub fn cross(cases: &[usize]) -> Vec<Item> {
    let mut items = Vec::with_capacity(cases.len() * ENGINES.len() * MODES.len());
    for &case in cases {
        for engine in ENGINES {
            for mode in MODES {
                items.push(Item { case, engine, mode });
            }
        }
    }
    items
}

/// Pass `pass` of the corpus-mix stream for `seed`: every (case, engine,
/// mode) exactly once, in a seeded order. Every pass holds the same
/// checks, so per-pass totals do not depend on the seed.
pub fn mix_pass(seed: u64, pass: u64, cases: &[usize]) -> Vec<Item> {
    let mut items = cross(cases);
    Rng::new(seed, 0x6d69_7800 + pass).shuffle(&mut items);
    items
}

/// The catalogue indices in use (all of them, or the smoke subset).
pub fn catalogue_cases(smoke: bool) -> Vec<usize> {
    (0..CATALOGUE.len())
        .filter(|&i| !smoke || CATALOGUE[i].smoke())
        .collect()
}

/// One position of the daemon-mixed stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Job {
    /// A spec the daemon has not seen: `item` on a netlist renamed with
    /// `nonce`, so its content address is new.
    Fresh {
        /// What to check.
        item: Item,
        /// Distinguishes this netlist from every other fresh one.
        nonce: u64,
    },
    /// A resubmission of the job at stream position `of`.
    Resubmit {
        /// Earlier stream position whose spec is resubmitted.
        of: usize,
    },
}

/// The checks daemon jobs run: every case under the session defaults
/// (MAPI engine, joint mode), one pass per catalogue sweep.
pub fn daemon_items(cases: &[usize]) -> Vec<Item> {
    cases
        .iter()
        .map(|&case| Item {
            case,
            engine: EngineKind::Mapi,
            mode: CheckMode::Joint,
        })
        .collect()
}

/// The daemon-mixed job stream for `seed`: about half of the positions
/// from the third on resubmit an earlier position; fresh positions walk
/// through seeded passes over [`daemon_items`].
#[derive(Debug, Clone)]
pub struct JobStream {
    rng: Rng,
    items: Vec<Item>,
    pending: Vec<Item>,
    position: usize,
}

impl JobStream {
    /// The stream for `seed` over catalogue `cases`.
    pub fn new(seed: u64, cases: &[usize]) -> JobStream {
        JobStream {
            rng: Rng::new(seed, 0x6a6f_6273),
            items: daemon_items(cases),
            pending: Vec::new(),
            position: 0,
        }
    }
}

impl Iterator for JobStream {
    type Item = Job;

    fn next(&mut self) -> Option<Job> {
        let position = self.position;
        self.position += 1;
        let coin = self.rng.next_u64();
        if position >= 2 && coin & 1 == 1 {
            let of = self.rng.below(position as u64 - 1) as usize;
            return Some(Job::Resubmit { of });
        }
        if self.pending.is_empty() {
            self.pending = self.items.clone();
            self.rng.shuffle(&mut self.pending);
        }
        let item = self.pending.pop().expect("a pass is never empty");
        Some(Job::Fresh {
            item,
            nonce: position as u64,
        })
    }
}
