//! The known-answer table: the expected outcome of every (input,
//! property, order, glitch model) the workloads run, and the inputs
//! themselves.
//!
//! The expectations are written down, not computed: each follows from the
//! paper (Table I: every DOM and Keccak-χ gadget is d-SNI at its order;
//! Fig. 1: the composition is not 2-NI) or from a published fact the
//! repository's `tests/known_verdicts.rs` and `tests/glitch_model.rs`
//! assert. `tests/known_answers.rs` cross-checks every entry whose input
//! is at most 16 bits wide against the independent exhaustive oracle
//! (`exhaustive_check`), and every other entry against all four engines
//! in both check modes. Every mix case ran in under 60 ms on every engine
//! when the table was written.

use std::collections::BTreeMap;
use std::path::Path;

use walshcheck_circuit::ilang::{parse_ilang, write_ilang};
use walshcheck_circuit::netlist::Netlist;
use walshcheck_core::hash::sha256_hex;
use walshcheck_core::Property::{self, Ni, Pini, Probing, Sni};
use walshcheck_gadgets::suite::Benchmark;

/// The answer a check must give.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Every combination checked, none violates: outcome `secure`, exit 0.
    Secure,
    /// A violation with its witness: outcome `violated`, exit 1.
    Violated,
}

const SECURE: Expect = Expect::Secure;
const VIOLATED: Expect = Expect::Violated;
const STD: bool = false;
const GLITCH: bool = true;

impl Expect {
    /// The report's outcome string for this answer.
    pub fn outcome(self) -> &'static str {
        match self {
            Expect::Secure => "secure",
            Expect::Violated => "violated",
        }
    }

    /// The CLI exit code for this answer.
    pub fn exit_code(self) -> i32 {
        match self {
            Expect::Secure => 0,
            Expect::Violated => 1,
        }
    }

    /// Judges a reported `outcome` (and whether a witness came with it).
    ///
    /// # Errors
    ///
    /// Describes the disagreement: a wrong or inconclusive outcome, a
    /// violation without a witness, or a witness on a secure verdict.
    pub fn judge(self, outcome: &str, witness: bool) -> Result<(), String> {
        if outcome != self.outcome() {
            return Err(format!("expected {}, got {outcome:?}", self.outcome()));
        }
        match (self, witness) {
            (Expect::Violated, false) => Err("violation reported without a witness".into()),
            (Expect::Secure, true) => Err("secure verdict carries a witness".into()),
            _ => Ok(()),
        }
    }
}

/// One entry of the table.
#[derive(Debug, Clone, Copy)]
pub struct Case {
    /// Input name: a built-in benchmark (`"dom-2"`) or a corpus file
    /// (`"corpus/dom_1.il"`).
    pub input: &'static str,
    /// Property and order.
    pub property: Property,
    /// Glitch-extended probing model.
    pub glitch: bool,
    /// The known answer.
    pub expect: Expect,
}

impl Case {
    /// `input property-order[+glitch]`, for messages.
    pub fn label(&self) -> String {
        format!(
            "{} {}-{}{}",
            self.input,
            self.property.kind(),
            self.property.order(),
            if self.glitch { "+glitch" } else { "" }
        )
    }

    /// Whether the case belongs to the seconds-long smoke subset.
    pub fn smoke(&self) -> bool {
        SMOKE_INPUTS.contains(&self.input)
    }
}

const fn c(input: &'static str, property: Property, glitch: bool, expect: Expect) -> Case {
    Case {
        input,
        property,
        glitch,
        expect,
    }
}

/// Inputs whose cases form the smoke subset of the mix.
pub const SMOKE_INPUTS: [&str; 2] = ["dom-1", "corpus/isw_1.il"];

/// The Table I rows the process workloads run (rowwise MAPI, no
/// prefilter): dom-4 and keccak-3 at full size, dom-2 and keccak-1 in the
/// smoke runs.
pub const TABLE_I: [Case; 4] = [
    c("dom-4", Sni(4), STD, SECURE),
    c("keccak-3", Sni(3), STD, SECURE),
    c("dom-2", Sni(2), STD, SECURE),
    c("keccak-1", Sni(1), STD, SECURE),
];

/// Every check of the corpus-mix and daemon-mixed workloads.
pub const CATALOGUE: &[Case] = &[
    // ti-1 — 1-probing secure by non-completeness, neither 1-NI nor 1-SNI
    // (known_verdicts.rs); glitches change nothing (glitch_model.rs).
    c("ti-1", Probing(1), STD, SECURE),
    c("ti-1", Probing(1), GLITCH, SECURE),
    c("ti-1", Ni(1), STD, VIOLATED),
    c("ti-1", Ni(1), GLITCH, VIOLATED),
    c("ti-1", Sni(1), STD, VIOLATED),
    c("ti-1", Sni(1), GLITCH, VIOLATED),
    c("ti-1", Pini(1), STD, VIOLATED),
    c("ti-1", Pini(1), GLITCH, VIOLATED),
    // trichina-1 — 1-SNI (known_verdicts.rs); combinational, so every
    // property fails once glitches propagate.
    c("trichina-1", Probing(1), STD, SECURE),
    c("trichina-1", Probing(1), GLITCH, VIOLATED),
    c("trichina-1", Ni(1), STD, SECURE),
    c("trichina-1", Ni(1), GLITCH, VIOLATED),
    c("trichina-1", Sni(1), STD, SECURE),
    c("trichina-1", Sni(1), GLITCH, VIOLATED),
    c("trichina-1", Pini(1), STD, VIOLATED),
    c("trichina-1", Pini(1), GLITCH, VIOLATED),
    // isw-1 — 1-SNI, not 2-SNI, not 1-PINI (known_verdicts.rs); the
    // combinational ISW fails under glitches (glitch_model.rs).
    c("isw-1", Probing(1), STD, SECURE),
    c("isw-1", Probing(1), GLITCH, VIOLATED),
    c("isw-1", Ni(1), STD, SECURE),
    c("isw-1", Ni(1), GLITCH, VIOLATED),
    c("isw-1", Sni(1), STD, SECURE),
    c("isw-1", Sni(1), GLITCH, VIOLATED),
    c("isw-1", Sni(2), STD, VIOLATED),
    c("isw-1", Pini(1), STD, VIOLATED),
    c("isw-1", Pini(1), GLITCH, VIOLATED),
    // dom-1 — DOM is d-SNI at its order, registers make it glitch-robust
    // (paper Table I; glitch_model.rs); not PINI (known_verdicts.rs).
    c("dom-1", Probing(1), STD, SECURE),
    c("dom-1", Probing(1), GLITCH, SECURE),
    c("dom-1", Ni(1), STD, SECURE),
    c("dom-1", Ni(1), GLITCH, SECURE),
    c("dom-1", Sni(1), STD, SECURE),
    c("dom-1", Sni(1), GLITCH, SECURE),
    c("dom-1", Sni(2), STD, VIOLATED),
    c("dom-1", Pini(1), STD, VIOLATED),
    c("dom-1", Pini(1), GLITCH, VIOLATED),
    // keccak-1 — the DOM-masked χ row is d-SNI at its order (Table I).
    c("keccak-1", Probing(1), STD, SECURE),
    c("keccak-1", Probing(1), GLITCH, SECURE),
    c("keccak-1", Ni(1), STD, SECURE),
    c("keccak-1", Ni(1), GLITCH, SECURE),
    c("keccak-1", Sni(1), STD, SECURE),
    c("keccak-1", Sni(1), GLITCH, SECURE),
    c("keccak-1", Sni(2), STD, VIOLATED),
    c("keccak-1", Pini(1), STD, VIOLATED),
    c("keccak-1", Pini(1), GLITCH, VIOLATED),
    // dom-2 — 2-SNI (known_verdicts.rs), not 3-SNI with three shares.
    c("dom-2", Probing(2), STD, SECURE),
    c("dom-2", Probing(2), GLITCH, SECURE),
    c("dom-2", Ni(2), STD, SECURE),
    c("dom-2", Ni(2), GLITCH, SECURE),
    c("dom-2", Sni(2), STD, SECURE),
    c("dom-2", Sni(2), GLITCH, SECURE),
    c("dom-2", Sni(3), STD, VIOLATED),
    c("dom-2", Pini(2), STD, VIOLATED),
    c("dom-2", Pini(2), GLITCH, VIOLATED),
    // keccak-2 — 50 ms and under only at order 1 (30 inputs: no oracle).
    c("keccak-2", Probing(1), STD, SECURE),
    c("keccak-2", Probing(1), GLITCH, SECURE),
    c("keccak-2", Ni(1), STD, SECURE),
    c("keccak-2", Ni(1), GLITCH, SECURE),
    c("keccak-2", Sni(1), STD, SECURE),
    c("keccak-2", Sni(1), GLITCH, SECURE),
    c("keccak-2", Pini(1), STD, VIOLATED),
    c("keccak-2", Pini(1), GLITCH, VIOLATED),
    // dom-3 — orders up to 2 stay under 50 ms.
    c("dom-3", Probing(2), STD, SECURE),
    c("dom-3", Probing(1), GLITCH, SECURE),
    c("dom-3", Ni(2), STD, SECURE),
    c("dom-3", Ni(1), GLITCH, SECURE),
    c("dom-3", Sni(2), STD, SECURE),
    c("dom-3", Sni(1), GLITCH, SECURE),
    c("dom-3", Pini(2), STD, VIOLATED),
    c("dom-3", Pini(2), GLITCH, VIOLATED),
    // keccak-3 — order 1 only (50 inputs: no oracle).
    c("keccak-3", Probing(1), STD, SECURE),
    c("keccak-3", Probing(1), GLITCH, SECURE),
    c("keccak-3", Ni(1), STD, SECURE),
    c("keccak-3", Sni(1), STD, SECURE),
    c("keccak-3", Pini(1), STD, VIOLATED),
    c("keccak-3", Pini(1), GLITCH, VIOLATED),
    // hpc1 / hpc2 — d-PINI, also under glitches (known_verdicts.rs).
    c("hpc1-1", Probing(1), STD, SECURE),
    c("hpc1-1", Probing(1), GLITCH, SECURE),
    c("hpc1-1", Ni(1), STD, SECURE),
    c("hpc1-1", Ni(1), GLITCH, SECURE),
    c("hpc1-1", Sni(1), STD, SECURE),
    c("hpc1-1", Sni(1), GLITCH, SECURE),
    c("hpc1-1", Sni(2), STD, VIOLATED),
    c("hpc1-1", Pini(1), STD, SECURE),
    c("hpc1-1", Pini(1), GLITCH, SECURE),
    // hpc1-2
    c("hpc1-2", Probing(2), STD, SECURE),
    c("hpc1-2", Probing(1), GLITCH, SECURE),
    c("hpc1-2", Ni(2), STD, SECURE),
    c("hpc1-2", Ni(1), GLITCH, SECURE),
    c("hpc1-2", Sni(2), STD, SECURE),
    c("hpc1-2", Sni(1), GLITCH, SECURE),
    c("hpc1-2", Pini(2), STD, SECURE),
    c("hpc1-2", Pini(1), GLITCH, SECURE),
    // hpc2-1
    c("hpc2-1", Probing(1), STD, SECURE),
    c("hpc2-1", Probing(1), GLITCH, SECURE),
    c("hpc2-1", Ni(1), STD, SECURE),
    c("hpc2-1", Ni(1), GLITCH, SECURE),
    c("hpc2-1", Sni(1), STD, SECURE),
    c("hpc2-1", Sni(1), GLITCH, SECURE),
    c("hpc2-1", Pini(1), STD, SECURE),
    c("hpc2-1", Pini(1), GLITCH, SECURE),
    // hpc2-2
    c("hpc2-2", Probing(2), STD, SECURE),
    c("hpc2-2", Probing(1), GLITCH, SECURE),
    c("hpc2-2", Ni(2), STD, SECURE),
    c("hpc2-2", Ni(1), GLITCH, SECURE),
    c("hpc2-2", Sni(2), STD, SECURE),
    c("hpc2-2", Sni(1), GLITCH, SECURE),
    c("hpc2-2", Pini(2), STD, SECURE),
    c("hpc2-2", Pini(1), GLITCH, SECURE),
    // chi3-ti — 3-share TI of χ3: first-order probing secure only.
    c("chi3-ti", Probing(1), STD, SECURE),
    c("chi3-ti", Probing(1), GLITCH, SECURE),
    c("chi3-ti", Ni(1), STD, VIOLATED),
    c("chi3-ti", Ni(1), GLITCH, VIOLATED),
    c("chi3-ti", Sni(1), STD, VIOLATED),
    c("chi3-ti", Sni(1), GLITCH, VIOLATED),
    c("chi3-ti", Pini(1), STD, VIOLATED),
    c("chi3-ti", Pini(1), GLITCH, VIOLATED),
    // refresh-isw — SNI at its order (known_verdicts.rs).
    c("refresh-isw-1", Probing(1), STD, SECURE),
    c("refresh-isw-1", Probing(1), GLITCH, SECURE),
    c("refresh-isw-1", Ni(1), STD, SECURE),
    c("refresh-isw-1", Ni(1), GLITCH, SECURE),
    c("refresh-isw-1", Sni(1), STD, SECURE),
    c("refresh-isw-1", Sni(1), GLITCH, SECURE),
    c("refresh-isw-1", Pini(1), STD, SECURE),
    c("refresh-isw-1", Pini(1), GLITCH, SECURE),
    // refresh-isw-2
    c("refresh-isw-2", Probing(2), STD, SECURE),
    c("refresh-isw-2", Probing(2), GLITCH, SECURE),
    c("refresh-isw-2", Ni(2), STD, SECURE),
    c("refresh-isw-2", Ni(2), GLITCH, SECURE),
    c("refresh-isw-2", Sni(2), STD, SECURE),
    c("refresh-isw-2", Sni(2), GLITCH, SECURE),
    c("refresh-isw-2", Pini(2), STD, SECURE),
    c("refresh-isw-2", Pini(2), GLITCH, SECURE),
    // fig1 — the paper's Fig. 1 composition: not 2-NI (Fig. 1/2,
    // known_verdicts.rs); its first-order checks pass without glitches.
    c("fig1", Probing(2), STD, VIOLATED),
    c("fig1", Probing(2), GLITCH, VIOLATED),
    c("fig1", Ni(2), STD, VIOLATED),
    c("fig1", Ni(2), GLITCH, VIOLATED),
    c("fig1", Sni(2), STD, VIOLATED),
    c("fig1", Sni(2), GLITCH, VIOLATED),
    c("fig1", Pini(2), STD, VIOLATED),
    c("fig1", Pini(2), GLITCH, VIOLATED),
    // corpus/*.il — the committed ILANG corpus (tests/corpus.rs): same
    // verdicts as the generated gadgets they were dumped from.
    // corpus/trichina_1.il
    c("corpus/trichina_1.il", Probing(1), STD, SECURE),
    c("corpus/trichina_1.il", Probing(1), GLITCH, VIOLATED),
    c("corpus/trichina_1.il", Ni(1), STD, SECURE),
    c("corpus/trichina_1.il", Ni(1), GLITCH, VIOLATED),
    c("corpus/trichina_1.il", Sni(1), STD, SECURE),
    c("corpus/trichina_1.il", Sni(1), GLITCH, VIOLATED),
    c("corpus/trichina_1.il", Pini(1), STD, VIOLATED),
    c("corpus/trichina_1.il", Pini(1), GLITCH, VIOLATED),
    // corpus/dom_1.il
    c("corpus/dom_1.il", Probing(1), STD, SECURE),
    c("corpus/dom_1.il", Probing(1), GLITCH, SECURE),
    c("corpus/dom_1.il", Ni(1), STD, SECURE),
    c("corpus/dom_1.il", Ni(1), GLITCH, SECURE),
    c("corpus/dom_1.il", Sni(1), STD, SECURE),
    c("corpus/dom_1.il", Sni(1), GLITCH, SECURE),
    c("corpus/dom_1.il", Pini(1), STD, VIOLATED),
    c("corpus/dom_1.il", Pini(1), GLITCH, VIOLATED),
    // corpus/dom_2.il
    c("corpus/dom_2.il", Probing(2), STD, SECURE),
    c("corpus/dom_2.il", Probing(2), GLITCH, SECURE),
    c("corpus/dom_2.il", Ni(2), STD, SECURE),
    c("corpus/dom_2.il", Ni(2), GLITCH, SECURE),
    c("corpus/dom_2.il", Sni(2), STD, SECURE),
    c("corpus/dom_2.il", Sni(2), GLITCH, SECURE),
    c("corpus/dom_2.il", Pini(2), STD, VIOLATED),
    c("corpus/dom_2.il", Pini(2), GLITCH, VIOLATED),
    // corpus/dom_and_handwritten.il
    c("corpus/dom_and_handwritten.il", Probing(1), STD, SECURE),
    c("corpus/dom_and_handwritten.il", Probing(1), GLITCH, SECURE),
    c("corpus/dom_and_handwritten.il", Ni(1), STD, SECURE),
    c("corpus/dom_and_handwritten.il", Ni(1), GLITCH, SECURE),
    c("corpus/dom_and_handwritten.il", Sni(1), STD, SECURE),
    c("corpus/dom_and_handwritten.il", Sni(1), GLITCH, SECURE),
    c("corpus/dom_and_handwritten.il", Pini(1), STD, VIOLATED),
    c("corpus/dom_and_handwritten.il", Pini(1), GLITCH, VIOLATED),
    // corpus/isw_1.il
    c("corpus/isw_1.il", Probing(1), STD, SECURE),
    c("corpus/isw_1.il", Probing(1), GLITCH, VIOLATED),
    c("corpus/isw_1.il", Ni(1), STD, SECURE),
    c("corpus/isw_1.il", Ni(1), GLITCH, VIOLATED),
    c("corpus/isw_1.il", Sni(1), STD, SECURE),
    c("corpus/isw_1.il", Sni(1), GLITCH, VIOLATED),
    c("corpus/isw_1.il", Pini(1), STD, VIOLATED),
    c("corpus/isw_1.il", Pini(1), GLITCH, VIOLATED),
    // corpus/keccak_1.il
    c("corpus/keccak_1.il", Probing(1), STD, SECURE),
    c("corpus/keccak_1.il", Probing(1), GLITCH, SECURE),
    c("corpus/keccak_1.il", Ni(1), STD, SECURE),
    c("corpus/keccak_1.il", Ni(1), GLITCH, SECURE),
    c("corpus/keccak_1.il", Sni(1), STD, SECURE),
    c("corpus/keccak_1.il", Sni(1), GLITCH, SECURE),
    c("corpus/keccak_1.il", Pini(1), STD, VIOLATED),
    c("corpus/keccak_1.il", Pini(1), GLITCH, VIOLATED),
];

/// Every input the workloads use, as ILANG text and parsed netlist.
#[derive(Debug, Default)]
pub struct Inputs {
    texts: BTreeMap<&'static str, (String, Netlist)>,
}

impl Inputs {
    /// Loads `names`: built-in benchmarks are written with `write_ilang`,
    /// corpus files are read from `root` (the repository checkout).
    ///
    /// # Errors
    ///
    /// Fails on an unknown name, an unreadable file or text that does not
    /// parse.
    pub fn load(root: &Path, names: &[&'static str]) -> Result<Inputs, String> {
        let mut texts = BTreeMap::new();
        for &name in names {
            if texts.contains_key(name) {
                continue;
            }
            let text = if name.starts_with("corpus/") {
                std::fs::read_to_string(root.join(name))
                    .map_err(|e| format!("reading {name}: {e}"))?
            } else {
                let bench = Benchmark::from_name(name)
                    .ok_or_else(|| format!("unknown benchmark {name}"))?;
                write_ilang(&bench.netlist())
            };
            let netlist = parse_ilang(&text).map_err(|e| format!("parsing {name}: {e}"))?;
            texts.insert(name, (text, netlist));
        }
        Ok(Inputs { texts })
    }

    /// The ILANG text of `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` was not loaded.
    pub fn text(&self, name: &str) -> &str {
        &self.texts[name].0
    }

    /// The parsed netlist of `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` was not loaded.
    pub fn netlist(&self, name: &str) -> &Netlist {
        &self.texts[name].1
    }

    /// `(name, sha256 of the text, bytes)` of every input, for provenance.
    pub fn digests(&self) -> Vec<(String, String, usize)> {
        self.texts
            .iter()
            .map(|(name, (text, _))| ((*name).to_owned(), sha256_hex(text.as_bytes()), text.len()))
            .collect()
    }
}
