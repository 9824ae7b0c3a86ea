//! Cross-checks the hand-written known-answer table against independent
//! verifiers: the exhaustive distribution oracle wherever the input is at
//! most 16 bits wide, and every engine in both modes elsewhere.

use std::path::Path;

use walshcheck_circuit::glitch::ProbeModel;
use walshcheck_core::exhaustive::exhaustive_check;
use walshcheck_core::sites::SiteOptions;
use walshcheck_core::{Outcome, Session};
use walshcheck_perfbench::gen::{ENGINES, MODES};
use walshcheck_perfbench::known::{Case, Expect, Inputs, CATALOGUE, TABLE_I};

const ORACLE_MAX_INPUTS: usize = 16;

fn model(case: &Case) -> ProbeModel {
    if case.glitch {
        ProbeModel::Glitch
    } else {
        ProbeModel::Standard
    }
}

fn answer(secure: bool) -> Expect {
    if secure {
        Expect::Secure
    } else {
        Expect::Violated
    }
}

fn cross_check(cases: &[Case]) -> usize {
    let names: Vec<&'static str> = cases.iter().map(|c| c.input).collect();
    let inputs = Inputs::load(Path::new(".."), &names).expect("inputs load");
    let mut by_oracle = 0;
    for case in cases {
        let netlist = inputs.netlist(case.input);
        if netlist.inputs.len() <= ORACLE_MAX_INPUTS {
            let options = SiteOptions {
                probe_model: model(case),
                ..SiteOptions::default()
            };
            let oracle = exhaustive_check(netlist, case.property, &options).expect("oracle runs");
            assert_eq!(
                answer(oracle.secure),
                case.expect,
                "oracle disagrees: {}",
                case.label()
            );
            by_oracle += 1;
        } else {
            for engine in ENGINES {
                for mode in MODES {
                    let v = Session::new(netlist)
                        .expect("valid netlist")
                        .property(case.property)
                        .engine(engine)
                        .mode(mode)
                        .probe_model(model(case))
                        .run();
                    let got = match v.outcome {
                        Outcome::Secure => Expect::Secure,
                        Outcome::Violated => Expect::Violated,
                        Outcome::Inconclusive(r) => panic!("{}: inconclusive {r:?}", case.label()),
                    };
                    assert_eq!(
                        got,
                        case.expect,
                        "{} under {engine:?}/{mode:?}",
                        case.label()
                    );
                }
            }
        }
    }
    by_oracle
}

#[test]
fn catalogue_agrees_with_the_oracle_and_the_engines() {
    let by_oracle = cross_check(CATALOGUE);
    // Only keccak-2 and keccak-3 are wider than the oracle's limit.
    let wide = CATALOGUE
        .iter()
        .filter(|c| c.input == "keccak-2" || c.input == "keccak-3")
        .count();
    assert_eq!(by_oracle, CATALOGUE.len() - wide);
}

#[test]
fn catalogue_is_diverse_and_about_a_third_violates() {
    let violated = CATALOGUE
        .iter()
        .filter(|c| c.expect == Expect::Violated)
        .count();
    let share = violated as f64 / CATALOGUE.len() as f64;
    assert!((0.25..0.45).contains(&share), "violating share {share}");
    for kind in ["probing", "ni", "sni", "pini"] {
        for glitch in [false, true] {
            assert!(
                CATALOGUE
                    .iter()
                    .any(|c| c.property.kind() == kind && c.glitch == glitch),
                "{kind} glitch={glitch}"
            );
        }
    }
    let corpus = std::fs::read_dir("../corpus").expect("corpus directory");
    for file in corpus.flatten() {
        let name = format!("corpus/{}", file.file_name().to_string_lossy());
        if name.ends_with(".il") {
            assert!(
                CATALOGUE.iter().any(|c| c.input == name),
                "{name} is not in the mix"
            );
        }
    }
}

#[test]
fn smoke_table_rows_agree_with_the_oracle() {
    // dom-2 and keccak-1 stand in for dom-4 and keccak-3 in smoke runs;
    // the full-size rows are checked against their known answer by every
    // benchmark run.
    assert_eq!(cross_check(&TABLE_I[2..]), 2);
}
