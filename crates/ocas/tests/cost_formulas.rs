//! Every costed formula of Table 1, not only the winners: for each of the
//! 16 rows, every program the search returns is costed and screened with
//! the ladder exactly as the synthesizer's cost workers do, and one FNV-1a
//! digest folds in each program's `seconds` formula, its constraints, its
//! parameter set and its ladder optimum (objective bits and values). The
//! digest is pinned, so a change to the symbolic representation, the
//! simplifier or the cost engine that moves any of the ~1.9k formulas, or
//! any tuned `f64` bit, fails here even when the 16 winners of
//! `table1_golden.rs` stay put.

use ocas::experiments;
use ocas_cost::CostEngine;
use ocas_opt::{ladder_search, ParamSpec, Problem};

/// The digest over all 16 rows; see the module docs for what it covers.
const DIGEST: u64 = 0xa71e_561c_2194_4905;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// A field: its text and a separator, so adjacent fields cannot run
    /// into each other.
    fn field(&mut self, text: &str) {
        self.bytes(text.as_bytes());
        self.bytes(&[0xff]);
    }
}

#[test]
fn every_costed_formula_and_optimum_equals_the_pinned_digest() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut programs = 0usize;
    for e in experiments::table1() {
        h.field(&e.name);
        let engine = CostEngine::new(
            &e.hierarchy,
            &e.layout,
            e.spec.annots.clone(),
            e.spec.stats.clone(),
            e.spec.int_size,
        )
        .expect("engine");
        let search = e
            .run_search(false, 1, None)
            .unwrap_or_else(|err| panic!("{}: {err}", e.name));
        for (program, _) in &search.programs {
            programs += 1;
            let report = match engine.cost(program) {
                Ok(r) => r,
                Err(err) => {
                    h.field(&format!("uncosted {err:?}"));
                    continue;
                }
            };
            // `Debug` is structural: it spells every node and every child.
            h.field(&format!("{:?}", report.seconds));
            for c in &report.constraints {
                h.field(&format!("{:?} <= {:?}", c.lhs, c.rhs));
            }
            h.field(&format!("{:?}", report.params));
            // The problem the synthesizer's cost workers build.
            let problem = Problem {
                objective: report.seconds.clone(),
                params: report
                    .params
                    .iter()
                    .map(|p| ParamSpec::new(p.clone(), None))
                    .collect(),
                constraints: report
                    .constraints
                    .iter()
                    .map(|c| (c.lhs.clone(), c.rhs.clone()))
                    .collect(),
                fixed: e.spec.stats.clone(),
            };
            match ladder_search(&problem) {
                Ok(opt) => {
                    h.field(&format!("{:016x}", opt.objective.to_bits()));
                    h.field(&format!("{:?}", opt.values));
                }
                Err(err) => h.field(&format!("untuned {err:?}")),
            }
        }
    }
    assert_eq!(programs, 1909, "programs over the 16 rows");
    assert_eq!(h.0, DIGEST, "digest {:#018x} over {programs} programs", h.0);
}
