//! A re-optimised branch & bound child ([`Relaxed::child`]: the parent's
//! tableau, two rhs updates, dual simplex) against the cold two-phase
//! solve of the same bounds ([`Model::solve_relaxation`], kept here as
//! the oracle): after every move of a random chain of bound moves the two
//! must agree on feasible/infeasible and on the objective, and the
//! re-optimised point must satisfy every row and bound.

use proptest::prelude::*;

use super::*;

/// A random bounded mixed program.
#[derive(Debug, Clone)]
struct Program {
    /// (kind: 0 binary / 1 integer / 2 continuous, lb, ub - lb)
    vars: Vec<(u8, i32, i32)>,
    /// (coefs, op: 0 <= / 1 >= / 2 =, rhs)
    rows: Vec<(Vec<i32>, u8, i32)>,
    /// (coefs, maximize); `None` is the feasibility oracle's shape.
    objective: Option<(Vec<i32>, bool)>,
    /// (variable pick, move kind, amount in half units)
    moves: Vec<(usize, u8, i32)>,
}

fn arb_program() -> impl Strategy<Value = Program> {
    (2usize..=6).prop_flat_map(|n| {
        let vars = proptest::collection::vec((0u8..3, -3i32..=3, 0i32..=5), n);
        let rows = proptest::collection::vec(
            (proptest::collection::vec(-5i32..=8, n), 0u8..3, -5i32..=20),
            1..=4,
        );
        let objective = (
            any::<bool>(),
            proptest::collection::vec(-9i32..=9, n),
            any::<bool>(),
        );
        let moves = proptest::collection::vec((0usize..64, 0u8..4, 1i32..=6), 1..=6);
        (vars, rows, objective, moves).prop_map(|(vars, rows, (has_obj, coefs, max), moves)| {
            Program {
                vars,
                rows,
                objective: has_obj.then_some((coefs, max)),
                moves,
            }
        })
    })
}

fn build(p: &Program) -> Model {
    let mut m = Model::new();
    let vars: Vec<VarId> = p
        .vars
        .iter()
        .map(|&(kind, lb, span)| match kind {
            0 => m.add_binary_var("b"),
            1 => m.add_integer_var(lb as f64, (lb + span) as f64, "i"),
            _ => m.add_var(lb as f64, (lb + span) as f64, "c"),
        })
        .collect();
    let expr = |coefs: &[i32]| {
        let mut e = LinExpr::new();
        for (&c, &v) in coefs.iter().zip(&vars) {
            e.add_term(v, c as f64);
        }
        e
    };
    for (coefs, op, rhs) in &p.rows {
        let op = [CmpOp::Le, CmpOp::Ge, CmpOp::Eq][*op as usize];
        m.add_constraint(expr(coefs), op, *rhs as f64);
    }
    if let Some((coefs, maximize)) = &p.objective {
        let sense = if *maximize {
            Sense::Maximize
        } else {
            Sense::Minimize
        };
        m.set_objective(sense, expr(coefs) + 2.5);
    }
    m
}

/// Worst violation of any row or bound by `values` (no integrality: this
/// is the relaxation).
fn violation(p: &Program, bounds: &[(f64, f64)], values: &[f64]) -> f64 {
    let mut worst: f64 = 0.0;
    for (&x, &(lb, ub)) in values.iter().zip(bounds) {
        worst = worst.max(lb - x).max(x - ub);
    }
    for (coefs, op, rhs) in &p.rows {
        let lhs: f64 = coefs.iter().zip(values).map(|(&c, x)| c as f64 * x).sum();
        let over = lhs - *rhs as f64;
        worst = worst.max(match op {
            0 => over,
            1 => -over,
            _ => over.abs(),
        });
    }
    worst
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn reoptimised_child_equals_cold_solve(p in arb_program()) {
        let model = build(&p);
        let declared = model.vars().iter().map(|v| (v.lb, v.ub)).collect();
        let Ok(mut node) = model.solve_relaxation(declared) else {
            return Ok(()); // nothing to branch from
        };
        for &(pick, kind, halves) in &p.moves {
            let var = pick % p.vars.len();
            let (lb, ub) = node.bounds[var];
            // Whole steps for integers, half steps for continuous ones.
            let amount = if p.vars[var].0 == 2 {
                halves as f64 / 2.0
            } else {
                (halves as f64 / 2.0).ceil()
            };
            let (new_lb, new_ub) = match kind {
                0 => (lb, ub - amount),                           // tighten ub
                1 => (lb + amount, ub),                           // raise lb
                2 => ((lb + amount).min(ub), (lb + amount).min(ub)), // fix
                _ => (ub + amount, ub),                           // cross
            };
            // Every variable is bounded, so with a tableau in hand the
            // move is a pair of rhs updates, never a fallback.
            prop_assert!(node.lp.is_none() || node.moved(var, new_lb, new_ub).is_some());
            let warm = node.child(&model, var, new_lb, new_ub);
            let mut bounds = node.bounds.clone();
            bounds[var] = (new_lb, new_ub);
            let cold = model.solve_relaxation(bounds.clone());
            match (warm, cold) {
                (Ok(warm), Ok(cold)) => {
                    prop_assert!(
                        (warm.obj - cold.obj).abs() <= 1e-6,
                        "objective {} re-optimised, {} cold", warm.obj, cold.obj
                    );
                    let off = violation(&p, &bounds, &warm.values);
                    prop_assert!(off <= 1e-6, "re-optimised point off by {off}");
                    prop_assert_eq!(&warm.bounds, &bounds);
                    node = warm;
                }
                // Keep moving from the last feasible node.
                (Err(SolveError::Infeasible), Err(SolveError::Infeasible)) => {}
                (warm, cold) => prop_assert!(
                    false,
                    "verdicts differ: re-optimised {:?}, cold {:?}",
                    warm.map(|r| r.obj), cold.map(|r| r.obj)
                ),
            }
        }
    }
}
