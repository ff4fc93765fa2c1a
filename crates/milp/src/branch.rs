//! Best-first branch & bound over the LP relaxation.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::model::{Model, Relaxed, Solution, SolveError, VarKind};

/// Tuning knobs for [`Model::solve_with`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverConfig {
    /// Maximum branch & bound nodes to explore before giving up.
    pub max_nodes: usize,
    /// A solution within `abs_gap` of the best bound is accepted as
    /// optimal.
    pub abs_gap: f64,
    /// Values within `int_tol` of an integer count as integral.
    pub int_tol: f64,
}

impl Default for SolverConfig {
    fn default() -> Self {
        Self {
            max_nodes: 200_000,
            abs_gap: 1e-6,
            int_tol: 1e-6,
        }
    }
}

impl SolverConfig {
    /// A configuration with a custom node budget.
    pub fn with_max_nodes(max_nodes: usize) -> Self {
        Self {
            max_nodes,
            ..Self::default()
        }
    }
}

/// A pending subproblem. Ordered so the heap pops the *best bound* first
/// (max-heap on the score, where score = bound made sense-independent).
///
/// The LP relaxation is solved once, when the node is created; its result
/// is cached here so popping never re-solves, and its final tableau is
/// what the children re-optimise.
struct Node {
    /// LP bound of this node, normalized so larger is always better.
    score: f64,
    depth: usize,
    /// The solved relaxation: bounds, optimum, objective, tableau.
    relaxed: Relaxed,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.score == other.score
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score
            .partial_cmp(&other.score)
            .unwrap_or(Ordering::Equal)
            // Prefer deeper nodes on ties: dives to incumbents faster.
            .then(self.depth.cmp(&other.depth))
    }
}

/// Most-fractional branching: the integer variable whose relaxation value
/// is closest to `.5`, or `None` when all integer variables are integral.
fn pick_branch_var(model: &Model, config: &SolverConfig, values: &[f64]) -> Option<(usize, f64)> {
    let mut branch_var: Option<(usize, f64)> = None;
    let mut best_frac = config.int_tol;
    for (i, v) in model.vars().iter().enumerate() {
        if v.kind == VarKind::Continuous {
            continue;
        }
        let x = values[i];
        let frac = (x - x.round()).abs();
        let dist_to_half = (frac - 0.5).abs();
        if frac > config.int_tol {
            let score = 0.5 - dist_to_half; // closer to .5 = more fractional
            if branch_var.is_none() || score > best_frac {
                best_frac = score;
                branch_var = Some((i, x));
            }
        }
    }
    branch_var
}

/// Rounds the integer components of an integral relaxation optimum and
/// re-evaluates the objective on the snapped point.
fn snap_integral(model: &Model, values: &[f64]) -> (Vec<f64>, f64) {
    let mut snapped = values.to_vec();
    for (i, v) in model.vars().iter().enumerate() {
        if v.kind != VarKind::Continuous {
            snapped[i] = snapped[i].round();
        }
    }
    let obj = model.evaluate_objective(&snapped);
    (snapped, obj)
}

/// Bytes of tableaux the open nodes may hold together. Every open node
/// keeps its final tableau for its children and a best-first frontier can
/// grow to `max_nodes`, so past this budget a child is queued without
/// one: its own children are then solved cold (`milp.bnb.children_cold`
/// shows it) — slower, same answers, bounded memory.
const OPEN_TABLEAU_BYTES: usize = 256 << 20;

pub(crate) fn branch_and_bound(
    model: &Model,
    config: &SolverConfig,
) -> Result<Solution, SolveError> {
    search(model, config, OPEN_TABLEAU_BYTES)
}

fn search(
    model: &Model,
    config: &SolverConfig,
    tableau_budget: usize,
) -> Result<Solution, SolveError> {
    let maximize = matches!(model.sense(), crate::Sense::Maximize);
    // Normalize: score = objective if maximizing else -objective, so
    // higher score is always "better" and the heap is a max-heap on it.
    let to_score = |obj: f64| if maximize { obj } else { -obj };

    let root_bounds: Vec<(f64, f64)> = model
        .vars()
        .iter()
        .map(|v| {
            // Integer bounds can be tightened to the integral range.
            if v.kind == VarKind::Continuous {
                (v.lb, v.ub)
            } else {
                (v.lb.ceil(), v.ub.floor())
            }
        })
        .collect();

    let _span = wimesh_obs::span!("milp.bnb.solve");

    let mut incumbent: Option<(Vec<f64>, f64)> = None;

    let root = model.solve_relaxation(root_bounds)?;

    let mut open_tableau_bytes = root.tableau_bytes();
    let mut heap = BinaryHeap::new();
    heap.push(Node {
        score: to_score(root.obj()),
        depth: 0,
        relaxed: root,
    });
    let mut nodes_explored = 0usize;
    let mut nodes_pruned = 0u64;
    // Set where the budget stops the search: the node popped there is
    // dropped unexplored and counts as open, whatever the heap holds.
    let mut budget_hit = false;
    // Set when a child's relaxation ends in anything but a verdict
    // (numerical trouble): its subtree was never searched, so neither
    // "infeasible" nor "optimal" is proven.
    let mut child_failed = false;

    while let Some(node) = heap.pop() {
        open_tableau_bytes -= node.relaxed.tableau_bytes();
        // Bound-based pruning: the heap is best-first, so once the best
        // remaining bound cannot beat the incumbent we are done.
        if let Some((_, inc_obj)) = &incumbent {
            if node.score <= to_score(*inc_obj) + config.abs_gap {
                // Best-first: the popped node and everything left in the
                // heap are bounded away by the incumbent.
                nodes_pruned += 1 + heap.len() as u64;
                break;
            }
        }
        if nodes_explored >= config.max_nodes {
            budget_hit = true;
            break;
        }
        nodes_explored += 1;

        // The relaxation was solved when the node was created; reuse it.
        let values = node.relaxed.values();

        match pick_branch_var(model, config, values) {
            None => {
                // Integral: candidate incumbent. Round integer values
                // exactly before storing.
                let (snapped, snapped_obj) = snap_integral(model, values);
                let better = match &incumbent {
                    None => true,
                    Some((_, inc)) => to_score(snapped_obj) > to_score(*inc),
                };
                if better {
                    incumbent = Some((snapped, snapped_obj));
                }
            }
            Some((var, x)) => {
                let floor = x.floor();
                let (lb, ub) = node.relaxed.bounds_of(var);
                // Down child: ub = floor; Up child: lb = floor + 1.
                for (lb, ub) in [(lb, ub.min(floor)), (lb.max(floor + 1.0), ub)] {
                    if lb > ub + 1e-12 {
                        continue;
                    }
                    let solved = node.relaxed.child(model, var, lb, ub);
                    #[cfg(test)]
                    let solved = tests::injected_failure(solved);
                    let mut child = match solved {
                        Ok(child) => child,
                        // The only proof that the subtree is empty.
                        Err(SolveError::Infeasible) => continue,
                        Err(_) => {
                            child_failed = true;
                            continue;
                        }
                    };
                    let score = to_score(child.obj());
                    let keep = match &incumbent {
                        None => true,
                        Some((_, inc)) => score > to_score(*inc) + config.abs_gap,
                    };
                    if keep {
                        if open_tableau_bytes + child.tableau_bytes() > tableau_budget {
                            child.drop_tableau();
                        }
                        open_tableau_bytes += child.tableau_bytes();
                        heap.push(Node {
                            score,
                            depth: node.depth + 1,
                            relaxed: child,
                        });
                    } else {
                        // Child bounded away before ever entering the
                        // heap.
                        nodes_pruned += 1;
                    }
                }
            }
        }
    }

    wimesh_obs::counter_add("milp.bnb.nodes_explored", nodes_explored as u64);
    wimesh_obs::counter_add("milp.bnb.nodes_pruned", nodes_pruned);
    match incumbent {
        Some((values, objective)) => Ok(Solution::from_parts(
            values,
            objective,
            nodes_explored,
            budget_hit || child_failed,
        )),
        None if budget_hit => Err(SolveError::NodeLimit),
        None if child_failed => Err(SolveError::IterationLimit),
        None => Err(SolveError::Infeasible),
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;
    use crate::{LinExpr, Model, Sense};

    thread_local! {
        /// Test hook: `(seen, Some(n))` makes this thread's child
        /// relaxations fail with `IterationLimit` from the `n`-th on;
        /// `seen` counts the child solves so far.
        static CHILD_FAILURES: Cell<(usize, Option<usize>)> = const { Cell::new((0, None)) };
    }

    /// Passes a child's relaxation result through the failure hook.
    pub(super) fn injected_failure<T>(solved: Result<T, SolveError>) -> Result<T, SolveError> {
        CHILD_FAILURES.with(|hook| {
            let (seen, fail_from) = hook.get();
            hook.set((seen + 1, fail_from));
            match fail_from {
                Some(n) if seen >= n => Err(SolveError::IterationLimit),
                _ => solved,
            }
        })
    }

    /// Solves `model` with every child relaxation from the `n`-th on
    /// failing; also says whether the search got that far.
    fn solve_failing_from(model: &Model, n: usize) -> (Result<Solution, SolveError>, bool) {
        CHILD_FAILURES.with(|hook| hook.set((0, Some(n))));
        let result = model.solve();
        let (seen, _) = CHILD_FAILURES.with(|hook| hook.replace((0, None)));
        (result, seen > n)
    }

    /// Brute-force optimum of a pure-binary model by enumeration.
    fn brute_force_binary(model: &Model, n: usize) -> Option<f64> {
        let maximize = matches!(model.sense(), Sense::Maximize);
        let mut best: Option<f64> = None;
        for mask in 0..(1u32 << n) {
            let values: Vec<f64> = (0..n)
                .map(|i| if mask & (1 << i) != 0 { 1.0 } else { 0.0 })
                .collect();
            if model.is_feasible(&values, 1e-9) {
                let obj = model.evaluate_objective(&values);
                best = Some(match best {
                    None => obj,
                    Some(b) => {
                        if maximize {
                            b.max(obj)
                        } else {
                            b.min(obj)
                        }
                    }
                });
            }
        }
        best
    }

    /// A 0/1 knapsack with weights/values chosen to make LP rounding
    /// wrong: feasible (brute force: 16), fractional at the root.
    fn knapsack4() -> Model {
        let weights = [6.0, 5.0, 5.0, 1.0];
        let values = [10.0, 8.0, 8.0, 1.0];
        let mut m = Model::new();
        let vars: Vec<_> = (0..4).map(|i| m.add_binary_var(&format!("x{i}"))).collect();
        let mut w = LinExpr::new();
        let mut v = LinExpr::new();
        for i in 0..4 {
            w.add_term(vars[i], weights[i]);
            v.add_term(vars[i], values[i]);
        }
        m.add_le(w, 10.0);
        m.set_objective(Sense::Maximize, v);
        m
    }

    #[test]
    fn knapsack_matches_brute_force() {
        let m = knapsack4();
        let sol = m.solve().unwrap();
        let brute = brute_force_binary(&m, 4).unwrap();
        assert!((sol.objective() - brute).abs() < 1e-6);
        assert!((sol.objective() - 16.0).abs() < 1e-6); // items 2,3 (weight 10)
    }

    #[test]
    fn set_cover_minimize() {
        // Cover {1,2,3} with sets A={1,2} B={2,3} C={1,3} D={1,2,3};
        // costs 1,1,1,2.1 -> best is two singles (cost 2).
        let mut m = Model::new();
        let a = m.add_binary_var("a");
        let b = m.add_binary_var("b");
        let c = m.add_binary_var("c");
        let d = m.add_binary_var("d");
        m.add_ge(a + c + d, 1.0); // element 1
        m.add_ge(a + b + d, 1.0); // element 2
        m.add_ge(b + c + d, 1.0); // element 3
        m.set_objective(Sense::Minimize, a + b + c + 2.1 * d);
        let sol = m.solve().unwrap();
        let brute = brute_force_binary(&m, 4).unwrap();
        assert!((sol.objective() - brute).abs() < 1e-6);
        assert!((sol.objective() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn mixed_integer_continuous() {
        // max 2x + y, x integer, y continuous; x + y <= 3.5; x <= 2.2.
        let mut m = Model::new();
        let x = m.add_integer_var(0.0, 10.0, "x");
        let y = m.add_var(0.0, 10.0, "y");
        m.add_le(x + y, 3.5);
        m.add_le(LinExpr::from(x), 2.2);
        m.set_objective(Sense::Maximize, 2.0 * x + y);
        let sol = m.solve().unwrap();
        assert!((sol.value(x) - 2.0).abs() < 1e-6);
        assert!((sol.value(y) - 1.5).abs() < 1e-6);
        assert!((sol.objective() - 5.5).abs() < 1e-6);
    }

    #[test]
    fn node_limit_reported() {
        // A model guaranteed to need branching with a 0-node budget.
        let mut m = Model::new();
        let x = m.add_integer_var(0.0, 10.0, "x");
        m.add_le(2.0 * x, 5.0);
        m.set_objective(Sense::Maximize, LinExpr::from(x));
        let cfg = SolverConfig::with_max_nodes(0);
        assert_eq!(m.solve_with(&cfg).unwrap_err(), SolveError::NodeLimit);
    }

    #[test]
    fn node_limit_with_open_frontier_and_no_incumbent() {
        // One node is the root, which must branch (x = 2.5): the budget
        // is spent with the integral child still on the frontier.
        let mut m = Model::new();
        let x = m.add_integer_var(0.0, 10.0, "x");
        m.add_le(2.0 * x, 5.0);
        m.set_objective(Sense::Maximize, LinExpr::from(x));
        let cfg = SolverConfig::with_max_nodes(1);
        assert_eq!(m.solve_with(&cfg).unwrap_err(), SolveError::NodeLimit);
    }

    #[test]
    fn exhausted_tree_on_the_last_budgeted_node_is_infeasible() {
        // 2x = 1 over a binary: the root (x = 0.5) spends the whole
        // budget and both children are LP-infeasible, so the tree is
        // exhausted, not cut short.
        let mut m = Model::new();
        let x = m.add_binary_var("x");
        m.add_eq(2.0 * x, 1.0);
        m.set_objective(Sense::Minimize, LinExpr::from(x));
        for budget in [1, 2] {
            let cfg = SolverConfig::with_max_nodes(budget);
            assert_eq!(
                m.solve_with(&cfg).unwrap_err(),
                SolveError::Infeasible,
                "budget {budget}"
            );
        }
    }

    #[test]
    fn node_dropped_at_the_budget_leaves_the_gap_open() {
        // Under best-first search the first incumbent is optimal unless
        // rounding it costs objective, which a loose `int_tol` allows. The
        // root (x, y) = (0.6, 0.85) branches on x. Its x >= 1 child,
        // (1, 0.25) at 6.5, counts as integral and becomes the incumbent
        // (1, 0) at 5; its x <= 0 child, bound 6, is then popped and
        // dropped by a budget of 2. x = 5 is not proven optimal: (0, 1)
        // reaches 6.
        let mut m = Model::new();
        let x = m.add_integer_var(0.0, 10.0, "x");
        let y = m.add_integer_var(0.0, 10.0, "y");
        m.add_le(2.0 * x + 8.0 * y, 8.0);
        m.add_le(6.0 * x + 4.0 * y, 7.0);
        m.set_objective(Sense::Maximize, 5.0 * x + 6.0 * y);
        let config = |max_nodes| SolverConfig {
            max_nodes,
            int_tol: 0.3,
            ..SolverConfig::default()
        };
        let sol = m.solve_with(&config(2)).unwrap();
        assert!((sol.objective() - 5.0).abs() < 1e-9);
        assert!(sol.is_bound_gap_open());
        let sol = m.solve_with(&config(3)).unwrap();
        assert!((sol.objective() - 6.0).abs() < 1e-9);
        assert!(!sol.is_bound_gap_open());
    }

    #[test]
    fn integer_infeasible_model_exhausts_the_tree() {
        // 2x + 2y = 3 has LP solutions but no integral one, so the
        // verdict needs the whole tree.
        let mut m = Model::new();
        let x = m.add_integer_var(0.0, 5.0, "x");
        let y = m.add_integer_var(0.0, 5.0, "y");
        m.add_eq(2.0 * x + 2.0 * y, 3.0);
        m.set_objective(Sense::Minimize, x + y);
        assert_eq!(m.solve().unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn equality_constrained_integers() {
        // x + y = 7, x - y = 1 over integers -> (4, 3).
        let mut m = Model::new();
        let x = m.add_integer_var(0.0, 100.0, "x");
        let y = m.add_integer_var(0.0, 100.0, "y");
        m.add_eq(x + y, 7.0);
        m.add_eq(x - y, 1.0);
        m.set_objective(Sense::Minimize, x + y);
        let sol = m.solve().unwrap();
        assert!((sol.value(x) - 4.0).abs() < 1e-6);
        assert!((sol.value(y) - 3.0).abs() < 1e-6);
        assert_eq!(sol.nodes_explored(), 1);
    }

    #[test]
    fn random_binary_models_match_brute_force() {
        // Deterministic pseudo-random family of small binary programs.
        let mut state = 0x12345678u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / ((1u64 << 31) as f64)
        };
        for trial in 0..25 {
            let n = 3 + (trial % 5);
            let mut m = Model::new();
            let vars: Vec<_> = (0..n).map(|i| m.add_binary_var(&format!("v{i}"))).collect();
            // 2 random <= constraints, 1 random >= constraint.
            for _ in 0..2 {
                let mut e = LinExpr::new();
                for &v in &vars {
                    e.add_term(v, (next() * 10.0).round());
                }
                m.add_le(e, (next() * 10.0 * n as f64 / 2.0).round());
            }
            let mut e = LinExpr::new();
            for &v in &vars {
                e.add_term(v, (next() * 4.0).round());
            }
            m.add_ge(e, (next() * 3.0).round());
            let mut obj = LinExpr::new();
            for &v in &vars {
                obj.add_term(v, (next() * 20.0).round() - 5.0);
            }
            m.set_objective(Sense::Maximize, obj);

            let brute = brute_force_binary(&m, n);
            match m.solve() {
                Ok(sol) => {
                    let brute = brute.expect("solver found a solution, brute force must too");
                    assert!(
                        (sol.objective() - brute).abs() < 1e-6,
                        "trial {trial}: solver {} vs brute {brute}",
                        sol.objective()
                    );
                    assert!(m.is_feasible(sol.values(), 1e-6));
                }
                Err(SolveError::Infeasible) => {
                    assert!(brute.is_none(), "trial {trial}: solver said infeasible");
                }
                Err(e) => panic!("trial {trial}: unexpected error {e}"),
            }
        }
    }
    #[test]
    fn failed_child_never_prunes() {
        // Whichever child solve is the first to fail, the subtree below it
        // was not searched: the answer must not be "infeasible" (brute
        // force finds 16) and must not claim a closed gap.
        let m = knapsack4();
        assert!(brute_force_binary(&m, 4).is_some());
        let mut failures_seen = 0;
        for n in 0..64 {
            let (result, reached) = solve_failing_from(&m, n);
            if !reached {
                // The whole search needs fewer than n child solves.
                let sol = result.unwrap();
                assert!(!sol.is_bound_gap_open());
                assert!((sol.objective() - 16.0).abs() < 1e-6);
                break;
            }
            failures_seen += 1;
            match result {
                Ok(sol) => {
                    assert!(sol.is_bound_gap_open(), "failure at child {n}: closed gap");
                    assert!(m.is_feasible(sol.values(), 1e-6));
                }
                Err(e) => assert_eq!(e, SolveError::IterationLimit, "failure at child {n}"),
            }
        }
        assert!(failures_seen >= 2, "the hook never fired");
    }

    #[test]
    fn failed_child_of_a_feasibility_model_is_not_a_no() {
        // No objective (the admission oracle's shape). 1 <= 2x <= 3 over
        // an integer x: both LP vertices (0.5, 1.5) are fractional and the
        // one integral point, x = 1, is a level down.
        let mut m = Model::new();
        let x = m.add_integer_var(0.0, 2.0, "x");
        m.add_ge(2.0 * x, 1.0);
        m.add_le(2.0 * x, 3.0);
        assert!((m.solve().unwrap().value(x) - 1.0).abs() < 1e-9);
        for n in [0, 1] {
            let (result, reached) = solve_failing_from(&m, n);
            assert!(reached, "two children, so child {n} is solved");
            match result {
                Ok(sol) => assert!(sol.is_bound_gap_open(), "failure at child {n}"),
                Err(e) => assert_eq!(e, SolveError::IterationLimit, "failure at child {n}"),
            }
        }
    }

    #[test]
    fn nodes_queued_without_a_tableau_reach_the_same_optimum() {
        // A tableau budget of 0 queues every child bare, so every
        // grandchild is solved cold; one tableau's worth alternates.
        let mut general = Model::new();
        let x = general.add_integer_var(0.0, 9.0, "x");
        let y = general.add_integer_var(-2.0, 6.0, "y");
        general.add_le(3.0 * x + 5.0 * y, 31.5);
        general.add_ge(2.0 * x - y, 1.5);
        general.set_objective(Sense::Maximize, 2.0 * x + 3.0 * y);
        for m in [knapsack4(), general] {
            let cfg = SolverConfig::default();
            let full = search(&m, &cfg, usize::MAX).unwrap();
            assert!(full.nodes_explored() > 3, "needs grandchildren");
            for budget in [0, 200] {
                let lean = search(&m, &cfg, budget).unwrap();
                assert!((lean.objective() - full.objective()).abs() < 1e-9);
                assert!(m.is_feasible(lean.values(), 1e-6));
                assert!(!lean.is_bound_gap_open());
            }
        }
    }
}
