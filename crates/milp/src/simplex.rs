//! Dense full-tableau simplex: a two-phase primal method for a program
//! seen for the first time, and a dual method that re-optimises a solved
//! tableau after its right-hand side has changed.
//!
//! Operates on the standard form `min c'x  s.t.  Ax = b, x >= 0, b >= 0`.
//! The [`crate::model`] module lowers general models (bounds, <=, >=, =)
//! into this form and maps solutions back.
//!
//! Implementation notes:
//!
//! * Full-tableau method: the tableau holds `B^-1 A | B^-1 b` plus one
//!   cost row of reduced costs (and `-z` under the rhs), so a pivot
//!   updates everything at once. Storage is one flat row-major vector: a
//!   branch & bound child starts from a copy of its parent's tableau.
//! * [`solve`] (primal): Dantzig (most negative reduced cost) pricing with
//!   an automatic switch to Bland's rule after a stall, which guarantees
//!   termination on degenerate problems. Artificial variables only on rows
//!   whose slack cannot seed the basis; they are dropped from the tableau
//!   it returns.
//! * [`reoptimise`] (dual): an optimal tableau stays dual feasible
//!   (reduced costs >= 0) whatever happens to `b`, so after
//!   [`Tableau::shift_rhs`] only primal feasibility has to be restored:
//!   the row with the most negative rhs leaves, the column with the
//!   smallest ratio `r_j / -t_ij` over the row's negative entries enters,
//!   and a negative row without a negative entry proves infeasibility.
//!   With no objective (`c = 0`, the feasibility oracle) every reduced
//!   cost is 0, every ratio ties and the dual objective never moves: the
//!   problem is totally dual degenerate, so nothing but an anti-cycling
//!   rule bounds the pivot count. After a stall both choices fall back to
//!   Bland's smallest index.

/// Numeric tolerance for pivot eligibility and optimality decisions.
pub(crate) const EPS: f64 = 1e-9;

/// How far below zero a basic variable may sit before the program counts
/// as infeasible (phase 1 of [`solve`] and [`reoptimise`] alike, so the
/// two agree on border cases).
const FEAS_TOL: f64 = 1e-6;

/// A linear program in standard form (`min c'x, Ax = b, x >= 0`).
#[derive(Debug, Clone)]
pub(crate) struct StandardLp {
    /// Row-major constraint matrix, `rows x cols`.
    pub a: Vec<Vec<f64>>,
    /// Right-hand sides (must be >= 0).
    pub b: Vec<f64>,
    /// Objective coefficients (length `cols`).
    pub c: Vec<f64>,
    /// For each row, the column index of a slack variable with a `+1`
    /// coefficient usable as the initial basic variable, if any.
    pub basis_seed: Vec<Option<usize>>,
}

/// Result of a simplex run.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum SimplexOutcome {
    /// Optimal solution found: values for all standard-form columns.
    Optimal { x: Vec<f64> },
    /// The constraints admit no solution.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
    /// The iteration limit was hit (numerical trouble).
    IterationLimit,
}

/// A simplex tableau: `rows` constraint rows and one cost row, each
/// `cols + 1` wide with the rhs last.
#[derive(Debug, Clone)]
pub(crate) struct Tableau {
    /// `(rows + 1) x (cols + 1)`, row-major. Row `rows` holds the reduced
    /// costs and, under the rhs, minus the objective value.
    t: Vec<f64>,
    /// Basic column per constraint row.
    basis: Vec<usize>,
    rows: usize,
    cols: usize,
}

impl Tableau {
    fn row(&self, row: usize) -> &[f64] {
        let stride = self.cols + 1;
        &self.t[row * stride..(row + 1) * stride]
    }

    fn at(&self, row: usize, col: usize) -> f64 {
        self.t[row * (self.cols + 1) + col]
    }

    fn rhs(&self, row: usize) -> f64 {
        self.at(row, self.cols)
    }

    /// Objective value `c_B' x_B` of the current basic solution.
    fn objective(&self) -> f64 {
        -self.rhs(self.rows)
    }

    /// Iteration budget of one simplex run on this tableau.
    fn max_iters(&self) -> usize {
        200 * (self.rows + self.cols) + 2000
    }

    /// Iterations without progress after which Bland's rule takes over.
    fn stall_threshold(&self) -> usize {
        4 * (self.rows + self.cols) + 64
    }

    /// Pivot on `(row, col)`: make column `col` basic in `row`. The cost
    /// row is updated like any other.
    fn pivot(&mut self, row: usize, col: usize) {
        let stride = self.cols + 1;
        let (above, rest) = self.t.split_at_mut(row * stride);
        let (pivot_row, below) = rest.split_at_mut(stride);
        debug_assert!(pivot_row[col].abs() > EPS, "pivot on ~zero element");
        let inv = 1.0 / pivot_row[col];
        for v in pivot_row.iter_mut() {
            *v *= inv;
        }
        for r in above
            .chunks_exact_mut(stride)
            .chain(below.chunks_exact_mut(stride))
        {
            let factor = r[col];
            if factor != 0.0 {
                for (v, pv) in r.iter_mut().zip(pivot_row.iter()) {
                    *v -= factor * pv;
                }
                r[col] = 0.0; // kill residual rounding error
            }
        }
        self.basis[row] = col;
    }

    /// Rebuilds the cost row for cost vector `c`: reduced costs
    /// `r_j = c_j - c_B' (B^-1 A_j)` and `-c_B' x_B` under the rhs.
    fn set_costs(&mut self, c: &[f64]) {
        let stride = self.cols + 1;
        let (body, cost) = self.t.split_at_mut(self.rows * stride);
        cost[..self.cols].copy_from_slice(c);
        cost[self.cols] = 0.0;
        for (row, &bcol) in body.chunks_exact(stride).zip(&self.basis) {
            let cb = c[bcol];
            if cb != 0.0 {
                for (rj, tj) in cost.iter_mut().zip(row) {
                    *rj -= cb * tj;
                }
            }
        }
    }

    /// Re-expresses the tableau for the right-hand side `b - by * A_col`,
    /// `A_col` being column `col` of the program the tableau was built
    /// from: `B^-1 (b - by * A_col) = B^-1 b - by * (B^-1 A_col)`, and
    /// `B^-1 A_col` is the tableau's own column. For a slack column with
    /// coefficient `+1` in row `i`, `A_col = e_i`: that row's rhs alone
    /// drops by `by`. For a structural column it is the substitution
    /// `x_col = x_col' + by` (the cost row's `-z` then already includes
    /// the substituted-out constant `c_col * by`). The basis, and with it
    /// dual feasibility, is untouched; [`reoptimise`] restores primal
    /// feasibility.
    pub(crate) fn shift_rhs(&mut self, col: usize, by: f64) {
        let cols = self.cols;
        for r in self.t.chunks_exact_mut(cols + 1) {
            r[cols] -= by * r[col];
        }
    }

    /// Heap bytes this tableau holds.
    pub(crate) fn bytes(&self) -> usize {
        std::mem::size_of_val(&self.t[..]) + std::mem::size_of_val(&self.basis[..])
    }

    /// The current basic solution over all columns. (A basic column
    /// beyond them is an artificial [`solve`] could not drive out, at 0.)
    fn point(&self) -> Vec<f64> {
        let mut x = vec![0.0; self.cols];
        for (row, &bcol) in self.basis.iter().enumerate() {
            if bcol < self.cols {
                x[bcol] = self.rhs(row);
            }
        }
        x
    }
}

/// One phase of primal simplex iterations on the tableau's cost row.
///
/// Columns from `banned_from` on are never chosen to enter (used in phase
/// 2 to keep artificials out). `Ok(())` at optimality; pivots are added to
/// `pivots` either way.
fn run_phase(
    tab: &mut Tableau,
    banned_from: usize,
    pivots: &mut u64,
) -> Result<(), SimplexOutcome> {
    let stall_threshold = tab.stall_threshold();
    let mut stall = 0usize;
    let mut last_obj = tab.objective();
    let scan = banned_from.min(tab.cols);
    for _ in 0..tab.max_iters() {
        let use_bland = stall > stall_threshold;
        // Entering column.
        let r = &tab.row(tab.rows)[..scan];
        let mut enter: Option<usize> = None;
        if use_bland {
            enter = r.iter().position(|&rj| rj < -EPS);
        } else {
            let mut best = -EPS;
            for (j, &rj) in r.iter().enumerate() {
                if rj < best {
                    best = rj;
                    enter = Some(j);
                }
            }
        }
        let Some(j) = enter else {
            return Ok(());
        };
        // Ratio test: min b_i / t_ij over t_ij > 0; ties -> smallest basis
        // column (lexicographic-ish anti-cycling aid).
        let mut leave: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        for i in 0..tab.rows {
            let a = tab.at(i, j);
            if a > EPS {
                let ratio = tab.rhs(i) / a;
                let better = ratio < best_ratio - EPS
                    || (ratio < best_ratio + EPS
                        && leave.is_some_and(|l| tab.basis[i] < tab.basis[l]));
                if better {
                    best_ratio = ratio;
                    leave = Some(i);
                }
            }
        }
        let Some(i) = leave else {
            return Err(SimplexOutcome::Unbounded);
        };
        tab.pivot(i, j);
        *pivots += 1;
        // Stall detection for Bland switch.
        let obj = tab.objective();
        if (obj - last_obj).abs() <= EPS {
            stall += 1;
        } else {
            stall = 0;
            last_obj = obj;
        }
    }
    Err(SimplexOutcome::IterationLimit)
}

/// Solves a standard-form LP from scratch with the two-phase primal
/// method.
///
/// With an optimal outcome comes the final tableau, artificial columns
/// dropped, for [`reoptimise`] — unless a redundant row kept an artificial
/// basic (at value 0), in which case there is no artificial-free tableau
/// to hand out.
pub(crate) fn solve(lp: &StandardLp) -> (SimplexOutcome, Option<Tableau>) {
    let _span = wimesh_obs::span!("milp.simplex.solve");
    debug_assert!(
        lp.b.iter().all(|&b| b >= -EPS),
        "standard form needs b >= 0"
    );
    let mut pivots = 0u64;
    let out = two_phase(lp, &mut pivots);
    wimesh_obs::counter_add("milp.simplex.pivots", pivots);
    match out {
        Ok(tab) => {
            let x = tab.point();
            let clean = tab.basis.iter().all(|&bcol| bcol < tab.cols);
            (SimplexOutcome::Optimal { x }, clean.then_some(tab))
        }
        Err(out) => (out, None),
    }
}

/// The two phases of [`solve`]; the optimal tableau it returns has the
/// width of `lp` (a basis entry at or beyond it is a leftover artificial).
fn two_phase(lp: &StandardLp, pivots: &mut u64) -> Result<Tableau, SimplexOutcome> {
    let rows = lp.a.len();
    let cols = lp.c.len();
    // Build the tableau with artificial columns where needed.
    let mut basis: Vec<usize> = Vec::with_capacity(rows);
    let mut total_cols = cols;
    for seed in &lp.basis_seed {
        basis.push(seed.unwrap_or_else(|| {
            total_cols += 1;
            total_cols - 1
        }));
    }
    let stride = total_cols + 1;
    let mut t = vec![0.0; (rows + 1) * stride];
    for (i, ti) in t.chunks_exact_mut(stride).take(rows).enumerate() {
        ti[..cols].copy_from_slice(&lp.a[i]);
        ti[total_cols] = lp.b[i].max(0.0);
        if basis[i] >= cols {
            ti[basis[i]] = 1.0;
        }
    }
    let mut tab = Tableau {
        t,
        basis,
        rows,
        cols: total_cols,
    };

    // Phase 1: minimize the sum of artificials (skip if none).
    if total_cols > cols {
        let mut c1 = vec![0.0; total_cols];
        c1[cols..].fill(1.0);
        tab.set_costs(&c1);
        match run_phase(&mut tab, total_cols, pivots) {
            Ok(()) if tab.objective() > FEAS_TOL => return Err(SimplexOutcome::Infeasible),
            Ok(()) => {}
            // Phase 1 objective is bounded below by 0; an "unbounded"
            // report means numerical trouble.
            Err(SimplexOutcome::Unbounded) => return Err(SimplexOutcome::IterationLimit),
            Err(other) => return Err(other),
        }
        // Drive remaining artificials (degenerate, at value ~0) out of the
        // basis: pivot in any real column with a nonzero entry. A row
        // without one is redundant: harmless, its artificial stays basic
        // at 0.
        for row in 0..rows {
            if tab.basis[row] >= cols {
                if let Some(j) = (0..cols).find(|&j| tab.at(row, j).abs() > 1e-7) {
                    tab.pivot(row, j);
                    *pivots += 1;
                }
            }
        }
    }

    // Phase 2: original costs; artificial columns are banned from entering.
    let mut c2 = vec![0.0; total_cols];
    c2[..cols].copy_from_slice(&lp.c);
    tab.set_costs(&c2);
    run_phase(&mut tab, cols, pivots)?;
    if total_cols > cols {
        // Drop the artificial columns: keep the real ones and the rhs.
        let mut t = Vec::with_capacity((rows + 1) * (cols + 1));
        for r in tab.t.chunks_exact(stride) {
            t.extend_from_slice(&r[..cols]);
            t.push(r[total_cols]);
        }
        tab.t = t;
        tab.cols = cols;
    }
    Ok(tab)
}

/// Restores primal feasibility of a dual-feasible tableau (an optimal one
/// whose rhs was moved by [`Tableau::shift_rhs`]) with the dual simplex.
///
/// Never reports `Unbounded`: a program that had an optimum before its
/// rhs changed has a feasible dual, hence an optimum or no feasible point.
pub(crate) fn reoptimise(tab: &mut Tableau) -> SimplexOutcome {
    let _span = wimesh_obs::span!("milp.simplex.solve");
    let mut pivots = 0u64;
    let out = dual_phase(tab, &mut pivots);
    wimesh_obs::counter_add("milp.simplex.dual_pivots", pivots);
    match out {
        Ok(()) => SimplexOutcome::Optimal { x: tab.point() },
        Err(out) => out,
    }
}

fn dual_phase(tab: &mut Tableau, pivots: &mut u64) -> Result<(), SimplexOutcome> {
    let stall_threshold = tab.stall_threshold();
    let mut stall = 0usize;
    let mut last_obj = tab.objective();
    for _ in 0..tab.max_iters() {
        let use_bland = stall > stall_threshold;
        // Leaving row: most negative rhs, or (Bland) the negative row
        // with the smallest basic column.
        let mut leave: Option<usize> = None;
        for i in 0..tab.rows {
            if tab.rhs(i) < -EPS
                && leave.is_none_or(|l| {
                    if use_bland {
                        tab.basis[i] < tab.basis[l]
                    } else {
                        tab.rhs(i) < tab.rhs(l)
                    }
                })
            {
                leave = Some(i);
            }
        }
        let Some(i) = leave else {
            return Ok(());
        };
        // Entering column: min r_j / -t_ij over t_ij < 0 keeps every
        // reduced cost >= 0; ties -> the largest pivot element, or
        // (Bland) the smallest column.
        let row = tab.row(i);
        let cost = tab.row(tab.rows);
        let mut enter: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        for (j, (&a, &rj)) in row[..tab.cols].iter().zip(cost).enumerate() {
            if a < -EPS {
                let ratio = rj.max(0.0) / -a;
                let better = ratio < best_ratio - EPS
                    || (!use_bland
                        && ratio < best_ratio + EPS
                        && enter.is_some_and(|e| a < row[e]));
                if better {
                    best_ratio = ratio;
                    enter = Some(j);
                }
            }
        }
        let Some(j) = enter else {
            if tab.rhs(i) < -FEAS_TOL {
                // A non-negative combination of non-negative variables
                // cannot equal a negative number.
                return Err(SimplexOutcome::Infeasible);
            }
            // Negative within tolerance only: rounding residue.
            let at = i * (tab.cols + 1) + tab.cols;
            tab.t[at] = 0.0;
            continue;
        };
        tab.pivot(i, j);
        *pivots += 1;
        let obj = tab.objective();
        if (obj - last_obj).abs() <= EPS {
            stall += 1;
        } else {
            stall = 0;
            last_obj = obj;
        }
    }
    Err(SimplexOutcome::IterationLimit)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cold-solve shorthand for tests that only look at the outcome.
    fn outcome(lp: &StandardLp) -> SimplexOutcome {
        solve(lp).0
    }

    /// The optimal point of `lp` and its objective value `c'x`.
    fn optimum(lp: &StandardLp) -> (Vec<f64>, f64) {
        match outcome(lp) {
            SimplexOutcome::Optimal { x } => {
                let objective = lp.c.iter().zip(&x).map(|(c, x)| c * x).sum();
                (x, objective)
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    /// min -x1 - x2  s.t. x1 + x2 + s = 4 (slack at col 2).
    #[test]
    fn simple_max_as_min() {
        let lp = StandardLp {
            a: vec![vec![1.0, 1.0, 1.0]],
            b: vec![4.0],
            c: vec![-1.0, -1.0, 0.0],
            basis_seed: vec![Some(2)],
        };
        let (x, objective) = optimum(&lp);
        assert!((objective + 4.0).abs() < 1e-7);
        assert!((x[0] + x[1] - 4.0).abs() < 1e-7);
    }

    /// Klee-Minty-ish degenerate case still terminates.
    #[test]
    fn degenerate_terminates() {
        // min -x1 s.t. x1 + s1 = 0, x1 + x2 + s2 = 1
        let lp = StandardLp {
            a: vec![vec![1.0, 0.0, 1.0, 0.0], vec![1.0, 1.0, 0.0, 1.0]],
            b: vec![0.0, 1.0],
            c: vec![-1.0, 0.0, 0.0, 0.0],
            basis_seed: vec![Some(2), Some(3)],
        };
        let (x, objective) = optimum(&lp);
        assert!((objective - 0.0).abs() < 1e-7);
        assert!(x[0].abs() < 1e-7);
    }

    #[test]
    fn infeasible_detected() {
        // x1 = 2 and x1 = 5 simultaneously (equality rows, no seeds).
        let lp = StandardLp {
            a: vec![vec![1.0], vec![1.0]],
            b: vec![2.0, 5.0],
            c: vec![0.0],
            basis_seed: vec![None, None],
        };
        assert_eq!(outcome(&lp), SimplexOutcome::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        // min -x1 s.t. x1 - x2 + s = 1 : x1 can grow with x2.
        let lp = StandardLp {
            a: vec![vec![1.0, -1.0, 1.0]],
            b: vec![1.0],
            c: vec![-1.0, 0.0, 0.0],
            basis_seed: vec![Some(2)],
        };
        assert_eq!(outcome(&lp), SimplexOutcome::Unbounded);
    }

    #[test]
    fn equality_rows_via_artificials() {
        // min x1 + x2 s.t. x1 + 2x2 = 3, 3x1 + x2 = 4 -> x=(1,1), obj 2.
        let lp = StandardLp {
            a: vec![vec![1.0, 2.0], vec![3.0, 1.0]],
            b: vec![3.0, 4.0],
            c: vec![1.0, 1.0],
            basis_seed: vec![None, None],
        };
        let (x, objective) = optimum(&lp);
        assert!((x[0] - 1.0).abs() < 1e-6, "x = {x:?}");
        assert!((x[1] - 1.0).abs() < 1e-6);
        assert!((objective - 2.0).abs() < 1e-6);
        // Both artificials left the basis: the tableau is reusable.
        assert!(solve(&lp).1.is_some());
    }

    #[test]
    fn redundant_row_tolerated() {
        // x1 + x2 = 2 stated twice.
        let lp = StandardLp {
            a: vec![vec![1.0, 1.0], vec![1.0, 1.0]],
            b: vec![2.0, 2.0],
            c: vec![1.0, 0.0],
            basis_seed: vec![None, None],
        };
        let (x, objective) = optimum(&lp);
        assert!(objective.abs() < 1e-6);
        assert!((x[1] - 2.0).abs() < 1e-6);
        // The second row's artificial cannot leave: no tableau to reuse.
        assert!(solve(&lp).1.is_none());
    }

    /// max x1 + x2 (as min) s.t. x1 + x2 <= 4, x1 + 2 x2 <= 6.
    fn two_le_rows(b: Vec<f64>) -> StandardLp {
        StandardLp {
            a: vec![vec![1.0, 1.0, 1.0, 0.0], vec![1.0, 2.0, 0.0, 1.0]],
            b,
            c: vec![-1.0, -1.0, 0.0, 0.0],
            basis_seed: vec![Some(2), Some(3)],
        }
    }

    #[test]
    fn rhs_change_reoptimised_matches_cold() {
        let (cold, tab) = solve(&two_le_rows(vec![4.0, 6.0]));
        let tab = tab.expect("no artificials, so a clean tableau");
        assert!((tab.objective() + 4.0).abs() < 1e-7);
        // An unchanged rhs needs no pivot and gives the same point.
        let mut same = tab.clone();
        assert_eq!(reoptimise(&mut same), cold);
        // Rows 0 and 1 tightened through their slack columns (2 and 3),
        // one at a time and both together.
        for (by0, by1) in [(1.0, 0.0), (0.0, 4.0), (3.5, 5.0), (-2.0, 1.0)] {
            let mut moved = tab.clone();
            moved.shift_rhs(2, by0);
            moved.shift_rhs(3, by1);
            let warm = reoptimise(&mut moved);
            assert!(matches!(warm, SimplexOutcome::Optimal { .. }), "{warm:?}");
            let (_, cold_obj) = optimum(&two_le_rows(vec![4.0 - by0, 6.0 - by1]));
            assert!(
                (moved.objective() - cold_obj).abs() < 1e-7,
                "rhs -({by0}, {by1}): dual {} vs cold {cold_obj}",
                moved.objective()
            );
        }
    }

    #[test]
    fn rhs_change_that_empties_the_region_is_infeasible() {
        // x1 - s = 2 (a >= row): the optimum has x1 basic at 2. Moving the
        // rhs of x1 + x2 <= 4 below that leaves nothing.
        let lp = StandardLp {
            a: vec![vec![1.0, 0.0, -1.0, 0.0], vec![1.0, 1.0, 0.0, 1.0]],
            b: vec![2.0, 4.0],
            c: vec![1.0, 0.0, 0.0, 0.0],
            basis_seed: vec![None, Some(3)],
        };
        let (_, tab) = solve(&lp);
        let tab = tab.expect("the artificial leaves in phase 1");
        let mut still = tab.clone();
        still.shift_rhs(3, 2.0); // x1 + x2 <= 2: x1 = 2 survives
        assert!(matches!(
            reoptimise(&mut still),
            SimplexOutcome::Optimal { .. }
        ));
        let mut empty = tab.clone();
        empty.shift_rhs(3, 3.0); // x1 + x2 <= 1 < 2
        assert_eq!(reoptimise(&mut empty), SimplexOutcome::Infeasible);
    }

    #[test]
    fn structural_shift_is_the_lower_bound_substitution() {
        // x1 >= 3 stated as x1 = x1' + 3 on the solved tableau, against
        // the same program with the substitution made by hand.
        let (_, tab) = solve(&two_le_rows(vec![4.0, 6.0]));
        let mut moved = tab.expect("clean tableau");
        moved.shift_rhs(0, 3.0);
        assert!(matches!(
            reoptimise(&mut moved),
            SimplexOutcome::Optimal { .. }
        ));
        let (_, by_hand) = optimum(&two_le_rows(vec![1.0, 3.0]));
        // The cost row carries the substituted-out constant c1 * 3.
        assert!((moved.objective() - (by_hand - 3.0)).abs() < 1e-7);
    }

    #[test]
    fn no_constraints() {
        let lp = StandardLp {
            a: vec![],
            b: vec![],
            c: vec![1.0, 2.0],
            basis_seed: vec![],
        };
        let (x, objective) = optimum(&lp);
        assert_eq!(x, vec![0.0, 0.0]);
        assert_eq!(objective, 0.0);
        let lp2 = StandardLp {
            a: vec![],
            b: vec![],
            c: vec![-1.0],
            basis_seed: vec![],
        };
        assert_eq!(outcome(&lp2), SimplexOutcome::Unbounded);
    }
}
