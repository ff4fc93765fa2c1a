//! The modelling layer: variables, constraints, objective, and the public
//! `solve` entry points.

use std::error::Error;
use std::fmt;
use std::rc::Rc;

use crate::branch::{self, SolverConfig};
use crate::expr::{LinExpr, VarId};
use crate::simplex::{self, SimplexOutcome, StandardLp, Tableau};

/// Whether a variable is continuous, general integer, or binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarKind {
    /// Real-valued variable.
    Continuous,
    /// Integer-valued variable.
    Integer,
    /// 0/1 variable (integer with bounds clamped to `[0, 1]`).
    Binary,
}

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Minimize the objective.
    Minimize,
    /// Maximize the objective.
    Maximize,
}

/// Constraint comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `expr <= rhs`
    Le,
    /// `expr == rhs`
    Eq,
    /// `expr >= rhs`
    Ge,
}

#[derive(Debug, Clone)]
pub(crate) struct VarData {
    pub kind: VarKind,
    pub lb: f64,
    pub ub: f64,
    #[expect(dead_code, reason = "names are kept for debugging dumps")]
    pub name: String,
}

#[derive(Debug, Clone)]
pub(crate) struct ConstraintData {
    /// Variable terms only; the expression constant is folded into `rhs`.
    pub expr: LinExpr,
    pub op: CmpOp,
    pub rhs: f64,
}

/// Errors from [`Model::solve`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SolveError {
    /// The constraints (plus integrality) admit no solution.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
    /// The simplex iteration limit was hit (numerical trouble). From
    /// branch & bound: in a child relaxation, with no incumbent found, so
    /// neither feasibility nor infeasibility is proven.
    IterationLimit,
    /// Branch & bound exhausted its node budget before proving optimality
    /// and found no incumbent.
    NodeLimit,
    /// A variable was declared with `lb > ub`.
    BadBounds {
        /// The offending variable.
        var: VarId,
    },
}

// `?` and `Box<dyn Error>` need it: a missing impl fails here with E0277.
const _: fn(&SolveError) -> &dyn std::error::Error = |e| e;

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Infeasible => write!(f, "problem is infeasible"),
            SolveError::Unbounded => write!(f, "objective is unbounded"),
            SolveError::IterationLimit => write!(f, "simplex iteration limit reached"),
            SolveError::NodeLimit => {
                write!(f, "branch and bound node limit reached without incumbent")
            }
            SolveError::BadBounds { var } => {
                write!(f, "variable {var} has lower bound above upper bound")
            }
        }
    }
}

impl Error for SolveError {}

/// An optimal (or best-found) assignment returned by [`Model::solve`].
#[derive(Debug, Clone)]
pub struct Solution {
    values: Vec<f64>,
    objective: f64,
    /// Branch & bound nodes explored (1 for pure LPs).
    nodes: usize,
    /// True when B&B stopped short of a proof (node limit, or a child
    /// relaxation that failed) with an incumbent that is feasible but not
    /// proven optimal.
    bound_gap_open: bool,
}

impl Solution {
    pub(crate) fn from_parts(
        values: Vec<f64>,
        objective: f64,
        nodes: usize,
        bound_gap_open: bool,
    ) -> Self {
        Self {
            values,
            objective,
            nodes,
            bound_gap_open,
        }
    }

    /// Value of `var` in this solution.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to the solved model.
    pub fn value(&self, var: VarId) -> f64 {
        self.values[var.index()]
    }

    /// Values of all variables, indexed by [`VarId::index`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Objective value in the model's own sense.
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Branch & bound nodes explored.
    pub fn nodes_explored(&self) -> usize {
        self.nodes
    }

    /// True when the search ended before optimality was proven — the node
    /// budget expired, or a child relaxation hit the simplex iteration
    /// limit and its subtree stayed unsearched; the solution is feasible
    /// but possibly suboptimal.
    pub fn is_bound_gap_open(&self) -> bool {
        self.bound_gap_open
    }
}

/// How one model variable appears among the standard-form columns.
#[derive(Debug, Clone, Copy)]
enum ColMap {
    /// `x = col + lb` (finite lb). With a finite ub the row
    /// `col + slack = ub - lb` bounds it, and `ub_slack` is that slack's
    /// column.
    Shifted { col: usize, ub_slack: Option<usize> },
    /// `x = ub - col` (finite ub, no lb).
    Mirrored { col: usize },
    /// `x = pos - neg` (free).
    Split { pos: usize, neg: usize },
}

/// A solved LP relaxation: the node of the branch & bound tree. Fields
/// are private because the tableau is only meaningful together with the
/// bounds it was moved to.
#[derive(Debug)]
pub(crate) struct Relaxed {
    /// Per-variable bounds the relaxation was solved under.
    bounds: Vec<(f64, f64)>,
    /// Optimum in original variable space.
    values: Vec<f64>,
    /// Objective in the model's sense.
    obj: f64,
    /// The final tableau and the column map it was lowered with, for
    /// [`Relaxed::child`]; `None` when a redundant row kept an artificial
    /// basic, or after [`Relaxed::drop_tableau`].
    lp: Option<(Rc<[ColMap]>, Tableau)>,
}

impl Relaxed {
    fn new(
        model: &Model,
        bounds: Vec<(f64, f64)>,
        map: Rc<[ColMap]>,
        x: &[f64],
        tab: Option<Tableau>,
    ) -> Self {
        let values: Vec<f64> = map
            .iter()
            .zip(&bounds)
            .map(|(m, &(lb, ub))| match *m {
                ColMap::Shifted { col, .. } => x[col] + lb,
                ColMap::Mirrored { col } => ub - x[col],
                ColMap::Split { pos, neg } => x[pos] - x[neg],
            })
            .collect();
        let obj = model.evaluate_objective(&values);
        Self {
            bounds,
            values,
            obj,
            lp: tab.map(|tab| (map, tab)),
        }
    }

    /// The bounds of `var` this relaxation was solved under.
    pub(crate) fn bounds_of(&self, var: usize) -> (f64, f64) {
        self.bounds[var]
    }

    /// Optimum in original variable space.
    pub(crate) fn values(&self) -> &[f64] {
        &self.values
    }

    /// Objective in the model's sense.
    pub(crate) fn obj(&self) -> f64 {
        self.obj
    }

    /// Heap bytes of the tableau this node keeps for its children.
    pub(crate) fn tableau_bytes(&self) -> usize {
        self.lp.as_ref().map_or(0, |(_, tab)| tab.bytes())
    }

    /// Gives the tableau up: this node's children will be solved cold.
    pub(crate) fn drop_tableau(&mut self) {
        self.lp = None;
    }

    /// Solves the relaxation under this node's bounds with `var` moved to
    /// `[lb, ub]`: the branch & bound child.
    ///
    /// A child differs from its parent by right-hand sides only, so it
    /// starts from a copy of the parent's final tableau. With the
    /// variable lowered as `x = y + lb_parent` and bounded by the row
    /// `y + s = ub_parent - lb_parent`:
    ///
    /// * tightening `ub` by `D` lowers that row's rhs by `D`, which in the
    ///   parent's basis is `rhs -= D * column(s)` (`column(s) = B^-1 e_row`);
    /// * raising `lb` by `d` substitutes `y = y' + d`: `rhs -= d * column(y)`,
    ///   the new shift being the child's `lb` itself.
    ///
    /// Both are O(rows) and keep the parent's optimum dual feasible; the
    /// dual simplex then restores primal feasibility or proves there is
    /// none. The cold two-phase solve is the fallback for what this form
    /// cannot express — `var` without a finite lower bound, an infinite
    /// `ub` before or after the move (no row to tighten), a parent without
    /// a tableau (an artificial left basic, or dropped for memory) — and
    /// for an iteration limit on the dual path.
    ///
    /// # Errors
    ///
    /// Same as [`Model::solve_relaxation`].
    pub(crate) fn child(
        &self,
        model: &Model,
        var: usize,
        lb: f64,
        ub: f64,
    ) -> Result<Relaxed, SolveError> {
        if lb > ub + 1e-12 {
            return Err(SolveError::Infeasible);
        }
        let mut bounds = self.bounds.clone();
        bounds[var] = (lb, ub);
        if let Some((map, mut tab)) = self.moved(var, lb, ub) {
            match simplex::reoptimise(&mut tab) {
                SimplexOutcome::Optimal { x } => {
                    wimesh_obs::counter_inc("milp.bnb.children_reoptimised");
                    return Ok(Relaxed::new(model, bounds, map, &x, Some(tab)));
                }
                SimplexOutcome::Infeasible => {
                    wimesh_obs::counter_inc("milp.bnb.children_reoptimised");
                    return Err(SolveError::Infeasible);
                }
                // Numerical trouble on the dual path: solve cold.
                SimplexOutcome::Unbounded | SimplexOutcome::IterationLimit => {}
            }
        }
        wimesh_obs::counter_inc("milp.bnb.children_cold");
        model.solve_relaxation(bounds)
    }

    /// A copy of this node's tableau with the rhs moved for `var` in
    /// `[lb, ub]` (and its column map), or `None` when the move is not a
    /// pair of rhs updates.
    fn moved(&self, var: usize, lb: f64, ub: f64) -> Option<(Rc<[ColMap]>, Tableau)> {
        let (map, tab) = self.lp.as_ref()?;
        let ColMap::Shifted { col, ub_slack } = map[var] else {
            return None;
        };
        let (old_lb, old_ub) = self.bounds[var];
        let ub_move = match ub_slack {
            _ if ub == old_ub => None,
            Some(slack) if ub.is_finite() => Some((slack, old_ub - ub)),
            _ => return None,
        };
        if !lb.is_finite() {
            return None;
        }
        let mut tab = tab.clone();
        if lb != old_lb {
            tab.shift_rhs(col, lb - old_lb);
        }
        if let Some((slack, by)) = ub_move {
            tab.shift_rhs(slack, by);
        }
        Some((Rc::clone(map), tab))
    }
}

/// A mixed-integer linear program.
///
/// See the [crate documentation](crate) for a worked example.
#[derive(Debug, Clone, Default)]
pub struct Model {
    vars: Vec<VarData>,
    constraints: Vec<ConstraintData>,
    sense: Option<Sense>,
    objective: LinExpr,
}

impl Model {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a continuous variable with bounds `[lb, ub]`.
    ///
    /// `f64::INFINITY` / `f64::NEG_INFINITY` denote unbounded sides.
    pub fn add_var(&mut self, lb: f64, ub: f64, name: &str) -> VarId {
        self.push_var(VarKind::Continuous, lb, ub, name)
    }

    /// Adds an integer variable with bounds `[lb, ub]`.
    pub fn add_integer_var(&mut self, lb: f64, ub: f64, name: &str) -> VarId {
        self.push_var(VarKind::Integer, lb, ub, name)
    }

    /// Adds a binary (0/1) variable.
    pub fn add_binary_var(&mut self, name: &str) -> VarId {
        self.push_var(VarKind::Binary, 0.0, 1.0, name)
    }

    fn push_var(&mut self, kind: VarKind, lb: f64, ub: f64, name: &str) -> VarId {
        let id = VarId(self.vars.len());
        self.vars.push(VarData {
            kind,
            lb,
            ub,
            name: name.to_string(),
        });
        id
    }

    /// Number of integer/binary variables.
    pub fn integer_count(&self) -> usize {
        self.vars
            .iter()
            .filter(|v| v.kind != VarKind::Continuous)
            .count()
    }

    /// Adds `expr <= rhs`.
    pub fn add_le(&mut self, expr: impl Into<LinExpr>, rhs: f64) {
        self.add_constraint(expr, CmpOp::Le, rhs);
    }

    /// Adds `expr >= rhs`.
    pub fn add_ge(&mut self, expr: impl Into<LinExpr>, rhs: f64) {
        self.add_constraint(expr, CmpOp::Ge, rhs);
    }

    /// Adds `expr == rhs`.
    pub fn add_eq(&mut self, expr: impl Into<LinExpr>, rhs: f64) {
        self.add_constraint(expr, CmpOp::Eq, rhs);
    }

    /// Adds a constraint `expr op rhs`. The expression's constant part is
    /// folded into the right-hand side.
    ///
    /// # Panics
    ///
    /// Panics if the expression references a variable not in this model.
    pub fn add_constraint(&mut self, expr: impl Into<LinExpr>, op: CmpOp, rhs: f64) {
        let mut expr = expr.into();
        if let Some(max) = expr.max_var_index() {
            assert!(
                max < self.vars.len(),
                "expression references unknown variable"
            );
        }
        let rhs = rhs - expr.constant();
        expr.add_constant(-expr.constant());
        self.constraints.push(ConstraintData { expr, op, rhs });
    }

    /// Sets the objective. The expression's constant part is preserved in
    /// reported objective values.
    ///
    /// # Panics
    ///
    /// Panics if the expression references a variable not in this model.
    pub fn set_objective(&mut self, sense: Sense, expr: impl Into<LinExpr>) {
        let expr = expr.into();
        if let Some(max) = expr.max_var_index() {
            assert!(
                max < self.vars.len(),
                "objective references unknown variable"
            );
        }
        self.sense = Some(sense);
        self.objective = expr;
    }

    /// Solves with the default [`SolverConfig`].
    ///
    /// # Errors
    ///
    /// See [`SolveError`]. `Infeasible` is the expected outcome when the
    /// model is used as a feasibility oracle.
    pub fn solve(&self) -> Result<Solution, SolveError> {
        self.solve_with(&SolverConfig::default())
    }

    /// Solves with an explicit configuration.
    ///
    /// # Errors
    ///
    /// See [`SolveError`].
    pub fn solve_with(&self, config: &SolverConfig) -> Result<Solution, SolveError> {
        for (i, v) in self.vars.iter().enumerate() {
            if v.lb > v.ub {
                return Err(SolveError::BadBounds { var: VarId(i) });
            }
        }
        if self.integer_count() == 0 {
            self.solve_lp()
        } else {
            branch::branch_and_bound(self, config)
        }
    }

    /// Solves the LP relaxation of the model: every integer and binary
    /// variable is treated as continuous over its declared bounds.
    ///
    /// For a minimization the relaxation's objective lower-bounds the
    /// integral optimum (the relaxed feasible set is a superset), which
    /// is what approximation-mode admission uses to certify optimality
    /// gaps without running branch & bound. `nodes_explored()` is 1 and
    /// the bound gap is closed: an LP solve is exact for the relaxation.
    ///
    /// # Errors
    ///
    /// See [`SolveError`]. `Infeasible` here proves the *integral* model
    /// infeasible too.
    pub fn solve_relaxed(&self) -> Result<Solution, SolveError> {
        for (i, v) in self.vars.iter().enumerate() {
            if v.lb > v.ub {
                return Err(SolveError::BadBounds { var: VarId(i) });
            }
        }
        self.solve_lp()
    }

    /// The model as a plain LP over its declared bounds.
    fn solve_lp(&self) -> Result<Solution, SolveError> {
        let bounds = self.vars.iter().map(|v| (v.lb, v.ub)).collect();
        let relaxed = self.solve_relaxation(bounds)?;
        Ok(Solution {
            values: relaxed.values,
            objective: relaxed.obj,
            nodes: 1,
            bound_gap_open: false,
        })
    }

    pub(crate) fn vars(&self) -> &[VarData] {
        &self.vars
    }

    pub(crate) fn sense(&self) -> Sense {
        self.sense.unwrap_or(Sense::Minimize)
    }

    /// Solves the LP relaxation under `bounds` from scratch: lowers the
    /// model to standard form and runs the two-phase primal simplex.
    /// Branch & bound does this for the root; children go through
    /// [`Relaxed::child`].
    pub(crate) fn solve_relaxation(&self, bounds: Vec<(f64, f64)>) -> Result<Relaxed, SolveError> {
        for &(lb, ub) in &bounds {
            if lb > ub + 1e-12 {
                return Err(SolveError::Infeasible);
            }
        }

        // --- lower to standard form ------------------------------------
        // Each model variable becomes one or two standard-form columns.
        let mut col_map = Vec::with_capacity(bounds.len());
        let mut ncols = 0usize;
        // Extra upper-bound rows (variable, col, ub_minus_lb).
        let mut ub_rows: Vec<(usize, usize, f64)> = Vec::new();
        for (i, &(lb, ub)) in bounds.iter().enumerate() {
            if lb.is_finite() {
                let col = ncols;
                ncols += 1;
                col_map.push(ColMap::Shifted {
                    col,
                    ub_slack: None,
                });
                if ub.is_finite() {
                    // A fixed variable is pinned by a width-0 row (col <= 0
                    // plus col >= 0 implied by nonnegativity).
                    ub_rows.push((i, col, (ub - lb).max(0.0)));
                }
            } else if ub.is_finite() {
                let col = ncols;
                ncols += 1;
                col_map.push(ColMap::Mirrored { col });
            } else {
                let pos = ncols;
                let neg = ncols + 1;
                ncols += 2;
                col_map.push(ColMap::Split { pos, neg });
            }
        }
        // Slack columns follow the structural ones in row order: model
        // constraints first, then the upper-bound rows.
        let cons_slacks = self
            .constraints
            .iter()
            .filter(|c| c.op != CmpOp::Eq)
            .count();
        for (k, &(var, col, _)) in ub_rows.iter().enumerate() {
            col_map[var] = ColMap::Shifted {
                col,
                ub_slack: Some(ncols + cons_slacks + k),
            };
        }

        // Objective in standard columns (internal sense: minimize).
        let sign = match self.sense() {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        let width = ncols + cons_slacks + ub_rows.len();
        let mut c = vec![0.0; width];
        for (var, coef) in self.objective.iter() {
            match col_map[var.index()] {
                ColMap::Shifted { col, .. } => c[col] += sign * coef,
                ColMap::Mirrored { col } => c[col] -= sign * coef,
                ColMap::Split { pos, neg } => {
                    c[pos] += sign * coef;
                    c[neg] -= sign * coef;
                }
            }
        }

        // Rows: model constraints (variables replaced by their columns,
        // the shifts moved to the rhs), then upper-bound rows.
        let mut rows: Vec<(Vec<f64>, f64, CmpOp)> = Vec::new();
        for cons in &self.constraints {
            let mut arow = vec![0.0; width];
            let mut rhs = cons.rhs;
            for (var, coef) in cons.expr.iter() {
                let (lb, ub) = bounds[var.index()];
                match col_map[var.index()] {
                    ColMap::Shifted { col, .. } => {
                        arow[col] += coef;
                        rhs -= coef * lb;
                    }
                    ColMap::Mirrored { col } => {
                        arow[col] -= coef;
                        rhs -= coef * ub;
                    }
                    ColMap::Split { pos, neg } => {
                        arow[pos] += coef;
                        arow[neg] -= coef;
                    }
                }
            }
            rows.push((arow, rhs, cons.op));
        }
        for &(_, col, span) in &ub_rows {
            let mut arow = vec![0.0; width];
            arow[col] = 1.0;
            rows.push((arow, span, CmpOp::Le));
        }

        let mut lp = StandardLp {
            a: Vec::with_capacity(rows.len()),
            b: Vec::with_capacity(rows.len()),
            c,
            basis_seed: Vec::with_capacity(rows.len()),
        };
        let mut next_slack = ncols;
        for (mut arow, mut rhs, op) in rows {
            // A slack with coefficient +1 can seed the basis: that of a
            // <= row, or the surplus of a >= row negated for its rhs < 0.
            let mut slack = match op {
                CmpOp::Le => 1.0,
                CmpOp::Ge => -1.0,
                CmpOp::Eq => 0.0,
            };
            let scol = next_slack;
            if op != CmpOp::Eq {
                arow[scol] = slack;
                next_slack += 1;
            }
            if rhs < 0.0 {
                for v in arow.iter_mut() {
                    *v = -*v;
                }
                rhs = -rhs;
                slack = -slack;
            }
            lp.a.push(arow);
            lp.b.push(rhs);
            lp.basis_seed.push((slack > 0.0).then_some(scol));
        }

        let map: Rc<[ColMap]> = col_map.into();
        match simplex::solve(&lp) {
            (SimplexOutcome::Optimal { x }, tab) => Ok(Relaxed::new(self, bounds, map, &x, tab)),
            (SimplexOutcome::Infeasible, _) => Err(SolveError::Infeasible),
            (SimplexOutcome::Unbounded, _) => Err(SolveError::Unbounded),
            (SimplexOutcome::IterationLimit, _) => Err(SolveError::IterationLimit),
        }
    }

    /// Checks a candidate assignment against all constraints and bounds
    /// (integrality included), within `tol`. Useful for tests and for
    /// validating externally produced schedules.
    pub fn is_feasible(&self, values: &[f64], tol: f64) -> bool {
        if values.len() != self.vars.len() {
            return false;
        }
        for (v, &x) in self.vars.iter().zip(values) {
            if x < v.lb - tol || x > v.ub + tol {
                return false;
            }
            if v.kind != VarKind::Continuous && (x - x.round()).abs() > tol {
                return false;
            }
        }
        self.constraints.iter().all(|cons| {
            let lhs = cons.expr.eval(values);
            match cons.op {
                CmpOp::Le => lhs <= cons.rhs + tol,
                CmpOp::Ge => lhs >= cons.rhs - tol,
                CmpOp::Eq => (lhs - cons.rhs).abs() <= tol,
            }
        })
    }

    pub(crate) fn evaluate_objective(&self, values: &[f64]) -> f64 {
        self.objective.eval(values)
    }
}

#[cfg(test)]
mod reoptimise_equivalence;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lp_max_2d() {
        // max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18 -> (2, 6), 36.
        let mut m = Model::new();
        let x = m.add_var(0.0, f64::INFINITY, "x");
        let y = m.add_var(0.0, f64::INFINITY, "y");
        m.add_le(1.0 * x, 4.0);
        m.add_le(2.0 * y, 12.0);
        m.add_le(3.0 * x + 2.0 * y, 18.0);
        m.set_objective(Sense::Maximize, 3.0 * x + 5.0 * y);
        let sol = m.solve().unwrap();
        assert!((sol.objective() - 36.0).abs() < 1e-6);
        assert!((sol.value(x) - 2.0).abs() < 1e-6);
        assert!((sol.value(y) - 6.0).abs() < 1e-6);
        assert!(m.is_feasible(sol.values(), 1e-6));
    }

    #[test]
    fn lp_min_with_ge() {
        // min 2x + 3y st x + y >= 10, x >= 2 -> (8, 2)? No: min at y=0,
        // x=10 -> 20? x>=2, y>=0: cost 2x+3y; x+y>=10 -> cheapest is all x:
        // x=10,y=0, cost 20.
        let mut m = Model::new();
        let x = m.add_var(2.0, f64::INFINITY, "x");
        let y = m.add_var(0.0, f64::INFINITY, "y");
        m.add_ge(x + y, 10.0);
        m.set_objective(Sense::Minimize, 2.0 * x + 3.0 * y);
        let sol = m.solve().unwrap();
        assert!((sol.objective() - 20.0).abs() < 1e-6);
        assert!((sol.value(x) - 10.0).abs() < 1e-6);
    }

    #[test]
    fn lp_equality() {
        // min x + y st x + 2y = 4, x - y = 1 -> x = 2, y = 1.
        let mut m = Model::new();
        let x = m.add_var(0.0, f64::INFINITY, "x");
        let y = m.add_var(0.0, f64::INFINITY, "y");
        m.add_eq(x + 2.0 * y, 4.0);
        m.add_eq(x - y, 1.0);
        m.set_objective(Sense::Minimize, x + y);
        let sol = m.solve().unwrap();
        assert!((sol.value(x) - 2.0).abs() < 1e-6);
        assert!((sol.value(y) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn lp_infeasible() {
        let mut m = Model::new();
        let x = m.add_var(0.0, f64::INFINITY, "x");
        m.add_le(1.0 * x, 1.0);
        m.add_ge(1.0 * x, 2.0);
        m.set_objective(Sense::Minimize, LinExpr::from(x));
        assert_eq!(m.solve().unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn lp_unbounded() {
        let mut m = Model::new();
        let x = m.add_var(0.0, f64::INFINITY, "x");
        m.set_objective(Sense::Maximize, LinExpr::from(x));
        assert_eq!(m.solve().unwrap_err(), SolveError::Unbounded);
    }

    #[test]
    fn negative_lower_bounds() {
        // min x st x >= -5 -> -5.
        let mut m = Model::new();
        let x = m.add_var(-5.0, 5.0, "x");
        m.set_objective(Sense::Minimize, LinExpr::from(x));
        let sol = m.solve().unwrap();
        assert!((sol.value(x) + 5.0).abs() < 1e-6);
    }

    #[test]
    fn free_variable_split() {
        // min |ish|: min y st y >= x - 3, y >= 3 - x, x free -> y=0 at x=3.
        let mut m = Model::new();
        let x = m.add_var(f64::NEG_INFINITY, f64::INFINITY, "x");
        let y = m.add_var(0.0, f64::INFINITY, "y");
        m.add_ge(y - x, -3.0);
        m.add_ge(LinExpr::from(y) + x, 3.0);
        m.set_objective(Sense::Minimize, LinExpr::from(y));
        let sol = m.solve().unwrap();
        assert!(sol.value(y).abs() < 1e-6);
        assert!((sol.value(x) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn mirrored_variable() {
        // max x st x <= 7, no lower bound; objective pushes up.
        let mut m = Model::new();
        let x = m.add_var(f64::NEG_INFINITY, 7.0, "x");
        m.set_objective(Sense::Maximize, LinExpr::from(x));
        let sol = m.solve().unwrap();
        assert!((sol.value(x) - 7.0).abs() < 1e-6);
    }

    #[test]
    fn fixed_variable() {
        let mut m = Model::new();
        let x = m.add_var(3.0, 3.0, "x");
        let y = m.add_var(0.0, 10.0, "y");
        m.add_le(x + y, 8.0);
        m.set_objective(Sense::Maximize, x + y);
        let sol = m.solve().unwrap();
        assert!((sol.value(x) - 3.0).abs() < 1e-6);
        assert!((sol.value(y) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn solve_relaxed_lower_bounds_integral_optimum() {
        // min x + y s.t. x + y >= 1.5 with x, y integer: integral optimum
        // is 2 (e.g. x=2, y=0); the relaxation reaches 1.5 exactly.
        let mut m = Model::new();
        let x = m.add_integer_var(0.0, 10.0, "x");
        let y = m.add_integer_var(0.0, 10.0, "y");
        m.add_ge(LinExpr::from(x) + LinExpr::from(y), 1.5);
        m.set_objective(Sense::Minimize, LinExpr::from(x) + LinExpr::from(y));
        let relaxed = m.solve_relaxed().unwrap();
        assert!((relaxed.objective() - 1.5).abs() < 1e-9);
        assert_eq!(relaxed.nodes_explored(), 1);
        assert!(!relaxed.is_bound_gap_open());
        let exact = m.solve().unwrap();
        assert!(relaxed.objective() <= exact.objective() + 1e-9);
        assert!((exact.objective() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn solve_relaxed_checks_bounds() {
        let mut m = Model::new();
        let x = m.add_var(2.0, 1.0, "x");
        m.set_objective(Sense::Minimize, LinExpr::from(x));
        assert_eq!(
            m.solve_relaxed().unwrap_err(),
            SolveError::BadBounds { var: x }
        );
    }

    #[test]
    fn bad_bounds_error() {
        let mut m = Model::new();
        let x = m.add_var(2.0, 1.0, "x");
        m.set_objective(Sense::Minimize, LinExpr::from(x));
        assert_eq!(m.solve().unwrap_err(), SolveError::BadBounds { var: x });
    }

    #[test]
    fn objective_constant_preserved() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 2.0, "x");
        m.set_objective(Sense::Maximize, 1.0 * x + 10.0);
        let sol = m.solve().unwrap();
        assert!((sol.objective() - 12.0).abs() < 1e-6);
    }

    #[test]
    fn constraint_constant_folded() {
        // (x + 1) <= 3  =>  x <= 2.
        let mut m = Model::new();
        let x = m.add_var(0.0, f64::INFINITY, "x");
        m.add_le(1.0 * x + 1.0, 3.0);
        m.set_objective(Sense::Maximize, LinExpr::from(x));
        let sol = m.solve().unwrap();
        assert!((sol.value(x) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn integer_knapsack() {
        // max 10a + 6b + 4c st a+b+c <= 2 (binary) -> a,b -> 16.
        let mut m = Model::new();
        let a = m.add_binary_var("a");
        let b = m.add_binary_var("b");
        let c = m.add_binary_var("c");
        m.add_le(a + b + c, 2.0);
        m.set_objective(Sense::Maximize, 10.0 * a + 6.0 * b + 4.0 * c);
        let sol = m.solve().unwrap();
        assert!((sol.objective() - 16.0).abs() < 1e-6);
        assert!((sol.value(a) - 1.0).abs() < 1e-6);
        assert!((sol.value(b) - 1.0).abs() < 1e-6);
        assert!(sol.value(c).abs() < 1e-6);
    }

    #[test]
    fn integer_rounding_matters() {
        // max x st 2x <= 5, x integer -> 2 (LP gives 2.5).
        let mut m = Model::new();
        let x = m.add_integer_var(0.0, f64::INFINITY, "x");
        m.add_le(2.0 * x, 5.0);
        m.set_objective(Sense::Maximize, LinExpr::from(x));
        let sol = m.solve().unwrap();
        assert!((sol.value(x) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn integer_infeasible() {
        // 0.4 <= x <= 0.6, x integer: LP feasible, IP infeasible.
        let mut m = Model::new();
        let x = m.add_integer_var(0.4, 0.6, "x");
        m.set_objective(Sense::Minimize, LinExpr::from(x));
        assert_eq!(m.solve().unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn feasibility_without_objective() {
        // Pure feasibility model: no explicit objective.
        let mut m = Model::new();
        let x = m.add_var(0.0, 10.0, "x");
        let y = m.add_var(0.0, 10.0, "y");
        m.add_eq(x + y, 7.0);
        let sol = m.solve().unwrap();
        assert!((sol.value(x) + sol.value(y) - 7.0).abs() < 1e-6);
    }

    #[test]
    fn is_feasible_checks_integrality() {
        let mut m = Model::new();
        let x = m.add_integer_var(0.0, 5.0, "x");
        m.add_le(1.0 * x, 4.0);
        assert!(m.is_feasible(&[3.0], 1e-6));
        assert!(!m.is_feasible(&[2.5], 1e-6));
        assert!(!m.is_feasible(&[4.5, 0.0], 1e-6)); // wrong arity
    }
    /// `node.child(..)` against the cold solve of the same bounds.
    fn assert_child_matches_cold(m: &Model, node: &Relaxed, var: VarId, lb: f64, ub: f64) {
        let mut bounds = node.bounds.clone();
        bounds[var.index()] = (lb, ub);
        let cold = m.solve_relaxation(bounds).map(|r| r.obj);
        let child = node.child(m, var.index(), lb, ub).map(|r| r.obj);
        match (child, cold) {
            (Ok(a), Ok(b)) => assert!((a - b).abs() < 1e-9, "{a} vs {b}"),
            (a, b) => assert_eq!(a, b),
        }
    }

    fn root(m: &Model) -> Relaxed {
        let bounds = m.vars.iter().map(|v| (v.lb, v.ub)).collect();
        m.solve_relaxation(bounds).unwrap()
    }

    #[test]
    fn bounded_variable_moves_are_rhs_updates() {
        // max x + y st 2x + 2y <= 7 over [0, 3]^2: every move of a
        // bounded variable reuses the tableau, infeasible ones included.
        let mut m = Model::new();
        let x = m.add_integer_var(0.0, 3.0, "x");
        let y = m.add_integer_var(0.0, 3.0, "y");
        m.add_le(2.0 * x + 2.0 * y, 7.0);
        m.add_ge(x + y, 2.0);
        m.set_objective(Sense::Maximize, x + y);
        let node = root(&m);
        for (lb, ub) in [(0.0, 1.0), (2.0, 3.0), (1.0, 1.0), (0.0, 0.0), (3.0, 3.0)] {
            assert!(node.moved(x.index(), lb, ub).is_some(), "[{lb}, {ub}]");
            assert_child_matches_cold(&m, &node, x, lb, ub);
        }
        // x <= 0 then y <= 1 leaves x + y >= 2 empty: proven by the dual
        // simplex on the grandchild.
        let down = node.child(&m, x.index(), 0.0, 0.0).unwrap();
        assert!(down.moved(y.index(), 0.0, 1.0).is_some());
        assert_eq!(
            down.child(&m, y.index(), 0.0, 1.0).unwrap_err(),
            SolveError::Infeasible
        );
    }

    #[test]
    fn free_variable_move_falls_back_to_cold() {
        // A free integer has no column of its own to shift (x = pos - neg).
        let mut m = Model::new();
        let x = m.add_integer_var(f64::NEG_INFINITY, f64::INFINITY, "x");
        m.add_le(2.0 * x, 5.0);
        m.add_ge(2.0 * x, -5.0);
        m.set_objective(Sense::Maximize, LinExpr::from(x));
        let node = root(&m);
        assert!((node.values[0] - 2.5).abs() < 1e-9);
        for (lb, ub) in [(f64::NEG_INFINITY, 2.0), (3.0, f64::INFINITY)] {
            assert!(node.moved(x.index(), lb, ub).is_none());
            assert_child_matches_cold(&m, &node, x, lb, ub);
        }
        assert!((m.solve().unwrap().value(x) - 2.0).abs() < 1e-9);
        // The same for a variable bounded above only (x = ub - col).
        let mut m = Model::new();
        let x = m.add_integer_var(f64::NEG_INFINITY, 2.5, "x");
        m.set_objective(Sense::Maximize, LinExpr::from(x));
        let node = root(&m);
        assert!(node.moved(x.index(), f64::NEG_INFINITY, 2.0).is_none());
        assert_child_matches_cold(&m, &node, x, f64::NEG_INFINITY, 2.0);
        assert!((m.solve().unwrap().value(x) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn infinite_ub_has_no_row_to_tighten() {
        // x in [0, inf): raising lb is the substitution, tightening ub
        // would need a row the lowering never made. The cold child then
        // has that row, so its own children re-optimise.
        let mut m = Model::new();
        let x = m.add_integer_var(0.0, f64::INFINITY, "x");
        m.add_le(2.0 * x, 9.0);
        m.set_objective(Sense::Maximize, LinExpr::from(x));
        let node = root(&m);
        assert!(node.moved(x.index(), 5.0, f64::INFINITY).is_some());
        assert!(node.moved(x.index(), 0.0, 4.0).is_none());
        assert_child_matches_cold(&m, &node, x, 5.0, f64::INFINITY);
        assert_child_matches_cold(&m, &node, x, 0.0, 4.0);
        let down = node.child(&m, x.index(), 0.0, 4.0).unwrap();
        assert!(down.moved(x.index(), 0.0, 3.0).is_some());
        assert_child_matches_cold(&m, &down, x, 0.0, 3.0);
    }

    #[test]
    fn artificial_left_basic_at_the_root_falls_back_to_cold() {
        // x + y = 2 stated twice: the second row's artificial cannot be
        // driven out, so the root has no tableau to hand down.
        let mut m = Model::new();
        let x = m.add_integer_var(0.0, 3.0, "x");
        let y = m.add_integer_var(0.0, 3.0, "y");
        m.add_eq(x + y, 2.0);
        m.add_eq(x + y, 2.0);
        m.add_le(2.0 * x, 3.0);
        m.set_objective(Sense::Maximize, LinExpr::from(x));
        let node = root(&m);
        assert!(node.lp.is_none());
        assert!((node.values[0] - 1.5).abs() < 1e-9);
        assert_child_matches_cold(&m, &node, x, 0.0, 1.0);
        assert_child_matches_cold(&m, &node, x, 2.0, 3.0);
        let sol = m.solve().unwrap();
        assert!((sol.value(x) - 1.0).abs() < 1e-9);
        assert!((sol.value(y) - 1.0).abs() < 1e-9);
    }
}
