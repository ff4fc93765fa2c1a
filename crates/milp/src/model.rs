//! The modelling layer: variables, constraints, objective, and the public
//! `solve` entry points.

use std::error::Error;
use std::fmt;

use crate::branch::{self, SolverConfig};
use crate::expr::{LinExpr, VarId};
use crate::simplex::{self, SimplexOutcome, StandardLp};

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
    #[allow(dead_code)] // names are kept for debugging dumps
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
    /// The simplex iteration limit was hit (numerical trouble).
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
    /// True when B&B stopped at the node limit with an incumbent that is
    /// feasible but not proven optimal.
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

    /// True when the node budget expired before optimality was proven;
    /// the solution is feasible but possibly suboptimal.
    pub fn is_bound_gap_open(&self) -> bool {
        self.bound_gap_open
    }
}

/// An opaque simplex basis captured from a relaxation solve, reusable to
/// warm-start the next *structurally identical* relaxation (same bound
/// finiteness pattern, hence the same standard-form shape).
///
/// Staleness is detected by dimension checks at use time; a mismatched
/// basis is silently ignored, so reuse never affects correctness.
#[derive(Debug, Clone)]
pub(crate) struct LpBasis {
    rows: usize,
    width: usize,
    cols: Vec<usize>,
}

/// A warm-start hint for [`Model::solve_with_warm_start`].
///
/// Currently carries an optional *incumbent*: a complete variable
/// assignment believed to be feasible. A valid incumbent hands branch &
/// bound an immediate pruning bound, often collapsing the search to a
/// handful of nodes; an invalid or stale one is checked and dropped, so
/// hints can speed a solve up but never change its verdict.
#[derive(Debug, Clone, Default)]
pub struct WarmStart {
    incumbent: Option<Vec<f64>>,
}

impl WarmStart {
    /// An empty hint, equivalent to a cold solve.
    pub fn new() -> Self {
        Self::default()
    }

    /// A hint seeding branch & bound with `values` (indexed by
    /// [`VarId::index`]) as the starting incumbent.
    pub fn with_incumbent(values: Vec<f64>) -> Self {
        Self {
            incumbent: Some(values),
        }
    }

    /// The incumbent assignment, if any.
    pub fn incumbent(&self) -> Option<&[f64]> {
        self.incumbent.as_deref()
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

    /// Number of variables.
    pub fn var_count(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn constraint_count(&self) -> usize {
        self.constraints.len()
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
        self.solve_inner(config, None)
    }

    /// Solves with an explicit configuration and a [`WarmStart`] hint.
    ///
    /// Hints are validated before use and silently dropped when stale, so
    /// the result always has the same verdict (optimal / infeasible /
    /// unbounded) and objective value as a cold [`Model::solve_with`]; only
    /// the work spent getting there changes. With alternate optima the
    /// returned *assignment* may differ from the cold one.
    ///
    /// # Errors
    ///
    /// See [`SolveError`].
    pub fn solve_with_warm_start(
        &self,
        config: &SolverConfig,
        warm: &WarmStart,
    ) -> Result<Solution, SolveError> {
        self.solve_inner(config, Some(warm))
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
        let (values, objective) = self.solve_relaxation(None)?;
        Ok(Solution {
            values,
            objective,
            nodes: 1,
            bound_gap_open: false,
        })
    }

    fn solve_inner(
        &self,
        config: &SolverConfig,
        warm: Option<&WarmStart>,
    ) -> Result<Solution, SolveError> {
        for (i, v) in self.vars.iter().enumerate() {
            if v.lb > v.ub {
                return Err(SolveError::BadBounds { var: VarId(i) });
            }
        }
        if self.integer_count() == 0 {
            let (values, objective) = self.solve_relaxation(None)?;
            Ok(Solution {
                values,
                objective,
                nodes: 1,
                bound_gap_open: false,
            })
        } else {
            branch::branch_and_bound(self, config, warm)
        }
    }

    pub(crate) fn vars(&self) -> &[VarData] {
        &self.vars
    }

    pub(crate) fn sense(&self) -> Sense {
        self.sense.unwrap_or(Sense::Minimize)
    }

    /// Solves the LP relaxation, optionally with overridden variable bounds
    /// (used by branch & bound). Returns values in original variable space
    /// and the objective in the model's sense.
    pub(crate) fn solve_relaxation(
        &self,
        bounds_override: Option<&[(f64, f64)]>,
    ) -> Result<(Vec<f64>, f64), SolveError> {
        self.solve_relaxation_seeded(bounds_override, None)
            .map(|(values, obj, _)| (values, obj))
    }

    /// Like [`Model::solve_relaxation`], optionally warm-started from the
    /// basis of a previous structurally identical relaxation, and returning
    /// this solve's final basis for the next one.
    ///
    /// A basis whose dimensions no longer match (e.g. branching turned an
    /// infinite bound finite, changing the standard-form shape) is ignored.
    pub(crate) fn solve_relaxation_seeded(
        &self,
        bounds_override: Option<&[(f64, f64)]>,
        warm: Option<&LpBasis>,
    ) -> Result<(Vec<f64>, f64, Option<LpBasis>), SolveError> {
        let n = self.vars.len();
        let bounds: Vec<(f64, f64)> = match bounds_override {
            Some(b) => b.to_vec(),
            None => self.vars.iter().map(|v| (v.lb, v.ub)).collect(),
        };
        for &(lb, ub) in &bounds {
            if lb > ub + 1e-12 {
                return Err(SolveError::Infeasible);
            }
        }

        // --- lower to standard form ------------------------------------
        // Each model variable becomes one or two standard-form columns.
        #[derive(Clone, Copy)]
        enum ColMap {
            /// x = col + shift
            Shifted { col: usize, shift: f64 },
            /// x = shift - col  (finite ub, no lb)
            Mirrored { col: usize, shift: f64 },
            /// x = col_pos - col_neg (free)
            Split { pos: usize, neg: usize },
        }
        let mut col_map = Vec::with_capacity(n);
        let mut ncols = 0usize;
        // Extra upper-bound rows (col, ub_minus_lb).
        let mut ub_rows: Vec<(usize, f64)> = Vec::new();
        for &(lb, ub) in &bounds {
            if lb.is_finite() {
                let col = ncols;
                ncols += 1;
                col_map.push(ColMap::Shifted { col, shift: lb });
                if ub.is_finite() {
                    let width = ub - lb;
                    if width > 0.0 {
                        ub_rows.push((col, width));
                    } else {
                        // Fixed variable: pin with an equality row below by
                        // using width 0 upper bound (col <= 0 plus col >= 0
                        // implied by nonnegativity).
                        ub_rows.push((col, 0.0));
                    }
                }
            } else if ub.is_finite() {
                let col = ncols;
                ncols += 1;
                col_map.push(ColMap::Mirrored { col, shift: ub });
            } else {
                let pos = ncols;
                let neg = ncols + 1;
                ncols += 2;
                col_map.push(ColMap::Split { pos, neg });
            }
        }

        // Objective in standard columns (internal sense: minimize).
        let sign = match self.sense() {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        let mut c = vec![0.0; ncols];
        // Constant contribution of shifts/mirrors to the objective:
        // x = col + shift (or shift - col) adds coef*shift per term.
        let mut obj_const = self.objective.constant();
        for (var, coef) in self.objective.iter() {
            match col_map[var.index()] {
                ColMap::Shifted { col, shift } => {
                    c[col] += sign * coef;
                    obj_const += coef * shift;
                }
                ColMap::Mirrored { col, shift } => {
                    c[col] -= sign * coef;
                    obj_const += coef * shift;
                }
                ColMap::Split { pos, neg } => {
                    c[pos] += sign * coef;
                    c[neg] -= sign * coef;
                }
            }
        }

        // Rows: model constraints then upper-bound rows.
        let mut a: Vec<Vec<f64>> = Vec::new();
        let mut b: Vec<f64> = Vec::new();
        let mut basis_seed: Vec<Option<usize>> = Vec::new();
        // Slack columns appended after ncols; grow lazily.
        let mut slack_cols = 0usize;
        struct RowBuild {
            coefs: Vec<(usize, f64)>,
            rhs: f64,
            op: CmpOp,
        }
        let mut rows: Vec<RowBuild> = Vec::new();
        for cons in &self.constraints {
            let mut coefs: Vec<(usize, f64)> = Vec::new();
            let mut rhs = cons.rhs;
            for (var, coef) in cons.expr.iter() {
                match col_map[var.index()] {
                    ColMap::Shifted { col, shift } => {
                        coefs.push((col, coef));
                        rhs -= coef * shift;
                    }
                    ColMap::Mirrored { col, shift } => {
                        coefs.push((col, -coef));
                        rhs -= coef * shift;
                    }
                    ColMap::Split { pos, neg } => {
                        coefs.push((pos, coef));
                        coefs.push((neg, -coef));
                    }
                }
            }
            rows.push(RowBuild {
                coefs,
                rhs,
                op: cons.op,
            });
        }
        for &(col, width) in &ub_rows {
            rows.push(RowBuild {
                coefs: vec![(col, 1.0)],
                rhs: width,
                op: CmpOp::Le,
            });
        }

        let total_slack: usize = rows.iter().filter(|r| r.op != CmpOp::Eq).count();
        let width = ncols + total_slack;
        for row in rows {
            let mut arow = vec![0.0; width];
            for (col, coef) in row.coefs {
                arow[col] += coef;
            }
            let mut rhs = row.rhs;
            let mut seed = None;
            match row.op {
                CmpOp::Le => {
                    let scol = ncols + slack_cols;
                    slack_cols += 1;
                    arow[scol] = 1.0;
                    if rhs < 0.0 {
                        for v in arow.iter_mut() {
                            *v = -*v;
                        }
                        rhs = -rhs;
                        // slack coefficient now -1: cannot seed the basis.
                    } else {
                        seed = Some(scol);
                    }
                }
                CmpOp::Ge => {
                    let scol = ncols + slack_cols;
                    slack_cols += 1;
                    arow[scol] = -1.0;
                    if rhs < 0.0 {
                        for v in arow.iter_mut() {
                            *v = -*v;
                        }
                        rhs = -rhs;
                        // surplus became +1: usable seed.
                        seed = Some(scol);
                    }
                }
                CmpOp::Eq => {
                    if rhs < 0.0 {
                        for v in arow.iter_mut() {
                            *v = -*v;
                        }
                        rhs = -rhs;
                    }
                }
            }
            a.push(arow);
            b.push(rhs);
            basis_seed.push(seed);
        }

        let mut cfull = vec![0.0; width];
        cfull[..ncols].copy_from_slice(&c);
        let nrows = a.len();
        let lp = StandardLp {
            a,
            b,
            c: cfull,
            basis_seed,
        };
        let seed = warm
            .filter(|w| w.rows == nrows && w.width == width)
            .map(|w| w.cols.as_slice());
        match simplex::solve_seeded(&lp, seed) {
            (SimplexOutcome::Optimal { x, objective }, final_basis) => {
                let mut values = vec![0.0; n];
                for (i, map) in col_map.iter().enumerate() {
                    values[i] = match *map {
                        ColMap::Shifted { col, shift } => x[col] + shift,
                        ColMap::Mirrored { col, shift } => shift - x[col],
                        ColMap::Split { pos, neg } => x[pos] - x[neg],
                    };
                }
                // Undo the internal minimize sign and add constants.
                let obj = sign * objective + obj_const;
                let basis = final_basis.map(|cols| LpBasis {
                    rows: nrows,
                    width,
                    cols,
                });
                Ok((values, obj, basis))
            }
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
}
