"""MILP models and their one engine: exact solves through scipy's HiGHS.

Models are built once, then solved by HiGHS with a zero relative gap, so an
optimal status means exactly optimal. Every accepted solution is
independently re-checked by direct substitution before being returned. The
ground truth that no engine can bias is the brute-force oracles in
``oracle.py``, not a second MIP solver.

``run_highs`` reaches HiGHS through the binding scipy bundles and itself
uses, ``scipy.optimize._highspy._core``: the same HiGHS library, no other
dependency. It fills in the model and options as scipy's public ``milp``
does, minus the per-solve wrapper work a planner never reads: input
validation, a per-option check that builds a fresh options manager, a
per-column loop for bound multipliers, a type object made per variable.
Planner models are tiny (desk8x8's have about 170 to 570 columns), and
there that wrapper cost about half as much as HiGHS itself: over the 174
unique models of two desk8x8 days, solving through the binding took
1.06-1.18 s against 1.51-1.62 s through ``milp`` (2-vCPU Xeon VM). The
binding is private to scipy, so ``tests/test_milp.py`` solves every model
of a desk day both ways and requires the same status and, bit for bit, the
same point: a scipy release that changes it fails the tests instead of
silently changing which tied optimum is filed.

HiGHS always runs with one fixed option set, ``HIGHS_OPTIONS``: an engine
setting like the zero gap, not a knob. It turns off the feasibility-jump
primal heuristic (Luteberget & Sartor, "Feasibility Jump: an LP-free
Lagrangian MIP heuristic", Math. Prog. Computation 2023), which HiGHS runs
before the root LP. Every optimal planner model closes at the root: over the
unique models of two desk8x8 days, the first full15x15 period and the first
eight, HiGHS needed 0 or 1 branch-and-bound node on each. There the
heuristic only finds incumbents the root LP reaches anyway, and its run is
fixed per-solve cost; without it the desk models' HiGHS time falls by about
a third. Turning off a primal heuristic changes no optimum (status and
optimal objective were equal on all of those models, solved both ways),
though HiGHS may return another of several tied optimal points.

A model stores itself as arrays would: each variable is a column index with
its bounds and integrality in flat per-column lists, and each constraint is
turned into column indices and coefficients when it is added and appended to
flat per-row lists (CSR order, plus relation, right-hand side and label).
Assembly, unpacking a solver point and the substitution re-check are then
numpy conversions and vectorized operations over those lists, not walks over
per-row Python objects. ``Model.variables`` and ``Model.constraints`` are
read-only views built on demand for callers that want one object per column
or row; neither the solve nor the re-check builds them.

HiGHS receives the constraint matrix sparse, column-wise; no dense row is
ever built. Planner models are very sparse (the full15x15 choice-setting
model has about 8,000 nonzeros in a 1,200 × 6,400 matrix), and HiGHS reads
sparse input directly.

Inside a ``reuse_solves()`` context the solves are memoized. The key is a
blake2b digest of exactly what HiGHS receives: the objective vector,
variable bounds, integrality flags, the CSR matrix (shape, indptr, indices,
data), the row bounds and the options.
Variable names and the objective offset never reach HiGHS, so they are left
out: a hit returns the stored raw point, and values and objective are rebuilt
against the model being solved, under its own names and offset. Only
OPTIMAL and INFEASIBLE outcomes are stored. No solve has a time limit, so
each runs to its proven optimum or infeasibility, and the outcome depends on
the input alone, never on the clock. ``run_campaign`` opens one context per
day, in which the coplan lane re-solves many of the fair-coplan lane's
choice-setting models.
"""
from __future__ import annotations

import hashlib
import math
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.optimize._highspy import _core as highs

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
ERROR = "error"

FEASIBILITY_TOL = 1e-6
INTEGRALITY_TOL = 1e-6

# What every solve sets in HiGHS, in HiGHS's own option names and values. The
# console log goes first, so nothing a later setting reports reaches stdout.
# The gap is always given: left out, HiGHS stops at its own default relative
# gap and still reports the incumbent as optimal. Feasibility jump is off
# because planner models close at the root (see the module docstring).
HIGHS_OPTIONS = {"log_to_console": False, "presolve": "on", "mip_rel_gap": 0.0,
                 "mip_heuristic_run_feasibility_jump": False}

_RELATIONS = ("<=", "=", ">=")
_LE, _GE = 0, 2  # positions in _RELATIONS


@dataclass(frozen=True)
class _Var:
    name: str
    binary: bool
    lb: float
    ub: float


@dataclass(frozen=True)
class _Constraint:
    label: str
    coeffs: tuple[tuple[str, float], ...]
    relation: str
    rhs: float


@dataclass
class SolveResult:
    status: str
    objective: float | None = None
    values: dict[str, float] = field(default_factory=dict)
    wall_time: float = 0.0
    detail: str = ""
    # Set only on the ERROR for HiGHS status 1 ("a limit was reached").
    hit_time_limit: bool = False


class Model:
    """Linear model with binary/continuous variables, stored column- and row-wise.

    Each variable gets its column index when it is declared, and its bounds
    and integrality go to flat per-column lists. Each constraint is turned
    into column indices when it is added, and its indices, coefficients,
    relation, right-hand side and label go to flat per-row lists, so solving
    converts lists to arrays instead of walking per-row objects.
    ``variables`` and ``constraints`` are read-only views built on demand;
    solving never builds them.
    """

    def __init__(self, name: str = "model", sense: str = "min"):
        if sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
        self.name = name
        self.sense = sense
        self._column: dict[str, int] = {}
        self._names: list[str] = []
        self._lb: list[float] = []
        self._ub: list[float] = []
        self._integrality: list[int] = []
        # Rows in CSR order: row i holds _indices/_coeffs[_indptr[i]:_indptr[i + 1]].
        self._indptr: list[int] = [0]
        self._indices: list[int] = []
        self._coeffs: list[float] = []
        self._relations: list[int] = []  # index into _RELATIONS
        self._rhs: list[float] = []
        self._labels: list[str] = []
        self._objective_columns: list[int] = []
        self._objective_coeffs: list[float] = []
        self.objective_offset = 0.0

    def _declare(self, name: str, binary: bool, lb: float, ub: float) -> str:
        self._column[name] = len(self._names)
        self._names.append(name)
        self._lb.append(lb)
        self._ub.append(ub)
        self._integrality.append(1 if binary else 0)
        return name

    def binary(self, name: str) -> str:
        if name in self._column:
            raise ValueError(f"variable {name!r} declared twice")
        return self._declare(name, True, 0.0, 1.0)

    def continuous(self, name: str, lb: float = 0.0, ub: float = math.inf) -> str:
        if name in self._column:
            raise ValueError(f"variable {name!r} declared twice")
        if lb > ub:
            raise ValueError(f"variable {name!r} has lb > ub")
        return self._declare(name, False, lb, ub)

    def add(self, coeffs: dict[str, float], relation: str, rhs: float, label: str = "") -> None:
        if relation not in _RELATIONS:
            raise ValueError(f"unknown relation {relation!r}")
        if not coeffs:
            raise ValueError(f"constraint {label!r} has no variables")
        try:
            columns = [self._column[name] for name in coeffs]
        except KeyError as exc:
            raise ValueError(
                f"constraint {label!r} references unknown variable {exc.args[0]!r}"
            ) from None
        rhs = float(rhs)
        self._indices += columns
        self._coeffs += coeffs.values()
        self._indptr.append(len(self._indices))
        self._relations.append(_RELATIONS.index(relation))
        self._rhs.append(rhs)
        self._labels.append(label)

    def set_objective(self, coeffs: dict[str, float], offset: float = 0.0) -> None:
        try:
            columns = [self._column[name] for name in coeffs]
        except KeyError as exc:
            raise ValueError(f"objective references unknown variable {exc.args[0]!r}") from None
        self._objective_columns = columns
        self._objective_coeffs = list(coeffs.values())
        self.objective_offset = float(offset)

    @property
    def variables(self) -> tuple[_Var, ...]:
        return tuple(
            _Var(name, bool(flag), lb, ub)
            for name, flag, lb, ub in zip(self._names, self._integrality, self._lb, self._ub)
        )

    @property
    def constraints(self) -> tuple[_Constraint, ...]:
        names, indptr = self._names, self._indptr
        return tuple(
            _Constraint(
                self._labels[i],
                tuple((names[j], coeff) for j, coeff in zip(
                    self._indices[indptr[i]:indptr[i + 1]],
                    self._coeffs[indptr[i]:indptr[i + 1]])),
                _RELATIONS[self._relations[i]],
                self._rhs[i],
            )
            for i in range(len(self._rhs))
        )

    @property
    def num_vars(self) -> int:
        return len(self._names)

    @property
    def num_rows(self) -> int:
        return len(self._rhs)

    @property
    def num_nonzeros(self) -> int:
        """Stored coefficients, as added (before duplicates are summed)."""
        return self._indptr[-1]


def check_solution(model: Model, values: dict[str, float], tol: float = FEASIBILITY_TOL) -> list[str]:
    """All bound, integrality, and constraint violations by substitution.

    The messages come in the order of a scan over the variables, then over
    the rows. Each row's left-hand side is summed in the order its terms
    were added.
    """
    names = model._names
    given = [values.get(name) for name in names]
    x = np.array(given, dtype=float)  # a missing value reads as nan here
    missing = np.zeros(len(names), dtype=bool)
    for i in np.flatnonzero(np.isnan(x)).tolist():
        missing[i] = given[i] is None
    x[missing] = 0.0
    lb = np.array(model._lb, dtype=float)
    ub = np.array(model._ub, dtype=float)
    out_of_bounds = (x < lb - tol) | (x > ub + tol)
    binary = np.array(model._integrality, dtype=bool)
    fractional = binary & (np.abs(x - np.round(x)) > INTEGRALITY_TOL)
    violations = []
    for i in np.flatnonzero(missing | out_of_bounds | fractional).tolist():
        name = names[i]
        if missing[i]:
            violations.append(f"missing value for {name}")
            continue
        if out_of_bounds[i]:
            violations.append(f"{name}={given[i]} outside [{model._lb[i]}, {model._ub[i]}]")
        if fractional[i]:
            violations.append(f"{name}={given[i]} not integral")
    if not model._rhs:
        return violations
    # scipy's CSR product sums each row's terms left to right, as the rows
    # were added; A here is deliberately not put in canonical (sorted) form.
    A = sparse.csr_array(
        (np.array(model._coeffs, dtype=float), np.array(model._indices, dtype=np.int32),
         np.array(model._indptr, dtype=np.int32)),
        shape=(len(model._rhs), len(names)),
    )
    lhs = A @ x
    rhs = np.array(model._rhs)
    relation = np.array(model._relations)
    broken = np.where(
        relation == _LE, lhs > rhs + tol,
        np.where(relation == _GE, lhs < rhs - tol, np.abs(lhs - rhs) > tol))
    for idx in np.flatnonzero(broken).tolist():
        label = model._labels[idx] or f"c{idx}"
        violations.append(
            f"{label}: {float(lhs[idx])} {_RELATIONS[model._relations[idx]]} "
            f"{model._rhs[idx]} violated"
        )
    return violations


def _arrays(model: Model):
    """Stable (insertion-order) matrix form of the model, minimization sense.

    The constraint matrix is a CSR array of the stored rows, with duplicates
    summed and zero coefficients dropped, so it equals the CSR form of the
    dense matrix entry for entry.
    """
    n = len(model._names)
    sign = 1.0 if model.sense == "min" else -1.0
    c = np.zeros(n)
    c[model._objective_columns] = sign * np.array(model._objective_coeffs, dtype=float)
    lb = np.array(model._lb, dtype=float)
    ub = np.array(model._ub, dtype=float)
    integrality = np.array(model._integrality, dtype=np.int64)
    rhs = np.array(model._rhs, dtype=float)
    relation = np.array(model._relations)
    A = sparse.csr_array(
        (np.array(model._coeffs, dtype=float), np.array(model._indices, dtype=np.int32),
         np.array(model._indptr, dtype=np.int32)),
        shape=(len(rhs), n),
    )
    A.sum_duplicates()
    A.eliminate_zeros()
    row_lb = np.where(relation == _LE, -np.inf, rhs)
    row_ub = np.where(relation == _GE, np.inf, rhs)
    return model._names, c, lb, ub, integrality, A, row_lb, row_ub, sign


def _finish(model: Model, names, raw_x, lb, ub, integrality, sign, c) -> tuple[dict[str, float], float]:
    """Values and objective of a raw solver point.

    Each value is clipped into its bounds, and a binary within 1e-4 of an
    integer is snapped to it. The result equals ``min(max(x, lb), ub)`` and
    ``float(round(x))`` per variable: ``np.where`` keeps the operand that
    Python's ``max``/``min`` keep, and adding 0.0 turns the ``-0.0`` that
    ``np.round`` gives for small negatives into the ``0.0`` of ``round``.
    """
    x = np.asarray(raw_x, dtype=float)
    x = np.where(lb > x, lb, x)
    x = np.where(ub < x, ub, x)
    snapped = np.round(x) + 0.0
    x = np.where((integrality == 1) & (np.abs(x - snapped) <= 1e-4), snapped, x)
    obj = sign * float(np.dot(c, x)) + model.objective_offset
    return dict(zip(names, x.tolist())), obj


# The memo of the innermost open ``reuse_solves()`` context, or None: digest
# of the HiGHS input -> (``run_highs`` status, raw x, message).
_MEMO: ContextVar[dict[bytes, tuple] | None] = ContextVar("milp_memo", default=None)


@contextmanager
def reuse_solves():
    """Within the block, HiGHS solves an identical input only once.

    The memo lives exactly as long as the block, exception or not.
    """
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def _solve_key(options: dict, A, *arrays) -> bytes:
    # ``_arrays`` fixes every dtype, and A.shape fixes every length (nnz is
    # indptr[-1]), so the concatenated bytes decode one way only.
    head = repr((sorted(options.items()), A.shape)).encode()
    return hashlib.blake2b(b"".join(
        [head, A.indptr.tobytes(), A.indices.tobytes(), A.data.tobytes(),
         *(array.tobytes() for array in arrays)])).digest()


# HiGHS model status -> the status ``run_highs`` returns. Any other model
# status is 4, "some other outcome".
_STATUS = {highs.HighsModelStatus.kOptimal: 0,
           highs.HighsModelStatus.kTimeLimit: 1,
           highs.HighsModelStatus.kIterationLimit: 1,
           highs.HighsModelStatus.kInfeasible: 2}
_VAR_TYPES = (highs.HighsVarType.kContinuous, highs.HighsVarType.kInteger)


def run_highs(c, lb, ub, integrality, A, row_lb, row_ub):
    """Minimize ``c @ x`` subject to ``row_lb <= A @ x <= row_ub`` and
    ``lb <= x <= ub``, with the columns flagged 1 in ``integrality`` integer.

    HiGHS runs once, with ``HIGHS_OPTIONS``, and receives the model as
    scipy's public ``milp`` hands it over: the CSC form of ``A``, infinite
    bounds as they are. Returns ``(status, x, message)``: status 0 (optimal,
    and ``x`` is HiGHS's point), 1 (a limit was reached), 2 (infeasible) or
    4 (anything else); ``x`` is None unless the status is 0. Raises if HiGHS
    rejects an option or the model.
    """
    A = A.tocsc()
    lp = highs.HighsLp()
    lp.num_row_, lp.num_col_ = A.shape
    lp.a_matrix_.num_row_, lp.a_matrix_.num_col_ = A.shape
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = A.indptr
    lp.a_matrix_.index_ = A.indices
    lp.a_matrix_.value_ = A.data
    lp.col_cost_ = c
    lp.col_lower_ = lb
    lp.col_upper_ = ub
    lp.row_lower_ = row_lb
    lp.row_upper_ = row_ub
    lp.integrality_ = [_VAR_TYPES[flag] for flag in integrality.tolist()]
    solver = highs._Highs()
    for option, value in HIGHS_OPTIONS.items():
        if solver.setOptionValue(option, value) != highs.HighsStatus.kOk:
            raise ValueError(f"HiGHS rejects option {option}={value!r}")
    if solver.passModel(lp) == highs.HighsStatus.kError:
        raise ValueError("HiGHS rejects the model")
    solver.run()
    model_status = solver.getModelStatus()
    status = _STATUS.get(model_status, 4)
    x = np.array(solver.getSolution().col_value) if status == 0 else None
    return status, x, solver.modelStatusToString(model_status)


class HighsBackend:
    """Exact MILP solves through ``run_highs``, always with ``HIGHS_OPTIONS``.

    ``solve`` below adds the substitution re-check on top; perfbench times
    ``HighsBackend.solve`` as a layer of its own, so it stays a method.
    """

    def solve(self, model: Model) -> SolveResult:
        if not model.num_vars:
            return SolveResult(status=OPTIMAL, objective=model.objective_offset)
        names, c, lb, ub, integrality, A, row_lb, row_ub, sign = _arrays(model)
        memo = _MEMO.get()
        key = hit = None
        if memo is not None:
            key = _solve_key(HIGHS_OPTIONS, A, c, lb, ub, integrality, row_lb, row_ub)
            hit = memo.get(key)
        if hit is not None:
            status, x, message = hit
        else:
            try:
                status, x, message = run_highs(c, lb, ub, integrality, A, row_lb, row_ub)
            except Exception as exc:  # malformed model or HiGHS failure
                return SolveResult(status=ERROR, detail=f"highs: {exc}")
            if memo is not None and status in (0, 2):
                memo[key] = (status, x, message)
        if status == 0:
            values, obj = _finish(model, names, x, lb, ub, integrality, sign, c)
            return SolveResult(status=OPTIMAL, objective=obj, values=values)
        if status == 2:
            return SolveResult(status=INFEASIBLE, detail=message)
        # Status 1, "a limit was reached", cannot be asked for: no limit is
        # set. Like any other status it is a solver failure.
        return SolveResult(status=ERROR, detail=f"highs status {status}: {message}",
                           hit_time_limit=status == 1)


def solve(model: Model) -> SolveResult:
    """Solve and, for an optimal point, re-verify it by substitution."""
    start = time.perf_counter()
    result = HighsBackend().solve(model)
    result.wall_time = time.perf_counter() - start
    if result.status == OPTIMAL:
        violations = check_solution(model, result.values)
        if violations:
            return SolveResult(
                status=ERROR,
                wall_time=result.wall_time,
                detail="solver returned an infeasible point: " + "; ".join(violations[:5]),
            )
    return result
