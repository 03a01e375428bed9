"""MILP models and their one engine: exact solves through scipy's HiGHS.

Models are built once, then solved by HiGHS with a zero relative gap, so an
optimal status means exactly optimal. Every accepted solution is
independently re-checked by direct substitution before being returned. The
ground truth that no engine can bias is the brute-force oracles in
``oracle.py``, not a second MIP solver.

A model stores itself as arrays would: each variable is a column index with
its bounds and integrality in flat per-column lists, and each constraint is
turned into column indices and coefficients when it is added and appended to
flat per-row lists (CSR order, plus relation, right-hand side and label).
Assembly, unpacking a solver point and the substitution re-check are then
numpy conversions and vectorized operations over those lists, not walks over
per-row Python objects. ``Model.variables`` and ``Model.constraints`` are
read-only views built on demand for callers that want one object per column
or row; neither the solve nor the re-check builds them.

HiGHS receives the constraint matrix as a sparse CSR array; no dense row is
ever built. Planner models are very sparse (the full15x15 choice-setting
model has about 8,000 nonzeros in a 1,200 × 6,400 matrix), and HiGHS reads
sparse input directly.

Inside a ``reuse_solves()`` context the solves are memoized. The key is a
blake2b digest of exactly what HiGHS receives: the objective vector,
variable bounds, integrality flags, the CSR matrix (shape, indptr, indices,
data), the row bounds and the options (presolve and gap).
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
from scipy import optimize, sparse

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
ERROR = "error"

FEASIBILITY_TOL = 1e-6
INTEGRALITY_TOL = 1e-6

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
# of the HiGHS input -> (scipy status, raw x, message).
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


class HighsBackend:
    """Exact MILP solves through scipy's HiGHS binding.

    ``solve`` below adds the substitution re-check on top; perfbench times
    ``HighsBackend.solve`` as a layer of its own, so it stays a method.
    """

    def solve(self, model: Model) -> SolveResult:
        if not model.num_vars:
            return SolveResult(status=OPTIMAL, objective=model.objective_offset)
        names, c, lb, ub, integrality, A, row_lb, row_ub, sign = _arrays(model)
        # mip_rel_gap is always passed: left out, HiGHS stops at its own
        # default relative gap and still reports the incumbent as optimal.
        options = {"presolve": True, "mip_rel_gap": 0.0}
        memo = _MEMO.get()
        key = hit = None
        if memo is not None:
            key = _solve_key(options, A, c, lb, ub, integrality, row_lb, row_ub)
            hit = memo.get(key)
        if hit is not None:
            status, x, message = hit
        else:
            kwargs = {}
            if A.shape[0]:
                kwargs["constraints"] = optimize.LinearConstraint(A, row_lb, row_ub)
            try:
                res = optimize.milp(
                    c,
                    integrality=integrality,
                    bounds=optimize.Bounds(lb, ub),
                    options=options,
                    **kwargs,
                )
            except Exception as exc:  # malformed model or HiGHS failure
                return SolveResult(status=ERROR, detail=f"highs: {exc}")
            status, x, message = res.status, res.x, res.message
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
