"""Solver-agnostic MILP layer with two interchangeable backends.

Models are built once, then solved by either the HiGHS backend (exact, via
scipy) or a naive branch-and-bound fallback over the LP relaxation that needs
no MIP solver at all (capped at 30 binaries; meant for tiny cross-check
models). Every accepted solution is independently re-checked by direct
substitution before being returned.

Both backends receive the constraint matrix as a sparse CSR array assembled
from the constraints' own coefficients; no dense row is ever built. Planner
models are very sparse (the full15x15 choice-setting model has about 8,000
nonzeros in a 1,200 × 6,400 matrix), and HiGHS reads sparse input directly.

Inside a ``reuse_solves()`` context the HiGHS backend memoizes its solves.
The key is a blake2b digest of exactly what HiGHS receives: the objective
vector, variable bounds, integrality flags, the CSR matrix (shape, indptr,
indices, data), the row bounds and the options (presolve, gap, time limit).
Variable names and the objective offset never reach HiGHS, so they are left
out: a hit returns the stored raw point, and values and objective are rebuilt
against the model being solved, under its own names and offset. Only
OPTIMAL and INFEASIBLE outcomes are stored; a time-limit result depends on
the clock, not on the input. ``run_campaign`` opens one context per day, in
which the coplan lane re-solves many of the fair-coplan lane's models.

Backend selection: pass one explicitly, or set FAIRCOPLAN_SOLVER to one of
"highs" / "branch-bound".
"""
from __future__ import annotations

import hashlib
import math
import os
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize, sparse

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
TIME_LIMIT_FEASIBLE = "time-limit-feasible"
ERROR = "error"

FEASIBILITY_TOL = 1e-6
INTEGRALITY_TOL = 1e-6

_RELATIONS = ("<=", "=", ">=")


@dataclass(frozen=True)
class SolveLimits:
    time_limit: float | None = None
    mip_gap: float = 0.0

    def __post_init__(self) -> None:
        if self.time_limit is not None and self.time_limit <= 0:
            raise ValueError("time_limit must be positive")
        if not 0.0 <= self.mip_gap < 1.0:
            raise ValueError("mip_gap must be in [0, 1)")


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
    gap: float | None = None
    detail: str = ""
    hit_time_limit: bool = False


class Model:
    """Immutable-after-construction linear model with binary/continuous vars."""

    def __init__(self, name: str = "model", sense: str = "min"):
        if sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
        self.name = name
        self.sense = sense
        self._vars: dict[str, _Var] = {}
        self._constraints: list[_Constraint] = []
        self._objective: dict[str, float] = {}
        self.objective_offset = 0.0

    def binary(self, name: str) -> str:
        if name in self._vars:
            raise ValueError(f"variable {name!r} declared twice")
        self._vars[name] = _Var(name, True, 0.0, 1.0)
        return name

    def continuous(self, name: str, lb: float = 0.0, ub: float = math.inf) -> str:
        if name in self._vars:
            raise ValueError(f"variable {name!r} declared twice")
        if lb > ub:
            raise ValueError(f"variable {name!r} has lb > ub")
        self._vars[name] = _Var(name, False, lb, ub)
        return name

    def add(self, coeffs: dict[str, float], relation: str, rhs: float, label: str = "") -> None:
        if relation not in _RELATIONS:
            raise ValueError(f"unknown relation {relation!r}")
        if not coeffs:
            raise ValueError(f"constraint {label!r} has no variables")
        for name in coeffs:
            if name not in self._vars:
                raise ValueError(f"constraint {label!r} references unknown variable {name!r}")
        self._constraints.append(
            _Constraint(label, tuple(coeffs.items()), relation, float(rhs))
        )

    def set_objective(self, coeffs: dict[str, float], offset: float = 0.0) -> None:
        for name in coeffs:
            if name not in self._vars:
                raise ValueError(f"objective references unknown variable {name!r}")
        self._objective = dict(coeffs)
        self.objective_offset = float(offset)

    @property
    def variables(self) -> tuple[_Var, ...]:
        return tuple(self._vars.values())

    @property
    def constraints(self) -> tuple[_Constraint, ...]:
        return tuple(self._constraints)

    @property
    def num_binaries(self) -> int:
        return sum(1 for v in self._vars.values() if v.binary)

    def var(self, name: str) -> _Var:
        return self._vars[name]

    def objective_coeffs(self) -> dict[str, float]:
        return dict(self._objective)


def check_solution(model: Model, values: dict[str, float], tol: float = FEASIBILITY_TOL) -> list[str]:
    """All bound, integrality, and constraint violations by substitution."""
    violations = []
    for var in model.variables:
        if var.name not in values:
            violations.append(f"missing value for {var.name}")
            continue
        x = values[var.name]
        if x < var.lb - tol or x > var.ub + tol:
            violations.append(f"{var.name}={x} outside [{var.lb}, {var.ub}]")
        if var.binary and abs(x - round(x)) > INTEGRALITY_TOL:
            violations.append(f"{var.name}={x} not integral")
    for idx, con in enumerate(model.constraints):
        lhs = sum(c * values.get(name, 0.0) for name, c in con.coeffs)
        label = con.label or f"c{idx}"
        if con.relation == "<=" and lhs > con.rhs + tol:
            violations.append(f"{label}: {lhs} <= {con.rhs} violated")
        elif con.relation == ">=" and lhs < con.rhs - tol:
            violations.append(f"{label}: {lhs} >= {con.rhs} violated")
        elif con.relation == "=" and abs(lhs - con.rhs) > tol:
            violations.append(f"{label}: {lhs} = {con.rhs} violated")
    return violations


def _arrays(model: Model):
    """Stable (insertion-order) matrix form of the model, minimization sense.

    The constraint matrix is a CSR array assembled from each row's
    coefficients, with duplicates summed and zero coefficients dropped, so
    it equals the CSR form of the dense matrix entry for entry.
    """
    names = [v.name for v in model.variables]
    index = {n: i for i, n in enumerate(names)}
    n = len(names)
    sign = 1.0 if model.sense == "min" else -1.0
    c = np.zeros(n)
    for name, coeff in model.objective_coeffs().items():
        c[index[name]] = sign * coeff
    lb = np.array([v.lb for v in model.variables], dtype=float)
    ub = np.array([v.ub for v in model.variables], dtype=float)
    integrality = np.array([1 if v.binary else 0 for v in model.variables])
    indptr, indices, data = [0], [], []
    row_lb, row_ub = [], []
    for con in model.constraints:
        for name, coeff in con.coeffs:
            indices.append(index[name])
            data.append(coeff)
        indptr.append(len(data))
        if con.relation == "<=":
            row_lb.append(-np.inf)
            row_ub.append(con.rhs)
        elif con.relation == ">=":
            row_lb.append(con.rhs)
            row_ub.append(np.inf)
        else:
            row_lb.append(con.rhs)
            row_ub.append(con.rhs)
    A = sparse.csr_array(
        (np.array(data, dtype=float), np.array(indices, dtype=np.int32),
         np.array(indptr, dtype=np.int32)),
        shape=(len(row_lb), n),
    )
    A.sum_duplicates()
    A.eliminate_zeros()
    return names, c, lb, ub, integrality, A, np.array(row_lb), np.array(row_ub), sign


def _finish(model: Model, names, raw_x, sign, c) -> tuple[dict[str, float], float]:
    values = {}
    for var, x in zip(model.variables, raw_x):
        x = float(min(max(x, var.lb), var.ub))
        if var.binary and abs(x - round(x)) <= 1e-4:
            x = float(round(x))
        values[var.name] = x
    obj = sign * float(np.dot(c, [values[n] for n in names])) + model.objective_offset
    return values, obj


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
    """Exact MILP solves through scipy's HiGHS binding."""

    name = "highs"

    def solve(self, model: Model, limits: SolveLimits | None = None) -> SolveResult:
        limits = limits or SolveLimits()
        if not model.variables:
            return SolveResult(status=OPTIMAL, objective=model.objective_offset, gap=0.0)
        names, c, lb, ub, integrality, A, row_lb, row_ub, sign = _arrays(model)
        # mip_rel_gap is always passed: left out, HiGHS stops at its own
        # default relative gap and still reports the incumbent as optimal.
        options: dict[str, object] = {
            "presolve": True,
            "mip_rel_gap": float(limits.mip_gap),
        }
        if limits.time_limit is not None:
            options["time_limit"] = float(limits.time_limit)
        memo = _MEMO.get()
        key = hit = None
        if memo is not None:
            key = _solve_key(options, A, c, lb, ub, integrality, row_lb, row_ub)
            hit = memo.get(key)
        if hit is not None:
            status, x, message = hit
            gap = None  # only status 1 reads it, and status 1 is never stored
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
            except Exception as exc:  # malformed model or backend failure
                return SolveResult(status=ERROR, detail=f"highs: {exc}")
            status, x, message = res.status, res.x, res.message
            gap = getattr(res, "mip_gap", None)
            if memo is not None and status in (0, 2):
                memo[key] = (status, x, message)
        if status == 0:
            values, obj = _finish(model, names, x, sign, c)
            return SolveResult(status=OPTIMAL, objective=obj, values=values, gap=0.0)
        if status == 2:
            return SolveResult(status=INFEASIBLE, detail=message)
        if status == 1:
            if x is not None:
                values, obj = _finish(model, names, x, sign, c)
                return SolveResult(
                    status=TIME_LIMIT_FEASIBLE,
                    objective=obj,
                    values=values,
                    gap=float(gap) if gap is not None else None,
                    hit_time_limit=True,
                )
            return SolveResult(
                status=ERROR, detail="time limit reached without incumbent", hit_time_limit=True
            )
        return SolveResult(status=ERROR, detail=f"highs status {status}: {message}")


class BranchAndBoundBackend:
    """Depth-first branch and bound over the LP relaxation.

    Deliberately naive: exists so oracle cross-checks do not depend on the
    same MIP engine that produced the answer. Refuses models with more than
    max_binaries binaries or with general integer variables.
    """

    name = "branch-bound"
    max_binaries = 30

    def solve(self, model: Model, limits: SolveLimits | None = None) -> SolveResult:
        limits = limits or SolveLimits()
        if not model.variables:
            return SolveResult(status=OPTIMAL, objective=model.objective_offset, gap=0.0)
        if model.num_binaries > self.max_binaries:
            return SolveResult(
                status=ERROR,
                detail=f"branch-bound supports <= {self.max_binaries} binaries, "
                f"model has {model.num_binaries}",
            )
        names, c, lb, ub, integrality, A, row_lb, row_ub, sign = _arrays(model)
        # linprog takes "A_ub x <= b_ub" and "A_eq x = b_eq": equality rows
        # go to A_eq, and each one-sided row to A_ub, negated if it is ">=".
        eq = np.flatnonzero(row_lb == row_ub)
        ineq = np.flatnonzero(row_lb != row_ub)
        flip = np.where(np.isfinite(row_ub[ineq]), 1.0, -1.0)
        a_ub = sparse.diags_array(flip) @ A[ineq] if len(ineq) else None
        b_ub = flip * np.where(flip > 0, row_ub[ineq], row_lb[ineq]) if len(ineq) else None
        a_eq = A[eq] if len(eq) else None
        b_eq = row_lb[eq] if len(eq) else None
        binary_idx = [i for i, flag in enumerate(integrality) if flag]

        deadline = None
        if limits.time_limit is not None:
            deadline = time.monotonic() + limits.time_limit
        best_x = None
        best_obj = math.inf
        timed_out = False
        stack: list[dict[int, float]] = [{}]
        while stack:
            if deadline is not None and time.monotonic() > deadline:
                timed_out = True
                break
            fixed = stack.pop()
            node_bounds = [
                (fixed.get(i, lb[i]), fixed.get(i, ub[i])) for i in range(len(names))
            ]
            res = optimize.linprog(
                c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                bounds=node_bounds, method="highs",
            )
            if res.status == 2:  # infeasible node
                continue
            if res.status != 0:
                return SolveResult(status=ERROR, detail=f"relaxation status {res.status}")
            if res.fun >= best_obj - 1e-9:
                continue
            frac_i, frac_amount = -1, -1.0
            for i in binary_idx:
                amount = abs(res.x[i] - round(res.x[i]))
                if amount > 1e-7 and amount > frac_amount + 1e-12:
                    frac_i, frac_amount = i, amount
            if frac_i < 0:
                best_obj = float(res.fun)
                best_x = res.x.copy()
                continue
            near = float(round(res.x[frac_i]))
            far_child = dict(fixed)
            far_child[frac_i] = 1.0 - near
            near_child = dict(fixed)
            near_child[frac_i] = near
            stack.append(far_child)
            stack.append(near_child)  # explored first (LIFO)

        if best_x is None:
            if timed_out:
                return SolveResult(
                    status=ERROR, detail="time limit reached without incumbent",
                    hit_time_limit=True,
                )
            return SolveResult(status=INFEASIBLE, detail="search exhausted, no incumbent")
        values, obj = _finish(model, names, best_x, sign, c)
        if timed_out:
            return SolveResult(
                status=TIME_LIMIT_FEASIBLE, objective=obj, values=values,
                gap=None, hit_time_limit=True,
            )
        return SolveResult(status=OPTIMAL, objective=obj, values=values, gap=0.0)


_BACKENDS = {
    HighsBackend.name: HighsBackend,
    BranchAndBoundBackend.name: BranchAndBoundBackend,
}

ENV_BACKEND = "FAIRCOPLAN_SOLVER"


def resolve_backend(backend: object = None):
    if backend is None:
        backend = os.environ.get(ENV_BACKEND, HighsBackend.name)
    if isinstance(backend, str):
        try:
            return _BACKENDS[backend]()
        except KeyError:
            raise ValueError(
                f"unknown solver backend {backend!r}; expected one of {sorted(_BACKENDS)}"
            ) from None
    if hasattr(backend, "solve"):
        return backend
    raise ValueError(f"not a solver backend: {backend!r}")


def solve(model: Model, limits: SolveLimits | None = None, backend: object = None) -> SolveResult:
    """Solve and, for accepted statuses, re-verify the point by substitution."""
    engine = resolve_backend(backend)
    start = time.perf_counter()
    result = engine.solve(model, limits)
    result.wall_time = time.perf_counter() - start
    if result.status in (OPTIMAL, TIME_LIMIT_FEASIBLE):
        violations = check_solution(model, result.values)
        if violations:
            return SolveResult(
                status=ERROR,
                wall_time=result.wall_time,
                detail="backend returned an infeasible point: " + "; ".join(violations[:5]),
            )
    return result


def _lp_safe_names(model: Model) -> dict[str, str]:
    safe: dict[str, str] = {}
    used: set[str] = set()
    for var in model.variables:
        name = "".join(ch if ch.isalnum() or ch in "_." else "_" for ch in var.name)
        if not name or not (name[0].isalpha() or name[0] == "_"):
            name = "v_" + name
        base, k = name, 1
        while name in used:
            k += 1
            name = f"{base}_{k}"
        used.add(name)
        safe[var.name] = name
    return safe


def write_lp(model: Model, path: str) -> None:
    """Dump the model in LP interchange format for external debugging."""
    safe = _lp_safe_names(model)

    def term_str(coeffs) -> str:
        parts = []
        for name, coeff in coeffs:
            sign = "-" if coeff < 0 else "+"
            parts.append(f"{sign} {abs(coeff):.12g} {safe[name]}")
        joined = " ".join(parts) if parts else "0"
        return joined[2:] if joined.startswith("+ ") else joined

    lines = [f"\\ model {model.name}"]
    if model.objective_offset:
        lines.append(f"\\ objective constant offset: {model.objective_offset!r}")
    lines.append("Maximize" if model.sense == "max" else "Minimize")
    lines.append(" obj: " + term_str(model.objective_coeffs().items()))
    lines.append("Subject To")
    for i, con in enumerate(model.constraints):
        label = con.label or f"c{i}"
        label = "".join(ch if ch.isalnum() or ch in "_." else "_" for ch in label)
        lines.append(f" {label}_{i}: {term_str(con.coeffs)} {con.relation} {con.rhs:.12g}")
    lines.append("Bounds")
    for var in model.variables:
        if not var.binary:
            lo = f"{var.lb:.12g}" if math.isfinite(var.lb) else "-inf"
            hi = f"{var.ub:.12g}" if math.isfinite(var.ub) else "+inf"
            lines.append(f" {lo} <= {safe[var.name]} <= {hi}")
    binaries = [safe[v.name] for v in model.variables if v.binary]
    if binaries:
        lines.append("Binaries")
        for i in range(0, len(binaries), 8):
            lines.append(" " + " ".join(binaries[i : i + 8]))
    lines.append("End")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
