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

The binding is loaded by path, from ``optimize/_highspy/_core`` plus the
interpreter's extension suffix under scipy's package directory, and
registered under its import name, so neither ``scipy.optimize`` nor
``scipy.sparse`` is imported; numpy does the rest. A later ``import
scipy.optimize`` reuses that module, and a binding already in
``sys.modules`` is reused in turn, since the extension cannot be executed
twice. Importing ``scipy.optimize`` only to reach the binding cost about
0.6 s of a fresh ``import faircoplan`` (``python -X importtime``, 2-vCPU
Xeon VM: 0.90-1.0 s in all, ``scipy.optimize`` 0.35-0.41 s of it, against
0.31-0.34 s for ``import faircoplan`` now, the binding 0.01 s). This ties
the program to scipy's file layout as well as to its private binding: a
scipy release that moves the file makes every import fail with an
``ImportError`` naming the directory searched, and
``test_same_points_as_scipy_milp`` still guards what the binding does.

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
though HiGHS may return another of several tied optimal points. The
fixed-route models go further and mostly skip the MILP solver altogether,
as the next paragraph describes.

A model built with ``relaxation_first`` is solved from its LP relaxation
first: ``run_highs`` on the same arrays and options with every integrality
flag 0. An infeasible relaxation proves the
model infeasible. An optimal relaxation point whose integer columns all lie
within ``INTEGRALITY_TOL`` of an integer is feasible for the MILP, and no
MILP point beats the relaxation's optimum, so it is a MILP optimum; ``solve``
re-checks it by substitution, as it re-checks every point. Either verdict
says in ``SolveResult.detail`` that it came from the relaxation. Anything
else, a fractional point or any other status, runs the MILP on the same
arrays. The zero-gap standard is therefore unchanged; what can change is
which of several tied optima comes back, since the LP returns a vertex of
its optimal face where branch-and-bound returns its incumbent. Two models
ask for it. The fixed-route baseline's cumulative formulation (Bertsimas &
Stock Patterson, Operations Research 1998) has a tight relaxation. Over every
fixed-route model of a 10-day desk8x8 campaign (876 models, 640 infeasible)
the relaxation gave 875 verdicts and one fractional point went on to the
MILP; over full15x15, 1 day x 8 periods (243 models, 238 infeasible), it gave
all 243. Status and optimal objective equalled the MILP's on every one, and
HiGHS time fell from 2.11 to 1.10 s and from 3.26 to 1.83 s (2-vCPU Xeon
VM). Step 3's deconfliction model holds each flight as a flow over its
state graph, integral alone, coupled only by capacity and the fairness
spread. Over every step-3 call with conflicts of the 10-day desk campaign
(95 models) the relaxation settled 93 and two went on to the MILP; over the
full15x15 slice it settled all 5. Choice setting's relaxation is not tight
(its point is integral in about one model in nine), so it stays a MILP.

A model is its columns and rows, stored as arrays would. A variable is its
column: declaring one, with its cost, returns its index, a row is
``{column: coefficient}``, and a solved point is a list by column; a name is
only a label, for the views and violation messages. Every model minimizes
its columns' costs plus ``objective_offset``, as HiGHS takes it. Bounds,
integrality and cost go to flat per-column typed arrays (the standard
library's ``array.array``), each constraint to flat per-row typed arrays
(CSR order, plus relation and right-hand side) and its label to a list.
numpy copies a typed array as one contiguous block, so assembly, unpacking
a solver point and the substitution re-check read the model without
converting it element by element, and never walk per-row Python objects.
On the full15x15 choice-setting model (6,426 columns, 8,021 entries)
converting one per-column Python list took about 0.26 ms, against 2 µs from
a typed array (2-vCPU Xeon VM). ``Model.variables`` and ``Model.constraints`` are
read-only views built on demand; neither the solve nor the re-check builds
them. ``binary``, ``binaries`` and ``continuous`` share one column writer,
and ``add`` is ``add_rows`` with one row, so every row is checked alike.

A model fragment is a plain ``Model`` holding one part of a larger model,
such as one flight's columns, with their costs, and rows. ``Model.append``
copies a fragment's arrays and lists after the model's own, shifting its
columns by the model's column count, which it returns, and adds its
objective offset. Step 3 and the fixed-route baseline build each flight's
fragment once per stage call, and their one drop loop, ``blocks.solve_joint``,
appends the active flights' fragments on each attempt, instead of
rebuilding every flight row by row.

HiGHS receives the constraint matrix sparse, column-wise, as the arrays
``start``, ``index`` and ``value``; no dense row is ever built. Planner
models are very sparse (the full15x15 choice-setting model has about 8,000
nonzeros in a 1,200 × 6,400 matrix), and HiGHS reads sparse input directly.
A stable sort of the stored entries by column gives those arrays straight
from the row lists. ``run_highs`` hands them over, with the cost, bounds
and integrality, through the binding's array overload of ``passModel``,
which copies each numpy array in one block. Filling a ``HighsLp`` field by
field, with one ``HighsVarType`` object per column, took three times as
long: over the 174 unique models of two desk8x8 days, a fresh instance,
its options and the model took 70 ms against 23 ms, 14 ms of either being
the instance and options (minimum of 7 rounds, 2-vCPU Xeon VM). Status and
point were bit-identical on every model. Each solve runs on a fresh HiGHS
instance, so no solver state carries over from one solve to the next.

No solve has a time limit, so each runs to its proven optimum or
infeasibility, and the outcome depends on the input alone, never on the
clock. Every solve runs HiGHS: work the two negotiated lanes of a campaign
have in common is shared a level up, step by step (``sim.run_campaign``).
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from array import array
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

# The import name of scipy's HiGHS binding, under which it is registered.
_BINDING = "scipy.optimize._highspy._core"


def _highs_binding(scipy_dir: str):
    """scipy's HiGHS binding, loaded from its file under ``scipy_dir``.

    Importing ``scipy.optimize`` to reach it would also import all of
    ``scipy.optimize`` and ``scipy.sparse``. The module is registered under
    its own import name, so a later ``import scipy.optimize`` finds and
    reuses it; if ``sys.modules`` already holds it, it is returned as is,
    since the extension cannot be executed twice in one process. Raises
    ``ImportError``, naming the directory searched, if the file is not there.
    """
    loaded = sys.modules.get(_BINDING)
    if loaded is not None:
        return loaded
    folder = os.path.join(scipy_dir, "optimize", "_highspy")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_core" + suffix)
        if os.path.isfile(path):
            break
    else:
        raise ImportError(f"scipy's HiGHS binding _core not found in {folder}", name=_BINDING)
    spec = importlib.util.spec_from_file_location(_BINDING, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[_BINDING] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[_BINDING]
        raise
    return module


_SCIPY = importlib.util.find_spec("scipy")
if _SCIPY is None:
    raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
highs = _highs_binding(_SCIPY.submodule_search_locations[0])

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
_RELATION_CODES = {relation: code for code, relation in enumerate(_RELATIONS)}


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
    # The point by column; empty unless the status is OPTIMAL.
    x: list[float] = field(default_factory=list)
    detail: str = ""
    # Set only on the ERROR for HiGHS status 1 ("a limit was reached").
    hit_time_limit: bool = False


class Model:
    """Linear model with binary/continuous variables, stored column- and row-wise.

    Every model minimizes its columns' costs plus ``objective_offset``.
    ``binary``, ``binaries`` and ``continuous`` declare columns with their
    costs and return the first new column's index; a name is a label.
    ``add`` takes ``{column: coefficient}``. Columns and rows go to flat
    typed arrays (names and labels to lists), which solving copies into
    numpy one block each. ``variables`` and ``constraints`` are read-only
    views built on demand; solving never builds them. ``append`` copies
    another model, a fragment, in after the model's own columns and rows.
    """

    def __init__(self, name: str = "model", *, relaxation_first: bool = False):
        self.name = name
        # Solve the LP relaxation first and keep its verdict when it settles
        # the MILP (see ``HighsBackend.solve``): for formulations whose
        # relaxation is known to be tight.
        self.relaxation_first = relaxation_first
        self._names: list[str] = []
        self._lb = array("d")
        self._ub = array("d")
        self._integrality = array("b")
        self._cost = array("d")
        # Rows in CSR order: row i holds _indices/_coeffs[_indptr[i]:_indptr[i + 1]].
        self._indptr = array("q", [0])
        self._indices = array("q")
        self._coeffs = array("d")
        self._relations = array("b")  # index into _RELATIONS
        self._rhs = array("d")
        self._labels: list[str] = []
        # A constant the objective adds to the columns' costs.
        self.objective_offset = 0.0

    def _columns(self, names: list[str], binary: bool, lb: float, ub: float,
                 cost: float | Sequence[float]) -> int:
        """One column per name, in order, alike but for their costs: ``cost``
        is one number for all or one per name. Returns the first's index."""
        costs = array("d", [cost] * len(names) if isinstance(cost, (int, float)) else cost)
        if len(costs) != len(names):
            raise ValueError(f"{len(costs)} costs for {len(names)} columns")
        first = len(self._names)
        self._names += names
        self._lb += array("d", [lb]) * len(names)
        self._ub += array("d", [ub]) * len(names)
        self._integrality += array("b", [binary]) * len(names)
        self._cost += costs
        return first

    def binary(self, name: str, cost: float = 0.0) -> int:
        return self._columns([name], True, 0.0, 1.0, cost)

    def binaries(self, names: list[str], cost: float | Sequence[float] = 0.0) -> int:
        """Declare one binary per name, in order; returns the first one's column."""
        return self._columns(names, True, 0.0, 1.0, cost)

    def continuous(self, name: str, lb: float = 0.0, ub: float = math.inf,
                   cost: float = 0.0) -> int:
        if lb > ub:
            raise ValueError(f"variable {name!r} has lb > ub")
        return self._columns([name], False, lb, ub, cost)

    def add(self, coeffs: dict[int, float], relation: str, rhs: float, label: str = "") -> None:
        """Add one row, ``{column: coefficient}``: ``add_rows`` with one row."""
        self.add_rows([len(coeffs)], list(coeffs), list(coeffs.values()), [relation], [rhs],
                      [label])

    def add_rows(self, ends: list[int], indices: list[int], coeffs: list[float],
                 relations: list[str], rhs: list[float], labels: list[str]) -> None:
        """Add rows at once, in CSR form: row k holds the columns
        ``indices[ends[k - 1]:ends[k]]`` (from 0 for the first row) with the
        coefficients ``coeffs[...]``, and its relation, right-hand side and
        label. Every row is checked before any is written; a row must not
        hold a column twice.
        """
        if not len(ends) == len(relations) == len(rhs) == len(labels):
            raise ValueError("add_rows needs one end, relation, rhs and label per row")
        if not ends:
            return
        if ends[-1] != len(indices) or len(coeffs) != len(indices):
            raise ValueError("add_rows needs one coefficient per index, up to the last end")
        try:
            codes = list(map(_RELATION_CODES.__getitem__, relations))
        except KeyError as exc:
            raise ValueError(f"unknown relation {exc.args[0]!r}") from None
        # Rows are nonempty exactly when the ends rise strictly from above 0.
        if ends[0] <= 0 or ends != sorted(ends) or len(set(ends)) < len(ends):
            k = next(k for k, (start, end) in enumerate(zip([0, *ends], ends)) if end <= start)
            raise ValueError(f"constraint {labels[k]!r} has no variables")
        _check_columns(indices, ends, labels, len(self._names))
        base = self._indptr[-1]
        self._indptr.fromlist([base + end for end in ends])
        self._indices.fromlist(list(indices))
        self._coeffs.fromlist(list(coeffs))
        self._relations.fromlist(codes)
        self._rhs.fromlist(list(map(float, rhs)))
        self._labels += labels

    def append(self, fragment: Model) -> int:
        """Append ``fragment``'s columns and rows after this model's own, and
        add its objective offset to this model's.

        Returns the column offset: the fragment's column j is column
        offset + j here. Names, bounds, integrality, costs, stored entries
        (zero coefficients included), relations, right-hand sides and labels
        are carried over in order. Raises ``ValueError``, as ``add_rows``
        does, if a fragment row references a column outside the fragment.
        """
        offset = len(self._names)
        indices, indptr = fragment._indices, fragment._indptr
        _check_columns(indices, indptr[1:], fragment._labels, len(fragment._names))
        self._names += fragment._names
        self._lb += fragment._lb
        self._ub += fragment._ub
        self._integrality += fragment._integrality
        self._cost += fragment._cost
        self._indptr += _shifted(indptr[1:], self._indptr[-1])
        self._indices += _shifted(indices, offset)
        self._coeffs += fragment._coeffs
        self._relations += fragment._relations
        self._rhs += fragment._rhs
        self._labels += fragment._labels
        self.objective_offset += fragment.objective_offset
        return offset

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
        """Stored coefficients, as added (zero coefficients included)."""
        return self._indptr[-1]


def _shifted(columns: array, offset: int) -> array:
    """A copy of the typed array ``columns`` with ``offset`` added to each."""
    return array("q", (np.frombuffer(columns, dtype=np.int64) + offset).tobytes())


def _check_columns(indices: list[int], ends: list[int], labels: list[str], n: int) -> None:
    """Raise, naming the first row (CSR ends, as in ``Model.add_rows``) that
    references a column outside [0, n)."""
    if indices and not 0 <= min(indices) <= max(indices) < n:
        k = next(k for k, (start, end) in enumerate(zip([0, *ends], ends))
                 if not 0 <= min(indices[start:end]) <= max(indices[start:end]) < n)
        raise ValueError(f"constraint {labels[k]!r} references a column outside [0, {n})")


def check_solution(model: Model, x: list[float], tol: float = FEASIBILITY_TOL) -> list[str]:
    """All bound, integrality, and constraint violations of the point ``x``
    (one value per column) by substitution.

    The messages come in the order of a scan over the variables, then over
    the rows, and name each variable by its label. Each row's left-hand side
    is summed in the order its terms were added. Raises ``ValueError`` if
    ``x`` does not hold exactly one value per column.
    """
    point = np.asarray(x, dtype=float)
    if point.shape != (model.num_vars,):
        raise ValueError(f"point of shape {point.shape} for model {model.name!r} "
                         f"with {model.num_vars} columns")
    names = model._names
    lb = np.array(model._lb, dtype=float)
    ub = np.array(model._ub, dtype=float)
    out_of_bounds = (point < lb - tol) | (point > ub + tol)
    binary = np.array(model._integrality, dtype=bool)
    fractional = binary & (np.abs(point - np.round(point)) > INTEGRALITY_TOL)
    violations = []
    for i in np.flatnonzero(out_of_bounds | fractional).tolist():
        if out_of_bounds[i]:
            violations.append(f"{names[i]}={x[i]} outside [{model._lb[i]}, {model._ub[i]}]")
        if fractional[i]:
            violations.append(f"{names[i]}={x[i]} not integral")
    if not model._rhs:
        return violations
    # bincount adds each row's terms from 0.0, left to right in the order
    # they were added, zero coefficients included, as scipy's CSR product
    # over the stored rows does.
    products = np.array(model._coeffs, dtype=float) * point[model._indices]
    lhs = np.bincount(_row_of_entry(model), weights=products, minlength=len(model._rhs))
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


def _row_of_entry(model: Model) -> np.ndarray:
    """The row of each stored coefficient, in the order they were added."""
    return np.repeat(np.arange(len(model._rhs)), np.diff(model._indptr))


def _arrays(model: Model):
    """Stable (insertion-order) matrix form of the model.

    The constraint matrix goes to HiGHS column-wise, as ``(start, index,
    value)``: column j holds rows ``index[start[j]:start[j + 1]]`` in
    ascending order, with coefficients ``value[...]``, and no zero is
    stored. A stable sort of the stored entries by column gives that
    order, since rows are stored in order. A row never holds a column
    twice (``add`` takes its terms as a dict, and ``add_rows`` requires
    it), so no entry needs summing, and the arrays equal the CSC form of
    the dense matrix entry for entry.
    """
    n = len(model._names)
    c = np.array(model._cost, dtype=float)
    lb = np.array(model._lb, dtype=float)
    ub = np.array(model._ub, dtype=float)
    integrality = np.array(model._integrality, dtype=np.int64)
    rhs = np.array(model._rhs, dtype=float)
    relation = np.array(model._relations)
    coeffs = np.array(model._coeffs, dtype=float)
    columns = np.array(model._indices, dtype=np.int32)
    stored = np.flatnonzero(coeffs)
    stored_columns = columns[stored]
    order = stored[np.argsort(stored_columns, kind="stable")]
    start = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(stored_columns, minlength=n), out=start[1:])
    matrix = (start, _row_of_entry(model)[order].astype(np.int32), coeffs[order])
    row_lb = np.where(relation == _LE, -np.inf, rhs)
    row_ub = np.where(relation == _GE, np.inf, rhs)
    return c, lb, ub, integrality, matrix, row_lb, row_ub


def _finish(model: Model, raw_x, lb, ub, integrality, c) -> tuple[list[float], float]:
    """The point, by column, and objective of a raw solver point.

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
    obj = float(np.dot(c, x)) + model.objective_offset
    return x.tolist(), obj


# HiGHS model status -> the status ``run_highs`` returns. Any other model
# status is 4, "some other outcome".
_STATUS = {highs.HighsModelStatus.kOptimal: 0,
           highs.HighsModelStatus.kTimeLimit: 1,
           highs.HighsModelStatus.kIterationLimit: 1,
           highs.HighsModelStatus.kInfeasible: 2}
# ``passModel``'s array overload takes the matrix format, the sense and the
# integrality flags as plain integers: 0 continuous, 1 integer.
_COLWISE = int(highs.MatrixFormat.kColwise)
_MINIMIZE = int(highs.ObjSense.kMinimize)


def run_highs(c, lb, ub, integrality, matrix, row_lb, row_ub):
    """Minimize ``c @ x`` subject to ``row_lb <= A @ x <= row_ub`` and
    ``lb <= x <= ub``, with the columns flagged 1 in ``integrality`` integer.

    ``matrix`` is ``A`` column-wise, ``(start, index, value)`` as
    ``_arrays`` builds it. HiGHS runs once, on a fresh instance, with
    ``HIGHS_OPTIONS``, and receives the model as scipy's public ``milp``
    hands it over: the CSC form of ``A``, infinite bounds as they are,
    passed as the arrays themselves. Returns ``(status, x,
    message)``: status 0 (optimal, and ``x`` is HiGHS's point), 1 (a limit
    was reached), 2 (infeasible) or 4 (anything else); ``x`` is None unless
    the status is 0. Raises if HiGHS rejects an option or the model.
    """
    start, index, value = matrix
    solver = highs._Highs()
    for option, setting in HIGHS_OPTIONS.items():
        if solver.setOptionValue(option, setting) != highs.HighsStatus.kOk:
            raise ValueError(f"HiGHS rejects option {option}={setting!r}")
    passed = solver.passModel(
        len(c), len(row_lb), int(start[-1]), _COLWISE, _MINIMIZE, 0.0,
        c, lb, ub, row_lb, row_ub, start, index, value, integrality.astype(np.int32))
    if passed == highs.HighsStatus.kError:
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
        """Solve ``model`` to a proven optimum or proven infeasibility.

        A ``relaxation_first`` model has its LP relaxation (every
        integrality flag 0) solved first. An infeasible relaxation proves
        the model infeasible, and an optimal relaxation point whose integer
        columns are all within ``INTEGRALITY_TOL`` of an integer is a MILP
        optimum; either verdict is returned with ``detail`` naming the
        relaxation. Any other outcome runs the MILP on the same arrays. So
        each call runs HiGHS once, or twice for a relaxation that does not
        settle the model; nothing is reused from an earlier call.
        """
        if not model.num_vars:
            return SolveResult(status=OPTIMAL, objective=model.objective_offset)
        c, lb, ub, integrality, matrix, row_lb, row_ub = _arrays(model)
        try:
            if model.relaxation_first:
                status, x, message = run_highs(c, lb, ub, np.zeros_like(integrality), matrix,
                                               row_lb, row_ub)
                if status == 2:
                    return SolveResult(status=INFEASIBLE, detail=f"LP relaxation: {message}")
                integer = integrality == 1
                if status == 0 and np.all(
                        np.abs(x[integer] - np.round(x[integer])) <= INTEGRALITY_TOL):
                    point, obj = _finish(model, x, lb, ub, integrality, c)
                    return SolveResult(status=OPTIMAL, objective=obj, x=point,
                                       detail="LP relaxation: integral optimum")
            status, x, message = run_highs(c, lb, ub, integrality, matrix, row_lb, row_ub)
        except Exception as exc:  # malformed model or HiGHS failure
            return SolveResult(status=ERROR, detail=f"highs: {exc}")
        if status == 0:
            point, obj = _finish(model, x, lb, ub, integrality, c)
            return SolveResult(status=OPTIMAL, objective=obj, x=point)
        if status == 2:
            return SolveResult(status=INFEASIBLE, detail=message)
        # Status 1, "a limit was reached", cannot be asked for: no limit is
        # set. Like any other status it is a solver failure.
        return SolveResult(status=ERROR, detail=f"highs status {status}: {message}",
                           hit_time_limit=status == 1)


def solve(model: Model) -> SolveResult:
    """Solve and, for an optimal point, re-verify it by substitution."""
    result = HighsBackend().solve(model)
    if result.status == OPTIMAL:
        violations = check_solution(model, result.x)
        if violations:
            return SolveResult(
                status=ERROR,
                detail="solver returned an infeasible point: " + "; ".join(violations[:5]),
            )
    return result
