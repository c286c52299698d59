"""Minimum-cost flow optimization over hetero-functional networks.

Two entry points:

* the static reduction of the economic example: min pi'F*U subject to
  M U >= C with C = [y; -f] (:func:`build_static` / :func:`solve_static`),
* the full discrete-time program over a horizon K
  (:func:`build_full` / :func:`solve_full`), whose equality blocks are
  the state-transition functions of the system net and the operand
  nets, duration constraints, synchronization between the two layers,
  pinned firings, and boundary conditions, with per-variable bounds.

The stacked decision vector X is ordered marking families first, then
firing families, each family time-major (all entries of step k before
step k+1):

    X = [Q_B (K+1 steps), Q_E (K+1), Q_SL (K+1), Q_EL (K+1),
         U+ (K), U- (K), UL+ (K), UL- (K)]
"""

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np

from heconet import lp as lp_mod
from heconet.checks import checked_array, set_fields
from heconet.config import DEFAULT_TOLERANCES, Tolerances
from heconet.core import SystemModel
from heconet.incidence import build_incidence
from heconet.lp import LinearProgram, LpResult, LpStatus
from heconet.petri import EngineeringSystemNet, OperandNet
from heconet.rcot import RcotSolution


class InfeasibilityWarning(RuntimeWarning):
    """An infeasible program's irreducible conflicting rows."""


# --------------------------------------------------------------------------
# Static reduction


@dataclass(frozen=True, eq=False)
class StaticEioReduction:
    """min cost.U  s.t.  m U >= c, U >= 0, with phi = f_star U."""

    m: np.ndarray
    c: np.ndarray
    cost: np.ndarray
    f_star: np.ndarray = None
    capability_labels: tuple[str, ...] = ()
    row_labels: tuple[str, ...] = ()
    factor_labels: tuple[str, ...] = ()

    def __post_init__(self):
        m = checked_array(self.m, "m", (None, None))
        c = checked_array(self.c, "c", (m.shape[0],))
        cost = checked_array(self.cost, "cost", (m.shape[1],))
        f_star = _optional(self.f_star, "f_star", (None, m.shape[1]))
        caps = tuple(self.capability_labels) or tuple(f"u{j + 1}" for j in range(m.shape[1]))
        rows = tuple(self.row_labels) or tuple(f"c{i + 1}" for i in range(m.shape[0]))
        if len(caps) != m.shape[1] or len(rows) != m.shape[0]:
            raise ValueError("label lengths must match matrix dimensions")
        set_fields(self, m=m, c=c, cost=cost, f_star=f_star, capability_labels=caps,
                   row_labels=rows, factor_labels=tuple(self.factor_labels))


def build_static(model: SystemModel, y, f, pi, f_star) -> StaticEioReduction:
    """Static reduction of a validated model: M from the incidence
    matrices, C = [y; -f], cost = pi'f_star.

    The model's operands must be declared products first, then factors,
    matching the order of y and f.
    """
    inc = build_incidence(model)
    y = np.asarray(y, dtype=float)
    f = np.asarray(f, dtype=float)
    pi = np.asarray(pi, dtype=float)
    f_star = np.asarray(f_star, dtype=float)
    n_places = inc.n_places
    if y.ndim != 1 or f.ndim != 1:
        raise ValueError("y and f must be vectors")
    if y.shape[0] + f.shape[0] != n_places:
        raise ValueError(
            f"y and f cover {y.shape[0] + f.shape[0]} operand places, "
            f"model has {n_places}")
    if f_star.ndim != 2 or f_star.shape != (f.shape[0], len(inc.capabilities)):
        raise ValueError(
            f"f_star must have shape {(f.shape[0], len(inc.capabilities))}")
    if pi.shape != (f.shape[0],):
        raise ValueError(f"pi must have length {f.shape[0]}")
    c = np.concatenate([y, -f])
    labels = tuple(f"{o}@{b}" for o, b in inc.place_labels)
    return StaticEioReduction(
        m=inc.m, c=c, cost=pi @ f_star, f_star=f_star,
        capability_labels=inc.capabilities,
        row_labels=labels,
        factor_labels=inc.operands[y.shape[0]:])


def static_lp(red: StaticEioReduction, relaxation: str = ">=") -> LinearProgram:
    """LP of the reduction; ``relaxation`` selects >= rows (default,
    surplus allowed) or strict = rows."""
    if relaxation not in (">=", "="):
        raise ValueError("relaxation must be '>=' or '='")
    sense = lp_mod.GREATER_EQUAL if relaxation == ">=" else lp_mod.EQUAL
    return LinearProgram(
        cost=red.cost, rows=red.m, senses=(sense,) * red.m.shape[0],
        rhs=red.c, var_labels=red.capability_labels, row_labels=red.row_labels)


def solve_static(red: StaticEioReduction, relaxation: str = ">=",
                 tol: Tolerances = DEFAULT_TOLERANCES) -> RcotSolution:
    """Solve the reduction; results are keyed by capability labels."""
    program = static_lp(red, relaxation)
    result = lp_mod.solve_lp(program, tol)
    t = red.m.shape[1]
    k = red.f_star.shape[0] if red.f_star is not None else 0
    if result.status is not LpStatus.OPTIMAL:
        return RcotSolution(np.full(t, np.nan), np.nan, np.full(k, np.nan),
                            result.status, np.full(red.m.shape[0], np.nan),
                            red.capability_labels, red.row_labels,
                            red.factor_labels, result.iterations)
    x = result.x
    phi = red.f_star @ x if red.f_star is not None else np.zeros(0)
    return RcotSolution(x, float(red.cost @ x), phi, result.status,
                        result.slacks, red.capability_labels, red.row_labels,
                        red.factor_labels, result.iterations)


# --------------------------------------------------------------------------
# Full discrete-time program


@dataclass(frozen=True)
class VariableLayout:
    """Offsets of every variable family in the stacked vector X.

    Markings exist for steps 0..K (K+1 points); firings for steps
    0..K-1.  Within a family the step index is the slow (major) axis.
    """

    horizon: int
    n_places: int
    n_transitions: int
    operand_shapes: tuple          # (n_places_i, n_transitions_i) per net

    @property
    def sum_places(self) -> int:
        return sum(s for s, _ in self.operand_shapes)

    @property
    def sum_transitions(self) -> int:
        return sum(e for _, e in self.operand_shapes)

    @functools.cached_property
    def offsets(self) -> dict:
        """Start of each family in X, and the total ``size``; computed
        once per layout, so callers must not modify it."""
        k1 = self.horizon + 1
        off = {}
        pos = 0
        for name, width, steps in (
                ("q_b", self.n_places, k1),
                ("q_e", self.n_transitions, k1),
                ("q_sl", self.sum_places, k1),
                ("q_el", self.sum_transitions, k1),
                ("u_plus", self.n_transitions, self.horizon),
                ("u_minus", self.n_transitions, self.horizon),
                ("ul_plus", self.sum_transitions, self.horizon),
                ("ul_minus", self.sum_transitions, self.horizon)):
            off[name] = pos
            pos += width * steps
        off["size"] = pos
        return off

    @property
    def size(self) -> int:
        return self.offsets["size"]

    def _marking_slice(self, name: str, width: int, k: int) -> slice:
        if not 0 <= k <= self.horizon:
            raise IndexError(f"marking step must be in 0..{self.horizon}, got {k}")
        start = self.offsets[name] + k * width
        return slice(start, start + width)

    def _firing_slice(self, name: str, width: int, k: int) -> slice:
        if not 0 <= k < self.horizon:
            raise IndexError(f"firing step must be in 0..{self.horizon - 1}, got {k}")
        start = self.offsets[name] + k * width
        return slice(start, start + width)

    def q_b(self, k: int) -> slice:
        return self._marking_slice("q_b", self.n_places, k)

    def q_e(self, k: int) -> slice:
        return self._marking_slice("q_e", self.n_transitions, k)

    def q_sl(self, k: int) -> slice:
        return self._marking_slice("q_sl", self.sum_places, k)

    def q_el(self, k: int) -> slice:
        return self._marking_slice("q_el", self.sum_transitions, k)

    def u_plus(self, k: int) -> slice:
        return self._firing_slice("u_plus", self.n_transitions, k)

    def u_minus(self, k: int) -> slice:
        return self._firing_slice("u_minus", self.n_transitions, k)

    def ul_plus(self, k: int) -> slice:
        return self._firing_slice("ul_plus", self.sum_transitions, k)

    def ul_minus(self, k: int) -> slice:
        return self._firing_slice("ul_minus", self.sum_transitions, k)

    def operand_offset(self, i: int) -> tuple:
        """(place, transition) offsets of operand net i inside the
        concatenated q_sl / q_el / ul blocks."""
        s = sum(sh[0] for sh in self.operand_shapes[:i])
        e = sum(sh[1] for sh in self.operand_shapes[:i])
        return s, e

    def names(self, net: EngineeringSystemNet, operand_nets=()) -> tuple:
        """Human-readable label per stacked variable, for debugging."""
        places = [f"{o}@{b}" for o, b in net.place_labels]
        trans = list(net.transition_labels)
        out = [""] * self.size
        for k in range(self.horizon + 1):
            for p, label in enumerate(places):
                out[self.offsets["q_b"] + k * self.n_places + p] = f"qB[{k}]:{label}"
            for t, label in enumerate(trans):
                out[self.offsets["q_e"] + k * self.n_transitions + t] = f"qE[{k}]:{label}"
            for i, onet in enumerate(operand_nets):
                s_off, e_off = self.operand_offset(i)
                for p, label in enumerate(onet.places):
                    out[self.offsets["q_sl"] + k * self.sum_places + s_off + p] = \
                        f"qSL[{k}]:{onet.operand}:{label}"
                for t, label in enumerate(onet.transitions):
                    out[self.offsets["q_el"] + k * self.sum_transitions + e_off + t] = \
                        f"qEL[{k}]:{onet.operand}:{label}"
        for k in range(self.horizon):
            for t, label in enumerate(trans):
                out[self.offsets["u_plus"] + k * self.n_transitions + t] = f"uPlus[{k}]:{label}"
                out[self.offsets["u_minus"] + k * self.n_transitions + t] = f"uMinus[{k}]:{label}"
            for i, onet in enumerate(operand_nets):
                s_off, e_off = self.operand_offset(i)
                for t, label in enumerate(onet.transitions):
                    out[self.offsets["ul_plus"] + k * self.sum_transitions + e_off + t] = \
                        f"ulPlus[{k}]:{onet.operand}:{label}"
                    out[self.offsets["ul_minus"] + k * self.sum_transitions + e_off + t] = \
                        f"ulMinus[{k}]:{onet.operand}:{label}"
        return tuple(out)


def variable_layout(net: EngineeringSystemNet, operand_nets=(), horizon: int = 1) -> VariableLayout:
    return VariableLayout(
        horizon=int(horizon),
        n_places=net.n_places,
        n_transitions=net.n_transitions,
        operand_shapes=tuple((o.n_places, o.n_transitions) for o in operand_nets))


def default_bounds(layout: VariableLayout) -> tuple:
    """Default variable bounds: firings >= 0, markings free."""
    lower = np.full(layout.size, -np.inf)
    upper = np.full(layout.size, np.inf)
    lower[layout.offsets["u_plus"]:] = 0.0
    return lower, upper


@dataclass(frozen=True, eq=False)
class BoundaryConditions:
    """Per-entry pins on initial (k=0) and final (k=K) markings.

    Arrays use NaN for free entries; a None field leaves the whole
    family free.
    """

    q_b_initial: np.ndarray = None
    q_e_initial: np.ndarray = None
    q_sl_initial: np.ndarray = None
    q_el_initial: np.ndarray = None
    q_b_final: np.ndarray = None
    q_e_final: np.ndarray = None
    q_sl_final: np.ndarray = None
    q_el_final: np.ndarray = None


@dataclass(frozen=True, eq=False)
class FiringPins:
    """Per-entry equality pins on firing variables, shape (K, width);
    NaN entries are free."""

    u_plus: np.ndarray = None
    u_minus: np.ndarray = None
    ul_plus: np.ndarray = None
    ul_minus: np.ndarray = None


@dataclass(frozen=True, eq=False)
class HfnmcfProblem:
    """Data of one full discrete-time minimum-cost flow program."""

    net: EngineeringSystemNet
    horizon: int
    linear_cost: np.ndarray
    operand_nets: tuple = ()
    sync_plus: np.ndarray = None
    sync_minus: np.ndarray = None
    boundary: BoundaryConditions = field(default_factory=BoundaryConditions)
    pins: FiringPins = field(default_factory=FiringPins)
    lower: np.ndarray = None
    upper: np.ndarray = None

    def __post_init__(self):
        if int(self.horizon) < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        set_fields(self, horizon=int(self.horizon), operand_nets=tuple(self.operand_nets))
        layout = self.layout
        n_ul, nt, size = layout.sum_transitions, layout.n_transitions, layout.size
        set_fields(self, linear_cost=checked_array(self.linear_cost, "linear_cost", (size,)))

        has_sync = self.sync_plus is not None or self.sync_minus is not None
        if self.operand_nets and not has_sync:
            raise ValueError("operand nets require sync_plus and sync_minus")
        if has_sync:
            if self.sync_plus is None or self.sync_minus is None:
                raise ValueError("sync_plus and sync_minus must both be given")
            set_fields(self, sync_plus=checked_array(self.sync_plus, "sync_plus", (n_ul, nt)),
                       sync_minus=checked_array(self.sync_minus, "sync_minus", (n_ul, nt)))
        set_fields(self, lower=_optional(self.lower, "lower", (size,), inf_ok=True),
                   upper=_optional(self.upper, "upper", (size,), inf_ok=True))

        boundary, pins = {}, {}
        for family, width in (("q_b", layout.n_places), ("q_e", nt),
                              ("q_sl", layout.sum_places), ("q_el", n_ul)):
            for end in ("initial", "final"):
                name = f"{family}_{end}"
                boundary[name] = _optional(getattr(self.boundary, name), name, (width,),
                                           nan_ok=True)
        for name, width in (("u_plus", nt), ("u_minus", nt), ("ul_plus", n_ul), ("ul_minus", n_ul)):
            pins[name] = _optional(getattr(self.pins, name), f"pin {name}",
                                   (self.horizon, width), nan_ok=True)
        set_fields(self, boundary=BoundaryConditions(**boundary), pins=FiringPins(**pins))

    @property
    def layout(self) -> VariableLayout:
        return variable_layout(self.net, self.operand_nets, self.horizon)


def _optional(value, name, shape, **flags):
    return None if value is None else checked_array(value, name, shape, **flags)


class _RowBuilder:
    def __init__(self, size: int):
        self.size = size
        self.rows = []
        self.rhs = []
        self.labels = []

    def add(self, label: str) -> np.ndarray:
        row = np.zeros(self.size)
        self.rows.append(row)
        self.rhs.append(0.0)
        self.labels.append(label)
        return row

    def add_pin(self, label: str, index: int, value: float):
        row = self.add(label)
        row[index] = 1.0
        self.rhs[-1] = float(value)

    def build(self, cost, lower, upper, var_labels, extra_rows=None) -> LinearProgram:
        rows = np.array(self.rows) if self.rows else np.zeros((0, self.size))
        rhs = np.array(self.rhs)
        senses = [lp_mod.EQUAL] * len(self.rows)
        labels = list(self.labels)
        if extra_rows is not None:
            xr_rows, xr_senses, xr_rhs, xr_labels = extra_rows
            xr_rows = np.asarray(xr_rows, dtype=float)
            if xr_rows.ndim != 2 or xr_rows.shape[1] != self.size:
                raise ValueError(f"extra rows must have {self.size} columns")
            rows = np.vstack([rows, xr_rows])
            rhs = np.concatenate([rhs, np.asarray(xr_rhs, dtype=float)])
            senses.extend(xr_senses)
            labels.extend(xr_labels)
        return LinearProgram(cost=cost, rows=rows, senses=tuple(senses), rhs=rhs,
                             lower=lower, upper=upper,
                             var_labels=var_labels, row_labels=tuple(labels))


def build_full(problem: HfnmcfProblem, extra_rows=None) -> LinearProgram:
    """Assemble the discrete-time program as one equality system.

    ``extra_rows`` is the extension point for additional *linear* rows:
    a tuple (matrix, senses, rhs, labels) over the stacked variables.
    """
    net = problem.net
    layout = problem.layout
    horizon = problem.horizon
    dt = net.dt
    rb = _RowBuilder(layout.size)

    place_names = [f"{o}@{b}" for o, b in net.place_labels]
    trans_names = list(net.transition_labels)

    # System-net state transition: markings driven by firings.
    for k in range(horizon):
        for p in range(net.n_places):
            row = rb.add(f"esn-place[{k}]:{place_names[p]}")
            row[layout.q_b(k + 1).start + p] = -1.0
            row[layout.q_b(k).start + p] = 1.0
            row[layout.u_plus(k)] += dt * net.incidence.m_plus[p]
            row[layout.u_minus(k)] -= dt * net.incidence.m_minus[p]
        for t in range(net.n_transitions):
            row = rb.add(f"esn-flight[{k}]:{trans_names[t]}")
            row[layout.q_e(k + 1).start + t] = -1.0
            row[layout.q_e(k).start + t] = 1.0
            row[layout.u_minus(k).start + t] += dt
            row[layout.u_plus(k).start + t] -= dt

    # Duration coupling: a start at k completes at k + d; completions
    # before any possible start are pinned to zero.
    for t in range(net.n_transitions):
        d = int(net.durations[t])
        for k in range(horizon):
            if k + d < horizon:
                row = rb.add(f"duration[{k}]:{trans_names[t]}")
                row[layout.u_minus(k).start + t] = 1.0
                row[layout.u_plus(k + d).start + t] = -1.0
        for k in range(min(d, horizon)):
            rb.add_pin(f"duration-causality[{k}]:{trans_names[t]}",
                       layout.u_plus(k).start + t, 0.0)

    # Operand nets: their own state transitions and durations.
    for i, onet in enumerate(problem.operand_nets):
        s_off, e_off = layout.operand_offset(i)
        for k in range(horizon):
            for p in range(onet.n_places):
                row = rb.add(f"operand-place[{k}]:{onet.operand}:{onet.places[p]}")
                row[layout.q_sl(k + 1).start + s_off + p] = -1.0
                row[layout.q_sl(k).start + s_off + p] = 1.0
                base_p = layout.ul_plus(k).start + e_off
                base_m = layout.ul_minus(k).start + e_off
                row[base_p:base_p + onet.n_transitions] += dt * onet.m_plus[p]
                row[base_m:base_m + onet.n_transitions] -= dt * onet.m_minus[p]
            for t in range(onet.n_transitions):
                row = rb.add(f"operand-flight[{k}]:{onet.operand}:{onet.transitions[t]}")
                row[layout.q_el(k + 1).start + e_off + t] = -1.0
                row[layout.q_el(k).start + e_off + t] = 1.0
                row[layout.ul_minus(k).start + e_off + t] += dt
                row[layout.ul_plus(k).start + e_off + t] -= dt
        for t in range(onet.n_transitions):
            d = int(onet.durations[t])
            for k in range(horizon):
                if k + d < horizon:
                    row = rb.add(f"operand-duration[{k}]:{onet.operand}:{onet.transitions[t]}")
                    row[layout.ul_minus(k).start + e_off + t] = 1.0
                    row[layout.ul_plus(k + d).start + e_off + t] = -1.0
            for k in range(min(d, horizon)):
                rb.add_pin(f"operand-duration-causality[{k}]:{onet.operand}:{onet.transitions[t]}",
                           layout.ul_plus(k).start + e_off + t, 0.0)

    # Synchronization: operand-net firings follow system-net firings.
    if problem.sync_plus is not None:
        ul_names = []
        for onet in problem.operand_nets:
            ul_names.extend(f"{onet.operand}:{t}" for t in onet.transitions)
        for k in range(horizon):
            for r in range(layout.sum_transitions):
                row = rb.add(f"sync-plus[{k}]:{ul_names[r]}")
                row[layout.ul_plus(k).start + r] = 1.0
                row[layout.u_plus(k)] -= problem.sync_plus[r]
                row2 = rb.add(f"sync-minus[{k}]:{ul_names[r]}")
                row2[layout.ul_minus(k).start + r] = 1.0
                row2[layout.u_minus(k)] -= problem.sync_minus[r]

    # Pinned firings.
    for name, slicer, width, labels in (
            ("u_plus", layout.u_plus, layout.n_transitions, trans_names),
            ("u_minus", layout.u_minus, layout.n_transitions, trans_names),
            ("ul_plus", layout.ul_plus, layout.sum_transitions, None),
            ("ul_minus", layout.ul_minus, layout.sum_transitions, None)):
        pins = getattr(problem.pins, name)
        if pins is None:
            continue
        for k in range(horizon):
            for j in range(width):
                if not np.isnan(pins[k, j]):
                    tag = labels[j] if labels else str(j)
                    rb.add_pin(f"pin-{name}[{k}]:{tag}", slicer(k).start + j, pins[k, j])

    # Boundary conditions on initial and final markings.
    for fam, slicer, names in (
            ("q_b", layout.q_b, place_names),
            ("q_e", layout.q_e, trans_names),
            ("q_sl", layout.q_sl, None),
            ("q_el", layout.q_el, None)):
        for tag, k in (("initial", 0), ("final", horizon)):
            vec = getattr(problem.boundary, f"{fam}_{tag}")
            if vec is None:
                continue
            for j, value in enumerate(vec):
                if not np.isnan(value):
                    label = names[j] if names else str(j)
                    rb.add_pin(f"boundary-{tag}:{fam}:{label}", slicer(k).start + j, value)

    lower, upper = default_bounds(layout)
    if problem.lower is not None:
        lower = problem.lower
    if problem.upper is not None:
        upper = problem.upper

    return rb.build(problem.linear_cost, lower, upper,
                    layout.names(net, problem.operand_nets), extra_rows)


@dataclass
class FullSolution:
    """Solved trajectories of a full program, reshaped per family."""

    status: LpStatus
    objective: float
    x: np.ndarray
    layout: VariableLayout
    q_b: np.ndarray
    q_e: np.ndarray
    q_sl: np.ndarray
    q_el: np.ndarray
    u_plus: np.ndarray
    u_minus: np.ndarray
    ul_plus: np.ndarray
    ul_minus: np.ndarray
    lp_result: LpResult
    infeasible_rows: tuple = ()


def _family(x, layout: VariableLayout, name: str, width: int, steps: int) -> np.ndarray:
    start = layout.offsets[name]
    return x[start:start + width * steps].reshape(steps, width)


def solve_full(problem: HfnmcfProblem, extra_rows=None,
               tol: Tolerances = DEFAULT_TOLERANCES,
               diagnose_infeasibility: bool = True) -> FullSolution:
    """Build and solve; on infeasibility, optionally report an
    irreducible infeasible subset of the program's rows.

    The subset names rows of the program: its equality rows (state
    transitions, duration coupling, synchronization, pins and boundary
    values) and any ``extra_rows``, which may be inequalities.  Variable
    bounds are not rows and hold throughout.  It is found by
    :func:`heconet.lp.irreducible_infeasible_rows`; the infeasible result
    itself carries a certified Farkas ray in ``lp_result.duals``.
    """
    program = build_full(problem, extra_rows)
    result = lp_mod.solve_lp(program, tol)
    layout = problem.layout
    k1 = problem.horizon + 1
    k = problem.horizon
    if result.status is LpStatus.OPTIMAL:
        x = result.x
    else:
        x = np.full(layout.size, np.nan)
    sol = FullSolution(
        status=result.status,
        objective=result.objective,
        x=x,
        layout=layout,
        q_b=_family(x, layout, "q_b", layout.n_places, k1),
        q_e=_family(x, layout, "q_e", layout.n_transitions, k1),
        q_sl=_family(x, layout, "q_sl", layout.sum_places, k1),
        q_el=_family(x, layout, "q_el", layout.sum_transitions, k1),
        u_plus=_family(x, layout, "u_plus", layout.n_transitions, k),
        u_minus=_family(x, layout, "u_minus", layout.n_transitions, k),
        ul_plus=_family(x, layout, "ul_plus", layout.sum_transitions, k),
        ul_minus=_family(x, layout, "ul_minus", layout.sum_transitions, k),
        lp_result=result)
    if result.status is LpStatus.INFEASIBLE and diagnose_infeasibility:
        witness = lp_mod.irreducible_infeasible_rows(program, tol)
        sol.infeasible_rows = tuple(witness)
        if witness:
            warnings.warn(
                "infeasible program; irreducible conflicting rows: "
                + ", ".join(witness), InfeasibilityWarning, stacklevel=2)
    return sol


def embed_static(model: SystemModel, y, f, pi, f_star) -> HfnmcfProblem:
    """K = 1 embedding of the static reduction.

    The initial place marking is the deficit -C = [-y; f], tokens in
    flight start at zero, the final place marking is free but bounded
    below by zero (the surplus), and the cost is charged on the start
    firings U-.  Solving this problem reproduces the static optimum,
    with the surplus M U - C appearing in the final marking.
    """
    red = build_static(model, y, f, pi, f_star)
    inc = build_incidence(model)
    net = EngineeringSystemNet(incidence=inc)
    layout = variable_layout(net, (), 1)
    cost = np.zeros(layout.size)
    cost[layout.u_minus(0)] = red.cost
    lower, upper = default_bounds(layout)
    lower[layout.q_b(1)] = 0.0
    boundary = BoundaryConditions(
        q_b_initial=-red.c,
        q_e_initial=np.zeros(net.n_transitions))
    return HfnmcfProblem(net=net, horizon=1, linear_cost=cost,
                         boundary=boundary, lower=lower, upper=upper)
