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
import itertools
from dataclasses import dataclass, field

import numpy as np

from heconet import kernels
from heconet import lp as lp_mod
from heconet.checks import checked_array, checked_labels, counts, distinct, set_fields
from heconet.config import DEFAULT_TOLERANCES, Tolerances
# build_incidence is unused here; perfbench's recorder test looks it up
# under this module's name.
from heconet.incidence import IncidenceMatrices, build_incidence  # noqa: F401
from heconet.lp import LinearProgram, LpResult, LpStatus
from heconet.petri import EngineeringSystemNet
from heconet.rcot import RcotSolution, solve_choice


# --------------------------------------------------------------------------
# Static reduction


@dataclass(frozen=True, eq=False)
class StaticEioReduction:
    """min cost.U  s.t.  m U >= c, U >= 0, with phi = f_star U."""

    m: np.ndarray
    c: np.ndarray
    cost: np.ndarray
    f_star: np.ndarray = None          # missing: (0, t), no factor rows
    capability_labels: tuple[str, ...] = ()
    row_labels: tuple[str, ...] = ()
    factor_labels: tuple[str, ...] = ()

    def __post_init__(self):
        m = checked_array(self.m, "m", (None, None))
        c = checked_array(self.c, "c", (m.shape[0],))
        cost = checked_array(self.cost, "cost", (m.shape[1],))
        f_star = checked_array(np.zeros((0, m.shape[1])) if self.f_star is None
                               else self.f_star, "f_star", (None, m.shape[1]))
        set_fields(self, m=m, c=c, cost=cost, f_star=f_star,
                   capability_labels=checked_labels(self.capability_labels,
                                                    "capability_labels", m.shape[1], "u"),
                   row_labels=checked_labels(self.row_labels, "row_labels", m.shape[0], "c"),
                   factor_labels=checked_labels(self.factor_labels, "factor_labels",
                                                f_star.shape[0], "f"))


def build_static(inc: IncidenceMatrices, y, f, pi) -> StaticEioReduction:
    """Static reduction of a model's incidence matrices: M, C = [y; -f],
    cost = pi'F*, where F* is the factor rows of M- after the len(y)
    product rows (:meth:`IncidenceMatrices.split`: one buffer only).

    The model's operands must be declared products first, then factors,
    matching the order of y and f.
    """
    y = checked_array(y, "y", (None,))
    # a y longer than the places leaves f no rows; the reduction rejects c
    f = checked_array(f, "f", (max(inc.n_places - len(y), 0),))
    pi = checked_array(pi, "pi", f.shape)
    _, (_, f_star, factors) = inc.split(len(y))
    return StaticEioReduction(
        m=inc.m, c=np.concatenate([y, -f]), cost=pi @ f_star, f_star=f_star,
        capability_labels=inc.capabilities, row_labels=inc.place_names,
        factor_labels=factors)


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
    """Solve the reduction by :func:`heconet.rcot.solve_choice` with all
    of m as net-output rows; results are keyed by capability labels."""
    return solve_choice(static_lp(red, relaxation), red.m, red.f_star, red.factor_labels, tol)


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

    def __post_init__(self):
        set_fields(self, horizon=counts(self.horizon, "horizon", minimum=1),
                   n_places=counts(self.n_places, "n_places"),
                   n_transitions=counts(self.n_transitions, "n_transitions"),
                   operand_shapes=tuple(tuple(counts(s, f"operand_shapes[{i}]", (2,)).tolist())
                                        for i, s in enumerate(self.operand_shapes)))

    @property
    def sum_places(self) -> int:
        return sum(s for s, _ in self.operand_shapes)

    @property
    def sum_transitions(self) -> int:
        return sum(e for _, e in self.operand_shapes)

    @functools.cached_property
    def families(self) -> dict:
        """name -> (label prefix, axis, steps) of each family, in the
        order of X.  The axis names what one step's entries run over."""
        k1, k = self.horizon + 1, self.horizon
        return {"q_b": ("qB", "places", k1),
                "q_e": ("qE", "transitions", k1),
                "q_sl": ("qSL", "operand places", k1),
                "q_el": ("qEL", "operand transitions", k1),
                "u_plus": ("uPlus", "transitions", k),
                "u_minus": ("uMinus", "transitions", k),
                "ul_plus": ("ulPlus", "operand transitions", k),
                "ul_minus": ("ulMinus", "operand transitions", k)}

    @functools.cached_property
    def widths(self) -> dict:
        """Entries per step of each family."""
        axes = {"places": self.n_places, "transitions": self.n_transitions,
                "operand places": self.sum_places,
                "operand transitions": self.sum_transitions}
        return {name: axes[axis] for name, (_, axis, _) in self.families.items()}

    @functools.cached_property
    def offsets(self) -> dict:
        """Start of each family in X, and the total ``size``; computed
        once per layout, so callers must not modify it."""
        off, pos = {}, 0
        for name, (_, _, steps) in self.families.items():
            off[name] = pos
            pos += self.widths[name] * steps
        off["size"] = pos
        return off

    @property
    def size(self) -> int:
        return self.offsets["size"]

    def index(self, name: str, k, j):
        """Position in X of entry j of family ``name`` at step k; k and j
        may be arrays, which broadcast."""
        return self.offsets[name] + k * self.widths[name] + j

    def family(self, x: np.ndarray, name: str) -> np.ndarray:
        """Family ``name`` of x as a (steps, width) view."""
        steps, width = self.families[name][2], self.widths[name]
        start = self.offsets[name]
        return x[start:start + steps * width].reshape(steps, width)

    def q_b(self, k: int) -> slice:
        return self.slice("q_b", k)

    def q_e(self, k: int) -> slice:
        return self.slice("q_e", k)

    def q_sl(self, k: int) -> slice:
        return self.slice("q_sl", k)

    def q_el(self, k: int) -> slice:
        return self.slice("q_el", k)

    def u_plus(self, k: int) -> slice:
        return self.slice("u_plus", k)

    def u_minus(self, k: int) -> slice:
        return self.slice("u_minus", k)

    def ul_plus(self, k: int) -> slice:
        return self.slice("ul_plus", k)

    def ul_minus(self, k: int) -> slice:
        return self.slice("ul_minus", k)

    def slice(self, name: str, k: int) -> slice:
        """Entries of family ``name`` at step k."""
        steps = self.families[name][2]
        if not 0 <= k < steps:
            kind = "marking" if steps > self.horizon else "firing"
            raise IndexError(f"{kind} step must be in 0..{steps - 1}, got {k}")
        start = self.index(name, k, 0)
        return slice(start, start + self.widths[name])

    def operand_offset(self, i: int) -> tuple:
        """(place, transition) offsets of operand net i inside the
        concatenated q_sl / q_el / ul blocks."""
        s = sum(sh[0] for sh in self.operand_shapes[:i])
        e = sum(sh[1] for sh in self.operand_shapes[:i])
        return s, e

    def names(self, net: EngineeringSystemNet, operand_nets=()) -> tuple:
        """Label ``{prefix}[{k}]:{entry}`` per stacked variable, with the
        entry named by :func:`entry_names`."""
        entries = entry_names(net, operand_nets)
        return tuple(f"{prefix}[{k}]:{entry}"
                     for prefix, axis, steps in self.families.values()
                     for k in range(steps) for entry in entries[axis])


def entry_names(net: EngineeringSystemNet, operand_nets=()) -> dict:
    """Axis -> the name of each entry of one step on that axis: places
    ``operand@buffer``, transitions by capability, and operand entries
    ``operand:place`` and ``operand:transition``, the nets concatenated
    in order.  Every variable and row label ends in one of these, so the
    operand entries must be distinct."""
    return {"places": net.incidence.place_names,
            "transitions": net.transition_labels,
            **{f"operand {axis}": distinct((f"{o.operand}:{name}" for o in operand_nets
                                            for name in getattr(o, axis)), f"operand {axis}")
               for axis in ("places", "transitions")}}


def variable_layout(net: EngineeringSystemNet, operand_nets=(), horizon: int = 1) -> VariableLayout:
    return VariableLayout(
        horizon=horizon,
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

    These are the only initial markings of the program: ``q_b``/``q_e``
    for the system net and ``q_sl``/``q_el`` for the operand nets, whose
    entries run over the nets concatenated in order.  Arrays use NaN for
    free entries; a None field leaves the whole family free.
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
        set_fields(self, horizon=counts(self.horizon, "horizon", minimum=1),
                   operand_nets=tuple(self.operand_nets))
        layout = self.layout
        n_ul, nt, size = layout.sum_transitions, layout.n_transitions, layout.size
        set_fields(self, linear_cost=checked_array(self.linear_cost, "linear_cost", (size,)))

        distinct((o.operand for o in self.operand_nets), "operands of the operand nets")
        entry_names(self.net, self.operand_nets)          # composed names are distinct
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
        for name, (_, _, steps) in layout.families.items():
            width = layout.widths[name]
            if steps > self.horizon:          # a marking: pinned at k = 0 and k = K
                for end in ("initial", "final"):
                    key = f"{name}_{end}"
                    boundary[key] = _optional(getattr(self.boundary, key), key, (width,),
                                              nan_ok=True)
            else:
                pins[name] = _optional(getattr(self.pins, name), f"pin {name}",
                                       (self.horizon, width), nan_ok=True)
        set_fields(self, boundary=BoundaryConditions(**boundary), pins=FiringPins(**pins))

    @property
    def layout(self) -> VariableLayout:
        return variable_layout(self.net, self.operand_nets, self.horizon)


def _optional(value, name, shape, **flags):
    return None if value is None else checked_array(value, name, shape, **flags)


def _nonzeros(matrix: np.ndarray) -> tuple:
    """(row, column, value) of the nonzero entries of ``matrix``."""
    r, c = np.nonzero(matrix)
    return r, c, matrix[r, c]


def _stencil(layout: VariableLayout, n_rows: int, terms) -> tuple:
    """Triplets of a block of ``n_rows`` equality rows repeated on every
    step k = 0..K-1.

    A term (family, shift, row, col, value) holds arrays of one length:
    each puts ``value`` in row ``k * n_rows + row`` at entry ``col`` of
    ``family`` at step ``k + shift``.
    """
    k = np.arange(layout.horizon)[:, None]
    parts = [((k * n_rows + row).ravel(),
              layout.index(family, k + shift, col).ravel(),
              np.broadcast_to(value, (layout.horizon, len(value))).ravel())
             for family, shift, row, col, value in terms]
    return tuple(np.concatenate(axis) for axis in zip(*parts))


def _net_rows(layout: VariableLayout, families, offset, m_plus, m_minus, durations,
              dt: float, places, transitions, tags) -> list:
    """Blocks of one net: its state rows over every step, then per
    transition its duration and causality rows.  A block is (row, column,
    value) triplets with rows counted from 0, its rhs and its labels.

    ``families`` names the net's (place marking, flight marking,
    completion, start) families, ``offset`` its (place, transition)
    position inside them and ``tags`` the label heads of its state and
    its duration rows.
    """
    q_place, q_flight, done, start = families
    s_off, e_off = offset
    state, timing = tags
    horizon = layout.horizon
    n_p, n_t = len(places), len(transitions)
    p, t = np.arange(n_p), np.arange(n_t)
    r_plus, c_plus, v_plus = _nonzeros(dt * m_plus)
    r_minus, c_minus, v_minus = _nonzeros(-dt * m_minus)
    flight, ones_t = n_p + t, np.ones(n_t)
    rows = _stencil(layout, n_p + n_t, [
        (q_place, 1, p, s_off + p, -np.ones(n_p)),
        (q_place, 0, p, s_off + p, np.ones(n_p)),
        (done, 0, r_plus, e_off + c_plus, v_plus),
        (start, 0, r_minus, e_off + c_minus, v_minus),
        (q_flight, 1, flight, e_off + t, -ones_t),
        (q_flight, 0, flight, e_off + t, ones_t),
        (start, 0, flight, e_off + t, dt * ones_t),
        (done, 0, flight, e_off + t, -dt * ones_t)])
    labels = [f"{state}{kind}[{k}]:{name}" for k in range(horizon)
              for kind, names in (("place", places), ("flight", transitions))
              for name in names]
    blocks = [(*rows, np.zeros(len(labels)), labels)]

    # Each transition owns K rows: a start at k completes at k + d for
    # the K - d starts that complete within the horizon, then the
    # min(d, K) completions before any possible start are pinned to zero.
    tr = np.repeat(t, horizon)
    j = np.tile(np.arange(horizon), n_t)
    lead = np.maximum(horizon - durations, 0)[tr]
    coupled = j < lead
    k = np.where(coupled, j, j - lead)
    row = np.arange(n_t * horizon)
    blocks.append((
        np.concatenate([row, row[coupled]]),
        np.concatenate([layout.index(done, np.where(coupled, k + durations[tr], k), e_off + tr),
                        layout.index(start, k[coupled], e_off + tr[coupled])]),
        np.concatenate([np.where(coupled, -1.0, 1.0), np.ones(np.count_nonzero(coupled))]),
        np.zeros(len(row)),
        [f"{timing}duration{'' if c else '-causality'}[{s}]:{transitions[i]}"
         for i, s, c in zip(tr.tolist(), k.tolist(), coupled.tolist())]))
    return blocks


def _pins(cols: np.ndarray, values: np.ndarray, label) -> tuple:
    """Rows x_c = v, one per non-NaN entry of ``values`` in C order;
    ``cols`` has the shape of ``values`` and ``label`` names a row from
    its entry's index."""
    keep = ~np.isnan(values)
    n = int(np.count_nonzero(keep))
    labels = [label(*idx) for idx in zip(*(a.tolist() for a in np.nonzero(keep)))]
    return np.arange(n), cols[keep], np.ones(n), values[keep], labels


def build_full(problem: HfnmcfProblem, extra_rows=None) -> LinearProgram:
    """Assemble the discrete-time program as one equality system.

    Its rows are the system net's state rows, then its duration and
    causality rows, the same for each operand net, synchronization,
    pinned firings and boundary values; ``extra_rows``, a tuple
    (matrix, senses, rhs, labels) of additional *linear* rows over the
    stacked variables, comes last.  The blocks' triplets are handed to
    the program as its sparse columns, with no dense array.
    """
    net = problem.net
    layout = problem.layout
    horizon = problem.horizon
    entries = entry_names(net, problem.operand_nets)

    blocks = _net_rows(layout, ("q_b", "q_e", "u_plus", "u_minus"), (0, 0),
                       net.incidence.m_plus, net.incidence.m_minus, net.durations,
                       net.dt, entries["places"], entries["transitions"], ("esn-", ""))
    for i, onet in enumerate(problem.operand_nets):
        s_off, e_off = layout.operand_offset(i)
        blocks += _net_rows(layout, ("q_sl", "q_el", "ul_plus", "ul_minus"),
                            (s_off, e_off), onet.m_plus, onet.m_minus, onet.durations, net.dt,
                            entries["operand places"][s_off:s_off + onet.n_places],
                            entries["operand transitions"][e_off:e_off + onet.n_transitions],
                            ("operand-", "operand-"))

    # Synchronization: operand-net firings follow system-net firings.
    if problem.sync_plus is not None:
        r = np.arange(layout.sum_transitions)
        ones = np.ones(len(r))
        p_r, p_c, p_v = _nonzeros(-problem.sync_plus)
        m_r, m_c, m_v = _nonzeros(-problem.sync_minus)
        rows = _stencil(layout, 2 * len(r), [
            ("ul_plus", 0, 2 * r, r, ones), ("u_plus", 0, 2 * p_r, p_c, p_v),
            ("ul_minus", 0, 2 * r + 1, r, ones), ("u_minus", 0, 2 * m_r + 1, m_c, m_v)])
        labels = [f"sync-{sign}[{k}]:{name}" for k in range(horizon)
                  for name in entries["operand transitions"] for sign in ("plus", "minus")]
        blocks.append((*rows, np.zeros(len(labels)), labels))

    # Pinned firings, then boundary values of the initial and final markings.
    for name, (_, axis, steps) in layout.families.items():
        values = getattr(problem.pins, name, None)       # firing families only
        if values is not None:
            cols = layout.index(name, np.arange(steps)[:, None], np.arange(layout.widths[name]))
            blocks.append(_pins(cols, values,
                                lambda k, j: f"pin-{name}[{k}]:{entries[axis][j]}"))
    for name, (_, axis, _) in layout.families.items():
        for end, k in (("initial", 0), ("final", horizon)):
            values = getattr(problem.boundary, f"{name}_{end}", None)   # markings only
            if values is not None:
                cols = layout.index(name, k, np.arange(layout.widths[name]))
                blocks.append(_pins(cols, values,
                                    lambda j: f"boundary-{end}:{name}:{entries[axis][j]}"))

    xr_rows, xr_senses, xr_rhs, xr_labels = (
        (np.zeros((0, layout.size)), (), (), ()) if extra_rows is None else extra_rows)
    xr_rows = np.asarray(xr_rows, dtype=float)
    if xr_rows.ndim != 2 or xr_rows.shape[1] != layout.size:
        raise ValueError(f"extra rows must have {layout.size} columns")

    row_ids, col_ids, values, rhs, labels = zip(*blocks)
    starts = np.cumsum([0, *map(len, labels)]).tolist()
    n = starts[-1]
    m = n + len(xr_rows)
    xr_r, xr_c, xr_v = _nonzeros(xr_rows)
    rows = np.concatenate([*(r + s for r, s in zip(row_ids, starts)), n + xr_r])
    cols = np.concatenate([*col_ids, xr_c])
    # No row names one variable twice: the key orders the triplets by column, then row.
    order = np.argsort(cols * m + rows)
    matrix = kernels.SparseColumns((m, layout.size), cols[order], rows[order],
                                   np.concatenate([*values, xr_v])[order])
    lower, upper = default_bounds(layout)
    return LinearProgram(
        cost=problem.linear_cost, rows=matrix,
        senses=(lp_mod.EQUAL,) * n + tuple(xr_senses),
        rhs=np.concatenate([*rhs, np.asarray(xr_rhs, dtype=float)]),
        lower=lower if problem.lower is None else problem.lower,
        upper=upper if problem.upper is None else problem.upper,
        var_labels=layout.names(net, problem.operand_nets),
        row_labels=tuple(itertools.chain(*labels, xr_labels)))


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


def solve_full(problem: HfnmcfProblem, extra_rows=None,
               tol: Tolerances = DEFAULT_TOLERANCES) -> FullSolution:
    """Build and solve; on infeasibility, ``infeasible_rows`` names an
    irreducible infeasible subset of the program's rows.  That field is
    the one report of the rows: nothing is warned.

    The subset names rows of the program: its equality rows (state
    transitions, duration coupling, synchronization, pins and boundary
    values) and any ``extra_rows``, which may be inequalities.  Variable
    bounds are not rows and hold throughout.  The infeasible result
    itself carries a certified Farkas ray in ``lp_result.duals``.

    A program shaped as :func:`embed_static` builds it is diagnosed
    through its static economy: the irreducible rows W of
    dt M[:, c] U >= -q_b_initial, U >= 0 (c: the transitions that
    complete within the horizon) and the Farkas multipliers s the filter
    returns with them lift to a ray that is s on W's place rows at every
    step, -s on their initial values, p = dt s'M+ on the duration rows
    and -p on the causality rows.  The q_b columns telescope to 0 and q_b[K] gets -s, U+ nets to
    0, U- gets dt (s'M)_j <= 0 (-dt (s'M-)_j if j cannot complete), and
    the ray separates by s'C > 0.  Its support is returned once it
    passes :func:`heconet.lp.certify`.  It is irreducible: without a
    row of place i in W, the static rows W - {i} hold (starts at k = 0
    complete in time) and i takes any marking past the cut; without a
    duration or causality row of j, a completion of j comes free and
    supplies every place j makes.  The set need not be the filter's,
    which may name a transition's flight rows where the lift names its
    duration rows.  Any other program, or a lift that fails its
    certificate, is diagnosed by
    :func:`heconet.lp.irreducible_infeasible_rows` on the full program.
    """
    program = build_full(problem, extra_rows)
    result = lp_mod.solve_lp(program, tol)
    layout = problem.layout
    x = result.x if result.status is LpStatus.OPTIMAL else np.full(layout.size, np.nan)
    sol = FullSolution(status=result.status, objective=result.objective, x=x,
                       layout=layout, lp_result=result,
                       **{name: layout.family(x, name) for name in layout.families})
    if result.status is LpStatus.INFEASIBLE:
        witness = None if extra_rows is not None else _lifted_witness(problem, program, tol)
        if witness is None:
            witness = lp_mod.irreducible_infeasible_rows(program, tol)
        sol.infeasible_rows = tuple(witness)
    return sol


def _lifted_witness(problem: HfnmcfProblem, program: LinearProgram, tol: Tolerances):
    """Labels of the static witness lifted to ``program`` (see
    :func:`solve_full`), or None when its certificate fails or the
    program is not shaped as :func:`embed_static` builds it: no operand
    net or pinned firing, a given initial and a free final place
    marking, nothing in flight at either end, :func:`_embedded_bounds`.
    """
    net, horizon, b = problem.net, problem.horizon, problem.boundary
    inc, n_p, n_t = net.incidence, net.n_places, net.n_transitions
    c = np.flatnonzero(net.durations < horizon)
    if (problem.operand_nets
            or any(v is None for v in (b.q_b_initial, b.q_e_initial, b.q_e_final,
                                       problem.lower, problem.upper))
            or np.isnan(b.q_b_initial).any() or b.q_e_initial.any() or b.q_e_final.any()
            or not all(v is None or np.isnan(v).all()
                       for v in (b.q_b_final, *vars(problem.pins).values()))
            or not all(map(np.array_equal, (problem.lower, problem.upper),
                           _embedded_bounds(problem.layout)))):
        return None
    static = StaticEioReduction(m=net.dt * inc.m[:, c], c=-b.q_b_initial, cost=np.zeros(c.size),
                                row_labels=inc.place_names)
    witness = lp_mod.irreducible_infeasible_rows(static_lp(static), tol)
    if not witness:
        return None
    s = np.array([witness.get(name, 0.0) for name in inc.place_names])
    p = net.dt * (s @ inc.m_plus)
    # build_full's rows here: per step the place then the flight rows,
    # per transition its K duration rows (coupled first, then causality),
    # then the initial place marking and the initial and final flights.
    ray = np.zeros(program.n_rows)
    steps = horizon * (n_p + n_t)
    ray[:steps].reshape(horizon, n_p + n_t)[:, :n_p] = s
    coupled = np.arange(horizon) < np.maximum(horizon - net.durations, 0)[:, None]
    ray[steps:steps + n_t * horizon] = np.where(coupled, p[:, None], -p[:, None]).ravel()
    ray[steps + n_t * horizon:][:n_p] = -s
    certificate = lp_mod.certify(program, LpResult(
        LpStatus.INFEASIBLE, None, np.nan, ray, None, 0), tol)
    if not certificate.passed:
        return None
    return [program.row_labels[i] for i in np.flatnonzero(ray)]


def _embedded_bounds(layout: VariableLayout) -> tuple:
    """:func:`default_bounds` with the final place marking >= 0."""
    lower, upper = default_bounds(layout)
    lower[layout.q_b(layout.horizon)] = 0.0
    return lower, upper


def embed_static(inc: IncidenceMatrices, y, f, pi, horizon: int = 1,
                 durations=None, dt: float = 1.0) -> HfnmcfProblem:
    """The static reduction carried over ``horizon`` steps of length dt.

    The initial place marking is the deficit -C = [-y; f], nothing is in
    flight at the start or the end, the final place marking is free but
    bounded below by zero (the surplus), and the start firings U- are
    charged the factor cost pi'F* of the dt U- tokens they move, with F*
    and the checks on y, f and pi those of :func:`build_static`.  Solving
    this problem reproduces the static optimum, with the surplus M U - C
    appearing in the final marking, whenever the horizon exceeds the
    longest duration; a start that cannot complete within the horizon
    must stay at zero.
    """
    red = build_static(inc, y, f, pi)
    net = EngineeringSystemNet(incidence=inc, durations=durations, dt=dt)
    layout = variable_layout(net, (), horizon)
    cost = np.zeros(layout.size)
    layout.family(cost, "u_minus")[:] = net.dt * red.cost
    lower, upper = _embedded_bounds(layout)
    idle = np.zeros(net.n_transitions)
    boundary = BoundaryConditions(q_b_initial=-red.c, q_e_initial=idle, q_e_final=idle)
    return HfnmcfProblem(net=net, horizon=horizon, linear_cost=cost,
                         boundary=boundary, lower=lower, upper=upper)
