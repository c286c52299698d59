"""Discrete-time dynamics of the system net, and the data of operand nets.

The engineering system net is a timed Petri net whose places are the
(operand, buffer) pairs of the incidence matrices and whose transitions
are the capabilities.  Firing is fluid: activity levels are nonnegative
reals, not integers.  One step of length dt applies

    q_b[k+1] = q_b[k] + (M+ u_plus[k] - M- u_minus[k]) dt
    q_e[k+1] = q_e[k] + (u_minus[k] - u_plus[k]) dt

where u_minus starts executions (tokens move into flight) and u_plus
completes them.  Place markings may go negative (deficits are how the
static economic reduction encodes demand); tokens in flight may not.
:func:`simulate` rolls the system net with :func:`kernels.esn_trajectory`.

An :class:`OperandNet` is data only: its incidence and durations.  The
full program (:func:`heconet.hfnmcf.build_full`) steps it by the same
equation with the system net's dt, from the initial marking its
``BoundaryConditions`` give.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from heconet import kernels
from heconet.checks import checked_array, counts, distinct, positive, set_fields
from heconet.incidence import IncidenceMatrices

# Tokens in flight must stay nonnegative up to roundoff.
QE_FLOOR = -1e-9


@dataclass(frozen=True, eq=False)
class Marking:
    """Joint marking [q_b; q_e] of places and transitions."""

    q_b: np.ndarray
    q_e: np.ndarray

    def __post_init__(self):
        q_b = checked_array(self.q_b, "q_b", (None,))
        q_e = checked_array(self.q_e, "q_e", (None,))
        _check_in_flight(q_e)
        set_fields(self, q_b=q_b, q_e=q_e)


def _check_in_flight(q_e: np.ndarray):
    if (q_e < QE_FLOOR).any():
        raise ValueError(f"tokens in flight must be nonnegative, got min {q_e.min():g}")


@dataclass(frozen=True, eq=False)
class EngineeringSystemNet:
    """Incidence structure plus per-capability durations and step length."""

    incidence: IncidenceMatrices
    durations: np.ndarray = None
    dt: float = 1.0

    def __post_init__(self):
        n = len(self.incidence.capabilities)
        durations = counts(np.zeros(n) if self.durations is None else self.durations,
                           "durations", (n,))
        set_fields(self, durations=durations, dt=positive(self.dt, "dt"))

    @property
    def n_places(self) -> int:
        return self.incidence.n_places

    @property
    def n_transitions(self) -> int:
        return len(self.incidence.capabilities)

    @property
    def place_labels(self) -> tuple:
        return self.incidence.place_labels

    @property
    def transition_labels(self) -> tuple:
        return self.incidence.capabilities


@dataclass(frozen=True, eq=False)
class OperandNet:
    """Per-operand net: the incidence and durations of an operand's own
    states.  The program gives its initial marking and steps it by the
    system net's dt (see the module docstring)."""

    operand: str
    places: tuple[str, ...]
    transitions: tuple[str, ...]
    m_plus: np.ndarray
    m_minus: np.ndarray
    durations: np.ndarray = None

    def __post_init__(self):
        net = f"operand net {self.operand!r}"
        places = distinct(self.places, f"places of {net}")
        transitions = distinct(self.transitions, f"transitions of {net}")
        shape = (len(places), len(transitions))
        m_plus = checked_array(self.m_plus, "m_plus", shape, nonneg=True)
        m_minus = checked_array(self.m_minus, "m_minus", shape, nonneg=True)
        durations = counts(np.zeros(shape[1]) if self.durations is None else self.durations,
                           "durations", shape[1:])
        set_fields(self, places=places, transitions=transitions, m_plus=m_plus,
                   m_minus=m_minus, durations=durations)

    @property
    def n_places(self) -> int:
        return len(self.places)

    @property
    def n_transitions(self) -> int:
        return len(self.transitions)


@dataclass(frozen=True)
class DroppedFiring:
    """A start whose completion falls beyond the simulated horizon."""

    step: int
    transition: str
    amount: float
    completes_at: int


def derive_completions(durations, schedule: np.ndarray):
    """Completion schedule implied by the duration constraint.

    u_plus[k + d] = u_minus[k] per transition with duration d; starts
    whose completion index exceeds the horizon are left out and
    reported.  Returns (u_plus, dropped) where dropped is a list of
    (step, transition index, amount, completion index) tuples in step,
    then transition order (callers with label context translate the
    indices).
    """
    schedule = np.asarray(schedule, dtype=float)
    if schedule.ndim != 2:
        raise ValueError("schedule must be a K x n_transitions matrix")
    horizon, n = schedule.shape
    durations = counts(np.zeros(n) if durations is None else durations, "durations", (n,))
    u_plus = np.zeros_like(schedule)
    for j, d in enumerate(durations.tolist()):
        u_plus[d:, j] = schedule[:max(horizon - d, 0), j]
    # a completion is 0.0 + its start, so a -0.0 start completes as 0.0
    u_plus += 0.0
    # a start at step k is dropped when k + d >= K; only the last max(d)
    # steps can hold one, and np.nonzero walks them step, then transition
    first = max(horizon - int(durations.max(initial=0)), 0)
    steps_left = horizon - np.arange(first, horizon)
    steps, cols = np.nonzero((durations >= steps_left[:, None])
                             & (schedule[first:] != 0.0))
    steps += first
    dropped = [(k, j, amount, k + d) for k, j, amount, d in zip(
        steps.tolist(), cols.tolist(), schedule[steps, cols].tolist(),
        durations[cols].tolist())]
    return u_plus, dropped


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """Trajectory of K+1 markings, held as the arrays ``q_b`` (K+1 x places)
    and ``q_e`` (K+1 x transitions), plus the derived completion schedule.
    Indexing or iterating builds the :class:`Marking` of a step on demand.
    """

    q_b: np.ndarray
    q_e: np.ndarray
    u_plus: np.ndarray
    dropped: tuple

    def __post_init__(self):
        q_b = checked_array(self.q_b, "q_b", (None, None))
        q_e = checked_array(self.q_e, "q_e", (q_b.shape[0], None))
        _check_in_flight(q_e)
        set_fields(self, q_b=q_b, q_e=q_e)

    def __len__(self) -> int:
        return self.q_b.shape[0]

    def __iter__(self):
        return (self[k] for k in range(len(self)))

    def __getitem__(self, k: int) -> Marking:
        return Marking(self.q_b[k], self.q_e[k])


def simulate(net: EngineeringSystemNet, initial: Marking, schedule) -> SimulationResult:
    """Roll the net forward over a K x |E_S| start schedule.

    Completions are derived from the duration constraint; starts that
    would complete beyond the horizon are dropped with a warning and
    reported in the result.
    """
    # Checked in place, not copied: a copy of a long schedule would add
    # its whole size to peak memory.
    schedule = np.asarray(schedule, dtype=float)
    if schedule.ndim != 2 or schedule.shape[1] != net.n_transitions:
        raise ValueError(
            f"schedule must have shape (K, {net.n_transitions}), got {schedule.shape}")
    if not np.all(np.isfinite(schedule)):
        raise ValueError("schedule must be finite")
    if np.any(schedule < 0):
        raise ValueError("schedule must be nonnegative")
    if initial.q_b.shape != (net.n_places,) or initial.q_e.shape != (net.n_transitions,):
        raise ValueError("initial marking shapes do not match the net")

    u_plus, dropped_raw = derive_completions(net.durations, schedule)
    labels = net.transition_labels
    dropped = tuple(DroppedFiring(step=k, transition=labels[j], amount=a, completes_at=c)
                    for k, j, a, c in dropped_raw)
    if dropped:
        warnings.warn(
            f"{len(dropped)} scheduled firing(s) complete beyond the horizon "
            f"and were dropped", RuntimeWarning, stacklevel=2)

    q_b, q_e = kernels.esn_trajectory(net.incidence.m_plus, net.incidence.m_minus,
                                      initial.q_b, initial.q_e, u_plus, schedule, net.dt)
    return SimulationResult(q_b=q_b, q_e=q_e, u_plus=u_plus, dropped=dropped)
