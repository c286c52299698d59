"""Incidence matrices of a hetero-functional system.

Each capability is a column; each (operand, buffer) pair is a row, with
operand-major flattening: ``row = operand_index * n_buffers +
buffer_index``.  The negative matrix records what a capability pulls
per unit execution, the positive matrix what it pushes.  Entries carry
the real-valued per-unit coefficients of the underlying process; the
classical boolean incidence tensors are the support of the weighted
matrices, available through :meth:`IncidenceMatrices.support`.

The other views of the system are read off these two matrices here and
nowhere else: the net matrix ``m = m_plus - m_minus`` and the name
``"operand@buffer"`` of each place.
"""

import functools
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from heconet.checks import checked_array, distinct, read_only, set_fields
from heconet.core import SystemModel, buffer_set, require_valid


@dataclass(frozen=True, eq=False)
class IncidenceMatrices:
    """Dense positive/negative incidence matrices with index maps.

    ``m`` is not a constructor argument: it is derived once, as the
    read-only array ``m_plus - m_minus``.
    """

    m_plus: np.ndarray
    m_minus: np.ndarray
    m: np.ndarray = field(init=False)
    operands: tuple[str, ...]
    buffers: tuple[str, ...]
    capabilities: tuple[str, ...]

    def __post_init__(self):
        shape = (len(self.operands) * len(self.buffers), len(self.capabilities))
        m_plus = checked_array(self.m_plus, "m_plus", shape, nonneg=True)
        m_minus = checked_array(self.m_minus, "m_minus", shape, nonneg=True)
        ids = {name: distinct(getattr(self, name), name)
               for name in ("operands", "buffers", "capabilities")}
        set_fields(self, m_plus=m_plus, m_minus=m_minus, m=read_only(m_plus - m_minus), **ids)
        distinct(self.place_names, "place names")

    @property
    def n_places(self) -> int:
        return len(self.operands) * len(self.buffers)

    @property
    def row_index(self) -> dict:
        """Bijection (operand id, buffer id) -> row."""
        n_b = len(self.buffers)
        return {(o, b): i * n_b + j
                for i, o in enumerate(self.operands)
                for j, b in enumerate(self.buffers)}

    @property
    def col_index(self) -> dict:
        """Bijection capability id -> column."""
        return {c: j for j, c in enumerate(self.capabilities)}

    @property
    def place_labels(self) -> tuple:
        """Row labels as (operand id, buffer id) pairs, row order."""
        return tuple((o, b) for o in self.operands for b in self.buffers)

    @functools.cached_property
    def place_names(self) -> tuple:
        """Row labels as ``"operand@buffer"`` strings, row order."""
        return tuple(f"{o}@{b}" for o, b in self.place_labels)

    def row(self, operand_id: str, buffer_id: str) -> int:
        return (self.operands.index(operand_id) * len(self.buffers)
                + self.buffers.index(buffer_id))

    def split(self, n_products: int) -> tuple:
        """``(products, factors)``: the first ``n_products`` rows and the
        rest, each as (``m_plus`` rows, ``m_minus`` rows, operand ids).
        Only in a single-buffer model are rows operands one to one."""
        if len(self.buffers) != 1:
            raise ValueError(f"a product/factor split requires a single buffer, got {len(self.buffers)}")
        if not 0 < n_products <= self.n_places:
            raise ValueError(f"n_products must be in 1..{self.n_places}")
        return tuple((self.m_plus[part], self.m_minus[part], self.operands[part])
                     for part in (slice(None, n_products), slice(n_products, None)))

    def support(self) -> tuple:
        """Boolean incidence matrices: (m_plus != 0, m_minus != 0)."""
        return self.m_plus != 0, self.m_minus != 0

    def equals(self, other: "IncidenceMatrices") -> bool:
        return (self.operands == other.operands
                and self.buffers == other.buffers
                and self.capabilities == other.capabilities
                and np.array_equal(self.m_plus, other.m_plus)
                and np.array_equal(self.m_minus, other.m_minus))


def build_incidence(model: SystemModel) -> IncidenceMatrices:
    """Assemble incidence matrices from a validated model.

    For a capability executing process p, each input flow (operand i,
    coefficient a) adds a to ``m_minus[(i, pull buffer), capability]``
    and each output flow adds its coefficient to the matching
    ``m_plus`` entry.  Repeated flows of one operand accumulate, in
    flow order.
    """
    require_valid(model)
    buffers = buffer_set(model)
    operands = [o.id for o in model.operands]
    operand_row = {o: i * len(buffers) for i, o in enumerate(operands)}
    buffer_row = {b: j for j, b in enumerate(buffers)}
    shape = (len(operands) * len(buffers), len(model.capabilities))
    procs = [model.process(cap.process) for cap in model.capabilities]
    m_minus, m_plus = (_scatter(shape, operand_row, buffer_row, [
        (proc.sides[side], routing) for proc, routing in zip(procs, routings)])
        for side, routings in enumerate(zip(*((c.pull, c.push) for c in model.capabilities))))
    return IncidenceMatrices(m_plus=m_plus, m_minus=m_minus, operands=tuple(operands),
                             buffers=tuple(buffers),
                             capabilities=tuple(c.id for c in model.capabilities))


def _scatter(shape, operand_row, buffer_row, columns) -> np.ndarray:
    """Column j holds the coefficients of ``columns[j] = ((operand ids,
    coefficients), routing)``, each added at its operand's row for the
    buffer ``routing`` gives it, in flow order as a loop would add."""
    ops = list(chain.from_iterable(ids for (ids, _), _ in columns))
    rows = np.fromiter(map(operand_row.__getitem__, ops), np.intp, len(ops))
    rows += np.fromiter(map(buffer_row.__getitem__, chain.from_iterable(
        map(routing.__getitem__, ids) for (ids, _), routing in columns)), np.intp, len(ops))
    rows = rows * shape[1] + np.repeat(np.arange(shape[1]), [len(ids) for (ids, _), _ in columns])
    coeffs = np.concatenate([coeffs for (_, coeffs), _ in columns])
    return np.bincount(rows, coeffs, shape[0] * shape[1]).reshape(shape)
