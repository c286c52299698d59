"""Hetero-functional network models of input-output economies.

The package connects three views of the same production system:

* a structural ontology of operands, processes, resources, and
  capabilities (:mod:`heconet.core`, :mod:`heconet.incidence`),
* classical input-output analytics: Leontief quantity models and
  rectangular choice-of-technology linear programs
  (:mod:`heconet.leontief`, :mod:`heconet.rcot`),
* dynamic network models: timed Petri nets and their minimum-cost
  flow optimization (:mod:`heconet.petri`, :mod:`heconet.hfnmcf`).

All optimization is backed by a self-contained two-phase,
bounded-variable simplex solver with solution certification
(:mod:`heconet.lp`).
"""

from heconet.config import Tolerances, DEFAULT_TOLERANCES

__version__ = "0.1.0"

__all__ = ["Tolerances", "DEFAULT_TOLERANCES", "__version__"]
