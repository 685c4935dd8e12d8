"""Canonical forms under unitary transformations and quiver representations.

Modules:

* ``numcore``  – dense kernels: lexicographic order, clustering, form
  equality, the similarity step, Haar-random unitaries.
* ``mbm``      – marked block matrices, the derived-matrix reduction (which
  computes both base canonical forms, unitary equivalence and unitary
  similarity, with a certified transcript), Krull-Schmidt decomposition,
  the JSON matrix codec.
* ``scheme``   – zones, schemes, scheme validation/filling, parameter counts.
* ``quiverrep``– quivers, unitary representations, isometry, decomposition.
* ``dims``     – dimension-vector combinatorics (M_Q, D(Q), Tits form).
* ``euclid``   – Euclidean representations, realification, real types,
  Takagi-type factorizations.
* ``wildness`` – unitary-wildness gadgets and tame canonical forms.
* ``cli``      – command-line front end.
"""

from .numcore import Tolerance

__all__ = ["Tolerance"]
__version__ = "0.1.0"
