"""Monoids: the algebraic building block of semirings.

Section 2.2 of the paper: *"A monoid is a semigroup containing an associative
binary relation, such as addition, and an identity element."* A semiring
pairs an additive monoid (the ``reduce_op``) with a multiplicative monoid
(the ``product_op``). The paper's key extension is the **non-annihilating
multiplicative monoid (NAMM)** — a ⊗ whose identity is 0 and which has *no*
annihilator, so ``⊗(x, 0) = x`` instead of 0. That single relaxation is what
forces evaluation over the full union of nonzero columns and motivates the
two-pass kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.errors import SemiringError

__all__ = [
    "Monoid",
    "BinaryOp",
    "PLUS",
    "TIMES",
    "MIN",
    "MAX",
]

#: A vectorized binary operation over numpy arrays (broadcasting allowed).
BinaryOp = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Monoid:
    """An associative binary operation with an identity element.

    Parameters
    ----------
    name:
        Human-readable name used in reprs and the registry.
    op:
        Vectorized binary operation; must accept numpy arrays and broadcast.
    identity:
        The identity element ``e`` with ``op(x, e) == x``.
    commutative:
        Whether ``op(x, y) == op(y, x)``. The paper requires ⊗ commutativity
        for unexpanded metrics (Section 2.1); the two-pass scheduler checks
        this flag before commuting the operands.
    annihilator:
        The absorbing element ``z`` with ``op(x, z) == z`` for all x, or
        ``None`` when the monoid is *non-annihilating* (the NAMM case).
    """

    name: str
    op: BinaryOp = field(repr=False)
    identity: float
    commutative: bool = True
    annihilator: Optional[float] = None

    def __call__(self, x, y) -> np.ndarray:
        return self.op(np.asarray(x, dtype=np.float64),
                       np.asarray(y, dtype=np.float64))

    @property
    def is_annihilating(self) -> bool:
        return self.annihilator is not None

    # ------------------------------------------------------------------
    # verification helpers (used by tests and by Semiring validation)
    # ------------------------------------------------------------------
    def check_identity(self, samples: np.ndarray, *, atol: float = 1e-12) -> bool:
        """Empirically verify ``op(x, identity) == x`` on the given samples."""
        samples = np.asarray(samples, dtype=np.float64)
        ident = np.full_like(samples, self.identity)
        return bool(np.allclose(self(samples, ident), samples, atol=atol))

    def check_associative(self, a, b, c, *, atol: float = 1e-9) -> bool:
        """Empirically verify ``op(op(a,b),c) == op(a,op(b,c))``."""
        left = self(self(a, b), c)
        right = self(a, self(b, c))
        return bool(np.allclose(left, right, atol=atol))

    def check_commutative(self, a, b, *, atol: float = 1e-12) -> bool:
        return bool(np.allclose(self(a, b), self(b, a), atol=atol))

    def check_annihilator(self, samples, *, atol: float = 1e-12) -> bool:
        """Empirically verify the declared annihilator absorbs all samples."""
        if self.annihilator is None:
            raise SemiringError(f"monoid {self.name!r} declares no annihilator")
        samples = np.asarray(samples, dtype=np.float64)
        z = np.full_like(samples, self.annihilator)
        expected = np.full_like(samples, self.annihilator)
        return bool(np.allclose(self(samples, z), expected, atol=atol)
                    and np.allclose(self(z, samples), expected, atol=atol))


# ----------------------------------------------------------------------
# The standard monoids. PLUS/TIMES form the ordinary arithmetic semiring;
# MIN/PLUS is the tropical semiring the paper cites (Equation 1); MAX is the
# additive monoid of Chebyshev distance (Minkowski with degree -> infinity).
# ----------------------------------------------------------------------
PLUS = Monoid("plus", np.add, identity=0.0, commutative=True)
TIMES = Monoid("times", np.multiply, identity=1.0, commutative=True,
               annihilator=0.0)
MIN = Monoid("min", np.minimum, identity=float("inf"), commutative=True)
MAX = Monoid("max", np.maximum, identity=0.0, commutative=True)
