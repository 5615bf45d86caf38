"""Sparse multivariate polynomials and graded index sets.

A polynomial in ``n`` variables is a finite map from exponent vectors
(tuples of ``n`` nonnegative integers) to float coefficients.  Terms are
kept in canonical form (no zero coefficients) and every ordered traversal
uses graded lexicographic order, so that the monomials of degree <= k are
always a prefix of the monomials of degree <= k+1.

An index set Lambda(n, k) is the read-only (binomial(n+k, n), n) array of
those exponent vectors (lambda_set); a vector's row in it is given in
closed form by grlex_position, for any k at or above its degree.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from operator import add

import numpy as np

__all__ = [
    "Polynomial",
    "grlex_key",
    "grlex_position",
    "lambda_set",
    "monomials",
    "term_arrays",
]


def grlex_key(alpha: tuple[int, ...]) -> tuple:
    """Sort key realizing graded lexicographic order (x1 > x2 > ... within a grade)."""
    return (sum(alpha), tuple(-a for a in alpha))


@lru_cache(maxsize=None)
def lambda_set(n: int, k: int) -> np.ndarray:
    """The binomial(n+k, n) exponent vectors with |alpha| <= k, graded-lex
    ordered, as a read-only (binomial(n+k, n), n) int64 array."""
    if n < 1:
        raise ValueError(f"need at least one variable, got n={n}")
    if k < 0:
        raise ValueError(f"degree bound must be nonnegative, got k={k}")
    rows = []
    for total in range(k + 1):
        for combo in itertools.combinations_with_replacement(range(n), total):
            alpha = [0] * n
            for i in combo:
                alpha[i] += 1
            rows.append(alpha)
    assert len(rows) == math.comb(n + k, n)
    exponents = np.array(rows, dtype=np.int64)
    exponents.flags.writeable = False
    return exponents


@lru_cache(maxsize=None)
def _binomials(size: int) -> np.ndarray:
    """Pascal's triangle C[a, b] = binomial(a, b) for 0 <= a, b < size."""
    C = np.zeros((size, size), dtype=np.int64)
    C[:, 0] = 1
    for a in range(1, size):
        C[a, 1:] = C[a - 1, 1:] + C[a - 1, :-1]
    C.flags.writeable = False
    return C


def grlex_position(alphas) -> np.ndarray:
    """Positions of exponent vectors (the last axis) in graded-lex order.

    Equal to the row of alpha in lambda_set(n, k) for any k >= |alpha|: with
    tail_j = alpha_j + ... + alpha_{n-1}, the binomial(tail_0 + n - 1, n)
    monomials of lower degree come first, then one hockey-stick sum
    binomial(tail_j + n - 1 - j, n - j) per coordinate j >= 1 counts those of
    the same degree larger in lexicographic order; one gather sums them all.
    Only exponent vectors with nonnegative entries have a position."""
    alphas = np.asarray(alphas, dtype=np.int64)
    n = alphas.shape[-1]
    tail = np.cumsum(alphas[..., ::-1], axis=-1)[..., ::-1]
    C = _binomials(n + int(tail[..., 0].max(initial=0)) + 1)
    j = np.arange(n)
    return C[tail + (n - 1 - j), n - j].sum(axis=-1)


def term_arrays(polys, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The array form of polynomials in n variables: exponents X (T, n) of
    every monomial that occurs in any of them, in graded-lex order, and
    coefficients C (len(polys), T), so that polys[i] = sum_t C[i, t] x^X[t].
    Both are read-only."""
    # descending (-degree, alpha) is grlex_key's order without its tuples
    monos = sorted({alpha for p in polys for alpha in p.terms}, key=lambda a: (-sum(a), a),
                   reverse=True)
    column = {alpha: t for t, alpha in enumerate(monos)}
    C = np.zeros((len(polys), len(monos)))
    for i, p in enumerate(polys):
        for alpha, c in p.terms.items():
            C[i, column[alpha]] = c
    X = np.array(monos, dtype=np.int64).reshape(-1, n)
    X.flags.writeable = C.flags.writeable = False
    return X, C


def monomials(X: np.ndarray, points: np.ndarray) -> np.ndarray:
    """The (m, T) values x^X[t] at each row x of points (m, n).  They are
    built one variable at a time: the broadcast (m, T, n) array of powers
    raised the peak memory."""
    out = np.ones((len(points), len(X)))
    for j in range(X.shape[1]):
        out *= points[:, j, None] ** X[:, j]
    return out


class Polynomial:
    """Immutable sparse polynomial with float coefficients.

    Supports +, -, * (with scalars and polynomials) and ** by nonnegative
    integers.  Equality is exact on the canonical term map.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict | None = None):
        if n < 1:
            raise ValueError(f"need at least one variable, got n={n}")
        clean: dict[tuple[int, ...], float] = {}
        for alpha, coeff in (terms or {}).items():
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != n or any(a < 0 for a in alpha):
                raise ValueError(f"bad exponent vector {alpha} for n={n}")
            c = float(coeff)
            if c != 0.0:
                clean[alpha] = clean.get(alpha, 0.0) + c
                if clean[alpha] == 0.0:
                    del clean[alpha]
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, n: int, terms: dict) -> "Polynomial":
        """Wrap a term map whose exponents are already valid tuples of length n
        and whose coefficients are floats, dropping exact zeros.  Arithmetic
        results come through here; outside input goes through __init__."""
        p = object.__new__(cls)
        object.__setattr__(p, "n", n)
        object.__setattr__(p, "terms", {a: c for a, c in terms.items() if c != 0.0})
        return p

    def __setattr__(self, *a):  # immutability guard
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------
    @classmethod
    def constant(cls, n: int, c: float) -> "Polynomial":
        return cls(n, {(0,) * n: c})

    @classmethod
    def variable(cls, i: int, n: int) -> "Polynomial":
        if not 0 <= i < n:
            raise ValueError(f"variable index {i} out of range for n={n}")
        alpha = [0] * n
        alpha[i] = 1
        return cls(n, {tuple(alpha): 1.0})

    @classmethod
    def monomial(cls, alpha, c: float = 1.0) -> "Polynomial":
        alpha = tuple(alpha)
        return cls(len(alpha), {alpha: c})

    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return cls(n, {})

    @classmethod
    def variables(cls, n: int) -> list["Polynomial"]:
        return [cls.variable(i, n) for i in range(n)]

    # -- structure ----------------------------------------------------
    @property
    def degree(self) -> int:
        """Total degree; the zero polynomial has degree 0 by convention."""
        if not self.terms:
            return 0
        return max(sum(a) for a in self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple[tuple[int, ...], float]]:
        """Terms in ascending graded-lex order (deterministic traversal)."""
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]))

    def coefficient(self, alpha) -> float:
        return self.terms.get(tuple(alpha), 0.0)

    def gradient(self) -> tuple["Polynomial", ...]:
        """The partial derivatives (dp/dx_1, ..., dp/dx_n)."""
        parts = []
        for i in range(self.n):
            terms = {}
            for alpha, c in self.terms.items():
                if alpha[i]:
                    terms[alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]] = c * alpha[i]
            parts.append(Polynomial._trusted(self.n, terms))
        return tuple(parts)

    def dilate(self, r: float) -> "Polynomial":
        """The polynomial x -> p(r * x): coefficients scale by r^|alpha|."""
        r = float(r)
        return Polynomial._trusted(self.n, {a: c * r ** sum(a) for a, c in self.terms.items()})

    # -- arithmetic ---------------------------------------------------
    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.n != self.n:
                raise ValueError(f"variable count mismatch: {self.n} vs {other.n}")
            return other
        return Polynomial.constant(self.n, float(other))

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        out = dict(self.terms)
        for alpha, c in other.terms.items():
            out[alpha] = out.get(alpha, 0.0) + c
        return Polynomial._trusted(self.n, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(self.n, {a: -c for a, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Polynomial":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            s = float(other)
            return Polynomial._trusted(self.n, {a: c * s for a, c in self.terms.items()})
        other = self._coerce(other)
        out: dict[tuple[int, ...], float] = {}
        for a1, c1 in self.terms.items():
            for a2, c2 in other.terms.items():
                key = tuple(map(add, a1, a2))
                out[key] = out.get(key, 0.0) + c1 * c2
        return Polynomial._trusted(self.n, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only nonnegative integer powers are supported")
        result = Polynomial.constant(self.n, 1.0)
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    # -- evaluation ---------------------------------------------------
    def evaluate(self, x):
        """p at a point (n,), a float, or at each row of points (m, n), an
        array.  A point's value is bitwise its row's value in a batch."""
        pts = np.asarray(x, dtype=float)
        if pts.ndim not in (1, 2) or pts.shape[-1] != self.n:
            raise ValueError(f"points have shape {pts.shape}, expected ({self.n},) or (m, {self.n})")
        X, C = term_arrays([self], self.n)
        values = np.sum(monomials(X, pts.reshape(-1, self.n)) * C[0], axis=1)
        return float(values[0]) if pts.ndim == 1 else values

    def __repr__(self) -> str:
        if not self.terms:
            return f"Polynomial({self.n}, 0)"
        bits = [f"{c:+g}*x^{a}" for a, c in self.sorted_terms()]
        return f"Polynomial({self.n}, {' '.join(bits)})"

