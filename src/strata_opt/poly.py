"""Sparse multivariate polynomials and graded index sets.

A polynomial in ``n`` variables is two read-only arrays, which every layer
reads as they are: ``exponents`` (T, n) int64, distinct rows ascending in
graded-lex order (degree <= k before degree k+1), and ``coeffs`` (T,)
float64, none of them zero.

An index set Lambda(n, k) is the read-only (binomial(n+k, n), n) array of
the exponent vectors of degree <= k (lambda_set); a vector's row in it is
given in closed form by grlex_position, for any k at or above its degree.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

__all__ = [
    "Polynomial",
    "derivative_arrays",
    "forms_from_tensor",
    "grlex_position",
    "lambda_set",
    "monomials",
]


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


def _wrap(exponents: np.ndarray, coeffs: np.ndarray) -> "Polynomial":
    """The polynomial of rows already distinct and in order, without exact zeros."""
    if np.count_nonzero(coeffs) < len(coeffs):
        keep = coeffs != 0.0
        exponents, coeffs = exponents[keep], coeffs[keep]
    exponents.setflags(write=False)
    coeffs.setflags(write=False)
    p = object.__new__(Polynomial)
    object.__setattr__(p, "exponents", exponents)
    object.__setattr__(p, "coeffs", coeffs)
    return p


def _union(exponents: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct rows in graded-lex order, a stable sort of the rows into
    that order and each sorted row's index among the distinct ones.  Sorting
    on (degree, -alpha) needs no position table, which grows as degree^2."""
    order = np.lexsort(np.vstack([-exponents[:, ::-1].T, exponents.sum(axis=1)]))
    rows = exponents[order]
    new = np.ones(len(order), bool)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[new], order, np.cumsum(new) - 1


def _merge(exponents: np.ndarray, coeffs: np.ndarray) -> "Polynomial":
    """The polynomial sum_t coeffs[t] x^exponents[t] of rows in any order that
    may repeat: a repeated row's coefficients add in input order."""
    rows, order, group = _union(exponents)
    sums = np.bincount(group, coeffs[order], len(rows)).astype(float, copy=False)  # int64 if empty
    return _wrap(rows, sums)


def derivative_arrays(polys, n: int, orders) -> tuple[np.ndarray, list]:
    """The partial derivatives of polys of each order k in orders over one
    support: X (T, n) in graded-lex order and, per order in ascending order,
    C_k (len(polys) n^k, T) with d^k polys[i]/dx_j1 ... dx_jk in row
    (((i n + j1) n + j2) ... ) n + jk: order 0 holds the polynomials'
    coefficients and order 1 their gradients.  They are built from the
    polynomials' own arrays: each term c x^alpha with alpha_j > 0 gives
    c alpha_j x^(alpha - e_j) to row i n + j of the next order.  All are
    read-only."""
    X, coeffs, owner = _stacked(polys, n)
    count, ends, parts = len(polys), [0], []
    for k in range(max(orders) + 1):
        if k:
            t, j = X.nonzero()
            lowered = X[t]
            lowered[np.arange(len(t)), j] -= 1
            X, coeffs, owner, count = lowered, coeffs[t] * X[t, j], owner[t] * n + j, count * n
        if k in orders:
            parts.append((X, coeffs, owner + ends[-1]))
            ends.append(ends[-1] + count)
    X, C = _collect(*map(np.concatenate, zip(*parts)), ends[-1])
    return X, np.split(C, ends[1:-1])


def _stacked(polys, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The terms of polys one after another: exponents, coefficients and
    the index of the polynomial each term belongs to."""
    X = np.concatenate([np.empty((0, n), np.int64)] + [p.exponents for p in polys])
    coeffs = np.concatenate([np.empty(0)] + [p.coeffs for p in polys])
    owner = np.repeat(np.arange(len(polys)), [len(p.coeffs) for p in polys])
    return X, coeffs, owner


def _collect(exponents: np.ndarray, coeffs: np.ndarray, owner: np.ndarray, count: int):
    """X over the distinct rows of exponents and C (count, len(X)) with
    coeffs[k] at (owner[k], the column of exponents[k]); each (owner, row)
    pair occurs once.  Both are read-only."""
    X, order, column = _union(exponents)
    C = np.zeros((count, len(X)))
    C[owner[order], column] = coeffs[order]
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
    integers.  Equality is exact on the canonical arrays.
    """

    __slots__ = ("exponents", "coeffs")

    def __new__(cls, n: int, terms=None):
        """The polynomial sum of c x^alpha over a mapping {alpha: c}: every alpha
        has n integer entries in [0, 2^53), exact as floats; every c is finite."""
        if n < 1:
            raise ValueError(f"need at least one variable, got n={n}")
        terms = terms or {}
        try:
            raw = np.array(list(terms), dtype=float).reshape(len(terms), n)
            coeffs = np.array(list(terms.values()), dtype=float).reshape(len(terms))
        except (TypeError, ValueError):
            raise ValueError(f"need a map from exponent vectors of length {n} to numbers") from None
        if not (((raw >= 0) & (raw < 2**53) & (raw == np.floor(raw))).all()
                and np.isfinite(coeffs).all()):
            raise ValueError("exponents must be integers in [0, 2^53) and coefficients finite")
        return _merge(raw.astype(np.int64), coeffs)

    def __setattr__(self, *a):  # immutability guard
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):  # pickle and copy rebuild from the arrays
        return _wrap, (self.exponents, self.coeffs)

    # -- constructors -------------------------------------------------
    @classmethod
    def constant(cls, n: int, c: float) -> "Polynomial":
        """The constant c, built from its one-row arrays: the mapping
        constructor's checks and merge cost about 20 microseconds a call."""
        if n < 1:
            raise ValueError(f"need at least one variable, got n={n}")
        c = float(c)
        if not math.isfinite(c):
            raise ValueError(f"coefficients must be finite, got c={c}")
        return _wrap(np.zeros((1, n), np.int64), np.array([c]))

    @classmethod
    def variable(cls, i: int, n: int) -> "Polynomial":
        if not 0 <= i < n:
            raise ValueError(f"variable index {i} out of range for n={n}")
        return cls(n, {tuple(int(j == i) for j in range(n)): 1.0})

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
    def n(self) -> int:
        return self.exponents.shape[1]

    @property
    def degree(self) -> int:
        """Total degree (of the last row); 0 for the zero polynomial."""
        return int(self.exponents[-1].sum()) if len(self.coeffs) else 0

    @property
    def is_zero(self) -> bool:
        return not len(self.coeffs)

    def coefficient(self, alpha) -> float:
        return float(self.coeffs[(self.exponents == np.reshape(alpha, self.n)).all(axis=1)].sum())

    def dilate(self, r: float) -> "Polynomial":
        """The polynomial x -> p(r * x): coefficients scale by r^|alpha|."""
        r = float(r)
        powers = np.array([r**k for k in range(self.degree + 1)])
        return _wrap(self.exponents, self.coeffs * powers[self.exponents.sum(axis=1)])

    # -- arithmetic ---------------------------------------------------
    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.n != self.n:
                raise ValueError(f"variable count mismatch: {self.n} vs {other.n}")
            return other
        return Polynomial.constant(self.n, float(other))

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        return _merge(np.concatenate([self.exponents, other.exponents]),
                      np.concatenate([self.coeffs, other.coeffs]))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _wrap(self.exponents, -self.coeffs)

    def __sub__(self, other) -> "Polynomial":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Polynomial":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Polynomial":
        """A product with a one-term factor shifts the other's rows, which
        keeps their order; any other product merges all pairs of terms."""
        if not isinstance(other, Polynomial):
            return _wrap(self.exponents, self.coeffs * float(other))
        other = self._coerce(other)
        if len(self.coeffs) == 1 or len(other.coeffs) == 1:
            return _wrap(self.exponents + other.exponents, self.coeffs * other.coeffs)
        return _merge((self.exponents[:, None] + other.exponents[None]).reshape(-1, self.n),
                      np.outer(self.coeffs, other.coeffs).ravel())

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only nonnegative integer powers are supported")
        result = self if exponent else Polynomial.constant(self.n, 1.0)
        for _ in range(exponent - 1):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (np.array_equal(self.exponents, other.exponents)
                and np.array_equal(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash((self.n, self.exponents.tobytes(), self.coeffs.tobytes()))

    # -- evaluation ---------------------------------------------------
    def evaluate(self, x):
        """p at a point (n,), a float, or at each row of points (m, n), an
        array.  A point's value is bitwise its row's value in a batch."""
        pts = np.asarray(x, dtype=float)
        if pts.ndim not in (1, 2) or pts.shape[-1] != self.n:
            raise ValueError(f"points have shape {pts.shape}, expected ({self.n},) or (m, {self.n})")
        values = np.sum(monomials(self.exponents, pts.reshape(-1, self.n)) * self.coeffs, axis=1)
        return float(values[0]) if pts.ndim == 1 else values

    def __repr__(self) -> str:
        if self.is_zero:
            return f"Polynomial({self.n}, 0)"
        bits = [f"{c:+g}*x^{tuple(a)}" for a, c in zip(self.exponents.tolist(), self.coeffs)]
        return f"Polynomial({self.n}, {' '.join(bits)})"


def forms_from_tensor(K, k: int) -> tuple[Polynomial, ...]:
    """The forms of degree k whose coefficient tensor is K, of shape
    (n,) * k + out: form o is the sum over index tuples (a1, ..., ak) of
    K[a1, ..., ak, o] x_a1 ... x_ak, one polynomial per entry of out in C
    order.  Tuples that are permutations of each other share a monomial, so
    their coefficients add."""
    K = np.asarray(K, dtype=float)
    n = K.shape[0]
    tuples = np.indices((n,) * k).reshape(k, -1).T
    exponents = (tuples[:, :, None] == np.arange(n)).sum(axis=1)
    X, order, column = _union(exponents)
    C = np.zeros((K.size // n**k, len(X)))
    np.add.at(C.T, column, K.reshape(n**k, -1)[order])
    return tuple(_wrap(X, c) for c in C)
