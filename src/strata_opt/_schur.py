"""Schur matrix and adjoint of moment relaxations, from the blocks' base tables.

The Schur matrix M[alpha, beta] = sum_i <A_i[alpha], V_i A_i[beta] V_i> of
the interior-point method (see sdp) is built from the blocks' tables by the
sparse-data formula of Fujisawa, Kojima and Nakata.  Each block is factored
through its base table B: A_beta = sum_gamma G[beta, gamma] H_gamma with
H_gamma = [B == gamma].  For a localizing block of order k, B is the table
of M_k, gamma runs over Lambda(2k) and G places the terms of g; the moment
block has G = I.  The formula runs on B:

    Q[c, a, gamma'] = sum_{d: B[c, d] = gamma'} V[a, d]                      (scatter)
    Y[b, a, gamma'] = sum_c V[b, c] Q[c, a, gamma'] = (V H_gamma' V)[b, a]   (gemm, b >= a)
    MH[gamma, gamma'] = sum_{a <= b: B[a, b] = gamma} (2 - [a = b]) Y[b, a, gamma']

(row adds), and M = sum_i G_i MH_i G_i^T, one gemm per stack.  The gemm
takes s^3 Nb / 2 flops for a block of side s, against the Nb^2 s^2 / 2 of
a Gram matrix of congruences.  Q and Y are built a chunk of columns at a
time in reused buffers; the adds are grouped into layers of distinct target
rows, so that each layer is one indexed add; only the rows below a chunk's
end are built and MH is mirrored.

G is kept in the blocks' own form (moment.LMIBlock): G^T in coordinates,
entry (gamma, shift[gamma, t]) holding coeffs[t], the rows of the shifted
sequence g . y (ShiftRows).  The blocks at y are (G^T y)[B], one bincount
and a gather; the adjoint <A[alpha], X> is (G h)[alpha] with h[gamma] the
sum of X over B == gamma, two bincounts.  The dense G^T serves the Schur
gemm alone.  The same rows, dense, are the solver's equality system and
its linear rows (see sdp).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["CHUNK_DOUBLES", "ShiftRows", "TableSchur", "scaled", "stack_blocks", "stack_doubles"]

_PANEL = 8               # rows a per gemm of the Schur build
CHUNK_DOUBLES = 1 << 18  # size of the Q and Y buffers, in doubles, that sets the column chunk
# least chunk width of a block of side above it: the plan stores, per chunk,
# every pair below the chunk's end, so at side 220 (E0 at order 3) chunks of
# CHUNK_DOUBLES's 5 columns made a plan of 202 MiB
_MIN_WIDTH = 64


class ShiftRows:
    """The rows of shifted sequences g . y, table after table.  A table is
    (shift, c), the data of a block (moment.LMIBlock) or a part of it: row
    gamma is sum_t c[t] y[shift[gamma, t]].  In coordinates, term j adds
    vals[j] * y[cols[j]] to row rows[j]; dense() gives the (count, L)
    matrix."""

    def __init__(self, tables):
        tables = list(tables)
        lengths = [len(shift) for shift, _ in tables]
        self.count = sum(lengths)
        terms = np.repeat(np.array([shift.shape[1] for shift, _ in tables], dtype=np.int64), lengths)
        self.rows = np.repeat(np.arange(self.count), terms)
        self.cols = np.concatenate([shift.ravel() for shift, _ in tables] + [np.zeros(0, np.int64)])
        self.vals = np.concatenate([np.resize(c, shift.size) for shift, c in tables] + [np.zeros(0)])

    def dense(self, L: int) -> np.ndarray:
        """The rows as a (count, L) matrix over the moments; terms that name
        the same moment add up."""
        return np.bincount(self.rows * L + self.cols, self.vals,
                           minlength=self.count * L).reshape(self.count, L)


def scaled(blocks):
    """The tables of blocks (moment.LMIBlock), each scaled by its largest
    coefficient: the form of every row the solver keeps, those of the
    equalities, of the linear rows and of each stack's G^T."""
    return ((b.shift, b.coeffs / np.abs(b.coeffs).max()) for b in blocks)


def _layers(keys: np.ndarray) -> list:
    """Indices of keys split into layers of distinct keys: the j-th
    occurrence of a key goes to layer j."""
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = ranked[1:] != ranked[:-1]
    first = np.maximum.accumulate(np.where(new, np.arange(len(keys)), 0))
    rank = np.empty(len(keys), dtype=np.int64)
    rank[order] = np.arange(len(keys)) - first
    return [np.flatnonzero(rank == j) for j in range(int(rank.max(initial=-1)) + 1)]


class _Stack:
    """k blocks of side s that share a base table B with Nb base entries,
    each scaled by its largest coefficient.  Their G_i^T are kept together
    in coordinate form (ShiftRows): rows gamma + i Nb, columns
    shift_i[gamma, t] and values coeffs_i[t] / scale_i.

    Its part of the Schur matrix is sum_i G_i MH_i G_i^T, where
    MH_i[gamma, gamma'] = <H_gamma, V_i H_gamma' V_i> comes from the table
    formula on B.  The moment block has G = I (direct) and writes its MH
    straight into M.  The other stacks apply their G_i by one gemm through
    G^T (k, Nb, L), the coordinate form made dense for that gemm only.

    MH is symmetric, so a column chunk [j0, j1) only needs its rows below
    j1: the pairs (a, b) with B[a, b] < j1.  The rest is mirrored.

    A stack given a face F (s, s'), an orthonormal basis of a subspace that
    holds the range of its blocks at every feasible y, is solved in that
    basis: its iterates are F^T A(y) F."""

    def __init__(self, blocks: list, L: int, direct: bool, face: np.ndarray | None = None):
        self.B = np.ascontiguousarray(blocks[0].base, dtype=np.int64)
        k, Nb, s = len(blocks), blocks[0].shift.shape[0], self.B.shape[0]
        self.shape, self.Nb, self.L = (k, s, s), Nb, L
        self.direct, self.face = direct, face
        # the base entry of X[i, a, b], over the whole stack
        self.entries = (np.arange(k)[:, None, None] * Nb + self.B).ravel()
        if direct:
            return
        rows = ShiftRows(scaled(blocks))
        self.rows, self.cols, self.vals = rows.rows, rows.cols, rows.vals
        # the products of evaluate and adjoint go to one reused buffer: as
        # per-call temporaries they raised the certify and pop-ineq peak RSS
        self.products = np.empty(self.cols.size)
        self.MH = np.empty((k, Nb, Nb))
        self.GT = rows.dense(L).reshape(k, Nb, L)
        self.Xt = np.empty(self.GT.shape)

    def plan(self, budget: int) -> tuple[int, int]:
        """Cut the Nb columns of MH into chunks whose Q and Y fit in budget
        doubles, or of _MIN_WIDTH columns for a side above it (_plan).
        Returns the sizes of Q and Y that they need."""
        k, s, _ = self.shape
        width = _width(k, s, self.Nb, budget)
        self.chunks = _plan(self.B.tobytes(), s, k, width)
        return k * s * s * width, max(k * rows * (j1 - j0) for j0, j1, *_, rows, _, _, _ in self.chunks)

    def lift(self, X: np.ndarray) -> np.ndarray:
        """F X F^T: a stack of (s', s') matrices back in the table's basis."""
        return X if self.face is None else self.face @ X @ self.face.T

    def evaluate(self, y: np.ndarray) -> np.ndarray:
        """The blocks at a full moment vector y (y[0] multiplies the constants)."""
        if self.direct:
            X = y[self.B][None]
        else:
            k, Nb = self.shape[0], self.Nb
            np.multiply(self.vals, y[self.cols], out=self.products)
            X = np.bincount(self.rows, self.products, minlength=k * Nb)
            X = X.reshape(k, Nb)[:, self.B]
        return X if self.face is None else self.face.T @ X @ self.face

    def adjoint(self, X: np.ndarray) -> np.ndarray:
        """[sum_i <A_i[alpha], X[i]>]_alpha over all L moments."""
        X = self.lift(X).ravel()
        if self.direct:
            return np.bincount(self.entries, X, minlength=self.L)
        h = np.bincount(self.entries, X, minlength=self.shape[0] * self.Nb)
        np.multiply(self.vals, h[self.rows], out=self.products)
        return np.bincount(self.cols, self.products, minlength=self.L)

    def add_schur(self, V: np.ndarray, M: np.ndarray, Qbuf: np.ndarray, Ybuf: np.ndarray,
                  assign: bool) -> None:
        """Add this stack's part of the Schur matrix for the inverse scaling
        points V (k, s, s) to M (L, L), or write it when assign is set.  The
        direct stack comes last: it mirrors the upper part of M, so it has
        to be complete there."""
        k, s, _ = self.shape
        V2 = 2.0 * V
        out = M[None] if self.direct else self.MH
        first = assign or not self.direct
        for j0, j1, scatter, (ci, cols), panels, rows, diagonal, adds, covers in self.chunks:
            nc = j1 - j0
            Q = Qbuf[: k * s * s * nc].reshape(k, s, s, nc)
            for j, (c, col, d) in enumerate(scatter):
                _add(Q, (slice(None), c, slice(None), col), V[:, :, d].transpose(2, 0, 1), j == 0)
            Y = Ybuf[: k * rows * nc].reshape(k, rows, nc)
            for a0, a1, b1, off in panels:
                np.matmul(V2[:, a0:b1, :], Q[:, :, a0:a1].reshape(k, s, (a1 - a0) * nc),
                          out=Y[:, off: off + (b1 - a0) * (a1 - a0)].reshape(k, b1 - a0, -1))
            Q[:, ci, :, cols] = 0.0
            Y[:, diagonal] *= 0.5  # the gemm gives every pair the off-diagonal weight 2
            if first and not covers:
                out[:, :j1, j0:j1] = 0.0
            for j, (target, src) in enumerate(adds):
                _add(out, (slice(None), target, slice(j0, j1)), Y[:, src], j == 0 and first and covers)
        _mirror(out, [chunk[:2] for chunk in self.chunks])
        if self.direct:
            return
        np.matmul(self.MH, self.GT, out=self.Xt)
        k, Nb, L = self.GT.shape
        product = (self.GT.reshape(k * Nb, L).T, self.Xt.reshape(k * Nb, L))
        if assign:
            np.matmul(*product, out=M)
        else:
            M += np.matmul(*product)


def _width(k: int, s: int, Nb: int, budget: int) -> int:
    """Columns per chunk of a stack of k blocks of side s on Nb base
    entries: as many as fit Q (s^2 rows per column and block) and Y (at most
    s (s + 1) / 2 + _PANEL s) in budget doubles, at least _MIN_WIDTH for a
    side above it."""
    width = max(1, budget // (k * max(s * s, s * (s + 1) // 2 + _PANEL * s)))
    return min(Nb, max(width, _MIN_WIDTH) if s > _MIN_WIDTH else width)


def stack_doubles(k: int, s: int, Nb: int) -> tuple[int, int, int]:
    """Bounds, in doubles, on the Q and Y buffers that a stack of k blocks
    of side s on Nb base entries needs (_Stack.plan) and on its index plan
    (_plan), from the sizes alone.  The plan holds six indices per entry of
    B (the cache key, the rows c and, over the chunks, the scatter triples
    and columns), per chunk two per pair below its end and its diagonal,
    and 1024 doubles per chunk bound its arrays' objects."""
    width = _width(k, s, Nb, CHUNK_DOUBLES)
    chunks = -(-Nb // width)
    return (k * s * s * width, k * (s * (s + 1) // 2 + _PANEL * s) * width,
            6 * s * s + chunks * (s * s + 2 * s + 1024))


@lru_cache(maxsize=32)
def _plan(table: bytes, s: int, k: int, width: int) -> tuple:
    """Index plan of the table formula on the base table B (bytes of an
    (s, s) int64 array) for a stack of k blocks, in column chunks of the
    given width: per chunk its scatter layers, the entries to reset, the
    gemm panels, the Y rows, the diagonal rows, the layers of adds and
    whether the first layer reaches every row below the chunk's end.
    Shared by the solves of one structure; read only."""
    B = np.frombuffer(table, dtype=np.int64).reshape(s, s)
    Nb = int(B.max()) + 1
    a, b = np.triu_indices(s)
    target = B[a, b]
    order = np.argsort(B, axis=None, kind="stable")
    gamma = B.ravel()[order]
    c, d = np.divmod(order, s)
    chunks = []
    for j0 in range(0, Nb, width):
        j1 = min(j0 + width, Nb)
        nc = j1 - j0
        # Q[:, c, a, col] = sum_d V[:, a, d] [B[c, d] = j0 + col]
        lo, hi = np.searchsorted(gamma, [j0, j1])
        cols, ci, di = gamma[lo:hi] - j0, c[lo:hi], d[lo:hi]
        scatter = [(ci[j], cols[j], di[j]) for j in _layers(ci * nc + cols)]
        # the gemm of panel [a0, a1) yields Y rows (b, a) for a0 <= b < b1, b-major
        need = target < j1
        src = np.zeros(len(a), dtype=np.int64)
        panels, rows = [], 0
        for a0 in range(0, s, _PANEL):
            a1 = min(a0 + _PANEL, s)
            sel = need & (a >= a0) & (a < a1)
            if not sel.any():
                continue
            b1 = int(b[sel].max()) + 1
            src[sel] = rows + (b[sel] - a0) * (a1 - a0) + a[sel] - a0
            panels.append((a0, a1, b1, rows))
            rows += (b1 - a0) * (a1 - a0)
        adds = [(target[need][j], src[need][j]) for j in _layers(target[need])]
        covers = np.array_equal(np.sort(adds[0][0]), np.arange(j1))
        chunks.append((j0, j1, scatter, (ci, cols), panels, rows,
                       src[need & (a == b)], adds, covers))
    return tuple(chunks)


def _mirror(T: np.ndarray, chunks: list) -> None:
    """Make the (..., n, n) stack T symmetric from its part above the
    diagonal blocks of the column chunks, averaging those blocks."""
    for j0, j1 in chunks:
        if j0:
            T[..., j0:j1, :j0] = T[..., :j0, j0:j1].swapaxes(-1, -2)
        D = T[..., j0:j1, j0:j1]
        T[..., j0:j1, j0:j1] = 0.5 * (D + D.swapaxes(-1, -2))


def _add(out: np.ndarray, index: tuple, values: np.ndarray, assign: bool) -> None:
    """out[index] += values (or = values) for an index without repeats;
    values is a fresh array and is overwritten.  numpy's in-place indexed
    add is several times slower than this gather, add and scatter."""
    if not assign:
        values += out[index]
    out[index] = values


class TableSchur:
    """Schur matrix M[alpha, beta] = sum_i <A_i[alpha], V_i A_i[beta] V_i>
    of the stacks (see the module docstring and _Stack), and the adjoint
    A^*(X) of their tables."""

    def __init__(self, stacks: list, L: int):
        self.stacks = stacks
        q_size, y_size = np.max([st.plan(CHUNK_DOUBLES) for st in stacks] + [(1, 1)], axis=0)
        self.Q = np.zeros(q_size)
        self.Y = np.empty(y_size)
        self.M = np.empty((L, L))  # row and column 0 collect the constants' share, unused
        self.L = L

    def matrix(self, V: list, rows: np.ndarray | None = None) -> np.ndarray:
        """M for the inverse scaling points V[g] of the stacks, plus
        rows^T rows for linear rows (k, L) already scaled by their NT
        scaling: a view into a buffer that the next call overwrites,
        exactly symmetric.  The rows' part is written first, by one syrk
        into the buffer, so that it makes no L x L temporary."""
        if rows is not None:
            np.matmul(rows.T, rows, out=self.M)
        elif not self.stacks:
            self.M.fill(0.0)
        for g, (st, Vg) in enumerate(zip(self.stacks, V)):
            st.add_schur(st.lift(Vg), self.M, self.Q, self.Y, g == 0 and rows is None)
        if self.stacks and not self.stacks[-1].direct:
            _mirror(self.M, [(0, self.L)])
        return self.M[1:, 1:]

    def adjoint(self, X: list) -> np.ndarray:
        """[sum_g <A_g[alpha], X[g]>]_alpha over the moments alpha != 0."""
        if not self.stacks:
            return np.zeros(self.L - 1)
        out = self.stacks[0].adjoint(X[0])
        for st, x in zip(self.stacks[1:], X[1:]):
            out += st.adjoint(x)
        return out[1:]


def stack_blocks(blocks: list, L: int, face: np.ndarray | None = None) -> list:
    """The blocks stacked by side and base table, the direct (moment) stack
    last and solved on face when one is given (see _Stack).  The solver
    never stacks a block of side 1: it keeps those as linear rows, the
    blocks' scaled ShiftRows made dense (see sdp)."""
    groups: dict[tuple, list] = {}
    for b in blocks:
        direct = (b.shift.shape[1] == 1 and b.coeffs[0] > 0.0
                  and np.array_equal(b.shift[:, 0], np.arange(L)))
        groups.setdefault((np.asarray(b.base, dtype=np.int64).tobytes(), direct), []).append(b)
    stacks = [_Stack(members, L, direct and len(members) == 1, face if direct else None)
              for (_, direct), members in groups.items()]
    return sorted(stacks, key=lambda st: st.direct)
