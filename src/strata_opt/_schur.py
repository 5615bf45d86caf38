"""Schur matrix of moment relaxations built from position tables.

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
end are built and MH is mirrored.  The adjoint <A_i[alpha], X_i> is one
bincount over every table.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["CHUNK_DOUBLES", "TableSchur", "stack_blocks"]

_PANEL = 8               # rows a per gemm of the Schur build
CHUNK_DOUBLES = 1 << 18  # size of the Q and Y buffers, in doubles, that sets the column chunk


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


def _base_table(P: np.ndarray, w: np.ndarray):
    """Factor an (s, s, t) table given entry by entry into base entries: the
    entries a <= b with equal rows (P[a, b], w[a, b]) form one base entry
    gamma, so that

        A_beta = sum_gamma G[beta, gamma] H_gamma,   H_gamma = [B == gamma],
        G[pos[gamma, t], gamma] = coef[gamma, t].

    Returns B, pos and coef.  (A localizing block carries this factoring
    from assembly: B is the table of M_k and gamma runs over Lambda(2k).)"""
    s, _, t = P.shape
    a, b = np.triu_indices(s)
    rows, base = np.unique(np.concatenate((P[a, b], w[a, b]), axis=1), axis=0,
                           return_inverse=True)
    B = np.empty((s, s), dtype=np.int64)
    B[a, b] = B[b, a] = base.ravel()
    return B, rows[:, :t].astype(np.int64), rows[:, t:]


class _Stack:
    """k blocks of side s that share a base table B with Nb base entries:
    tables P, w (k, s, s, t), each block scaled by its largest coefficient
    and padded with zero terms to the stack's largest t, and per block G's
    positions and coefficients (Nb, t_i).

    Its part of the Schur matrix is sum_i G_i MH_i G_i^T, where
    MH_i[gamma, gamma'] = <H_gamma, V_i H_gamma' V_i> comes from the table
    formula on B.  The moment block has G = I (direct) and writes its MH
    straight into M.  The other stacks apply their G_i by one gemm through
    G^T (k, Nb, L).

    MH is symmetric, so a column chunk [j0, j1) only needs its rows below
    j1: the pairs (a, b) with B[a, b] < j1.  The rest is mirrored."""

    def __init__(self, members: list, L: int):
        B, pos, coef = members[0][2], [m[3] for m in members], [m[4] for m in members]
        self.B = np.ascontiguousarray(B, dtype=np.int64)
        k, Nb, s = len(members), pos[0].shape[0], B.shape[0]
        t = max(P.shape[-1] for P, *_ in members)
        self.P = np.zeros((k, s, s, t), dtype=np.int64)  # padding: coefficient 0 at y_0
        self.w = np.zeros((k, s, s, t))
        for i, (P, w, *_) in enumerate(members):
            self.P[i, ..., : P.shape[-1]] = P
            self.w[i, ..., : w.shape[-1]] = w
        self.shape, self.Nb = (k, s, s), Nb
        self.face = None  # see restrict
        self.direct = (k == 1 and t == 1 and Nb == L and np.all(coef[0] == 1.0)
                       and np.array_equal(pos[0][:, 0], np.arange(L)))
        if self.direct:
            return
        self.MH = np.empty((k, Nb, Nb))
        self.GT = np.zeros((k, Nb, L))
        for GT, p, c in zip(self.GT, pos, coef):
            gamma = np.broadcast_to(np.arange(Nb)[:, None], p.shape)
            np.add.at(GT, (gamma.ravel(), p.ravel()), c.ravel())
        self.Xt = np.empty(self.GT.shape)

    def plan(self, budget: int) -> tuple[int, int]:
        """Cut the Nb columns of MH into chunks whose Q and Y fit in budget
        doubles (_plan).  Returns the sizes of Q and Y that they need."""
        k, s, _ = self.shape
        width = max(1, min(self.Nb, budget // (k * max(s * s, s * (s + 1) // 2 + _PANEL * s))))
        self.chunks = _plan(self.B.tobytes(), s, k, width)
        return k * s * s * width, max(k * rows * (j1 - j0) for j0, j1, *_, rows, _, _, _ in self.chunks)

    def restrict(self, face: np.ndarray) -> None:
        """Solve the blocks in the orthonormal basis F = face (s, s') of a
        subspace that holds their range at every feasible y: the iterates
        become F^T A(y) F."""
        self.face = face

    def lift(self, X: np.ndarray) -> np.ndarray:
        """F X F^T: a stack of (s', s') matrices back in the table's basis."""
        return X if self.face is None else self.face @ X @ self.face.T

    def evaluate(self, y: np.ndarray) -> np.ndarray:
        """The blocks at a full moment vector y (y[0] multiplies the constants)."""
        if self.P.shape[-1] == 1:
            X = y[self.P[..., 0]] * self.w[..., 0]
        else:
            X = (y[self.P] * self.w).sum(axis=-1)
        return X if self.face is None else self.face.T @ X @ self.face

    def weighted(self, X: np.ndarray, out: np.ndarray) -> None:
        """out <- w * X[a, b] for every table entry, flat: the adjoint's
        bincount weights."""
        X = self.lift(X)
        if self.P.shape[-1] == 1:
            np.multiply(self.w[..., 0], X, out=out.reshape(X.shape))
        else:
            np.multiply(self.w, X[..., None], out=out.reshape(self.w.shape))

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
        self.positions = np.concatenate([st.P.ravel() for st in stacks])
        self.weights = np.empty(self.positions.size)
        ends = np.cumsum([st.P.size for st in stacks])
        self.spans = list(zip(ends - [st.P.size for st in stacks], ends))
        self.L = L

    def matrix(self, V: list) -> np.ndarray:
        """M for the inverse scaling points V[g] of the stacks: a view into a
        buffer that the next call overwrites, exactly symmetric."""
        for g, (st, Vg) in enumerate(zip(self.stacks, V)):
            st.add_schur(st.lift(Vg), self.M, self.Q, self.Y, g == 0)
        if not self.stacks[-1].direct:
            _mirror(self.M, [(0, self.L)])
        return self.M[1:, 1:]

    def adjoint(self, X: list) -> np.ndarray:
        """[sum_g <A_g[alpha], X[g]>]_alpha over the moments alpha != 0."""
        for st, x, (a, b) in zip(self.stacks, X, self.spans):
            st.weighted(x, self.weights[a:b])
        return np.bincount(self.positions, weights=self.weights, minlength=self.L)[1:]


def stack_blocks(blocks: list, L: int) -> list:
    """The blocks, each scaled by its largest coefficient, stacked by side and
    base table, the direct (moment) stack last."""
    groups: dict[tuple, list] = {}
    for b in blocks:
        P = b.positions
        scale = np.max(np.abs(b.coeffs))
        w = np.broadcast_to(b.coeffs, P.shape) / scale
        if b.base is None:
            B, pos, coef = _base_table(P, w)
        else:
            B, pos, coef = b.base, b.shift, np.broadcast_to(b.coeffs / scale, b.shift.shape)
        direct = P.shape[-1] == 1 and np.all(coef == 1.0) and np.array_equal(pos[:, 0], np.arange(L))
        groups.setdefault((B.tobytes(), direct), []).append((P, w, B, pos, coef))
    stacks = [_Stack(members, L) for members in groups.values()]
    return sorted(stacks, key=lambda st: st.direct)
