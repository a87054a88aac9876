"""Direct solver for cyclic block-tridiagonal systems with 2x2 blocks.

The matrix has per-node diagonal blocks D_j and constant off-diagonal
blocks B+ (coupling to node j+1) and B- (to node j-1), with periodic wrap
blocks at (0, N-1) and (N-1, 0).  The nodes are renumbered in zig-zag order
0, N-1, 1, N-2, 2, ...: node j sits at position 2j for 2j < N and at
2(N-1-j)+1 otherwise, so every periodic neighbour, the wrap included, is at
most two positions away.  Two positions of 2x2 blocks span at most five
scalar rows or columns, so the whole periodic matrix is banded with
kl = ku = 5 in that order.  It is LU-factorized once (LAPACK gbtrf), and
each solve is one banded back-substitution (gbtrs) with no wrap correction.
Solves take and return spinor fields, (2, N) or a (2, ..., N) batch: the
zig-zag permutation also interleaves the two components, so a solve is
one gather, gbtrs and one scatter.
"""

from __future__ import annotations

import numpy as np

from .errors import SolverError

_KL = 5
_KU = 5


class CyclicBlockTridiagSolver:
    """Factor-once / solve-many for the periodic 2x2-block tridiagonal system."""

    def __init__(self, diag: np.ndarray, b_plus: np.ndarray, b_minus: np.ndarray):
        diag = np.asarray(diag, dtype=np.complex128)
        n_blocks = diag.shape[0]
        if diag.shape != (n_blocks, 2, 2):
            raise SolverError(f"diag blocks must have shape (N, 2, 2), got {diag.shape}")
        if n_blocks < 3:
            raise SolverError("need at least 3 blocks for distinct periodic neighbours")
        self.n = 2 * n_blocks

        nodes = np.arange(n_blocks)
        position = np.where(2 * nodes < n_blocks, 2 * nodes, 2 * (n_blocks - 1 - nodes) + 1)
        # band index 2p + c holds component c of the node j at position p,
        # which is row c*N + j of a field's unknowns in the (2, N) layout
        self._order = (np.arange(2) * n_blocks + np.argsort(position)[:, None]).ravel()

        # the 3N blocks (j, j), (j, j+1) and (j, j-1), each scattered as its
        # four scalar entries; entry (i, k) of the matrix sits at row
        # kl + ku + i - k, column k of gbtrf's band storage
        blocks = np.concatenate((diag, np.broadcast_to(b_plus, diag.shape),
                                 np.broadcast_to(b_minus, diag.shape)))
        col_pos = np.concatenate((position, np.roll(position, -1), np.roll(position, 1)))
        rows = 2 * np.tile(position, 3)[:, None, None] + np.arange(2)[:, None]
        cols = 2 * col_pos[:, None, None] + np.arange(2)
        ab = np.zeros((2 * _KL + _KU + 1, self.n), dtype=np.complex128, order="F")
        ab[_KL + _KU + rows - cols, cols] = blocks

        from scipy.linalg import get_lapack_funcs  # here: importing scipy.linalg costs 0.3 s
        gbtrf, gbtrs = get_lapack_funcs(("gbtrf", "gbtrs"), (ab,))
        lu, ipiv, info = gbtrf(ab, _KL, _KU, overwrite_ab=True)  # in place: no copy
        if info != 0:
            raise SolverError(f"banded factorization failed (gbtrf info={info})")
        # the fill-in decays along the band into subnormal parts, which slow
        # every gbtrs several times over; below `tiny` they are zero to the
        # solve's precision (the residual guard of each step still checks it)
        for part in (lu.real, lu.imag):
            part[np.abs(part) < np.finfo(float).tiny] = 0.0
        self._lu, self._ipiv, self._gbtrs = lu, ipiv, gbtrs

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve A x = rhs for a field rhs of shape (2, N), the unknown of
        node j and component c at rhs[c, j], or for each field of a
        (2, ..., N) batch; x has the shape of rhs."""
        # one field is one vector; a batch is one column per field
        n_nodes = rhs.shape[-1]
        b = (rhs.reshape(self.n) if rhs.ndim == 2
             else rhs.reshape(2, -1, n_nodes).transpose(0, 2, 1).reshape(self.n, -1))
        y, info = self._gbtrs(self._lu, _KL, _KU, b[self._order], self._ipiv)
        if info != 0:
            raise SolverError(f"banded solve failed (gbtrs info={info})")
        x = np.empty_like(y)
        x[self._order] = y
        return x.reshape(2, n_nodes, -1).transpose(0, 2, 1).reshape(rhs.shape)
