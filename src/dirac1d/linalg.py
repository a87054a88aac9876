"""Direct solver for cyclic block-tridiagonal systems with 2x2 blocks.

The matrix has per-node diagonal blocks D_j and constant off-diagonal
blocks B+ (coupling to node j+1) and B- (to node j-1), with periodic wrap
blocks at (0, N-1) and (N-1, 0).  The wrap is split off as a block-rank-2
update A = A_band + U W, the banded interior is LU-factorized once
(LAPACK gbtrf, bandwidth 3 in scalar form), and each solve costs one
banded back-substitution plus a 4x4 capacitance correction.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import get_lapack_funcs, lu_factor, lu_solve

from .errors import SolverError

_KL = 3
_KU = 3


def _band_row(i_minus_j: int) -> int:
    # gbtrf storage: entry (i, j) sits at row kl + ku + i - j
    return _KL + _KU + i_minus_j


class CyclicBlockTridiagSolver:
    """Factor-once / solve-many for the periodic 2x2-block tridiagonal system."""

    def __init__(self, diag: np.ndarray, b_plus: np.ndarray, b_minus: np.ndarray):
        diag = np.asarray(diag, dtype=np.complex128)
        n_blocks = diag.shape[0]
        if diag.shape != (n_blocks, 2, 2):
            raise SolverError(f"diag blocks must have shape (N, 2, 2), got {diag.shape}")
        if n_blocks < 3:
            raise SolverError("need at least 3 blocks for the cyclic split")
        self.n = 2 * n_blocks
        bp = np.asarray(b_plus, dtype=np.complex128)
        bm = np.asarray(b_minus, dtype=np.complex128)

        ab = np.zeros((2 * _KL + _KU + 1, self.n), dtype=np.complex128)
        even = np.arange(0, self.n, 2)
        odd = even + 1
        # diagonal blocks
        ab[_band_row(0), even] = diag[:, 0, 0]
        ab[_band_row(-1), odd] = diag[:, 0, 1]
        ab[_band_row(1), even] = diag[:, 1, 0]
        ab[_band_row(0), odd] = diag[:, 1, 1]
        # B+ blocks (j, j+1), j = 0..N-2: rows 2j,2j+1 against cols 2j+2,2j+3
        ab[_band_row(-2), even[1:]] = bp[0, 0]
        ab[_band_row(-3), odd[1:]] = bp[0, 1]
        ab[_band_row(-1), even[1:]] = bp[1, 0]
        ab[_band_row(-2), odd[1:]] = bp[1, 1]
        # B- blocks (j, j-1), j = 1..N-1: rows 2j,2j+1 against cols 2j-2,2j-1
        ab[_band_row(2), even[:-1]] = bm[0, 0]
        ab[_band_row(1), odd[:-1]] = bm[0, 1]
        ab[_band_row(3), even[:-1]] = bm[1, 0]
        ab[_band_row(2), odd[:-1]] = bm[1, 1]

        gbtrf, gbtrs = get_lapack_funcs(("gbtrf", "gbtrs"), (ab,))
        lu, ipiv, info = gbtrf(ab, _KL, _KU)
        if info != 0:
            raise SolverError(f"banded factorization failed (gbtrf info={info})")
        self._lu, self._ipiv, self._gbtrs = lu, ipiv, gbtrs
        self._bp, self._bm = bp, bm

        # wrap blocks as A_band + U W with U = [e0 e1 | e_{n-2} e_{n-1}]
        unit = np.zeros((self.n, 4), dtype=np.complex128)
        unit[0, 0] = unit[1, 1] = unit[self.n - 2, 2] = unit[self.n - 1, 3] = 1.0
        z, info = gbtrs(lu, _KL, _KU, unit, ipiv)
        if info != 0:
            raise SolverError(f"banded solve failed (gbtrs info={info})")
        self._z = z
        cap = np.eye(4, dtype=np.complex128)
        cap[0:2, :] += bm @ z[self.n - 2:self.n, :]
        cap[2:4, :] += bp @ z[0:2, :]
        try:
            self._cap_lu = lu_factor(cap)
        except Exception as exc:  # singular capacitance: wrapped matrix singular
            raise SolverError(f"cyclic correction is singular: {exc}") from exc

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve A x = rhs for a right-hand side of length 2N, or for each
        column of a (2N, k) array."""
        y, info = self._gbtrs(self._lu, _KL, _KU, rhs, self._ipiv)
        if info != 0:
            raise SolverError(f"banded solve failed (gbtrs info={info})")
        wy = np.concatenate((self._bm @ y[self.n - 2:self.n], self._bp @ y[0:2]))
        return y - self._z @ lu_solve(self._cap_lu, wy)
