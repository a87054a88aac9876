"""Spatial resolution to t = T0/eps: the smallest N that keeps e_phi under a
tolerance, for the centered difference (FD) and the Fourier derivative (FP).

Both operators step exactly in time ("exfd", "exfp": one eigh of K each),
so a cell's error is spatial alone.  The sweeps run N = 8 .. 256 against an
exfp reference at N_e = 512 for eps = 1 .. 1/64, tau = 2 (a whole step of
every horizon 2/eps), on two worker processes; one reference config serves
both, so the FP sweep reuses the FD sweep's references.  FP also runs
eps = 2^-8 and 2^-10 against N_e = 128.

FD needs N growing like eps^(-1/2), 64, 64, 128, 256 at tol 0.1, and
reaches no tol of 1e-4 by N = 256; FP needs N = 32 at tol 1e-4 for every
eps.  Writes spatial_resolution.csv, one row per (eps, space, tol): N_min,
empty when no N up to 256 reaches tol, and e_phi there.  About 4 s.
"""

import numpy as np

from dirac1d import ReferenceConfig, epsilon_sweep_spatial, preset

EPS = [1.0, 1 / 4, 1 / 16, 1 / 64]
SMALL_EPS = [2.0 ** -8, 2.0 ** -10]
TOLS = (0.1, 1e-4)


def sweep(scheme, eps_list, levels, reference):
    return epsilon_sweep_spatial(preset("periodic-s51", 1.0), scheme, eps_list, 2 * np.pi / 8,
                                 levels, 2.0, reference=reference, workers=2)


def rows(space, table):
    """(eps, space, tol, N_min, e_phi at N_min) per eps row and tol."""
    for tol in TOLS:
        for i, eps in enumerate(table.eps_list):
            cells = [table.cell(i, k) for k in range(table.levels)]
            hit = next((c for c in cells if c.e_phi <= tol), None)
            n_min = "" if hit is None else str(round(2 * np.pi / hit.h))
            e_phi = "" if hit is None else f"{hit.e_phi:.6g}"
            yield f"{eps:.10g},{space},{tol:g},{n_min},{e_phi}"


def main():
    reference = ReferenceConfig("exfp", h_e=2 * np.pi / 512, min_space_ratio=2)
    fd, fp = (sweep(scheme, EPS, 6, reference) for scheme in ("exfd", "exfp"))
    small = sweep("exfp", SMALL_EPS, 4,
                  ReferenceConfig("exfp", h_e=2 * np.pi / 128, min_space_ratio=2))
    lines = ["eps,space,tol,N_min,e_phi", *rows("FD", fd), *rows("FP", fp), *rows("FP", small)]
    csv = "\n".join(lines) + "\n"
    print(csv)
    with open("spatial_resolution.csv", "w", newline="") as fh:
        fh.write(csv)
    print("wrote spatial_resolution.csv (columns: eps, space, tol, N_min, e_phi at N_min)")


if __name__ == "__main__":
    main()
