"""Whole-space runs on a horizon-padded interval.

A Gaussian wavepacket radiates outgoing waves at speed ~1, so a whole-space
simulation up to t = 1/eps needs the computational interval padded by the
horizon on both sides before periodic boundaries are safe.  This script
shows the padded domains, runs CNFD on two meshes, and prints the errors
at t = 1/eps against a fine split-step reference.
"""

from dirac1d import ReferenceConfig, convergence_table, preset

for eps in (1.0, 0.25):
    grid = preset("whole-space-s52", eps).grid_for_mesh(1.0 / 16.0)
    print(f"eps = {eps:g}: interval ({grid.a:g}, {grid.b:g}), N = {grid.N} at h = 1/16")

setup = preset("whole-space-s52", 1.0)
table = convergence_table(
    setup, "cnfd", eps_list=[1.0, 0.25], h0=1.0 / 16.0, tau0=0.05, levels=2,
    reference=ReferenceConfig(h_e=1.0 / 512.0, tau_e=1e-4),
)
e = table.errors("e_phi")
print("\nwave-function errors at t = 1/eps (CNFD):")
print(f"{'eps':>6s} {'h0 = 1/16':>12s} {'h0/2':>12s}")
for i, eps in enumerate(table.eps_list):
    print(f"{eps:6g} {e[i, 0]:12.3e} {e[i, 1]:12.3e}")
