"""TSFP's resonant steps: a fine scan of tau at eps = 2^-10 (t = 2048), N = 32.

Bao, Feng & Yin (MMS 2022) bound the Strang-split TSFP error by
O(h^m + eps tau^2) up to t = T0/eps for steps below a non-resonance
threshold.  This scan runs tsfp at tau = 2048/n for n = 600 .. 5996 (stride
4, tau = 3.41 .. 0.34) and compares it with the FP flow exact in time
("exfp") at the same N, so only the time error is left.  It prints
e_phi / (eps tau^2) for every step, then each spike: a step whose ratio is
more than SPIKE times the median, with the nearest resonant step
2 pi / (delta_l + delta_m) of two free modes, delta_l = sqrt(1 + l^2).
"""

import numpy as np

from dirac1d import make_stepper, measure_errors, preset

EPS, N = 2.0 ** -10, 32
STEPS = range(600, 5997, 4)
SPIKE = 4.0

problem = preset("periodic-s51", EPS).discretize(N=N)
t = problem.t_final
exact = make_stepper("exfp", problem, t)
exact.propagate(1)

ratios = []
print("n,tau,e_phi/(eps tau^2)")
for n in STEPS:
    tau = t / n
    tsfp = make_stepper("tsfp", problem, tau)
    tsfp.propagate(n)
    ratios.append(measure_errors(tsfp.phi, exact.phi).e_phi / (EPS * tau ** 2))
    print(f"{n},{tau:.6g},{ratios[-1]:.4g}")

delta = np.sqrt(1.0 + np.arange(N // 2 + 1) ** 2)
resonances = [(2 * np.pi / (delta[l] + delta[m]), l, m)
              for l in range(len(delta)) for m in range(l, len(delta))]
median = float(np.median(ratios))
print(f"\n{len(ratios)} steps, median ratio {median:.3g}; spikes above {SPIKE:g}x the median:")
print("  tau      ratio   nearest 2 pi/(delta_l + delta_m)   l  m")
for j, (n, ratio) in enumerate(zip(STEPS, ratios)):
    neighbours = ratios[max(j - 1, 0):j + 2]
    if ratio > SPIKE * median and ratio == max(neighbours):
        tau = t / n
        res, l, m = min(resonances, key=lambda r: abs(r[0] - tau))
        print(f"  {tau:.4f}  {ratio:7.1f}  {res:.4f}                             {l:2d} {m:2d}")
