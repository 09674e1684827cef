"""Fiberwise translations: Birkhoff limits and the quadratic obstruction.

Birkhoff averages of a synthesized observable converge to the limit
potential at rate 2 sup|phi| / k; pushing a curvature density forward n
times makes its base Laplacian grow exactly like n^2 |dT|^2, which is the
reason the normalized pushforwards cannot converge locally uniformly.
"""

import math

import numpy as np

from pinchlab.dynamics import (
    TorusFibration,
    annulus_samples,
    birkhoff_limit,
    flat_potential_identity,
    limit_potential_relation,
    pushforward_growth,
    synthesize_invariant_observable,
)

TWO_PI = 2 * math.pi
fib = TorusFibration(t_coeffs=(0, 1),
                     s_samples=annulus_samples(0.5, 1.5, 2, 4), fiber_n=64)

print("== Birkhoff averages of f = pi*u + phi - T_* phi ==")
u = lambda s: s.real
phi = lambda s, A, B: 0.3 * np.sin(TWO_PI * A) * np.cos(TWO_PI * B)
f, sup_phi = synthesize_invariant_observable(fib, u, phi)
run = birkhoff_limit(fib, f, 10_000, u_ref=u)
for i, k in enumerate(run.ks):
    print(f"k={k:6d}  sup|S_k/k - u| = {np.max(run.sup_deviation[i]):.2e}"
          f"  (bound 2 sup|phi|/k = {2 * sup_phi / k:.2e})")
print("sup bound |u| <= sup|f| holds:", run.tate_bound_ok)

print("\n== quadratic growth of the pushforward curvature ==")
gfib = TorusFibration(t_coeffs=(0, 1), s_samples=(1.0 + 0j,), fiber_n=64)
rho = lambda s, A, B: np.sin(TWO_PI * A) * np.sin(TWO_PI * B)
rep = pushforward_growth(gfib, rho, [64, 128, 256, 512, 1024], 1.0 + 0j)
for n, v in zip(rep.n_list, rep.sup_values):
    print(f"n={n:5d}  sup|d_s d_sbar T^n_* rho| = {v:14.3f}  v/n^2 = {v / n**2:.6f}")
print(f"fitted exponent {rep.exponent:.4f}; coefficient {rep.coefficient:.6f} vs "
      f"|dT|^2 sup|d_z d_zbar rho| = {rep.expected_coefficient:.6f}")

print("\n== potential identities ==")
rho2 = lambda s, A, B: 0.05 * np.cos(TWO_PI * A) + 0.03 * np.sin(TWO_PI * (A + B))
print("flat-metric identity defect:", flat_potential_identity(fib, rho2))
alpha = lambda s, A, B: (1 + 0.5 * s.real) * np.cos(TWO_PI * A)
rel = limit_potential_relation(fib, alpha, rho2,
                               f_fiber_mean=lambda s: 0.2 * abs(s))
print("limit potential vs pairing discrepancy:", rel.max_discrepancy)
print("u samples:", np.round(rel.u_samples, 6))
