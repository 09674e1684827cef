"""Log-weighted integrals over the local node family {z1 z2 = t}.

The integral of log|z1|^2 against a density grows like A log|t|^2 where A is
the density's mass on the branch {z1 = 0}; the remainder after removing the
affine law dies like |t| log^2|t|.
"""

import math

import numpy as np

from pinchlab.nodeintegral import (
    EtaSpec,
    asymptote_fit,
    constant_eta,
    fiber_annulus_integral,
    fiber_integral,
    sample_curve,
)

eta = constant_eta()
print("== constant density: slope must be pi ==")
curve = sample_curve(eta, np.geomspace(1e-2, 1e-6, 9))
fit = asymptote_fit(curve, eta)
for t, v, r in zip(np.abs(curve.t), curve.values, fit.remainder_ratios):
    print(f"|t|={t:.1e}  I={v:12.6f}  remainder_ratio={r:.2e}")
print(f"A_fit = {fit.A_fit:.10f} vs A_ref = {fit.A_ref:.10f} (pi = {math.pi:.10f})")
print("remainder/(|t| log^2|t|) bounded:", fit.remainder_bounded)

print("\n== the split radius is bookkeeping, not mathematics ==")
for gamma in (1.0, 2.0, 4.0):
    print(f"split at {gamma} sqrt|t|:",
          fiber_annulus_integral(eta, 1e-4, split_factor=gamma))

print("\n== a density vanishing on the branch kills the slope ==")
eta2 = EtaSpec({(2, 2): ((1, 1, 0, 0, 1.0),)})   # |z1|^2
fit2 = asymptote_fit(sample_curve(eta2, np.geomspace(1e-2, 1e-6, 9)), eta2)
print(f"A_fit = {fit2.A_fit:+.2e} (reference {fit2.A_ref:.1f})")

print("\n== plain fiber integrals extend continuously ==")
for t in np.geomspace(1e-2, 1e-6, 7):
    J = fiber_integral(eta, t)
    print(f"|t|={t:.1e}  J={J:.12f}  pi - J={math.pi - J:.2e}")
