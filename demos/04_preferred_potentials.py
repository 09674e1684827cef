"""Preferred potentials: two solve routes and the growth split.

A density with nonzero component integrals forces flux through the necks,
so its potential grows linearly in L; densities that vanish on every
component have bounded potentials with an o(sqrt(L)) low-frequency part.
"""

import numpy as np

from pinchlab import (
    FamilyConfig,
    build_chain,
    cosine_bump_profile,
    density_from_callable,
    density_from_spec,
    estimate_report,
    full_spectrum,
    solve_direct,
    solve_spectral,
    step_density_spec,
)

cfg = FamilyConfig(n_components=2)
chain = build_chain(cfg, 100.0, resolution=48)
step = density_from_spec(step_density_spec([2.0, -2.0]), chain)

print("== direct vs spectral route ==")
eigsys = full_spectrum(chain, m_max=1, k_per_mode=chain.n_nodes)
direct = solve_direct(chain, step)
spectral, b = solve_spectral(chain, step, eigsys)
print("sup|phi| =", direct.sup_norm(), " (circuit oracle: L/2 = 50)")
print("max route difference:", np.abs(direct.phi - spectral.phi).max())
print("first expansion coefficients b_i:", np.round(b[:4], 6))

print("\n== growth of the two density classes ==")
table = estimate_report(
    cfg, [20.0, 50.0, 100.0, 200.0],
    lambda ch: density_from_spec(step_density_spec([2.0, -2.0]), ch),
    resolution=32,
)
print("step density (nonzero component integrals):")
for row in table.rows:
    print(f"  L={row.L:5.0f} sup_low/L={row.sup_low_over_L:.4f} "
          f"sup_high={row.sup_high:.4f}")

table = estimate_report(
    cfg, [20.0, 50.0, 100.0, 200.0],
    lambda ch: density_from_callable(cosine_bump_profile(ch, 0), ch),
    resolution=32,
)
print("bump density (zero component integrals):")
for row in table.rows:
    print(f"  L={row.L:5.0f} sup_low/sqrt(L)={row.sup_low_over_sqrtL:.6f} "
          f"sup_high={row.sup_high:.4f}")
print("the bump's low part dies against sqrt(L); the step's grows like L")
