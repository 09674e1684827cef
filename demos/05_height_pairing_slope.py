"""The height pairing, its log slope, and the pseudoinverse prediction.

Sweeping the pairing over L and fitting an affine law in log|s|^2 = -2L
recovers the intersection-matrix constant to many digits.  Over s = t^d each
node becomes a chain of d - 1 exceptional curves; the family built that way
has its slope in log|t|^2 rescaled by the degree.
"""

import numpy as np

from pinchlab import (
    FamilyConfig,
    build_chain,
    cycle_graph,
    density_from_callable,
    density_from_spec,
    fit_log_asymptote,
    neck_wave_profile,
    pairing_sweep,
    predicted_constant,
    step_density_spec,
)

cfg = FamilyConfig(n_components=2)
spec = step_density_spec([2.0, -2.0])
builder = lambda chain: density_from_spec(spec, chain)

print("== I_2 hand case ==")
curve = pairing_sweep(cfg, builder, builder, np.geomspace(50, 200, 10),
                      resolution=48)
fit = fit_log_asymptote(curve)
chain = build_chain(cfg, 200.0, resolution=48)
pred = predicted_constant(cycle_graph(cfg.area_vector()),
                          builder(chain), builder(chain))
print(f"c_fit      = {fit.c_fit:+.12f}")
print(f"c_predicted= {pred:+.12f}")
print(f"intercept  = {fit.intercept:+.6f}, residual rms = {fit.residual_rms:.2e}")

print("\n== base change s = t^3 ==")
# each component is followed by two exceptional curves of area 0.1, density 0
t_cfg = FamilyConfig(n_components=6, areas=(0.5, 0.1, 0.1, 0.5, 0.1, 0.1))
t_spec = step_density_spec([2.0, 0.0, 0.0, -2.0, 0.0, 0.0])
t_builder = lambda chain: density_from_spec(t_spec, chain)
t_grid = np.array([20.0, 30.0, 45.0, 65.0])
c_s = fit_log_asymptote(pairing_sweep(cfg, builder, builder, 3 * t_grid, resolution=32),
                        (60.0, 195.0)).c_fit
c_t = fit_log_asymptote(pairing_sweep(t_cfg, t_builder, t_builder, t_grid, resolution=32),
                        (20.0, 65.0)).c_fit
print(f"slope in t = {c_t:+.12f}")
print(f"3 x slope in s = {3 * c_s:+.12f}")

print("\n== a pair that never blows up: neck-supported waves ==")
nb = lambda chain: density_from_callable(neck_wave_profile(chain, 0), chain)
curve = pairing_sweep(cfg, nb, nb, np.geomspace(25, 200, 9), resolution=32)
print("values * L:", np.round(curve.values * curve.L, 4))
print("last values:", " ".join(f"{v:.3e}" for v in curve.values[-3:]), "(about 2/L)")
