"""Intersection matrices of degenerate fibers and the slope constant.

Walks through the combinatorial side of the lab: build dual graphs from the
catalog, check the sign/kernel structure, and evaluate the pseudoinverse
formula that predicts the logarithmic slope of the height pairing.
"""

import numpy as np

from pinchlab import (
    build_intersection_matrix,
    kodaira_catalog,
    pairing_constant,
    pseudoinverse,
    random_reduced_graph,
    validate_zariski,
)

print("== catalog fibers ==")
for tag in ["I_1", "I_2", "I_4", "I_0*", "II", "III", "IV"]:
    g = kodaira_catalog(tag)
    M = build_intersection_matrix(g)
    rep = validate_zariski(M, g.multiplicities)
    print(f"{tag:5s} N={g.n} multiplicities={list(g.multiplicities)} "
          f"max_eig={rep.max_eigenvalue:+.1e} kernel_dim={rep.kernel_dimension} "
          f"ok={rep.passed}")

print("\n== the I_2 slope constant by hand ==")
M = build_intersection_matrix(kodaira_catalog("I_2"))
P = pseudoinverse(M)
print("M =\n", M)
print("M^+ =\n", P)
c = pairing_constant(P, [1.0, -1.0], [1.0, -1.0])
print("c(v, v) for v = (1, -1):", c, " (the hand value is -1/2)")

print("\n== random reduced fibers keep the Zariski structure ==")
for seed in range(4):
    g = random_reduced_graph(6, seed=seed)
    M = build_intersection_matrix(g)
    rep = validate_zariski(M, g.multiplicities)
    rng = np.random.default_rng(seed)
    v = rng.normal(size=6)
    v -= v.mean()
    quad = float(v @ pseudoinverse(M) @ v)
    print(f"seed {seed}: zariski_ok={rep.passed}  v^T M^+ v = {quad:+.4f} (<= 0)")
