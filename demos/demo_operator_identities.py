"""Weak-form identities of the nonlocal p-Laplace operator.

The seminorm, the weak operator action and the assembled p = 2 stiffness all
share one quadrature plan, so the coercivity identity and the stiffness
consistency hold to rounding accuracy, while the monotonicity inequality
holds pointwise at every quadrature node.
"""

import numpy as np

from fracsplap import (
    DomainSpec,
    FracOperatorParams,
    apply_A1_weak,
    assemble_frac_stiffness,
    build_space,
    gagliardo_seminorm,
)

rng = np.random.default_rng(0)
space = build_space(DomainSpec(), 32, 32)

print("scalar monotonicity (|a|^{p-2}a - |b|^{p-2}b)(a-b) >= 2^{1-p}|a-b|^p:")
a, b = np.random.default_rng(1).uniform(-10.0, 10.0, (2, 100_000))
for p in (2.0, 3.0, 4.0, 6.0):
    slack = (np.abs(a) ** (p - 2) * a - np.abs(b) ** (p - 2) * b) * (a - b) - 2.0 ** (1 - p) * np.abs(a - b) ** p
    print(f"  p = {p}: worst slack over {a.size} pairs = {slack.min():.3e}  (>= 0 up to rounding)")

print("\ncoercivity identity <A1 v, v> = -(C/2) [v]^p (shared quadrature):")
for p in (2.0, 3.0, 4.0):
    params = FracOperatorParams(s=0.5, p=p)
    v = rng.standard_normal(32)
    lhs = apply_A1_weak(space, v, v, params)
    rhs = -0.5 * params.c_kernel * gagliardo_seminorm(space, v, params) ** p
    print(f"  p = {p}: lhs = {lhs:+.10e}, relative gap = {abs(lhs - rhs) / abs(rhs):.2e}")

print("\noperator monotonicity <A1 u - A1 v, u - v> <= -2^{1-p} C [u-v]^p:")
for p in (2.0, 3.0, 4.0):
    params = FracOperatorParams(s=0.5, p=p)
    worst = -np.inf
    for _ in range(50):
        u, v = rng.standard_normal((2, 32))
        gap = apply_A1_weak(space, u, u - v, params) - apply_A1_weak(space, v, u - v, params)
        bound = -(2.0 ** (1.0 - p)) * params.c_kernel * gagliardo_seminorm(space, u - v, params) ** p
        worst = max(worst, gap - bound)
    print(f"  p = {p}: worst (lhs - bound) over 50 pairs = {worst:.3e}  (<= 0 up to rounding)")

params2 = FracOperatorParams(s=0.5, p=2.0)
S = assemble_frac_stiffness(space, params2)
v, u = rng.standard_normal((2, 32))
print("\np = 2 stiffness consistency:")
print(f"  max |S - S^T|        = {np.max(np.abs(S - S.T)):.2e}")
print(f"  |<A1 v,u> + u^T S v| = {abs(apply_A1_weak(space, v, u, params2) + u @ (S @ v)):.2e}")
from scipy.linalg import eigh

print(f"  smallest generalized eigenvalue of (S, M): {eigh(S, space.mass_matrix, eigvals_only=True)[0]:.6f} > 0")
