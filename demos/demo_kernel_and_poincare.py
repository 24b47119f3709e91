"""Kernel constant and discrete Poincare estimates.

The kernel constant C(n, p, s) normalizes the singular interaction kernel
|x-y|^{-(n+ps)}; the Poincare constant lets the Gagliardo seminorm control
the L^p norm on functions vanishing outside the domain.  For p = 2 the
discrete constant is the smallest generalized eigenvalue of the seminorm
Gram matrix and is exact for the retained mode span; for p != 2 we report
the best Rayleigh quotient found by sampling plus gradient refinement.
"""

import numpy as np

from fracsplap import DomainSpec, FracOperatorParams, FracQuadrature, build_space, kernel_constant, poincare_constant

print("kernel constant C(n, p, s):")
for n, p, s in [(1, 2.0, 0.5), (1, 2.0, 0.25), (1, 3.0, 0.6), (2, 3.0, 0.4)]:
    print(f"  C({n}, {p}, {s}) = {kernel_constant(n, p, s):.12f}")
print(f"  (C(1, 2, 0.5) equals 1/pi = {1 / np.pi:.12f})")

quad = FracQuadrature()
domain = DomainSpec()

print("\ncertified p = 2 estimates, two meshes (full span):")
for m in (32, 64):
    space = build_space(domain, m, m)
    for s in (0.3, 0.5, 0.7):
        est = poincare_constant(space, FracOperatorParams(s=s, p=2.0), quad)
        print(f"  m = {m:3d}, s = {s}: lambda_hat = {est.value:.6f} (certified = {est.certified})")

print("\nsubspace monotonicity on one mesh (m = 32, s = 0.5):")
space = None
for k in (8, 16, 32):
    space = build_space(domain, 32, k)
    est = poincare_constant(space, FracOperatorParams(s=0.5, p=2.0), quad)
    print(f"  n_modes = {k:2d}: lambda_hat = {est.value:.6f}")
print("  (enlarging the span can only lower the minimum Rayleigh quotient)")

print("\nheuristic estimate for p = 3 (reported as a heuristic, not certified):")
space = build_space(domain, 24, 12)
est = poincare_constant(space, FracOperatorParams(s=0.5, p=3.0), quad)
print(f"  lambda_hat = {est.value:.6f} (certified = {est.certified})")
