"""Recovery walkthrough: angle-resolved coefficients and their inversion.

The traced resolvent symbol, weighted by the power-difference kernels and
integrated over momentum, produces two angle-resolved coefficients b1 and
b0.  b0 is affine in the angle; its intercept-slope structure separates the
two spectral branches, so either two angles or a small-angle extrapolation
recovers the second coefficient density.  Negative sheets enter with a
radial factor proportional to the angle and fade out of the limit.
"""

import math

import numpy as np

from weylsys import (
    b_profile,
    build_model,
    expansion_b_coefficients,
    recover_second_weyl,
)

model = build_model("twisted", {"eps": 0.1})
lead, sub = model.symbol_fields()
x = np.array([0.9, 0.0])

prof = b_profile(lead, sub, x)
coeffs = prof.coefficients  # the direct coefficients, from the same panel
print("b0 as a function of the angle (affine):")
print(f"{'phi':>8} {'b1':>14} {'b0':>14} {'b0 sheet +1':>14} {'b0 sheet -1':>14}")
for phi in (0.1, 0.4, 0.8, 1.6, 2.4, 3.0):
    print(
        f"{phi:8.3f} {prof.b1(phi):14.8f} {prof.b0(phi):14.8f} "
        f"{prof.b0_sheet(phi, 1):14.8f} {prof.b0_sheet(phi, -1):14.8f}"
    )

direct = coeffs.a_second_plus
two = recover_second_weyl(
    {phi: prof.b0(phi) for phi in (math.pi / 4, 3 * math.pi / 4)}, "two-angle"
)
lim = recover_second_weyl({phi: prof.b0(phi) for phi in (0.2, 0.1, 0.05)}, "limit")
print()
print(f"direct second coefficient : {direct:+.10f}")
print(f"two-angle recovery        : {two:+.10f}")
print(f"small-angle extrapolation : {lim:+.10f}")

phi = 1.2
b1_closed, b0_closed = expansion_b_coefficients(
    coeffs.a_first_plus, coeffs.a_first_minus,
    coeffs.a_second_plus, coeffs.a_second_minus, 2, phi,
)
print()
print(f"closed-form cross-check at phi = {phi}:")
print(f"  b1 pipeline {prof.b1(phi):+.10f}  closed {b1_closed:+.10f}")
print(f"  b0 pipeline {prof.b0(phi):+.10f}  closed {b0_closed:+.10f}")
