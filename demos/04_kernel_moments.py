"""Kernel moment walkthrough: closed forms against adaptive quadrature.

The power-difference kernels weight the spectral measure in the recovery
route.  Their two moment families have closed forms; here both are checked
against an independent quadrature (adaptive rule plus analytic tail), and
the universal radial factor -2(pi - phi), i times the order-n kernel's
mu^(n-1) moment, is reproduced by quadrature for two kernel orders.
"""

import cmath
import math

from weylsys import (
    kernel_moment_closed,
    kernel_moment_numeric,
    radial_factor,
)

print("moment integrals: closed form vs quadrature")
print(f"{'n':>3} {'phi':>8} {'power':>6} {'closed':>24} {'abs err':>10}")
for n in (2, 3, 5):
    for phi in (math.pi / 6, math.pi / 2, 5 * math.pi / 6):
        z = cmath.exp(1j * phi)
        for power in (n, n - 1):
            closed = kernel_moment_closed(n, z, power)
            numeric = kernel_moment_numeric(n, z, power)
            print(
                f"{n:3d} {phi:8.4f} {power:6d} "
                f"{closed.real:+11.6f}{closed.imag:+11.6f}j "
                f"{abs(closed - numeric):10.2e}"
            )

print()
print("radial factors: numeric moments vs -2(pi - phi), order-independent")
print(f"{'phi':>8} {'target':>12} {'n = 3':>12} {'n = 5':>12} {'neg sheet':>12}")
for phi in (0.5, 1.2, 2.0, 2.9):
    target = -2.0 * (math.pi - phi)
    z = cmath.exp(1j * phi)
    n3, n5 = ((1j * kernel_moment_numeric(n, z, n - 1)).real for n in (3, 5))
    print(
        f"{phi:8.4f} {target:12.8f} {n3:12.8f} "
        f"{n5:12.8f} {radial_factor(2, phi, -1):12.8f}"
    )

print()
print("Positive sheets carry the -2(pi - phi) factor; negative sheets carry")
print("a factor proportional to phi itself and vanish from the small-angle")
print("limit, which is what isolates the upward-counting branch.")
