"""Ground-truth walkthrough: spectra, smoothed counting, asymptotic fits.

Assembles the twisted system in the Fourier basis at growing truncation,
solves for the full spectrum, convolves the pointwise counting measure
with the band-limited mollifier, and fits the two-term growth law.  The
fitted second coefficient converges to the direct symbolic value as the
truncation grows.
"""

import math

import numpy as np

from weylsys import (
    assemble_and_solve,
    build_model,
    build_mollifier,
    fit_weyl,
    local_counting_mollified,
    weyl_coefficients,
)
from weylsys.torus import plateau_transform

TWO_PI = 2.0 * math.pi

model = build_model("twisted", {"eps": 0.1})
lead, sub = model.symbol_fields()
xs = [np.array([TWO_PI * i / 8.0, 0.0]) for i in range(8)]
avg_direct = float(np.mean([weyl_coefficients(lead, sub, x).a_second_plus for x in xs]))
print(f"direct x-averaged second coefficient: {avg_direct:+.8f}")
print()

moll = build_mollifier(3.0)
plateau = plateau_transform(np.linspace(0.0, moll.support / 2.0, 101), moll.support)
print(f"mollifier: support {moll.support}, transform 1 on [0, T/2]: "
      f"{bool(np.all(plateau == 1.0))}, so mass 1 and moments 1-6 vanish; "
      f"rho(0) = {float(moll(0.0)):.4f}")
print()

print(f"{'K':>4} {'dim':>6} {'trusted':>8} {'avg a1 fit':>12} "
      f"{'avg a0 fit':>12} {'a0 error':>10}")
for K in (16, 24, 32):
    spectrum = assemble_and_solve(model, K, xs)
    mu_hi = 0.6 * K
    mu = np.arange(3.0, mu_hi + 0.025, 0.05)
    a1s, a0s = [], []
    for i in range(len(xs)):
        samples = local_counting_mollified(spectrum, moll, i, mu)
        fit = fit_weyl(samples, 2, (3.0, mu_hi), mollifier=moll)
        a1s.append(fit.a_leading)
        a0s.append(fit.a_second)
    avg_a0 = float(np.mean(a0s))
    print(
        f"{K:4d} {2 * (2 * K + 1) ** 2:6d} {spectrum.trusted_max:8.1f} "
        f"{np.mean(a1s):12.8f} {avg_a0:+12.8f} {abs(avg_a0 - avg_direct):10.2e}"
    )

print()
print("The error column shrinks monotonically: the smoothed spectral data")
print("converge onto the symbolic prediction as the truncation grows.")
