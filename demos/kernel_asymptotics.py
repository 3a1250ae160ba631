"""The growth machinery under the hood: weight ratios and kernel sums.

Three ingredients make the critical-rate arguments quantitative. A ratio
comparing d_n to the Stirling-style profile x^x e^(-x) stays in a two-sided
band. A kernel mean ratio stays bounded along radii. And the generalized
exponential kernel matches its one-term asymptotic at large radius.

Run with: python3 demos/kernel_asymptotics.py
"""

import mpmath
from mpmath import mp, mpf

from dunkldyn import (
    DunklWeights,
    barnes_asymptotic,
    lemma1_ratio,
    lemma3_on_grid,
    mittag_leffler,
    standard_r_grid,
)

mp.prec = 256  # importing dunkldyn leaves the precision at mpmath's 53 bits

print("weight comparison ratio, extremes over n <= 2000:")
for alpha_s in ("0", "0.5", "1"):
    w = DunklWeights(mpf(alpha_s), 2000)
    ratios = [lemma1_ratio(n, w) for n in range(2001)]
    print(f"  alpha = {alpha_s:>3s}: band [{mpmath.nstr(min(ratios), 8)}, "
          f"{mpmath.nstr(max(ratios), 8)}]")

print("\nkernel mean ratio, sup over 64 radii in [0.1, 200]:")
grid = standard_r_grid(mpf("0.1"), mpf(200), 64)
for q_s in ("1", "2"):
    w = DunklWeights(mpf(0), 1024)
    sup = max(lemma3_on_grid(grid, mpf(q_s), w))
    print(f"  q = {q_s}: sup = {mpmath.nstr(sup, 8)}")

print("\ngeneralized exponential kernel against its leading asymptotic:")
ml_alpha, theta, beta = mpf(2), mpf(1), mpf(1)
for exponent in (2, 3, 4, 5):
    r = mpf(10) ** exponent
    value = mittag_leffler(r, ml_alpha, theta, beta)
    leading = barnes_asymptotic(r, ml_alpha, theta, beta)
    resid = value / leading - 1
    print(f"  r = 1e{exponent}: ratio - 1 = {mpmath.nstr(resid, 4)} "
          f"(about r^(-1/2) = {mpmath.nstr(r ** mpf('-0.5'), 4)})")
print("the residual tracks r^(-1/2), the predicted correction order")
