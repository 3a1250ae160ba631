"""Frequent visits need periodic schedules; sparse orbits cannot keep up.

A frequently visiting orbit must return to each target along a set of steps
of positive density. The builder interleaves blocks for J targets on
disjoint residue classes, and the diagnostics measure how often the orbit
actually lands near each target. The density decay check then shows the
obstruction on the other side: sparse single-target builds have vanishing
event density.

Run with: python3 demos/frequent_visits.py
"""

from fractions import Fraction

import mpmath
from mpmath import mp, mpf

from dunkldyn import (
    BuilderConfig,
    DunklWeights,
    RateEnvelope,
    build_frequently_hypercyclic,
    build_hypercyclic,
    density_decay_check,
    frequency_report,
    poly_label,
)

mp.prec = 256  # importing dunkldyn leaves the precision at mpmath's 53 bits

alpha = mpf(1)
w = DunklWeights(alpha, n_max=4096)
env = RateEnvelope.log_growth()

f, schedule = build_frequently_hypercyclic(w, p=mpf(2), env=env, J=3)
print(f"schedule starts at step {schedule.m_0}, block width {schedule.block_width}")
for j, q in enumerate(schedule.targets, 1):
    pos = schedule.positions(j)
    first = next(iter(pos))
    print(f"  target {poly_label(q):>2s}: every {schedule.block_width * 2 ** j} steps "
          f"from {first}, nominal density {schedule.nominal_density(j)}")

report = frequency_report(f, schedule, w, N_window=2048, eps=mpf("0.1"), R=mpf(1))
print("\nmeasured hit densities over the first 2048 steps (eps = 0.1 on |z| <= 1):")
for j in range(3):
    print(f"  target {j + 1}: {report.densities[j]:.4f} "
          f"(nominal {report.nominal[j]:.4f}, {report.counts[j]} hits)")

# Contrast: a single sparse block visits its target once, so the average of
# orbit-norm powers dies off like 1/m and the event density dies with it.
w0 = DunklWeights(mpf(0), n_max=4096)
cfg = BuilderConfig(targets=[(Fraction(1),)], saturate_envelope=False)
sparse, _ = build_hypercyclic(w0, env, 1, cfg)
sparse_decay = density_decay_check(sparse, w0, q=2, M=2048)

periodic, _ = build_frequently_hypercyclic(
    w0, p=mpf(2), env=env, J=1, cfg=BuilderConfig(block_width=2)
)
periodic_decay = density_decay_check(periodic, w0, q=2, M=2048)

print("\nsigma_m = (1/m) sum of squared orbit magnitudes, at m = 2048:")
print(f"  sparse single-target build: {mpmath.nstr(sparse_decay.final_sigma(), 4)}")
print(f"  periodic one-target build:  {mpmath.nstr(periodic_decay.final_sigma(), 4)}")
print("the periodic build keeps sigma_m bounded away from zero, the sparse")
print("one cannot, and the event density always sits below sigma_m "
      f"(holds here: {sparse_decay.bound_holds and periodic_decay.bound_holds})")
