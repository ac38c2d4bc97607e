"""
Measuring truncation order and forward stability
================================================

Two empirical checks back up the algebra.  First, feeding exact samples of
x = e^t through a formula and halving the step size repeatedly recovers its
truncation order as a log-log slope.  Second, iterating the recurrence
forward on x = sin t shows convergent formulas tracking the signal while a
root outside the unit disk blows up within a few hundred steps.
"""

from fdforge import (
    DifferenceFormula,
    Dimensions,
    SIN,
    catalog,
    empirical_order,
    seed_to_formula,
    simulate,
)

print("catalog truncation orders, measured on e^t:")
print(f"{'formula':8} {'claimed':>7} {'fitted slope':>12}")
for kf in catalog():
    oc = empirical_order(kf.to_formula(), kf.claimed_order)
    print(f"{kf.label:8} {kf.claimed_order:>7} {oc.fitted_slope:>12.3f}")

# the same check on a freshly constructed order-5 formula
f5 = seed_to_formula(Dimensions(3, 3), [1.0, 110.0, -40.0])
oc = empirical_order(f5, 5)
print(f"{'(3,3)':8} {5:>7} {oc.fitted_slope:>12.3f}")

print("\ntracking x = sin t for 1000 steps with exact derivative feed:")
print(f"{'formula':8} {'tau=0.01':>12} {'tau=0.005':>12}")
for kf in catalog():
    f = kf.to_formula()
    coarse = simulate(f, SIN, tau=0.01, steps=1000)
    fine = simulate(f, SIN, tau=0.005, steps=2000)
    print(f"{kf.label:8} {coarse.max_error:>12.2e} {fine.max_error:>12.2e}")

print("\nthe counterexample with a characteristic root at 1.1:")
bad = DifferenceFormula((1.0, -2.1, 1.1), -0.1)
steps = 1000
run = simulate(bad, SIN, tau=0.01, steps=steps)
print(f"   diverged after reaching max error {run.max_error:.2e} "
      f"within {steps} steps: {run.diverged}")
