"""
From a seed vector to a one-step-ahead difference formula
=========================================================

Walks the whole construction once, in exact arithmetic: build the Taylor
coefficient matrix, reduce its transpose to echelon form, complete a seed
into a left null vector, and read off the difference formula.
"""

from fractions import Fraction

from fdforge import Dimensions, build_taylor_matrix, echelon_block, seed_to_formula

dims = Dimensions(k=2, s=2)
print(f"k = {dims.k} cancelled derivatives, seed length s = {dims.s}")
print(f"formula degree {dims.degree}, truncation order {dims.order}")

A = build_taylor_matrix(dims)
print("\nTaylor matrix rows (exact):")
for row in A:
    print("  ", "  ".join(str(v) for v in row))

block = echelon_block(dims)
print("\nnon-identity block of the reduced transpose:")
for row in block.b:
    print("  ", "  ".join(str(v) for v in row))

# the seed that reproduces the known four-term formula
seed = [Fraction(-5), Fraction(2)]
f = seed_to_formula(dims, seed, exact=True)
print(f"\nseed [{seed[0]}, {seed[1]}] completes to the characteristic polynomial")
print("  p =", " ".join(str(v) for v in f.p))
print("  c =", f.c)
print("  float form:", " ".join(f"{v:.4f}" for v in f.as_float().p))

# a longer session: three cancelled derivatives, order 5
f2 = seed_to_formula(Dimensions(3, 3), [1, 110, -40], exact=True)
print("\nseed [1, 110, -40] at (k, s) = (3, 3):")
print("  p =", " ".join(str(v) for v in f2.p))
print("  c =", f2.c)
