"""Finite fields of odd order: construction, characters, quadratic counts.

Every element is addressed by its canonical index (base-p digits of the
coefficient vector), so the choices made here -- default modulus, theta,
xi -- reproduce exactly across machines.
"""

import numpy as np

from unitalforge import gf

# F_9 with the default (lexicographically smallest) irreducible modulus
f9 = gf.field_new(3, 2)
print("field:", f9.descriptor())

x = 3                                   # the index of the polynomial generator "x"
print(f"x * x = {f9.mul(x, x)}  (modulus x^2 + 1 makes x a square root of -1)")

# the split of F_9 over F_3: basis (1, xi) with xi^2 = alpha a nonsquare
s9 = gf.split_new(f9, 1)
print(f"xi index {s9.xi}, alpha = {s9.alpha}, subfield {list(s9.sub_elements)}")

# trace onto the subfield is onto, with every fiber of size q
tr = np.asarray(s9.trace(np.arange(9)))
vals, counts = np.unique(tr, return_counts=True)
print("trace fibers:", dict(zip(vals.tolist(), counts.tolist())))

# the quadratic character: 0 on 0, +1 on squares, -1 on nonsquares
eta = np.asarray(f9.quadratic_character(np.arange(9)))
print("eta over F_9:", eta.tolist())

# counting solutions of a0 x0^2 + a1 x0 x1 + a2 x1^2 = b in closed form
f3 = gf.field_new(3, 1)
for b in range(3):
    n = gf.quadratic_solution_count(f3, 1, 0, 1, b)
    brute = sum(1 for x0 in range(3) for x1 in range(3)
                if (x0 * x0 + x1 * x1) % 3 == b)
    print(f"N(x0^2 + x1^2 = {b}) over F_3: formula {n}, enumeration {brute}")

# the deterministic theta choice: smallest index with nonsquare norm
theta = s9.choose_theta()
print(f"theta = {theta}, theta^(q+1) = {f9.pow(theta, 4)} (the nonsquare of F_3)")
