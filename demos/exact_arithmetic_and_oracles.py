"""Cross-check the closed-form derivatives against independent oracles.

On Gaussian-integer matrices everything can be computed in exact rational
arithmetic, so the three closed forms can be compared literally (==) against
a polynomial-interpolation oracle that never touches the derivative code.
A central-difference check covers the floating path.
"""

import numpy as np

from permderiv import (
    DerivativeRequest,
    dkper_columns,
    dkper_minors,
    dkper_tensor,
    dper,
    exact_matrix,
    finite_diff,
    mixed_partial_interp,
)

# Exact mode: Gaussian-integer entries, int arithmetic throughout (a part
# becomes a Fraction only after a division that is not exact).
A = exact_matrix([[2, 1 + 1j, 0], [3, -1, 2j], [1, 0, 1 - 2j]])
X = exact_matrix([[1, 0, 1], [0, 1j, 0], [2, 0, -1]])
Y = exact_matrix([[0, 1, 0], [1, 0, 1], [0, 1, 0]])

request = DerivativeRequest(A, (X, Y))
closed_forms = [dkper_columns(request), dkper_minors(request), dkper_tensor(request)]
oracle = mixed_partial_interp("per", A, (X, Y))
print("D^2 per(A)(X, Y), exact arithmetic:")
for name, value in zip(("columns", "minors", "tensor", "oracle"), closed_forms + [oracle]):
    print(f"  {name:>7s} = {complex(value)}")
assert all(value == oracle for value in closed_forms)
print("all three closed forms equal the interpolation oracle, literally.")

# Floating mode: central differences converge to the first derivative.
rng = np.random.default_rng(5)
B = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
Z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
exact_value = dper(B, Z)
print(f"\nD per(B)(Z) = {exact_value:.8f}")
for h in (1e-2, 1e-3, 1e-4, 1e-5):
    approx = finite_diff("per", B, Z, h)
    print(f"  central difference, h = {h:.0e}: error = {abs(approx - exact_value):.3e}")
