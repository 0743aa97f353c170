"""The multiple q-l-function and its interpolation of the polynomials.

For 0 < q < 1 and x > 0 the alternating series converges for every complex
exponent s, because the bracket [m+x]_q is trapped inside a compact interval
while q^m decays geometrically.  At s = -n the value coincides with the
degree-n polynomial, which the final sweep checks across a grid of degrees.
"""

from qeuler import (
    QContext,
    SymmetryInstance,
    build_character_group,
    check,
    lfun_value,
    qeuler_value,
)

ctx = QContext(0.5)
quad = build_character_group(3)[1]

# A few values along the real axis and one complex exponent.
print("l(s, 1) for the quadratic character mod 3, r = 1:")
for s in (-2 + 0j, -1 + 0j, 0j, 0.5 + 0j, 2 + 0j, 1 + 1j):
    value = lfun_value(quad, 1, s, 1.0, ctx)
    print(f"  s = {s}: {value:.12f}")

# s = 0 drops the bracket weight entirely, so x no longer matters.
print("\nl(0, x) is constant in x:")
for x in (0.25, 1.0, 3.0):
    print(f"  x = {x}: {lfun_value(quad, 1, 0j, x, ctx).real:.15f}")

# Interpolation at negative integers: l(-n, x) = E_n(x).
print("\ninterpolation residuals |l(-n, x) - E_n(x)| at x = 0.5:")
for n in range(6):
    lhs = lfun_value(quad, 2, complex(-n), 0.5, ctx, epsilon=1e-12)
    rhs = qeuler_value(quad, 2, n, 0.5, ctx, epsilon=1e-12)
    print(f"  n = {n}: {abs(lhs - rhs):.2e}")

# The packaged check of identity EQ4 returns a structured report.
report = check("EQ4", SymmetryInstance(chi=quad, r=2, ctx=ctx, n=8, x=1.0))
print(f"\nreport: {report.identity_id} pass={report.passed} "
      f"residual={report.residual:.2e} tolerance={report.tolerance:.0e}")
