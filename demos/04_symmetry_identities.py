"""Sweep the symmetry identities over parameter grids and summarize residuals.

Each identity equates two expressions that exchange an odd pair (a, b); the
harness evaluates both sides independently and reports |lhs - rhs| against a
relative tolerance.  Power sums enter through the bridge form, which expands
the shifted polynomial combination into binomially weighted power sums.
"""

from qeuler import (
    QContext,
    SweepGrid,
    SymmetryInstance,
    build_character_group,
    check,
    power_sum,
    run_suite,
    suite_passed,
)

quad = build_character_group(3)[1]
ctx = QContext(0.5)

# One instance in detail: the polynomial symmetry at (a, b) = (1, 3).
inst = SymmetryInstance(chi=quad, r=1, ctx=ctx, a=1, b=3, n=3, x=1.0)
report = check("T2", inst)
print("polynomial symmetry at (a, b) = (1, 3), n = 3:")
print(f"  lhs      = {report.lhs.real:.15f}")
print(f"  rhs      = {report.rhs.real:.15f}")
print(f"  residual = {report.residual:.2e}  (tolerance {report.tolerance:.2e})")

# The alternating power sum that appears in the expanded form.
print("\npower sums S_{n,i}(3) for the quadratic character, r = 1, n = 2:")
for i in range(3):
    print(f"  i = {i}: {power_sum(quad, 1, 2, i, 3, ctx).real:+.6f}")

# Grid sweeps, one per identity family.
grid = SweepGrid(
    d_values=(1, 3),
    q_values=(0.5,),
    r_values=(1, 2),
    ab_pairs=((1, 3), (3, 5)),
    n_values=(0, 1, 2, 3, 4),
    s_values=(0.5 + 0j, 2.5 + 0j, 1 + 1j),
    m_values=(0, 1, 2),
    x_values=(0.5, 1.0),
    y_values=(0.25,),
)

print("\nsweeps:")
for identity in ("T1", "T2", "T3", "EQ12", "EQ13", "EQ4", "EQ5", "EQ9", "EQ15"):
    reports = run_suite(identity, grid)
    worst = max((r.residual for r in reports if r.residual is not None), default=0.0)
    status = "all passed" if suite_passed(reports) else "FAILURES"
    print(f"  {identity:<5} {len(reports):>4} instances  worst residual {worst:.2e}  {status}")
