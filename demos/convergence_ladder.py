"""Time-step refinement ladder against the constant-data closed form.

The scheme is implicit Euler in time, so halving dt should halve the sup
error; the Cauchy ratio between successive refinements tells the same
story without needing the formula.
"""

from impulse_qvi.diagnostics import convergence_study
from impulse_qvi.fixtures import closed_form_spec, fixture_reference
from impulse_qvi.solver import Grid

study = convergence_study(closed_form_spec(), Grid(0.1, 2.1, 101, 50), 4,
                          reference=fixture_reference("closed-form"))

print("  n_t     dt       sup|V - exact|   diff to next")
for i, row in enumerate(study.rows):
    diff = row.get("sup_diff_to_next")
    print(f"  {row['n_t']:4d}   {row['dt']:.4f}   {study.reference_errors[i]:.3e}"
          + (f"        {diff:.3e}" if diff is not None else ""))
print("Cauchy ratios:", [round(r, 3) for r in study.ratios])

e = study.reference_errors
print("error ratios: ", [round(e[i] / e[i + 1], 3) for i in range(len(e) - 1)])
print("first order in time means every ratio sits near 2")
