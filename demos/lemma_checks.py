"""Run every surface diagnostic on one solved fixture and print the lines.

obstacle        V >= IV at every node (IV recomputed, not trusted)
bounds          0 <= V <= C1 envelope and the no-control MC lower bound
regularity      difference quotients stable under a time refinement
smooth_fit      V_x = 1 at interior action nodes and their landings
theta_structure maximizer exists, lands in continuation, chain inequality
"""

from impulse_qvi.diagnostics import standard_checks
from impulse_qvi.fixtures import intervention_spec
from impulse_qvi.solver import Grid

reports = standard_checks(intervention_spec(), Grid(0.1, 4.1, 201, 100), seed=0)
for rep in reports:
    print(rep.line())
    for key, val in rep.details.items():
        print(f"    {key} = {val}")
print("all passed:", all(r.passed for r in reports))
