"""Solve the QVI on the intervention fixture and look at the action region.

The backward sweep alternates an implicit PDE step with the impulse
projection v <- max(v, Iv).  Where the two branches tie (V = IV) the
controller injects; the maximizing injection size xi0 is the policy.
"""

import numpy as np

from impulse_qvi.fixtures import intervention_spec
from impulse_qvi.solver import Grid, solve

spec = intervention_spec()
grid = Grid(0.1, 4.1, 201, 100)
res = solve(spec, grid)

surface, labels = res.surface, res.labels
print(f"grid: {grid.n_x} x-nodes, {grid.n_t} time steps, h={grid.h:.3f}")
print(f"inner projection: worst residual {surface.metadata['max_inner_residual']:.2e}")
print(f"action nodes: {int(labels.sum())} of {labels.size}")
print(f"obstacle gap: min(V - IV) = {surface.metadata['min_obstacle_gap']:.2e}")

# upper edge of the action region per time slice -- the free boundary
xn = grid.x_nodes()
tn = surface.t_nodes()
print("\n  t      region           xi0 at x_min")
for j in range(0, grid.n_t + 1, grid.n_t // 10):
    idx = np.nonzero(labels[j])[0]
    if idx.size == 0:
        print(f"  {tn[j]:.2f}   (empty)")
        continue
    lo, hi = xn[idx[0]], xn[idx[-1]]
    print(f"  {tn[j]:.2f}   [{lo:.2f}, {hi:.2f}]     {res.xi0[j, idx[0]]:.3f}")

# a coarse picture: one character per 4 nodes, | marks action
print("\nregion map (t down, x right; '#' = action):")
for j in range(0, grid.n_t + 1, grid.n_t // 8):
    row = "".join("#" if labels[j, i] else "." for i in range(0, grid.n_x, 4))
    print(f"  t={tn[j]:.2f} {row}")

print("\nvalue at selected points:")
for x in (0.2, 0.5, 1.0, 2.0):
    print(f"  V(0, {x:.1f}) = {surface.evaluate(0.0, x):.6f}")
