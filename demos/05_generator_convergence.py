"""Generator convergence: why the diffusion limit holds, numerically.

The chain's generator applied to a smooth bump f, at the lattice point
nearest to u, converges to the limit operator
    L f(u) = sum_x f''_xx(u) + sum_x (A u)_x f'_x(u)
with a first-order error in eps.  This demo evaluates both sides on a grid
inside the bump's support and reports the sup error per level.
"""

import numpy as np

import bdlimits as bd

graph = bd.single_vertex()
schedule = bd.geometric_schedule("diffusion", initial_point=[0.0], num_levels=5,
                                 coarsest_log2_eps=-3)
config = bd.GeneratorCheckConfig(
    graph=graph,
    birth_matrix=[[0.0]],
    death_matrix=[[1.0]],
    schedule=schedule,
    radius=2.0,
    grid_points=41,
)

table = bd.generator_convergence_check(config)
print(f"{'eps':>10} {'sup error':>12} {'error/eps':>12}")
for err_row, ratio_row in zip(table.statistic("sup_error"), table.statistic("error_ratio")):
    print(f"{err_row.epsilon:>10.5f} {err_row.empirical:>12.6f} {ratio_row.empirical:>12.3f}")

errs = table.errors("sup_error")
print("\nper-halving factors:", np.round(errs[1:] / errs[:-1], 3))
print("bounded error/eps ratios = first-order convergence of the generators")
