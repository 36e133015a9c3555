"""Two coupled spins: simulate the chain and recover its stationary law.

Builds the smallest interacting example (one edge, spins in {0,1}),
simulates it, and compares three routes to the stationary distribution:
long-run occupation frequencies, the sparse-generator solve, and the
closed-form reversible measure.
"""

import numpy as np

import bdlimits as bd

graph = bd.path_graph(2)
beta = 0.7
spec = bd.ChainSpec(
    graph,
    birth_matrix=[[0.0, beta], [beta, 0.0]],
    death_matrix=np.zeros((2, 2)),
    l=0,
    r=1,
)

print("chain: two spins in {0,1}, birth coupling beta =", beta)
print("states in canonical order (vertex 0 fastest):")
states = bd.enumerate_states(spec)
print(states)

# route 1: closed form.  weights are 1, 1, 1, e^beta
dist = bd.gibbs_measure(spec)
print("\nclosed-form probabilities:", np.round(dist.probabilities, 6))
print("log partition value:", round(dist.log_partition, 6))

# route 2: solve pi Q = 0 on the 4-state generator
pi = bd.stationary_solve(spec)
print("generator solve:          ", np.round(pi, 6))
print("max difference:", np.abs(dist.probabilities - pi).max())

# route 3: occupation fractions of one long path
t_end = 20000.0
traj = bd.simulate(spec, [0, 0], t_end, seed=42)
holds = np.diff(np.concatenate([[0.0], traj.times, [t_end]]))
grid_states = np.concatenate([[bd.state_index(spec, traj.initial)],
                              [bd.state_index(spec, s) for s in
                               traj.states_at(traj.times)]])
occupation = np.bincount(grid_states, weights=holds, minlength=4) / t_end
print("occupation over t =", t_end, ":", np.round(occupation, 6))

print("\ndetailed balance residual:", bd.check_detailed_balance(spec))
print("(the residual is float rounding; the identity is exact)")
