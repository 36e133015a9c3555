"""Diffusion scaling: the rescaled chain marginal approaches an OU law.

Single mean-reverting vertex (birth rate 1, death rate e^{xi}).  Rates are
scaled by eps^2, time by eps^-2, space by eps; as eps shrinks, the law of
eps * xi(t / eps^2) approaches the Ornstein-Uhlenbeck transition law with
drift matrix A = [-1] and noise sqrt(2) dW.
"""

import numpy as np

import bdlimits as bd

graph = bd.single_vertex()
schedule = bd.geometric_schedule("diffusion", initial_point=[1.0], num_levels=3)
config = bd.DiffusionExperimentConfig(
    graph=graph,
    birth_matrix=[[0.0]],
    death_matrix=[[1.0]],
    schedule=schedule,
    t=1.0,
    replicas=1000,
    seed=1,
)

mean, cov = bd.exact_transition(np.array([[-1.0]]), [1.0], 1.0)
print(f"limit law at t=1: mean {mean[0]:.6f} (= e^-1), variance {cov[0,0]:.6f} (= 1 - e^-2)")

table = bd.run_diffusion_experiment(config)
print(f"\n{'eps':>10} {'mean':>10} {'|err|':>10} {'4*se':>10}   {'var':>10} {'|err|':>10}")
for level in range(schedule.num_levels):
    m = table.statistic("mean_0")[level]
    v = table.statistic("cov_0_0")[level]
    print(
        f"{m.epsilon:>10.4f} {m.empirical:>10.4f} {m.abs_error:>10.4f}"
        f" {4 * m.mc_stderr:>10.4f}   {v.empirical:>10.4f} {v.abs_error:>10.4f}"
    )
print("\nthe mean error shrinks roughly linearly in eps (first-order rate)")

# the exact transition law itself comes from one block matrix exponential
# (Van Loan) and a few doublings; at large t it lands on the stationary law
_, stat = bd.stationary_gaussian(np.array([[-1.0]]))
_, cov_long = bd.exact_transition(np.array([[-1.0]]), [1.0], 20.0)
print(f"covariance at t=20: {cov_long[0,0]:.8f}; stationary: {stat[0,0]:.8f}")
