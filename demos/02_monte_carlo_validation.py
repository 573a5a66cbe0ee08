"""Stochastic simulation against the exact recursion.

The estimator realizes whole runs in slot-major blocks: every uniform it
needs is a hash of (seed, run, stream, slot), and each slot's step is one
array operation across the block's runs.  The runs are independent, so
the mean must drift toward the recursion's answer at the usual
1/sqrt(runs) rate.
We watch that happen on a three-user system with the weakest user jammed.
"""

from aoijam import (
    SystemConfig,
    estimate_average_age,
    expected_age_trajectory,
    make_middle_block,
    validate_policy,
)

config = SystemConfig(horizon_T=300, num_users=3, alpha=0.4)
policy = validate_policy([0.5, 0.3, 0.2])
plan = make_middle_block(config, target=2)

exact = expected_age_trajectory(policy, plan, config).system_avg
print(f"exact system average age: {exact:.5f}")
print(f"(N={config.num_users}, T={config.horizon_T}, user 2 jammed for "
      f"B={config.budget_B} slots)\n")

print(f"{'runs':>8} {'estimate':>10} {'std err':>9} {'deviation':>10}")
for runs in (1000, 4000, 16000, 64000):
    result = estimate_average_age(policy, None, plan, config,
                                  runs=runs, master_seed=42)
    dev = result.mean_system_age - exact
    print(f"{runs:>8} {result.mean_system_age:>10.5f} "
          f"{result.std_error:>9.5f} {dev:>+10.5f}")

print("\neach 4x in runs roughly halves the standard error; the deviation "
      "stays within a few standard errors of zero throughout")

# Reproducibility: the seed fixes every draw, so repeating a run is exact.
again = estimate_average_age(policy, None, plan, config,
                             runs=1000, master_seed=42)
first = estimate_average_age(policy, None, plan, config,
                             runs=1000, master_seed=42)
assert again.mean_system_age == first.mean_system_age
print("same seed, same estimate: reproducible to the last bit")
