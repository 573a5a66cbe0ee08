"""Commitment restores a solution: the leader-follower version.

With no simultaneous equilibrium, let the base station commit first and
the jammer respond with full knowledge. The best commitment treats the
jammer's aim as whatever hurts most, which flattens any advantage from
skewing the schedule: the uniform policy is optimal. A solver that works
under an ordering constraint on the probabilities lands on the same
answer, and random rivals certify it numerically.
"""

import numpy as np

from aoijam import (
    SystemConfig,
    follower_aware_payoff,
    ordered_kkt_solver,
    reduced_payoff_for_split,
    stackelberg_equilibrium,
    uniform_policy,
    validate_policy,
)

N, ALPHA, T = 3, 0.4, 5000
config = SystemConfig(horizon_T=T, num_users=N, alpha=ALPHA)
# every large-horizon price reads the share B/T of the slots the plans block
SHARE = config.blocked_share

leader, plan, payoff = stackelberg_equilibrium(config)
print(f"N={N}, alpha={ALPHA}, T={T}, B={config.budget_B}")
print(f"leader commitment: {np.round(leader.probs, 6)}")
print(f"guaranteed system age (jammer replies optimally): {payoff:.4f}")
# at the uniform commitment every target ties: jamming the last user for
# B slots is worth as much as jamming the first
last = reduced_payoff_for_split(leader, SHARE * np.eye(N)[N - 1], T)
print(f"same system age with user {N - 1} jammed instead: {last:.4f}\n")

# The follower-aware payoff prices a policy by the system age under the
# jammer's best reply to it. Tilting the schedule always costs the leader.
rivals = {
    "uniform": uniform_policy(N),
    "mild tilt": validate_policy([0.4, 0.35, 0.25]),
    "strong tilt": validate_policy([0.6, 0.25, 0.15]),
    "one favourite": validate_policy([0.8, 0.1, 0.1]),
}
print(f"{'policy':>14} {'worst-case age':>18}")
for name, rival in rivals.items():
    value = follower_aware_payoff(rival, SHARE, T)
    marker = "  <- leader" if name == "uniform" else ""
    print(f"{name:>14} {value:>18.4f}{marker}")

# Independent route: minimize under the constraint that probabilities be
# non-increasing, with the blocked user last. The free minimizer would
# schedule that user most; the solver pools the weights that break the
# order into one block of their mean, which lands on the uniform point.
ordered = ordered_kkt_solver(config)
print(f"\norder-constrained solver: {np.round(ordered.probs, 10)}")
print(f"max deviation from uniform: "
      f"{np.abs(ordered.probs - 1 / N).max():.2e}")
