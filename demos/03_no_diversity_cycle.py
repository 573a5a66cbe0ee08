"""Why the single-carrier game has no pure equilibrium.

Whoever moves last wins. The jammer wants to aim at the least reliable
user; the base station wants to shore up exactly the user being jammed.
Every candidate profile leaves one side with a profitable deviation, and
iterated best responses chase each other forever instead of settling.
"""

import numpy as np

from aoijam import (
    SystemConfig,
    best_response_dynamics,
    counter_block_policy,
    is_nash_no_diversity,
    make_middle_block,
    uniform_policy,
    validate_policy,
)

N, ALPHA, T = 2, 0.5, 1000
config = SystemConfig(horizon_T=T, num_users=N, alpha=ALPHA)

# Candidate 1: uniform scheduling, jammer on user 0. The base station
# would rather overweight the jammed user, so this is not an equilibrium.
report = is_nash_no_diversity(
    uniform_policy(N), make_middle_block(config, 0), config)
print("uniform policy + jam user 0:")
print(f"  equilibrium? {report.holds}")
w = report.witness
print(f"  deviation found for the {w.player}: {w.description}")
print(f"  system age moves {w.payoff_before:.4f} -> "
      f"{w.payoff_after:.4f}\n")

# Candidate 2: the base station plays its best reply to that jamming plan.
# Now the *other* user is weaker, so the jammer re-aims. Not an
# equilibrium either.
counter = counter_block_policy(config, 0)
report = is_nash_no_diversity(counter, make_middle_block(config, 0), config)
print(f"counter policy {np.round(counter.probs, 4)} + jam user 0:")
print(f"  equilibrium? {report.holds}")
w = report.witness
print(f"  deviation found for the {w.player}: {w.description}\n")

# The chase, played out: each round the jammer aims at the current weakest
# user and the base station re-balances against that aim.
print("iterated best responses (jammer aims, base station re-balances):")
dyn = best_response_dynamics(config, max_iter=10)
for step in dyn.trace:
    probs = np.round(step.policy.probs, 4)
    print(f"  round {step.iteration:2d}: facing {probs}, jammer aims at "
          f"user {step.blocked_user}, system age {step.payoff:.4f}")
print(f"\nfixed point reached: {dyn.holds} -- the target flips every round, "
      "so no profile is stable")

arbitrary = validate_policy([0.9, 0.1])
report = is_nash_no_diversity(arbitrary, make_middle_block(config, 1), config)
print(f"\nand a lopsided profile fares no better: holds={report.holds} "
      f"({report.witness.player} deviates)")
