"""How well do the long-horizon closed forms track the exact recursion?

Two users, one of them jammed through the middle of the horizon.  We run
the exact expected-age recursion and set it against the closed-form ages
that ignore edge effects, at a horizon long enough for the comparison to
be fair and short enough to run instantly.
"""

import numpy as np

from aoijam import (
    SystemConfig,
    blocked_user_age,
    empty_plan,
    expected_age_trajectory,
    make_middle_block,
    reduced_payoff_for_split,
    unblocked_user_age,
    validate_policy,
)

config = SystemConfig(horizon_T=5000, num_users=2, alpha=0.3)
policy = validate_policy([0.3, 0.7])
print(f"horizon T={config.horizon_T}, users N={config.num_users}, "
      f"jamming budget fraction alpha={config.alpha} "
      f"(B={config.budget_B} slots)")

# Baseline: nobody jammed. Each user's time-average age should settle near
# the inverse of its delivery probability.
quiet = expected_age_trajectory(policy, empty_plan(config), config)
print("\nwithout jamming:")
for i, p in enumerate(policy.probs):
    print(f"  user {i}: exact time-average {quiet.per_user_avg[i]:8.4f}   "
          f"closed form 1/p = {unblocked_user_age(p):8.4f}")

# Now the jammer spends its whole budget on user 0, packed into the middle
# of the horizon. The blocked user's age grows linearly through the dead
# zone, which the closed form accounts for with a term proportional to T.
plan = make_middle_block(config, target=0)
jammed = expected_age_trajectory(policy, plan, config)
predicted = blocked_user_age(policy.probs[0], config.alpha, config.horizon_T)
print("\nuser 0 jammed through the middle window:")
print(f"  exact time-average      {jammed.per_user_avg[0]:9.4f}")
print(f"  closed-form prediction  {predicted:9.4f}")
print(f"  relative error          {abs(jammed.per_user_avg[0] - predicted) / predicted:9.2e}")

# The closed-form system average prices the plan by each user's share of
# the horizon: here alpha on user 0 and nothing on user 1.
system_predicted = reduced_payoff_for_split(
    policy, [config.alpha, 0.0], config.horizon_T)
print(f"\nsystem average: exact {jammed.system_avg:.4f}, "
      f"closed form {system_predicted:.4f}")

# Peek at the trajectory itself: flat before the window, a straight ramp
# inside it, recovery after.
start, stop = np.nonzero(plan.block_prob[0])[0][[0, -1]]
probe = [start - 1, start + config.budget_B // 2, stop, stop + 50]
print("\nuser 0 expected age around the blocked window (slot: age):")
for idx in probe:
    print(f"  slot {idx + 1:5d}: {jammed.per_user[0, idx]:9.3f}")
