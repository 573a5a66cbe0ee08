"""Sub-carrier diversity brings the equilibrium back.

Give each transmission a secret choice among N_sub parallel sub-carriers.
The jammer must guess where to strike, and a guess only intercepts the
fraction of probability mass it covers. Two consequences, both checked
here: under uniform jamming the sub-carrier choice stops mattering at
all, and the fully uniform profile becomes a genuine Nash point.
"""

import numpy as np

from aoijam import (
    SystemConfig,
    diversity_nash_point,
    diversity_user_ages,
    expected_age_trajectory_diversity,
    make_uniform_subcarrier_block,
    uniform_policy,
    validate_subcarrier_policy,
    verify_diversity_nash,
)

N, NSUB, ALPHA, T = 2, 4, 0.3, 400
config = SystemConfig(horizon_T=T, num_users=N, alpha=ALPHA,
                      num_subcarriers=NSUB)
policy = uniform_policy(N)
plan = make_uniform_subcarrier_block(config)

# Claim 1: with the jammer spreading uniformly over sub-carriers, any
# sub-carrier selection rule gives the same ages.
print(f"jammer spreads over {NSUB} sub-carriers; varying the sender's "
      "sub-carrier rule:")
rng = np.random.default_rng(5)
for _ in range(5):
    q = validate_subcarrier_policy(rng.dirichlet(np.ones(NSUB)))
    avg = expected_age_trajectory_diversity(policy, q, plan, config).system_avg
    print(f"  q={np.round(q.probs, 3)}  ->  system age {avg:.12f}")
print("identical to every printed digit: the choice is neutralized\n")

# Claim 2: the closed form prices the diversity game without T appearing,
# and the uniform profile passes a sampled equilibrium audit on both
# sides.
closed = diversity_user_ages(policy, config.blocked_share, NSUB).mean()
print(f"closed-form long-horizon system age: {closed:.4f}")

point = diversity_nash_point(config)
report = verify_diversity_nash(point, config, bs_samples=300,
                               adv_samples=300, seed=9)
print(f"equilibrium audit ({report.kind}): holds = {report.holds}, "
      f"payoff {report.payoff:.4f}")

# More sub-carriers shrink the jamming damage toward nothing.
print("\ndamage shrinks as diversity grows (same alpha):")
for nsub in (2, 3, 4, 8, 16):
    value = diversity_user_ages(policy, config.blocked_share, nsub).mean()
    print(f"  N_sub={nsub:3d}: system age {value:.4f}")
print(f"  no jamming at all would give {1 / policy.probs[0] :.4f}")
