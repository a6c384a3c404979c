"""
The shuffle protocol: message costs and fidelity
================================================

No trusted curator this time.  Each of 50 clients discretizes its
measurement vector, adds its own slice of integer noise, splits every
coordinate into r additive shares mod q, and hands the shares to a
shuffler.  Summing the shuffled multiset reproduces the noisy transform,
so accuracy matches the central mechanism while no single message
reveals anything about its sender.

The communication price depends on the discretization B: larger B means
finer rounding but more shares per coordinate.
"""

from emdheat.aggregate import AggregationConfig, aggregate_central, normalize
from emdheat.datagen import random_mixture_spec, synth_users
from emdheat.emd import emd
from emdheat.grid import SparseDist, num_levels
from emdheat.noise import budget_schedule, make_rng
from emdheat.recovery import reconstruct
from emdheat.shuffle import ShuffleParams, communication, simulate_round

d, n, eps = 16, 50, 5.0
sched = budget_schedule(eps, num_levels(d), 20, 2 ** -0.5, 2)

print("communication for n=50 on a 16x16 grid")
print("     B    shares r  messages/user  bytes/user")
for B in (64, 256, 1024, 4096):
    c = communication(ShuffleParams.from_schedule(B, n, 1e-5, sched, d))
    print(f"  {B:5d}  {c['r']:8d}  {c['messages_per_user']:13d}  {c['bytes_per_user']:10d}")

# one full round at B=256 against the central mechanism on the same data
users, _ = synth_users(random_mixture_spec(20, n, 50, d, seed=9))
dense = sum(u.to_dense() for u in users) / n
a_true = SparseDist.from_dense(dense, d)

params = ShuffleParams.from_schedule(256, n, 1e-5, sched, d)
y_prime, report = simulate_round(users, params, make_rng((4, 0)))
a_shuffle, _ = normalize(reconstruct(y_prime, 20))

cfg = AggregationConfig(eps=eps, w=20, mode="experiment")
a_central = aggregate_central(users, cfg, rng=make_rng((4, 1))).a_hat

trace = report["trace"]
print(f"\nshuffled messages: {trace['messages']}, wraparounds: {report['wraparound_violations']}, "
      f"worst |sum| / (q/2): {report['max_sum_ratio']:.3f}")
print(f"stage seconds: encode {trace['encode_s']:.3f}, shuffle {trace['shuffle_s']:.3f}, "
      f"analyze {trace['analyze_s']:.3f}")
err_s, _ = emd(a_true, a_shuffle)
err_c, _ = emd(a_true, a_central)
print(f"emd to truth, shuffle {err_s:.4f} vs central {err_c:.4f}")
