"""Walkthrough: the synthetic measurement campaign.

Builds a scenario, inspects the channel physics, and shows how the
short-window RSS estimate fluctuates around the true RSS and converges as
the window grows.
"""

import numpy as np

from rssdetect import (
    ScenarioConfig,
    estimate_rss_vector,
    generate_scenario,
    simulate_measurement_set,
    true_rss,
)

# A campaign mimicking a small indoor deployment: 52 transmitter spots in a
# 6 x 5 m region, observed by four 4-antenna receiver groups (16 channels).
config = ScenarioConfig(n_locations=52, shadowing_std_db=2.5, noise_dbm=-82.0)
scenario = generate_scenario(config, seed=1)
print(f"{scenario.n_locations} locations, {scenario.n_channels} receiver channels")
print("antenna groups:", scenario.receiver_group)

# True RSS per channel at one location (signal plus noise floor, dBm), an (M,) array
f = true_rss(scenario, 0)
print("\ntrue RSS at location 0 (dBm):")
print(np.round(f, 2))

# Short-window estimates fluctuate around it; longer windows settle down
for n_s in (16, 256, 4096):
    est = np.stack([estimate_rss_vector(scenario, 0, n_s, seed=r) for r in range(50)])
    err = np.abs(est - f).mean()
    print(f"N_s = {n_s:5d}: mean |estimate - true| = {err:.3f} dB")

# A full corpus: E estimates of every location, the raw material for training
corpus = simulate_measurement_set(scenario, n_estimates=16, n_samples=16, seed=2)
print(f"\ncorpus shape (L, E, M) = {corpus.values.shape}")
spread = corpus.values.std(axis=1).mean()
print(f"average within-location estimate spread: {spread:.2f} dB")
