"""Walkthrough: the distance and K-means baselines vs the neural detector.

All four algorithms train on the same location split of one synthetic
campaign and are scored on pairs from held-out locations.
"""

import numpy as np

from rssdetect import (
    ScenarioConfig,
    TrainConfig,
    build_pair_set,
    generate_scenario,
    simulate_measurement_set,
    split_locations,
    train_dbc,
    train_detector,
    train_kmc,
)

scenario = generate_scenario(
    ScenarioConfig(n_locations=52, shadowing_std_db=2.5, noise_dbm=-82.0,
                   gain_drift_std_db=2.0),
    seed=1,
)
corpus = simulate_measurement_set(scenario, n_estimates=64, n_samples=16, seed=2)
split = split_locations(corpus, l_used=45, train_fraction=0.8, seed=3)

train_pairs = build_pair_set(corpus, split.train_ids, k=1250, seed=4)
test_pairs = build_pair_set(corpus, split.test_ids, k=1000, seed=5)


def accuracy(model):
    # every model scores a batch of pairs with the same method; H1 iff > 0
    statistic = model.statistic_batch(test_pairs.first, test_pairs.second)
    return np.mean((statistic > 0) == test_pairs.labels)


dbc1 = train_dbc(train_pairs, norm_order=1)
dbc2 = train_dbc(train_pairs, norm_order=2)
kmc = train_kmc(corpus, split.train_ids, train_pairs, kappa=15, seed=6)
dnnc, _ = train_detector(corpus, split, k_train=1250, k_val=150,
                         cfg=TrainConfig(), seed=7)

print("test accuracy on pairs from 7 held-out locations:")
print(f"  DBC(l1): {accuracy(dbc1):.3f}  (threshold {dbc1.threshold:.2f} dB)")
print(f"  DBC(l2): {accuracy(dbc2):.3f}  (threshold {dbc2.threshold:.2f} dB)")
print(f"  KMC:     {accuracy(kmc):.3f}  ({kmc.kappa} centroids)")
print(f"  DNNC:    {accuracy(dnnc):.3f}")

# why the distance rules struggle here: per-window receiver gain drift
# shifts whole antenna groups between transmissions, inflating SAME-pair
# distances; the network learns that group-common shifts are uninformative
same = test_pairs.labels == False  # noqa: E712  (boolean mask)
d_same = np.linalg.norm(test_pairs.first[same] - test_pairs.second[same], axis=1)
d_diff = np.linalg.norm(test_pairs.first[~same] - test_pairs.second[~same], axis=1)
print(f"\nl2 distance, SAME pairs: median {np.median(d_same):.1f} dB; "
      f"DIFF pairs: median {np.median(d_diff):.1f} dB (distributions overlap)")
