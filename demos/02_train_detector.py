"""Walkthrough: pair construction and detector training.

Trains the commutative neural detector on a synthetic campaign, saves it
to a model file and reads it back, decides held-out pairs with the
model read back, and shows the decision surface behaving symmetrically.
"""

import tempfile
from pathlib import Path

from rssdetect import (
    ScenarioConfig,
    TrainConfig,
    build_pair_set,
    decide,
    generate_scenario,
    load_model,
    save_model,
    simulate_measurement_set,
    split_locations,
    train_detector,
)

scenario = generate_scenario(
    ScenarioConfig(n_locations=52, shadowing_std_db=2.5, noise_dbm=-82.0,
                   gain_drift_std_db=2.0),
    seed=1,
)
corpus = simulate_measurement_set(scenario, n_estimates=64, n_samples=16, seed=2)

# 45 locations are available; 80% train the network, 20% drive early stopping.
# The 7 held-out locations are never seen during training.
split = split_locations(corpus, l_used=45, train_fraction=0.8, seed=3)
print(f"train {split.train_ids.size} / val {split.val_ids.size} / test {split.test_ids.size}")

model, history = train_detector(
    corpus, split, k_train=1250, k_val=150, cfg=TrainConfig(), seed=4
)
print(f"trained {history.n_epochs} epochs; best validation accuracy "
      f"{max(history.val_accuracy):.3f} at epoch {history.best_epoch()}")

# the fitted weights are float32, and the model file stores them at that width
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "dnnc.model"
    save_model(model, path)
    print(f"model file: {path.stat().st_size} bytes, "
          f"weights {model.params.weights[0].dtype}")
    loaded = load_model(path)

# score pairs of held-out estimates with the model read back: pair i is row
# i of the pair set's arrays, the K SAME pairs first, then the K DIFF pairs;
# each decision equals the fitted model's bit for bit
test_pairs = build_pair_set(corpus, split.test_ids, k=1000, seed=5)
k = test_pairs.k_per_class
for i in (0, 1, 2, k, k + 1, k + 2):
    d = decide(loaded, test_pairs.first[i], test_pairs.second[i])
    assert d == decide(model, test_pairs.first[i], test_pairs.second[i])
    label = "DIFF" if test_pairs.labels[i] else "SAME"
    print(f"  label={label:4s} -> {d.hypothesis.value} "
          f"(statistic {d.statistic:+.2f}, posterior {d.posterior:.3f})")

# the whole test set in one call: one statistic per pair, H1 where it is > 0
g = model.statistic_batch(test_pairs.first, test_pairs.second)
print(f"test accuracy over {len(test_pairs)} pairs: {((g > 0) == test_pairs.labels).mean():.3f}")

# the statistic is symmetric by construction
f, fp = corpus.values[0, 0], corpus.values[1, 0]
print("\nswap symmetry:", model.statistic_batch(f, fp), "==", model.statistic_batch(fp, f))
