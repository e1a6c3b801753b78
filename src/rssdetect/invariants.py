"""The core invariants, one function each, returning ``(ok, detail)``.

``rssdetect check`` and acceptance criteria 1-6 run them with their own
random streams, sizes and bounds; instances the two draw from different
distributions are passed in as iterables.  ``detail`` may be ``""``.
"""

from __future__ import annotations

import math

import numpy as np

from . import benchmarks as bm
from . import detector as det
from . import neural
from . import signal_model as sm
from .seeding import derive_seed


def commutativity(
    rng, kmc_rng, n_models, features, widths, std_floor, threshold_mean, max_centroids, weight_scale=None
):
    """Every rule's ``statistic_batch`` is bit-equal under swapping (f, f').

    Each round draws from ``rng`` M in the range ``features``, a DNNC of
    three hidden layers of a width from ``widths`` (weight matrices scaled
    by factors from ``weight_scale``, if given), a pair and a DBC, and
    from ``kmc_rng`` a KMC of 1 to ``max_centroids`` centroids; thresholds
    are normal around ``threshold_mean``.  The detail is the worst
    |g - g_swapped| / (1 + |g|).
    """
    ok, worst = True, 0.0
    for _ in range(n_models):
        m = int(rng.integers(*features))
        width = int(rng.choice(widths))
        params = neural.init_params([3 * m, width, width, width, 1], seed=int(rng.integers(2**31)))
        if weight_scale is not None:
            for w in params.weights:
                w *= rng.uniform(*weight_scale)
        dnnc = det.DetectorModel(params, rng.normal(size=m), np.abs(rng.normal(size=m)) + std_floor)
        f, fp = rng.normal(size=m), rng.normal(size=m)
        dbc = bm.DbcModel(int(rng.integers(1, 3)), float(rng.normal(threshold_mean)))
        centroids = kmc_rng.normal(size=(int(kmc_rng.integers(1, max_centroids + 1)), m))
        kmc = bm.KmcModel(centroids, float(kmc_rng.normal(threshold_mean)))
        for model in (dnnc, dbc, kmc):
            g, g_swapped = model.statistic_batch(f, fp), model.statistic_batch(fp, f)
            ok &= np.float64(g).tobytes() == np.float64(g_swapped).tobytes()
            worst = max(worst, abs(g - g_swapped) / (1.0 + abs(g)))
    return ok, f"worst rel asymmetry {worst:.2e}"


def gradient_check(pairs, hidden_sizes, seed, rng, n_coords, tol, bias_fraction=0.0):
    """The pair loss's analytic gradient against central differences (h = 1e-5).

    Each coordinate lies in a layer drawn from ``rng`` and is a bias with
    probability ``bias_fraction`` (no draw at 0).  It is bad unless
    |fd - grad| / max(1, |fd|) < ``tol``.
    """
    m = pairs.first.shape[1]
    params = neural.init_params([3 * m, *hidden_sizes, 1], seed=seed)
    model = det.DetectorModel(params=params, feature_mean=np.zeros(m), feature_std=np.ones(m))
    _, grads = det.pair_loss_grad(model, pairs)
    bad = 0
    for _ in range(n_coords):
        layer = int(rng.integers(0, params.n_layers))
        if bias_fraction and rng.random() < bias_fraction:
            arr, grad = params.biases[layer], grads.biases[layer]
            idx = (int(rng.integers(arr.shape[0])),)
        else:
            arr, grad = params.weights[layer], grads.weights[layer]
            idx = (int(rng.integers(arr.shape[0])), int(rng.integers(arr.shape[1])))
        orig = arr[idx]
        arr[idx] = orig + 1e-5
        up = det.pair_loss(model, pairs)
        arr[idx] = orig - 1e-5
        fd = (up - det.pair_loss(model, pairs)) / 2e-5
        arr[idx] = orig
        bad += not abs(fd - grad[idx]) / max(1.0, abs(fd)) < tol
    return bad == 0, f"{bad} bad coordinates of {n_coords}"


def loss_anchor(pairs, hidden_sizes, tol):
    """Zero parameters make every statistic 0, so |pair loss - log 2| < ``tol``."""
    m = pairs.first.shape[1]
    zero = neural.init_params([3 * m, *hidden_sizes, 1], seed=0, scale=0.0)
    model = det.DetectorModel(params=zero, feature_mean=np.zeros(m), feature_std=np.ones(m))
    err = abs(det.pair_loss(model, pairs) - math.log(2.0))
    return err < tol, f"|loss - log 2| = {err:.1e}"


def grid_accuracy(d, y) -> float:
    """Best accuracy of "H1 iff d > t" over 10^4 even t from min(d) - 1 to max(d) + 1."""
    grid = np.linspace(d.min() - 1.0, d.max() + 1.0, 10_000)
    return float(np.mean((d > grid[:, None]) == y, axis=1).max())


def threshold_tuning(sets):
    """On each (distances, H1 labels) set, the tuned threshold reaches the
    accuracy ``tune_threshold`` reports, and no grid threshold beats it."""
    ok = True
    for d, y in sets:
        fit = bm.tune_threshold(d, y)
        ok &= float(np.mean((d > fit.threshold) == y)) == fit.accuracy
        ok &= fit.accuracy >= grid_accuracy(d, y)
    return ok, ""


def kmeans_monotone(corpora, wcss_tol):
    """Lloyd on each (x, k, seed): WCSS rises by at most ``wcss_tol`` per
    iteration, and the run converges to a fixpoint of the assignment."""
    ok = True
    for x, k, seed in corpora:
        res = bm.lloyd_kmeans(x, k, seed=seed)
        ok &= bool(np.all(np.diff(res.wcss_history) <= wcss_tol)) and res.converged
        ok &= np.array_equal(bm._assign(x, res.centroids), res.labels)
    return ok, ""


def estimator_consistency(scenario, seed_path, short, long, repeats):
    """Location 0's RSS vector: the mean |estimate - truth| over ``repeats``
    estimates (seeds ``derive_seed(*seed_path, N_s, r)``) is smaller at
    window length N_s = ``long`` than at ``short``."""
    truth = sm.true_rss(scenario, 0)
    err = {}
    for n_s in (short, long):
        seeds = [derive_seed(*seed_path, n_s, r) for r in range(repeats)]
        estimates = [sm.estimate_rss_vector(scenario, 0, n_s, seed=s) for s in seeds]
        err[n_s] = float(np.mean([np.abs(e - truth).mean() for e in estimates]))
    detail = f"mean |err| {err[short]:.3f} dB @{short} vs {err[long]:.3f} dB @{long}"
    return err[long] < err[short], detail
