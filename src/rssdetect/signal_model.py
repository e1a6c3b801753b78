"""Synthetic narrowband channel and short-term RSS estimation.

Physical picture: a transmitter somewhere in a 3-D region emits a
unit-power complex tone; M static receiver channels observe it through a
log-distance path-loss channel with frozen log-normal shadowing, plus
circular white Gaussian noise.  Each channel estimates the received
signal strength (RSS) by averaging the squared magnitude of a short
window of N_s baseband samples, so the estimate fluctuates around the
true RSS; that fluctuation is the whole point of the exercise.

All powers are in dBm (dB relative to 1 mW); sample amplitudes are in
sqrt(mW).  Every operation is pure given its inputs and seed.

Seed tree of a campaign (fixed: changing it changes every output bit):
estimate j of location n draws from child n*E + j of
``SeedSequence(seed)``, i.e. spawn key (n*E + j,).  Its sub-child 0
(key (n*E + j, 0)) draws the per-group gain drift; sub-child rx+1 seeds
the generator of channel rx's window, which draws the uniform tone
phase, then N_s real and then N_s imaginary noise normals.  These are
the streams ``spawn`` would hand out, but no SeedSequence or generator
is built per window: ``seeding.pcg64_words`` derives the PCG64 state of
every stream of a block of locations in one vectorized pass,
``seeding.pcg64_random`` takes every window's phase draw from those
words, and one reused generator is set to each stepped state in turn
for the window's normals.  ``estimate_rss_vector`` on a SeedSequence
reads the same children its ``spawn`` would give next, without spawning,
so the caller's object is left untouched.

Synthesis runs in blocks of whole locations, as many as fit in
``BLOCK_WINDOWS`` windows (E*M per location), or one location when E*M
is larger.  A block's windows are drawn per generator, then toned,
summed and averaged as one batch, so working memory is a few
(BLOCK_WINDOWS, N_s) arrays, whatever L is: a tracemalloc peak of about
1.6 MB for the default 52 x 64 x 16 campaign (0.43 MB of it the output),
as when each location was its own batch, and about 1.2 MB at E = 8.
The blocking changes no output bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegeneratePowerError
from .seeding import SeedLike, as_seed_sequence, pcg64_random, pcg64_words

# Windows per synthesis block (whole locations, or one location when E*M
# is larger).  Like detector.BLOCK_PAIRS, it bounds working memory and no
# output depends on it.
BLOCK_WINDOWS = 1024

# Path loss at 1 m, in dB; only tx_power_dbm minus it enters a received power.
REFERENCE_LOSS_DB = 40.0

# Tone frequency, in cycles per sample.  With circular white noise it changes
# which draws an RSS estimate sees, not their distribution, so like a seed it
# is no config key.
TONE_CYCLES_PER_SAMPLE = 0.25


def db_to_linear(power_db: float) -> float:
    """dBm -> mW. -inf maps to exactly 0."""
    return 10.0 ** (power_db / 10.0)


def linear_to_db(power_linear: float) -> float:
    """mW -> dBm."""
    return 10.0 * math.log10(power_linear)


@dataclass(frozen=True)
class ScenarioConfig:
    """Parameters for the synthetic measurement scenario.

    The default receiver layout (``receiver_positions`` None) mimics a
    small campaign: four groups of four antennas each (16 channels) at
    2 m height, the antennas of a group on a 0.05 m square so they see
    nearly the same path, the groups centred 12 m from the region centre
    in both x and y.  Any other layout is written as ``receiver_positions``.

    ``gain_drift_std_db`` models per-transmission receiver gain drift
    (AGC/oscillator wander between windows).  One offset is drawn per
    window per receiver *group*, where groups are connected components of
    receivers closer than ``gain_group_radius_m``; antennas sharing an RF
    enclosure drift together, distant receivers drift independently.
    Zero disables the effect.
    """

    n_locations: int = 52
    region: tuple[tuple[float, float], ...] = ((0.0, 6.0), (0.0, 5.0), (0.5, 1.5))
    receiver_positions: tuple[tuple[float, float, float], ...] | None = None
    path_loss_exponent: float = 2.5
    shadowing_std_db: float = 6.0
    noise_dbm: float = -90.0
    tx_power_dbm: float = 0.0
    gain_drift_std_db: float = 0.0
    gain_group_radius_m: float = 0.5


@dataclass(frozen=True)
class Scenario:
    """Frozen realization of a synthetic scenario.

    ``shadowing_db[n, m]`` is the shadowing draw for (location n, channel
    m); it is part of the geometry and never redrawn per window.
    ``receiver_group[m]`` labels the gain-drift group of channel m.
    """

    config: ScenarioConfig
    locations: np.ndarray  # (L, 3) meters
    receivers: np.ndarray  # (M, 3) meters
    shadowing_db: np.ndarray  # (L, M)
    receiver_group: np.ndarray  # (M,) int

    @property
    def n_locations(self) -> int:
        return self.locations.shape[0]

    @property
    def n_channels(self) -> int:
        return self.receivers.shape[0]


@dataclass(frozen=True)
class SampleWindow:
    """One short record of complex baseband samples at one channel."""

    location_id: int
    receiver_id: int
    samples: np.ndarray  # complex128, length N_s


def _validate_config(config: ScenarioConfig) -> None:
    if config.n_locations < 2:
        raise ConfigError(f"n_locations must be >= 2, got {config.n_locations}")
    if len(config.region) != 3 or any(len(ax) != 2 for ax in config.region):
        raise ConfigError("region must be three (low, high) axis bounds")
    for axis, (lo, hi) in zip("xyz", config.region):
        if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
            raise ConfigError(f"region {axis} bounds must satisfy low < high, got ({lo}, {hi})")
    if config.receiver_positions is not None and len(config.receiver_positions) < 1:
        raise ConfigError("receiver_positions must contain at least one receiver")
    if config.path_loss_exponent <= 0:
        raise ConfigError(f"path_loss_exponent must be > 0, got {config.path_loss_exponent}")
    if config.shadowing_std_db < 0:
        raise ConfigError(f"shadowing_std_db must be >= 0, got {config.shadowing_std_db}")
    if config.gain_drift_std_db < 0:
        raise ConfigError(f"gain_drift_std_db must be >= 0, got {config.gain_drift_std_db}")
    if config.gain_group_radius_m < 0:
        raise ConfigError(f"gain_group_radius_m must be >= 0, got {config.gain_group_radius_m}")


def _default_receiver_layout(region) -> np.ndarray:
    """Four 4-antenna square micro-arrays centred 12 m from the region
    centre in both x and y, 2 m high, antennas 0.05 m apart."""
    bounds = np.asarray(region, dtype=float)
    cx, cy = bounds[0].mean(), bounds[1].mean()
    d, h = 12.0, 0.025
    return np.array([
        (gx + ox, gy + oy, 2.0)
        for gx, gy in ((cx - d, cy - d), (cx + d, cy - d), (cx - d, cy + d), (cx + d, cy + d))
        for ox, oy in ((-h, -h), (h, -h), (-h, h), (h, h))
    ])


def _group_receivers(receivers: np.ndarray, radius: float) -> np.ndarray:
    """Connected components of receivers under pairwise distance <= radius."""
    m = receivers.shape[0]
    labels = np.full(m, -1, dtype=np.int64)
    dist = np.linalg.norm(receivers[:, None, :] - receivers[None, :, :], axis=2)
    next_label = 0
    for i in range(m):
        if labels[i] >= 0:
            continue
        stack = [i]
        labels[i] = next_label
        while stack:
            j = stack.pop()
            for k in np.nonzero((dist[j] <= radius) & (labels < 0))[0]:
                labels[k] = next_label
                stack.append(int(k))
        next_label += 1
    return labels


def generate_scenario(config: ScenarioConfig, seed: int) -> Scenario:
    """Place transmitter locations uniformly in the region and freeze the channel.

    Deterministic given ``seed``.  Exact duplicate locations are redrawn
    (a measure-zero event for continuous draws, but the pairwise-distinct
    invariant is hard).
    """
    _validate_config(config)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    bounds = np.asarray(config.region, dtype=float)

    locations = rng.uniform(bounds[:, 0], bounds[:, 1], size=(config.n_locations, 3))
    while True:
        _, first = np.unique(locations, axis=0, return_index=True)
        if first.size == config.n_locations:
            break
        dup = np.setdiff1d(np.arange(config.n_locations), first)
        locations[dup] = rng.uniform(bounds[:, 0], bounds[:, 1], size=(dup.size, 3))

    if config.receiver_positions is not None:
        receivers = np.asarray(config.receiver_positions, dtype=float).reshape(-1, 3)
    else:
        receivers = _default_receiver_layout(config.region)

    dists = np.linalg.norm(locations[:, None, :] - receivers[None, :, :], axis=2)
    if np.any(dists == 0.0):
        raise ConfigError("receiver_positions: a receiver coincides with a transmitter location")

    shadowing = rng.normal(0.0, config.shadowing_std_db, size=(config.n_locations, receivers.shape[0]))
    groups = _group_receivers(receivers, config.gain_group_radius_m)
    return Scenario(
        config=config,
        locations=locations,
        receivers=receivers,
        shadowing_db=shadowing,
        receiver_group=groups,
    )


def _check_ids(scenario: Scenario, location_id: int, receiver_id: int | None = None) -> None:
    if not 0 <= location_id < scenario.n_locations:
        raise KeyError(f"unknown location id {location_id}")
    if receiver_id is not None and not 0 <= receiver_id < scenario.n_channels:
        raise KeyError(f"unknown receiver id {receiver_id}")


def _signal_power_dbm(scenario: Scenario, location_ids) -> np.ndarray:
    """Signal-only received power at each location on each channel, in dBm, shape (P, M).

    Each distance is numpy's vector dot kernel, the one ``np.linalg.norm``
    of a single vector uses, so it is bit for bit that norm; the loss is
    ``math.log10`` per value.
    """
    cfg = scenario.config
    d = scenario.locations[location_ids, None, :] - scenario.receivers
    dist = np.sqrt(np.matmul(d[..., None, :], d[..., :, None])[..., 0, 0])
    loss = [10.0 * cfg.path_loss_exponent * math.log10(v) for v in dist.ravel().tolist()]
    return (
        cfg.tx_power_dbm
        - REFERENCE_LOSS_DB
        - np.reshape(loss, dist.shape)
        + scenario.shadowing_db[location_ids]
    )


def received_power_dbm(scenario: Scenario, location_id: int, receiver_id: int) -> float:
    """Signal-only received power: tx - loss(d) + shadowing, in dBm."""
    _check_ids(scenario, location_id, receiver_id)
    return float(_signal_power_dbm(scenario, [location_id])[0, receiver_id])


def true_rss(scenario: Scenario, location_id: int) -> np.ndarray:
    """Expected RSS of signal plus noise per channel, in dBm, shape (M,).

    Signal and noise powers add linearly (they are uncorrelated), so
    f_m = 10*log10(10^(P_rx,m/10) + 10^(noise/10)).
    """
    _check_ids(scenario, location_id)
    noise_lin = db_to_linear(scenario.config.noise_dbm)
    signal_dbm = _signal_power_dbm(scenario, [location_id])[0].tolist()
    return np.array([linear_to_db(db_to_linear(p) + noise_lin) for p in signal_dbm])


def _generators(words: np.ndarray):
    """One reused ``Generator``, set in turn to each row of (B, 4) PCG64 words."""
    bit_generator = np.random.PCG64(0)
    inner = {"state": 0, "inc": 0}
    full = {"bit_generator": "PCG64", "state": inner, "has_uint32": 0, "uinteger": 0}
    rng = np.random.Generator(bit_generator)
    for state_hi, state_lo, inc_hi, inc_lo in words.tolist():
        inner["state"], inner["inc"] = (state_hi << 64) | state_lo, (inc_hi << 64) | inc_lo
        bit_generator.state = full
        yield rng


def _sample_windows(
    cfg: ScenarioConfig, amplitudes: np.ndarray, words: np.ndarray, n_samples: int
) -> np.ndarray:
    """Complex samples of ``len(words)`` windows, one window per row.

    Window i has tone amplitude ``amplitudes[i]`` and draws from a PCG64
    started at row i of the (B, 4) ``words``: the uniform phase, then
    2*N_s noise normals, N_s real parts followed by N_s imaginary parts.
    The phases come from the words themselves (``seeding.pcg64_random``),
    so only the normals are drawn per window; the tone, noise scaling and
    sum are elementwise over all rows, so a window's samples do not depend
    on which other windows share the call.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    noise_power = db_to_linear(cfg.noise_dbm)
    words, uniforms = pcg64_random(words)
    # Generator.uniform(0, 2*pi) is 0.0 + 2*pi * random(), bit for bit
    phases = 2.0 * math.pi * uniforms

    k = np.arange(n_samples)
    tone = amplitudes[:, None] * np.exp(
        1j * (2.0 * math.pi * TONE_CYCLES_PER_SAMPLE * k + phases[:, None])
    )
    noise = 0.0
    if noise_power > 0.0:
        normals = np.empty((len(words), 2 * n_samples))
        for row, rng in zip(normals, _generators(words)):
            rng.standard_normal(out=row)
        real, imag = normals[:, :n_samples], normals[:, n_samples:]
        noise = math.sqrt(noise_power / 2.0) * (real + 1j * imag)
    return tone + noise


def _mean_power(samples: np.ndarray) -> np.ndarray:
    """Mean squared magnitude along the last axis (per window)."""
    return np.mean(np.abs(samples) ** 2, axis=-1)


def _rss_db(powers: np.ndarray, location_ids, receiver_ids) -> list[float]:
    """Each window's mean power in dBm; window i is at location
    ``location_ids[i]``, on channel ``receiver_ids[i]``.

    The conversion is ``linear_to_db``'s ``math.log10`` per value: numpy's
    ``log10`` differs from it in the last bit on some inputs.
    """
    zero = np.flatnonzero(powers == 0.0)
    if zero.size:
        raise DegeneratePowerError(
            f"all-zero sample window (location {location_ids[zero[0]]}, "
            f"receiver {receiver_ids[zero[0]]}); RSS in dB is undefined"
        )
    return [10.0 * math.log10(p) for p in powers.tolist()]


def draw_sample_window(
    scenario: Scenario,
    location_id: int,
    receiver_id: int,
    n_samples: int,
    seed: SeedLike,
    extra_gain_db: float = 0.0,
) -> SampleWindow:
    """Draw one window of complex baseband samples, r[k] = h*x[k] + v[k].

    x[k] is a unit-power complex tone at ``TONE_CYCLES_PER_SAMPLE`` with
    a random initial phase; |h|^2 equals the linear received signal
    power shifted by ``extra_gain_db``; v[k] is i.i.d. circular Gaussian
    at the configured noise power.  Deterministic given seed.  Batched
    synthesis draws the same window from the same seed (gain drift
    entering as ``extra_gain_db``) without calling this function.
    """
    p_rx = received_power_dbm(scenario, location_id, receiver_id) + extra_gain_db
    amplitude = np.array([math.sqrt(db_to_linear(p_rx))])
    words = pcg64_words(as_seed_sequence(seed), np.empty((1, 0), dtype=np.int64))
    samples = _sample_windows(scenario.config, amplitude, words, n_samples)
    return SampleWindow(location_id=location_id, receiver_id=receiver_id, samples=samples[0])


def estimate_rss(window: SampleWindow) -> float:
    """Short-term RSS estimate: 10*log10 of the mean squared magnitude.

    The mean (rather than the bare sum) makes the estimate converge to
    the true RSS as the window grows instead of drifting by
    10*log10(N_s).
    """
    power = np.atleast_1d(_mean_power(window.samples))
    return _rss_db(power, [window.location_id], [window.receiver_id])[0]


def _estimate_vectors(
    scenario: Scenario,
    location_ids: np.ndarray,
    n_samples: int,
    parent: np.random.SeedSequence,
    tails: np.ndarray,
) -> np.ndarray:
    """RSS vector estimates at a block of locations, in dBm, shape (P, E, M).

    Estimate j of ``location_ids[p]`` draws from the M+1 descendants of
    ``parent`` whose spawn keys are ``parent.spawn_key`` followed by
    ``tails[p, j, 0]``, ..., ``tails[p, j, M]`` (``tails`` has shape
    (P, E, M+1, k)): stream 0 draws the per-group gain drift, stream rx+1
    drives the window of channel rx.  All P*E*M windows are synthesized
    in one batch.
    """
    cfg = scenario.config
    m = scenario.n_channels
    n_locations, n_estimates = tails.shape[:2]
    signal_dbm = _signal_power_dbm(scenario, location_ids)
    n_groups = int(scenario.receiver_group.max()) + 1
    words = pcg64_words(parent, tails.reshape(-1, tails.shape[-1])).reshape(-1, m + 1, 4)
    if cfg.gain_drift_std_db > 0.0:
        drift = np.array(
            [rng.normal(0.0, cfg.gain_drift_std_db, size=n_groups) for rng in _generators(words[:, 0])]
        ).reshape(n_locations, n_estimates, n_groups)
    else:
        drift = np.zeros((n_locations, n_estimates, n_groups))
    p_rx = signal_dbm[:, None, :] + drift[:, :, scenario.receiver_group]

    # db_to_linear's ``**`` per value: numpy's ``power`` differs from it in
    # the last bit on some inputs
    amplitudes = np.array([math.sqrt(10.0 ** (p / 10.0)) for p in p_rx.ravel().tolist()])
    samples = _sample_windows(cfg, amplitudes, words[:, 1:].reshape(-1, 4), n_samples)
    values = _rss_db(
        _mean_power(samples),
        np.repeat(location_ids, n_estimates * m),
        np.tile(np.arange(m), n_locations * n_estimates),
    )
    return np.array(values).reshape(n_locations, n_estimates, m)


def estimate_rss_vector(
    scenario: Scenario, location_id: int, n_samples: int, seed: SeedLike
) -> np.ndarray:
    """One RSS vector estimate: every channel measured once, in dBm.

    The transmitter position is held fixed across the M windows; noise
    streams are independent per channel.  If the scenario has nonzero
    gain drift, one offset per receiver group is drawn for this estimate
    and applied to all windows of that group.  The streams are the M+1
    children ``spawn`` would give next; a SeedSequence seed is read, never
    spawned from, so repeated calls with it return the same vector.
    """
    _check_ids(scenario, location_id)
    ss = as_seed_sequence(seed)
    tails = ss.n_children_spawned + np.arange(scenario.n_channels + 1)
    return _estimate_vectors(scenario, [location_id], n_samples, ss, tails[None, None, :, None])[0, 0]


def simulate_measurement_set(
    scenario: Scenario, n_estimates: int, n_samples: int, seed: int
):
    """Full synthetic campaign: E independent RSS vector estimates per location.

    Returns a :class:`rssdetect.dataset.MeasurementSet` with location ids
    0..L-1 and the scenario's transmitter coordinates attached.  Estimate
    j of location n is ``estimate_rss_vector`` on
    ``SeedSequence(seed, spawn_key=(n*E + j,))``, the child that
    ``SeedSequence(seed).spawn`` hands out at index n*E + j.
    """
    from .dataset import MeasurementSet  # local import to keep dataset free of this module

    if n_estimates < 2:
        raise ConfigError(f"n_estimates must be >= 2, got {n_estimates}")
    parent = np.random.SeedSequence(seed)
    n_locations, m = scenario.n_locations, scenario.n_channels
    values = np.empty((n_locations, n_estimates, m))
    per_block = max(1, BLOCK_WINDOWS // (n_estimates * m))
    for start in range(0, n_locations, per_block):
        ids = np.arange(start, min(start + per_block, n_locations))
        tails = np.empty((ids.size, n_estimates, m + 1, 2), dtype=np.int64)
        tails[..., 0] = (ids[:, None] * n_estimates + np.arange(n_estimates))[:, :, None]
        tails[..., 1] = np.arange(m + 1)
        values[start : start + ids.size] = _estimate_vectors(scenario, ids, n_samples, parent, tails)
    return MeasurementSet(
        values=values,
        location_ids=np.arange(scenario.n_locations, dtype=np.int64),
        coordinates=scenario.locations.copy(),
    )
