"""Synthetic narrowband channel and short-term RSS estimation.

Physical picture: a transmitter somewhere in a 3-D region emits a
unit-power carrier; M static receiver channels observe it through a
log-distance path-loss channel with frozen log-normal shadowing, plus
circular white Gaussian noise.  Each channel estimates the received
signal strength (RSS) by averaging the squared magnitude of a short
window of N_s baseband samples, so the estimate fluctuates around the
true RSS; that fluctuation is the whole point of the exercise.  A window
is r[k] = h + v[k], the carrier at baseband: with circular noise, a
carrier frequency or phase would only rotate the samples and change no
estimate's distribution.

All powers are in dBm (dB relative to 1 mW); sample amplitudes are in
sqrt(mW).  Every operation is pure given its inputs and seed.

Random streams of a campaign (fixed: changing them changes every output
bit): location n draws from one generator, ``default_rng`` on child n of
``SeedSequence(seed)`` (spawn key (n,)).  It draws, in this order, the
(E, G) standard normals of its per-group gain drift and the
(E, M, 2, N_s) standard normals of its noise, each window's N_s real
parts before its N_s imaginary parts.  Both arrays are drawn for every
location, whether the drift or the noise is zero or not, each with one
call writing into the arrays of the current block.
``estimate_rss_vector`` is the same kernel with E = 1 on
``default_rng(seed)``.

Synthesis runs in blocks of whole locations, as many as fit in
``BLOCK_WINDOWS`` windows (E*M per location), or one location when E*M
is larger.  A block's windows are summed and averaged as one batch, so
working memory is a few (BLOCK_WINDOWS, N_s) arrays, whatever L is: a
tracemalloc peak of about 1.5 MB for the default 52 x 64 x 16 campaign
(0.43 MB of it the output).  The blocking changes no output bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegeneratePowerError

# Windows per synthesis block (whole locations, or one location when E*M
# is larger).  Like detector.BLOCK_PAIRS, it bounds working memory and no
# output depends on it.
BLOCK_WINDOWS = 1024

# Path loss at 1 m, in dB; only tx_power_dbm minus it enters a received power.
REFERENCE_LOSS_DB = 40.0


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
    if config.receiver_positions is not None:
        if len(config.receiver_positions) < 1:
            raise ConfigError("receiver_positions must contain at least one receiver")
        for i, pos in enumerate(config.receiver_positions):
            if len(pos) != 3 or not all(map(math.isfinite, pos)):
                raise ConfigError(f"receiver_positions: receiver {i} is not three finite numbers: {pos}")
    # -inf stays legal for the two powers: a silent transmitter, noise-free windows
    for name in ("path_loss_exponent", "shadowing_std_db", "gain_drift_std_db", "tx_power_dbm",
                 "noise_dbm"):
        value = getattr(config, name)
        if math.isnan(value) or value == math.inf:
            raise ConfigError(f"{name} must not be nan or +inf, got {value}")
    if config.path_loss_exponent <= 0:
        raise ConfigError(f"path_loss_exponent must be > 0, got {config.path_loss_exponent}")
    if config.shadowing_std_db < 0:
        raise ConfigError(f"shadowing_std_db must be >= 0, got {config.shadowing_std_db}")
    if config.gain_drift_std_db < 0:
        raise ConfigError(f"gain_drift_std_db must be >= 0, got {config.gain_drift_std_db}")
    if not config.gain_group_radius_m >= 0:
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
    """Connected components of receivers under pairwise distance <= radius,
    numbered in order of their lowest receiver index: each label starts as
    its receiver's index and falls to its neighbours' lowest until none does."""
    near = np.linalg.norm(receivers[:, None, :] - receivers[None, :, :], axis=2) <= radius
    labels = np.arange(receivers.shape[0])
    while True:
        lowest = np.where(near, labels, labels[:, None]).min(axis=1)
        if np.array_equal(lowest, labels):
            return np.unique(labels, return_inverse=True)[1]
        labels = lowest


def generate_scenario(config: ScenarioConfig, seed: int) -> Scenario:
    """Place transmitter locations uniformly in the region and freeze the channel.

    Deterministic given ``seed``.  Exact duplicate locations are redrawn
    (a measure-zero event for continuous draws, but the pairwise-distinct
    invariant is hard).
    """
    _validate_config(config)
    rng = np.random.default_rng(seed)
    bounds = np.asarray(config.region, dtype=float)

    locations = rng.uniform(bounds[:, 0], bounds[:, 1], size=(config.n_locations, 3))
    while True:
        _, first = np.unique(locations, axis=0, return_index=True)
        if first.size == config.n_locations:
            break
        dup = np.setdiff1d(np.arange(config.n_locations), first)
        locations[dup] = rng.uniform(bounds[:, 0], bounds[:, 1], size=(dup.size, 3))

    if config.receiver_positions is not None:
        receivers = np.asarray(config.receiver_positions, dtype=float)
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

    Each distance is sqrt((dx*dx + dy*dy) + dz*dz) in elementwise ufuncs,
    with no BLAS dot whose bits would follow the CPU's kernel; the loss is
    ``math.log10`` per value.
    """
    cfg = scenario.config
    d = scenario.locations[location_ids, None, :] - scenario.receivers
    sq = d * d
    dist = np.sqrt(sq[..., 0] + sq[..., 1] + sq[..., 2])
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


def _sample_windows(cfg: ScenarioConfig, amplitudes: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Complex samples of ``len(amplitudes)`` windows, one window per row.

    Window i has carrier amplitude ``amplitudes[i]`` and noise
    ``normals[i]`` (shape (2, N_s): standard normal real parts, then
    imaginary parts, scaled here to the noise power).  Everything is
    elementwise over the rows, so a window's samples do not depend on
    which other windows share the call.
    """
    noise = math.sqrt(db_to_linear(cfg.noise_dbm) / 2.0) * (normals[:, 0] + 1j * normals[:, 1])
    return amplitudes[:, None] + noise


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
    seed: int | np.random.SeedSequence,
    extra_gain_db: float = 0.0,
) -> SampleWindow:
    """Draw one window of complex baseband samples, r[k] = h + v[k].

    h is the carrier at baseband, real and positive, with h^2 the linear
    received signal power shifted by ``extra_gain_db``; v[k] is i.i.d.
    circular Gaussian at the configured noise power.  ``default_rng(seed)``
    draws N_s real, then N_s imaginary noise normals.  Deterministic
    given seed; campaign synthesis does not call it.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    p_rx = received_power_dbm(scenario, location_id, receiver_id) + extra_gain_db
    amplitude = np.array([math.sqrt(db_to_linear(p_rx))])
    normals = np.random.default_rng(seed).standard_normal((1, 2, n_samples))
    samples = _sample_windows(scenario.config, amplitude, normals)
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
    scenario: Scenario, location_ids, n_estimates: int, n_samples: int, rngs
) -> np.ndarray:
    """RSS vector estimates at a block of locations, in dBm, shape (P, E, M).

    Location ``location_ids[p]`` draws from generator ``rngs[p]``, in the
    module docstring's order: gain drift, then noise.  All P*E*M
    windows are synthesized in one batch.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    cfg = scenario.config
    m = scenario.n_channels
    n_locations = len(location_ids)
    n_groups = int(scenario.receiver_group.max()) + 1
    drift = np.empty((n_locations, n_estimates, n_groups))
    normals = np.empty((n_locations, n_estimates, m, 2, n_samples))
    for rng, d, z in zip(rngs, drift, normals, strict=True):
        rng.standard_normal(out=d)
        rng.standard_normal(out=z)
    p_rx = _signal_power_dbm(scenario, location_ids)[:, None, :] + (
        cfg.gain_drift_std_db * drift[:, :, scenario.receiver_group]
    )

    # db_to_linear's ``**`` per value: numpy's ``power`` differs from it in
    # the last bit on some inputs
    amplitudes = np.array([math.sqrt(10.0 ** (p / 10.0)) for p in p_rx.ravel().tolist()])
    samples = _sample_windows(cfg, amplitudes, normals.reshape(-1, 2, n_samples))
    values = _rss_db(
        _mean_power(samples),
        np.repeat(location_ids, n_estimates * m),
        np.tile(np.arange(m), n_locations * n_estimates),
    )
    return np.array(values).reshape(n_locations, n_estimates, m)


def estimate_rss_vector(
    scenario: Scenario, location_id: int, n_samples: int, seed: int | np.random.SeedSequence
) -> np.ndarray:
    """One RSS vector estimate: every channel measured once, in dBm.

    The transmitter position is held fixed across the M windows; noise
    is independent per channel.  If the scenario has nonzero gain drift,
    one offset per receiver group is drawn for this estimate and applied
    to all windows of that group.  This is one location's synthesis with
    E = 1 on ``default_rng(seed)``; a SeedSequence seed is read, never
    spawned from, so repeated calls with it return the same vector.
    """
    _check_ids(scenario, location_id)
    return _estimate_vectors(scenario, [location_id], 1, n_samples, [np.random.default_rng(seed)])[0, 0]


def simulate_measurement_set(
    scenario: Scenario, n_estimates: int, n_samples: int, seed: int
):
    """Full synthetic campaign: E independent RSS vector estimates per location.

    Returns a :class:`rssdetect.dataset.MeasurementSet` with location ids
    0..L-1 and the scenario's transmitter coordinates attached.  Location
    n draws from ``default_rng`` on the child that
    ``SeedSequence(seed).spawn`` hands out at index n.
    """
    from .dataset import MeasurementSet  # local import to keep dataset free of this module

    if n_estimates < 2:
        raise ConfigError(f"n_estimates must be >= 2, got {n_estimates}")
    n_locations, m = scenario.n_locations, scenario.n_channels
    children = np.random.SeedSequence(seed).spawn(n_locations)
    values = np.empty((n_locations, n_estimates, m))
    per_block = max(1, BLOCK_WINDOWS // (n_estimates * m))
    for start in range(0, n_locations, per_block):
        ids = np.arange(start, min(start + per_block, n_locations))
        rngs = [np.random.default_rng(children[n]) for n in ids]
        values[start : start + ids.size] = _estimate_vectors(scenario, ids, n_estimates, n_samples, rngs)
    return MeasurementSet(
        values=values,
        location_ids=np.arange(scenario.n_locations, dtype=np.int64),
        coordinates=scenario.locations.copy(),
    )
