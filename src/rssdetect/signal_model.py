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
is built per window: ``seeding.pcg64_states`` derives the PCG64 state of
every stream of a location in one vectorized pass, and one reused
generator is set to each state in turn.  ``estimate_rss_vector`` on a
SeedSequence reads the same children its ``spawn`` would give next,
without spawning, so the caller's object is left untouched.

Synthesis runs one location at a time: the E*M windows of a location
are drawn per generator, then toned, summed and averaged as one batch,
so working memory is a few (E*M, N_s) arrays: about 3 MB peak for the
default 52 x 64 x 16 campaign, growing with E*M*N_s but not with L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegeneratePowerError
from .seeding import SeedLike, as_seed_sequence, pcg64_states


def db_to_linear(power_db: float) -> float:
    """dBm -> mW. -inf maps to exactly 0."""
    if power_db == -math.inf:
        return 0.0
    return 10.0 ** (power_db / 10.0)


def linear_to_db(power_linear: float) -> float:
    """mW -> dBm."""
    return 10.0 * math.log10(power_linear)


@dataclass(frozen=True)
class ScenarioConfig:
    """Parameters for the synthetic measurement scenario.

    The default receiver layout mimics a small campaign: four groups of
    four antennas each (16 channels), the antennas of a group packed
    within ~0.1 m so they see nearly the same path, the groups placed at
    standoff distance around the transmitter region.

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
    n_receiver_groups: int = 4
    antennas_per_group: int = 4
    receiver_standoff_m: float = 12.0
    antenna_spacing_m: float = 0.05
    antenna_height_m: float = 2.0
    path_loss_exponent: float = 2.5
    reference_loss_db: float = 40.0
    shadowing_std_db: float = 6.0
    noise_dbm: float = -90.0
    tx_power_dbm: float = 0.0
    gain_drift_std_db: float = 0.0
    gain_group_radius_m: float = 0.5
    ts_seconds: float = 5e-8
    tone_cycles_per_sample: float = 0.25


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
    seed: int

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
    ts_seconds: float

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]


@dataclass(frozen=True)
class TrueRssVector:
    """Per-channel RSS of signal plus noise, in dBm."""

    location_id: int
    values_db: np.ndarray  # (M,)


def _validate_config(config: ScenarioConfig) -> None:
    if config.n_locations < 2:
        raise ConfigError(f"n_locations must be >= 2, got {config.n_locations}")
    if len(config.region) != 3 or any(len(ax) != 2 for ax in config.region):
        raise ConfigError("region must be three (low, high) axis bounds")
    for axis, (lo, hi) in zip("xyz", config.region):
        if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
            raise ConfigError(f"region {axis} bounds must satisfy low < high, got ({lo}, {hi})")
    if config.receiver_positions is None:
        if config.n_receiver_groups < 1:
            raise ConfigError(f"n_receiver_groups must be >= 1, got {config.n_receiver_groups}")
        if config.antennas_per_group < 1:
            raise ConfigError(f"antennas_per_group must be >= 1, got {config.antennas_per_group}")
        if config.receiver_standoff_m <= 0:
            raise ConfigError(f"receiver_standoff_m must be > 0, got {config.receiver_standoff_m}")
        if config.antenna_spacing_m <= 0:
            raise ConfigError(f"antenna_spacing_m must be > 0, got {config.antenna_spacing_m}")
    elif len(config.receiver_positions) < 1:
        raise ConfigError("receiver_positions must contain at least one receiver")
    if config.path_loss_exponent <= 0:
        raise ConfigError(f"path_loss_exponent must be > 0, got {config.path_loss_exponent}")
    if config.shadowing_std_db < 0:
        raise ConfigError(f"shadowing_std_db must be >= 0, got {config.shadowing_std_db}")
    if config.gain_drift_std_db < 0:
        raise ConfigError(f"gain_drift_std_db must be >= 0, got {config.gain_drift_std_db}")
    if config.gain_group_radius_m < 0:
        raise ConfigError(f"gain_group_radius_m must be >= 0, got {config.gain_group_radius_m}")
    if config.ts_seconds <= 0:
        raise ConfigError(f"ts_seconds must be > 0, got {config.ts_seconds}")


def _default_receiver_layout(config: ScenarioConfig) -> np.ndarray:
    """Square micro-arrays at standoff distance around the region center."""
    bounds = np.asarray(config.region, dtype=float)
    cx, cy = bounds[0].mean(), bounds[1].mean()
    d = config.receiver_standoff_m
    group_centers = [(cx - d, cy - d), (cx + d, cy - d), (cx - d, cy + d), (cx + d, cy + d)]
    while len(group_centers) < config.n_receiver_groups:
        # additional groups spread along +x
        k = len(group_centers)
        group_centers.append((cx + d * (1 + k / 4.0), cy))
    group_centers = group_centers[: config.n_receiver_groups]

    s = config.antenna_spacing_m
    offsets = [(-s / 2, -s / 2), (s / 2, -s / 2), (-s / 2, s / 2), (s / 2, s / 2)]
    positions = []
    for gx, gy in group_centers:
        for a in range(config.antennas_per_group):
            ox, oy = offsets[a % 4]
            oz = s * (a // 4)  # stack extra antennas vertically
            positions.append((gx + ox, gy + oy, config.antenna_height_m + oz))
    return np.asarray(positions, dtype=float)


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
        receivers = _default_receiver_layout(config)

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
        seed=seed,
    )


def _check_ids(scenario: Scenario, location_id: int, receiver_id: int | None = None) -> None:
    if not 0 <= location_id < scenario.n_locations:
        raise KeyError(f"unknown location id {location_id}")
    if receiver_id is not None and not 0 <= receiver_id < scenario.n_channels:
        raise KeyError(f"unknown receiver id {receiver_id}")


def _signal_power_dbm(scenario: Scenario, location_id: int, receiver_id: int) -> float:
    cfg = scenario.config
    d = float(np.linalg.norm(scenario.locations[location_id] - scenario.receivers[receiver_id]))
    return (
        cfg.tx_power_dbm
        - cfg.reference_loss_db
        - 10.0 * cfg.path_loss_exponent * math.log10(d)
        + float(scenario.shadowing_db[location_id, receiver_id])
    )


def received_power_dbm(scenario: Scenario, location_id: int, receiver_id: int) -> float:
    """Signal-only received power: tx - loss(d) + shadowing, in dBm."""
    _check_ids(scenario, location_id, receiver_id)
    return _signal_power_dbm(scenario, location_id, receiver_id)


def true_rss(scenario: Scenario, location_id: int) -> TrueRssVector:
    """Expected RSS of signal plus noise per channel, in dBm.

    Signal and noise powers add linearly (they are uncorrelated), so
    f_m = 10*log10(10^(P_rx,m/10) + 10^(noise/10)).
    """
    _check_ids(scenario, location_id)
    m = scenario.n_channels
    noise_lin = db_to_linear(scenario.config.noise_dbm)
    values = np.empty(m)
    for rx in range(m):
        sig_lin = db_to_linear(received_power_dbm(scenario, location_id, rx))
        values[rx] = linear_to_db(sig_lin + noise_lin)
    return TrueRssVector(location_id=location_id, values_db=values)


def _generators(states):
    """One reused ``Generator``, set in turn to each PCG64 ``(state, inc)``."""
    bit_generator = np.random.PCG64(0)
    inner = {"state": 0, "inc": 0}
    full = {"bit_generator": "PCG64", "state": inner, "has_uint32": 0, "uinteger": 0}
    rng = np.random.Generator(bit_generator)
    for state, inc in states:
        inner["state"], inner["inc"] = state, inc
        bit_generator.state = full
        yield rng


def _sample_windows(
    cfg: ScenarioConfig, amplitudes: np.ndarray, states, n_samples: int
) -> np.ndarray:
    """Complex samples of ``len(states)`` windows, one window per row.

    Window i has tone amplitude ``amplitudes[i]`` and draws from a PCG64
    started at ``states[i]``: the uniform phase, then 2*N_s noise normals,
    N_s real parts followed by N_s imaginary parts.  Only those draws run
    per window; the tone, noise scaling and sum are elementwise over all
    rows, so a window's samples do not depend on which other windows
    share the call.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    noise_power = db_to_linear(cfg.noise_dbm)
    phases = np.empty(len(states))
    normals = np.empty((len(states), 2 * n_samples))
    for i, rng in enumerate(_generators(states)):
        # Generator.uniform(0, 2*pi) is 0.0 + 2*pi * random(), bit for bit
        phases[i] = 2.0 * math.pi * rng.random()
        if noise_power > 0.0:
            rng.standard_normal(out=normals[i])

    k = np.arange(n_samples)
    tone = amplitudes[:, None] * np.exp(
        1j * (2.0 * math.pi * cfg.tone_cycles_per_sample * k + phases[:, None])
    )
    noise = 0.0
    if noise_power > 0.0:
        real, imag = normals[:, :n_samples], normals[:, n_samples:]
        noise = math.sqrt(noise_power / 2.0) * (real + 1j * imag)
    return tone + noise


def _mean_power(samples: np.ndarray) -> np.ndarray:
    """Mean squared magnitude along the last axis (per window)."""
    return np.mean(np.abs(samples) ** 2, axis=-1)


def _rss_db(powers: np.ndarray, location_id: int, receiver_ids) -> list[float]:
    """Each window's mean power in dBm; window i is on channel ``receiver_ids[i]``.

    The conversion is ``linear_to_db``'s ``math.log10`` per value: numpy's
    ``log10`` differs from it in the last bit on some inputs.
    """
    zero = np.flatnonzero(powers == 0.0)
    if zero.size:
        raise DegeneratePowerError(
            f"all-zero sample window (location {location_id}, "
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

    x[k] is a unit-power complex tone at the configured discrete
    frequency with a random initial phase; |h|^2 equals the linear
    received signal power (shifted by ``extra_gain_db``, the hook used
    for per-window receiver gain drift); v[k] is i.i.d. circular
    Gaussian at the configured noise power.  Deterministic given seed.
    """
    p_rx = received_power_dbm(scenario, location_id, receiver_id) + extra_gain_db
    amplitude = np.array([math.sqrt(db_to_linear(p_rx))])
    states = pcg64_states(as_seed_sequence(seed), np.empty((1, 0), dtype=np.int64))
    samples = _sample_windows(scenario.config, amplitude, states, n_samples)
    return SampleWindow(
        location_id=location_id,
        receiver_id=receiver_id,
        samples=samples[0],
        ts_seconds=scenario.config.ts_seconds,
    )


def estimate_rss(window: SampleWindow) -> float:
    """Short-term RSS estimate: 10*log10 of the mean squared magnitude.

    The mean (rather than the bare sum) makes the estimate converge to
    the true RSS as the window grows instead of drifting by
    10*log10(N_s).
    """
    power = np.atleast_1d(_mean_power(window.samples))
    return _rss_db(power, window.location_id, [window.receiver_id])[0]


def _estimate_vectors(
    scenario: Scenario,
    location_id: int,
    n_samples: int,
    parent: np.random.SeedSequence,
    tails: np.ndarray,
) -> np.ndarray:
    """RSS vector estimates at one location, one row per estimate, in dBm.

    Estimate j draws from the M+1 descendants of ``parent`` whose spawn
    keys are ``parent.spawn_key`` followed by ``tails[j, 0]``, ...,
    ``tails[j, M]`` (``tails`` has shape (E, M+1, k)): stream 0 draws the
    per-group gain drift, stream rx+1 drives the window of channel rx.
    All E*M windows are synthesized in one batch.
    """
    cfg = scenario.config
    m = scenario.n_channels
    n_estimates = tails.shape[0]
    signal_dbm = np.array([_signal_power_dbm(scenario, location_id, rx) for rx in range(m)])
    n_groups = int(scenario.receiver_group.max()) + 1
    states = pcg64_states(parent, tails.reshape(-1, tails.shape[-1]))
    if cfg.gain_drift_std_db > 0.0:
        drift_rngs = _generators(states[:: m + 1])
        drift = np.array([rng.normal(0.0, cfg.gain_drift_std_db, size=n_groups) for rng in drift_rngs])
    else:
        drift = np.zeros((n_estimates, n_groups))
    p_rx = signal_dbm + drift[:, scenario.receiver_group]
    window_states = [s for i, s in enumerate(states) if i % (m + 1)]

    # db_to_linear's ``**`` per value: numpy's ``power`` differs from it in
    # the last bit on some inputs
    amplitudes = np.array([math.sqrt(10.0 ** (p / 10.0)) for p in p_rx.ravel().tolist()])
    powers = _mean_power(_sample_windows(cfg, amplitudes, window_states, n_samples))
    values = _rss_db(powers, location_id, np.tile(np.arange(m), n_estimates))
    return np.array(values).reshape(n_estimates, m)


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
    return _estimate_vectors(scenario, location_id, n_samples, ss, tails[None, :, None])[0]


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
    values = np.empty((scenario.n_locations, n_estimates, scenario.n_channels))
    tails = np.empty((n_estimates, scenario.n_channels + 1, 2), dtype=np.int64)
    tails[:, :, 1] = np.arange(scenario.n_channels + 1)
    for n in range(scenario.n_locations):
        tails[:, :, 0] = n * n_estimates + np.arange(n_estimates)[:, None]
        values[n] = _estimate_vectors(scenario, n, n_samples, parent, tails)
    return MeasurementSet(
        values=values,
        location_ids=np.arange(scenario.n_locations, dtype=np.int64),
        coordinates=scenario.locations.copy(),
    )
