"""Random frequency-selective MIMO channels with distance-based path loss.

A :class:`Scenario` collects every physical and protocol parameter of the
two-hop link.  :func:`generate` draws one block-fading realization: i.i.d.
circularly-symmetric complex Gaussian entries (Rayleigh fading) whose
per-entry power follows a ``max(distance, 1)**(-pathloss_exp)`` law, one
matrix per OFDM subcarrier and hop.  Each hop's K matrices come from a
single ``standard_normal`` call whose stream order matches a draw per
subcarrier, so the gains equal those of that draw bit for bit.  Each
matrix is then decomposed by LAPACK's SVD, one call per matrix (the
benchmark's tracer counts one ``svd`` span each), and only its
per-subchannel power gains (squared singular values) are kept; no
downstream code reads the singular vectors.

Realizations are immutable after construction and generation is
deterministic for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np
from numpy.linalg import svd

__all__ = [
    "ChannelRealization",
    "EffectiveSubchannels",
    "Scenario",
    "effective_subchannels",
    "generate",
    "scenario_from_file",
]


@dataclass(frozen=True)
class Scenario:
    """Physical and protocol parameters of the relay link.

    Attributes:
        n_s, n_r, n_d: Antenna counts at source, relay and destination.
        k_subcarriers: Number of OFDM subcarriers K.
        bandwidth_hz: Total system bandwidth in Hz.
        p_source: Source transmit power budget in W.
        eta: Energy conversion efficiency of the relay harvester, in (0, 1].
        phi: Relay position as the ratio d_SR / d_SD, in (0, 1).
        d_sd: Source-destination distance, in units of the path-loss
            reference distance.
        pathloss_exp: Path loss exponent, finite and >= 0.
        noise_total_w: Total receiver noise power over the whole band, W.
            Each subchannel sees ``noise_total_w / k_subcarriers``.
        seed: Seed for the default random generator.

    Path loss: a hop of length ``d`` (in reference distances) has power
    gain ``max(d, 1)**(-pathloss_exp)``, so a hop no longer than the
    reference distance has unit gain and path loss never amplifies.

    Sources of the defaults.  The paper's simulation table is not
    reproduced in this repository (``PAPER.md`` holds the abstract only),
    so none of these values is quoted from it; each was chosen as follows.

    * ``n_s = n_r = n_d = 2``, ``k_subcarriers = 2``: the smallest
      MIMO-OFDM link, two spatial streams on each of two subcarriers.
    * ``bandwidth_hz = 1000``, ``p_source = 1`` W, ``noise_total_w =
      1e-6`` W: normalized units; rates scale with the bandwidth, and
      only the ratio of power to noise enters the SNR coefficients.
    * ``eta = 1``: an ideal harvester, the upper end of its range.
    * ``phi = 0.5``: the relay halfway between source and destination.
    * ``d_sd = 10``: every relay position with ``phi`` in [0.1, 0.9]
      puts both hops at or beyond the reference distance, so the
      distance-dependent part of the path-loss law is what sets the
      hop-2 to hop-1 balance over the whole sweep.
    * ``pathloss_exp = 4``: a common exponent for ground-level links.
    """

    n_s: int = 2
    n_r: int = 2
    n_d: int = 2
    k_subcarriers: int = 2
    bandwidth_hz: float = 1000.0
    p_source: float = 1.0
    eta: float = 1.0
    phi: float = 0.5
    d_sd: float = 10.0
    pathloss_exp: float = 4.0
    noise_total_w: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        for name in ("n_s", "n_r", "n_d"):
            if int(getattr(self, name)) < 1:
                raise ValueError(f"{name} must be a positive antenna count")
        if int(self.k_subcarriers) < 1:
            raise ValueError("k_subcarriers must be >= 1")
        for name in ("bandwidth_hz", "p_source", "d_sd", "noise_total_w"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and > 0")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must lie in (0, 1]")
        if not 0.0 < self.phi < 1.0:
            raise ValueError("phi must lie strictly in (0, 1)")
        if not 0.0 <= self.pathloss_exp < np.inf:
            raise ValueError("pathloss_exp must be finite and >= 0: path loss never amplifies")

    @property
    def noise_per_subchannel(self) -> float:
        """Noise power per subchannel (same at relay and destination)."""
        return self.noise_total_w / self.k_subcarriers

    @property
    def n_streams(self) -> int:
        """Spatial subchannels per subcarrier: min over all antenna counts."""
        return min(self.n_s, self.n_r, self.n_d)

    @property
    def d_sr(self) -> float:
        """Source-relay distance."""
        return self.phi * self.d_sd

    @property
    def d_rd(self) -> float:
        """Relay-destination distance."""
        return (1.0 - self.phi) * self.d_sd


@dataclass(frozen=True)
class ChannelRealization:
    """One block-fading draw of both hops, decomposed per subcarrier.

    ``gains1``/``gains2`` hold the ``K * n_streams`` squared singular
    values in subcarrier-major order, strongest layer first within each
    subcarrier: entry ``k * n_streams`` is the top gain of subcarrier
    ``k``.
    """

    gains1: np.ndarray
    gains2: np.ndarray


class EffectiveSubchannels(NamedTuple):
    """Both hops' subchannel gains, each sorted in descending order."""

    gains1: np.ndarray
    gains2: np.ndarray


def generate(scenario: Scenario, rng: np.random.Generator | None = None) -> ChannelRealization:
    """Draw one channel realization.

    Entries of hop-1 matrices are i.i.d. CN(0, max(d_SR, 1)**-pathloss_exp)
    and hop-2 entries use d_RD in the same way.  When ``rng`` is omitted a
    fresh ``numpy.random.default_rng(scenario.seed)`` is used, so two
    calls with the same scenario produce identical realizations.

    Each hop's K matrices come from one ``standard_normal`` call, which
    consumes the stream exactly as one draw per subcarrier would (real
    part before imaginary part per subcarrier, all of hop 1 before
    hop 2), so the gains are those of the per-subcarrier draw, bit for
    bit.  The SVD runs once per matrix, because the benchmark's tracer
    counts one ``channel.svd`` span per matrix.
    """
    if rng is None:
        rng = np.random.default_rng(scenario.seed)
    k = scenario.k_subcarriers
    var1 = max(scenario.d_sr, 1.0) ** (-scenario.pathloss_exp)
    var2 = max(scenario.d_rd, 1.0) ** (-scenario.pathloss_exp)
    h1 = _complex_gaussian(rng, k, scenario.n_r, scenario.n_s, var1)
    h2 = _complex_gaussian(rng, k, scenario.n_d, scenario.n_r, var2)
    n = scenario.n_streams
    return ChannelRealization(gains1=_power_gains(h1, n), gains2=_power_gains(h2, n))


def effective_subchannels(real: ChannelRealization) -> EffectiveSubchannels:
    """Sort both hops' flattened gains in descending order.

    The sort is the pairing: index ``n`` pairs the n-th strongest hop-1
    subchannel with the n-th strongest hop-2 subchannel, the rank-ordered
    pairing that maximizes the rate.
    """
    return EffectiveSubchannels(
        gains1=real.gains1[np.argsort(-real.gains1, kind="stable")],
        gains2=real.gains2[np.argsort(-real.gains2, kind="stable")],
    )


def scenario_from_file(path) -> Scenario:
    """Load a :class:`Scenario` from a plain-text ``key=value`` file.

    Lines starting with ``#`` and blank lines are ignored.  Unknown keys
    raise ``ValueError``.
    """
    values = parse_key_value_file(path)
    return scenario_from_mapping(values, source=str(path))


def scenario_from_mapping(values: dict[str, str], source: str = "<mapping>") -> Scenario:
    """Build a Scenario from string key/value pairs, rejecting unknown keys."""
    field_types = {f.name: f.type for f in fields(Scenario)}
    kwargs = {}
    for key, raw in values.items():
        if key not in field_types:
            raise ValueError(f"{source}: unknown scenario key '{key}'")
        kwargs[key] = _parse_scalar(key, raw, field_types[key])
    return Scenario(**kwargs)


def parse_key_value_file(path) -> dict[str, str]:
    """Parse ``key = value`` lines; '#' starts a comment."""
    values: dict[str, str] = {}
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got '{line.strip()}'")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key in values:
            raise ValueError(f"{path}:{lineno}: duplicate key '{key}'")
        values[key] = raw.strip()
    return values


def _parse_scalar(key: str, raw: str, typ) -> int | float:
    type_name = typ if isinstance(typ, str) else getattr(typ, "__name__", str(typ))
    try:
        if "int" in type_name:
            return int(raw)
        return float(raw)
    except ValueError as exc:
        raise ValueError(f"invalid value for '{key}': {raw!r}") from exc


def _complex_gaussian(
    rng: np.random.Generator, k: int, rows: int, cols: int, variance: float
) -> np.ndarray:
    """``(k, rows, cols)`` stack of i.i.d. CN(0, variance) entries, drawn in one call."""
    scale = np.sqrt(variance / 2.0)
    x = rng.standard_normal((k, 2, rows, cols))
    return scale * (x[:, 0] + 1j * x[:, 1])


def _power_gains(h: np.ndarray, n_streams: int) -> np.ndarray:
    """Top ``n_streams`` squared singular values of each matrix, subcarrier-major.

    One decomposition per matrix; LAPACK returns the singular values in
    descending order.
    """
    gains = np.empty((h.shape[0], n_streams))
    for k, matrix in enumerate(h):
        gains[k] = svd(matrix, compute_uv=False)[:n_streams]
    gains **= 2
    return gains.reshape(-1)
