"""Exact Gaussian-process generators and the simulation model catalog.

Processes are sampled from their exact finite-dimensional laws on the grid:
Brownian motion by cumulative independent increments, the bridge as the
pinned transform of a Brownian path, the Ornstein-Uhlenbeck process as a
stationary AR(1) recursion, and the smoothed variants as Brownian paths
convolved with a boundary-renormalized Gaussian weight.

Simulation models come in two shapes: class-conditional Gaussian laws
(possibly mixtures over process+trend components) with a Bernoulli prior,
and logistic models where the marginal process is drawn first and the label
follows a Bernoulli with success probability expit(psi(x(t_1), ..., x(t_k))).

Every curve gets its own counter-derived RNG stream keyed by
(entropy, class, index), so generation is reproducible bit-for-bit no matter
how work is scheduled.  The built-in catalog ships as a plain-text file,
``models.catalog``, parsed by :func:`parse_catalog`.
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Union

import numpy as np
from scipy.special import expit

from .core import DatasetFormatError, Grid, LabeledDataset, make_grid
from .kernels import BrownianBridgeKernel, BrownianKernel, OrnsteinUhlenbeckKernel

__all__ = [
    "ZeroTrend",
    "LinearTrend",
    "RandomSlopeTrend",
    "PeakTrend",
    "HillsideTrend",
    "SumTrend",
    "TrendSpec",
    "trend_eval",
    "trend_realize",
    "SmoothedBrownian",
    "ProcessSpec",
    "gen_process",
    "GaussianComponent",
    "ClassLaw",
    "GaussianModel",
    "LinkTerm",
    "LogisticModel",
    "ModelSpec",
    "gen_model_dataset",
    "standard_grid",
    "parse_catalog",
    "load_catalog",
    "builtin_catalog",
    "GAUSSIAN_FAMILY",
]

# The Gaussian catalog models whose mean difference is an exact finite
# kernel expansion under the Brownian covariance.
GAUSSIAN_FAMILY = ("G2", "G2b", "G4", "G5", "G6", "G7", "G8")


# ---------------------------------------------------------------------------
# Trend functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZeroTrend:
    def values(self, t: np.ndarray) -> np.ndarray:
        return np.zeros_like(t)


@dataclass(frozen=True)
class LinearTrend:
    slope: float = 1.0

    def values(self, t):
        return self.slope * t


@dataclass(frozen=True)
class RandomSlopeTrend:
    """Linear trend theta*t with a fresh Gaussian slope per curve."""

    sd: float

    def __post_init__(self):
        if self.sd <= 0:
            raise ValueError("slope standard deviation must be positive")


@dataclass(frozen=True)
class PeakTrend:
    """Integrated Haar bump: a triangular peak supported on a dyadic interval.

    With s = sqrt(2^(level-1)) and breakpoints a=(2k-2)/2^level,
    b=(2k-1)/2^level, c=2k/2^level, the function rises with slope s on
    [a, b], falls with slope -s on [b, c] and is constant elsewhere.
    The shift ``k`` may be fractional as long as 1 <= k <= 2^(level-1).
    """

    level: int
    shift: float
    coefficient: float = 1.0

    def __post_init__(self):
        if self.level < 1 or int(self.level) != self.level:
            raise ValueError("level must be a positive integer")
        if not 1.0 <= self.shift <= 2.0 ** (self.level - 1):
            raise ValueError("shift must lie in [1, 2^(level-1)]")

    def values(self, t):
        s = math.sqrt(2.0 ** (self.level - 1))
        a = (2.0 * self.shift - 2.0) / 2.0**self.level
        b = (2.0 * self.shift - 1.0) / 2.0**self.level
        c = (2.0 * self.shift) / 2.0**self.level
        up = np.clip(np.minimum(t, b) - a, 0.0, None)
        down = np.clip(np.minimum(t, c) - b, 0.0, None)
        return self.coefficient * s * (up - down)


@dataclass(frozen=True)
class HillsideTrend:
    """Ramp b*(t - t0) switched on at t0."""

    t0: float
    slope: float

    def values(self, t):
        return self.slope * np.clip(t - self.t0, 0.0, None)


@dataclass(frozen=True)
class SumTrend:
    terms: tuple

    def values(self, t):
        total = np.zeros_like(np.asarray(t, dtype=float))
        for term in self.terms:
            total = total + term.values(t)
        return total


TrendSpec = Union[ZeroTrend, LinearTrend, RandomSlopeTrend, PeakTrend, HillsideTrend, SumTrend]


def _has_random_part(trend: TrendSpec) -> bool:
    if isinstance(trend, RandomSlopeTrend):
        return True
    if isinstance(trend, SumTrend):
        return any(_has_random_part(term) for term in trend.terms)
    return False


def trend_eval(spec: TrendSpec, t) -> np.ndarray | float:
    """Evaluate a deterministic trend; random-slope trends need an RNG stream."""
    if _has_random_part(spec):
        raise ValueError("random-slope trends require trend_realize with an rng")
    tt = np.asarray(t, dtype=float)
    out = spec.values(tt)
    return float(out) if tt.ndim == 0 else out


def trend_realize(spec: TrendSpec, points: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Sample one realization of the trend on the given times."""
    if isinstance(spec, RandomSlopeTrend):
        return rng.normal(0.0, spec.sd) * points
    if isinstance(spec, SumTrend):
        total = np.zeros_like(points)
        for term in spec.terms:
            total = total + trend_realize(term, points, rng)
        return total
    return spec.values(points)


# ---------------------------------------------------------------------------
# Process generators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmoothedBrownian:
    """Brownian path convolved with a Gaussian weight of the given bandwidth."""

    bandwidth: float

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")


ProcessSpec = Union[BrownianKernel, BrownianBridgeKernel, OrnsteinUhlenbeckKernel, SmoothedBrownian]


def _brownian_steps(points: np.ndarray) -> np.ndarray:
    return np.sqrt(np.diff(points, prepend=0.0))


def smoothing_matrix(grid: Grid, bandwidth: float) -> np.ndarray:
    """Row-normalized Gaussian weights; renormalization handles the boundaries."""
    d = grid.points[:, None] - grid.points[None, :]
    w = np.exp(-0.5 * (d / bandwidth) ** 2)
    return w / w.sum(axis=1, keepdims=True)


def _process_sampler(spec: ProcessSpec, grid: Grid) -> Callable[[np.random.Generator], np.ndarray]:
    """Precompute per-grid constants and return a one-curve sampler."""
    pts = grid.points
    if isinstance(spec, BrownianKernel):
        steps = _brownian_steps(pts)
        return lambda rng: np.cumsum(rng.standard_normal(pts.size) * steps)
    if isinstance(spec, BrownianBridgeKernel):
        t_max = spec.t_max
        if pts[-1] > t_max + 1e-12:
            raise ValueError("grid extends beyond the bridge endpoint")
        tail = t_max - pts[-1]
        steps = _brownian_steps(pts)
        scale = pts / t_max

        def draw_bridge(rng):
            b = np.cumsum(rng.standard_normal(pts.size) * steps)
            b_end = b[-1] + (math.sqrt(tail) * rng.standard_normal() if tail > 1e-15 else 0.0)
            return b - scale * b_end

        return draw_bridge
    if isinstance(spec, OrnsteinUhlenbeckKernel):
        # imported here: scipy.signal pulls in scipy.stats, most of the
        # package's import time, and only this simulator needs it
        import scipy.signal

        sigma = math.sqrt(spec.sigma2)
        rho = math.exp(-spec.theta * grid.spacing)
        innov = sigma * math.sqrt(1.0 - rho * rho)

        def draw_ou(rng):
            # stationary start, then x[i] = rho*x[i-1] + innovation
            w = innov * rng.standard_normal(pts.size)
            w[0] *= sigma / innov
            return scipy.signal.lfilter([1.0], [1.0, -rho], w)

        return draw_ou
    if isinstance(spec, SmoothedBrownian):
        weights = smoothing_matrix(grid, spec.bandwidth)
        steps = _brownian_steps(pts)
        return lambda rng: weights @ np.cumsum(rng.standard_normal(pts.size) * steps)
    raise TypeError(f"unknown process kind {type(spec).__name__}")


def gen_process(spec: ProcessSpec, grid: Grid, rng: np.random.Generator) -> np.ndarray:
    """Draw one trajectory of the process from its exact law on the grid."""
    return _process_sampler(spec, grid)(rng)


# ---------------------------------------------------------------------------
# Model catalog types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianComponent:
    process: ProcessSpec
    trend: TrendSpec = ZeroTrend()


@dataclass(frozen=True)
class ClassLaw:
    """One class-conditional law: a mixture of process+trend components."""

    components: tuple
    weights: tuple = ()

    def __post_init__(self):
        w = self.weights if self.weights else (1.0,) * len(self.components)
        w = tuple(float(x) for x in w)
        if len(w) != len(self.components) or any(x <= 0 for x in w):
            raise ValueError("weights must be positive and align with components")
        if abs(sum(w) - 1.0) > 1e-9:
            raise ValueError("mixture weights must sum to 1")
        object.__setattr__(self, "weights", w)

    def mean_values(self, points: np.ndarray) -> np.ndarray:
        """Weighted deterministic mean; random-slope parts average to zero."""
        total = np.zeros_like(points)
        for w, comp in zip(self.weights, self.components):
            total = total + w * _deterministic_mean(comp.trend, points)
        return total


def _deterministic_mean(trend: TrendSpec, points: np.ndarray) -> np.ndarray:
    if isinstance(trend, RandomSlopeTrend):
        return np.zeros_like(points)
    if isinstance(trend, SumTrend):
        total = np.zeros_like(points)
        for term in trend.terms:
            total = total + _deterministic_mean(term, points)
        return total
    return trend.values(points)


@dataclass(frozen=True)
class GaussianModel:
    """Class-conditional generator pair with a Bernoulli(prior) label."""

    id: str
    class0: ClassLaw
    class1: ClassLaw
    prior: float = 0.5
    relevant: tuple = ()

    def mean_diff(self, points: np.ndarray) -> np.ndarray:
        return self.class1.mean_values(points) - self.class0.mean_values(points)


@dataclass(frozen=True)
class LinkTerm:
    """One summand of a logistic link: coef * f(X_j) with f per ``kind``.

    ``index`` is 1-based on the reference grid of ``reference_count`` points,
    i.e. X_j lives at time j / reference_count.
    """

    kind: str  # linear | power | abs | recip
    coef: float
    index: int
    power: float = 1.0

    def apply(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "linear":
            return self.coef * x
        if self.kind == "power":
            return self.coef * x**self.power
        if self.kind == "abs":
            return self.coef * np.abs(x)
        if self.kind == "recip":
            with np.errstate(divide="ignore"):
                return self.coef / x
        raise ValueError(f"unknown link term kind {self.kind!r}")


@dataclass(frozen=True)
class LogisticModel:
    """Marginal process plus P(Y=1 | X) = expit(sum of link terms)."""

    id: str
    marginal: ClassLaw
    terms: tuple
    prior: float = 0.5
    reference_count: int = 100

    @property
    def relevant(self) -> tuple:
        times = sorted({term.index / self.reference_count for term in self.terms})
        return tuple(times)

    def link_values(self, curves: np.ndarray, grid: Grid) -> np.ndarray:
        total = np.zeros(curves.shape[0])
        for term in self.terms:
            col = grid.nearest_index(term.index / self.reference_count)
            total = total + term.apply(curves[:, col])
        return total


ModelSpec = Union[GaussianModel, LogisticModel]


def standard_grid(count: int = 100) -> Grid:
    """The j/count sampling grid on (0, 1]; 100 points matches the catalog indices."""
    return make_grid(count, 1.0 / count, 1.0)


# ---------------------------------------------------------------------------
# Dataset generation with counter-based per-curve streams
# ---------------------------------------------------------------------------


def _stream(entropy, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=key))


def _pick_component(rng: np.random.Generator, weights: tuple) -> int:
    if len(weights) == 1:
        return 0
    # cumsum may fall a few ulp short of 1.0; clamp the last cell
    idx = int(np.searchsorted(np.cumsum(weights), rng.random(), side="right"))
    return min(idx, len(weights) - 1)


def gen_model_dataset(model: ModelSpec, n: int, grid: Grid, seed) -> LabeledDataset:
    """Generate ``n`` labeled curves; bit-identical for equal (model, n, grid, seed).

    ``seed`` may be an int or a tuple of ints; curve ``i`` of class ``y``
    always consumes the stream keyed (seed, y, i), so the output does not
    depend on evaluation order.
    """
    if n < 1:
        raise ValueError("sample size must be positive")
    curves = np.empty((n, grid.count))
    if isinstance(model, GaussianModel):
        samplers = {
            label: [
                (_process_sampler(comp.process, grid), comp.trend)
                for comp in law.components
            ]
            for label, law in ((0, model.class0), (1, model.class1))
        }
        labels = (_stream(seed, 2, 0).random(n) < model.prior).astype(int)
        laws = {0: model.class0, 1: model.class1}
        for i in range(n):
            y = int(labels[i])
            rng = _stream(seed, y, i)
            c = _pick_component(rng, laws[y].weights)
            draw, trend = samplers[y][c]
            curves[i] = draw(rng) + trend_realize(trend, grid.points, rng)
        return LabeledDataset(grid=grid, curves=curves, labels=labels, fixed_prior=model.prior)
    if isinstance(model, LogisticModel):
        samplers = [
            (_process_sampler(comp.process, grid), comp.trend)
            for comp in model.marginal.components
        ]
        labels = np.empty(n, dtype=int)
        for i in range(n):
            rng = _stream(seed, 0, i)
            c = _pick_component(rng, model.marginal.weights)
            draw, trend = samplers[c]
            curves[i] = draw(rng) + trend_realize(trend, grid.points, rng)
            eta = expit(model.link_values(curves[i : i + 1], grid)[0])
            labels[i] = int(rng.random() < eta)
        return LabeledDataset(grid=grid, curves=curves, labels=labels, fixed_prior=model.prior)
    raise TypeError(f"unknown model kind {type(model).__name__}")


# ---------------------------------------------------------------------------
# Catalog parsing
# ---------------------------------------------------------------------------

_NUM = r"[-+]?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?"


def _split_signed_terms(text: str) -> list[tuple[float, str]]:
    """Split 'A + B - C' into [(+1, A), (+1, B), (-1, C)] at depth zero."""
    terms: list[tuple[float, str]] = []
    sign, buf, depth = 1.0, [], 0
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if depth == 0 and ch in "+-" and buf and "".join(buf).strip():
            terms.append((sign, "".join(buf).strip()))
            sign, buf = (1.0 if ch == "+" else -1.0), []
        elif depth == 0 and ch in "+-" and not "".join(buf).strip():
            sign *= 1.0 if ch == "+" else -1.0
        else:
            buf.append(ch)
    tail = "".join(buf).strip()
    if tail:
        terms.append((sign, tail))
    return terms


def _parse_process(token: str) -> ProcessSpec:
    token = token.strip()
    if token == "B":
        return BrownianKernel()
    if token == "BB":
        return BrownianBridgeKernel()
    if token == "OU":
        return OrnsteinUhlenbeckKernel()
    m = re.fullmatch(rf"OU\(\s*({_NUM})\s*,\s*({_NUM})\s*\)", token)
    if m:
        return OrnsteinUhlenbeckKernel(theta=float(m.group(1)), sigma2=float(m.group(2)))
    if token == "sB":
        return SmoothedBrownian(bandwidth=0.05)
    if token == "ssB":
        return SmoothedBrownian(bandwidth=0.10)
    m = re.fullmatch(rf"sB\(\s*({_NUM})\s*\)", token)
    if m:
        return SmoothedBrownian(bandwidth=float(m.group(1)))
    raise DatasetFormatError(f"unknown process token {token!r}")


def _parse_trend_term(sign: float, term: str) -> TrendSpec:
    coef = sign
    m = re.fullmatch(rf"({_NUM})\s*\*\s*(.+)", term)
    if m:
        coef = sign * float(m.group(1))
        term = m.group(2).strip()
    if term == "t":
        return LinearTrend(slope=coef)
    m = re.fullmatch(rf"Phi\(\s*(\d+)\s*,\s*({_NUM})\s*\)", term)
    if m:
        return PeakTrend(level=int(m.group(1)), shift=float(m.group(2)), coefficient=coef)
    m = re.fullmatch(rf"hillside\(\s*({_NUM})\s*,\s*({_NUM})\s*\)", term)
    if m:
        return HillsideTrend(t0=float(m.group(1)), slope=coef * float(m.group(2)))
    m = re.fullmatch(rf"rslope\(\s*({_NUM})\s*\)", term)
    if m:
        return RandomSlopeTrend(sd=float(m.group(1)))
    raise DatasetFormatError(f"unknown trend term {term!r}")


def _parse_component(text: str) -> GaussianComponent:
    terms = _split_signed_terms(text)
    if not terms:
        raise DatasetFormatError(f"empty component in {text!r}")
    sign, proc = terms[0]
    if sign < 0:
        raise DatasetFormatError("component must start with a process")
    trends = tuple(_parse_trend_term(s, t) for s, t in terms[1:])
    trend: TrendSpec
    if not trends:
        trend = ZeroTrend()
    elif len(trends) == 1:
        trend = trends[0]
    else:
        trend = SumTrend(terms=trends)
    return GaussianComponent(process=_parse_process(proc), trend=trend)


def _parse_class_law(text: str) -> ClassLaw:
    parts = [p.strip() for p in text.split("|")]
    if len(parts) == 1 and ":" not in parts[0]:
        return ClassLaw(components=(_parse_component(parts[0]),))
    weights, comps = [], []
    for part in parts:
        if ":" not in part:
            raise DatasetFormatError(f"mixture component {part!r} needs 'weight : component'")
        w, comp = part.split(":", 1)
        weights.append(float(eval_fraction(w)))
        comps.append(_parse_component(comp))
    return ClassLaw(components=tuple(comps), weights=tuple(weights))


def eval_fraction(text: str) -> float:
    """Parse '1/3' or '0.5' style weights."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return float(num) / float(den)
    return float(text)


def _parse_link(text: str, reference_count: int) -> tuple:
    terms = []
    for sign, term in _split_signed_terms(text):
        coef = sign
        m = re.fullmatch(rf"({_NUM})\s*\*\s*(.+)", term)
        if m:
            coef = sign * float(m.group(1))
            term = m.group(2).strip()
        recip = re.fullmatch(rf"({_NUM})\s*/\s*X(\d+)", term)
        if recip:
            terms.append(LinkTerm("recip", sign * float(recip.group(1)), int(recip.group(2))))
            continue
        m = re.fullmatch(r"X(\d+)\s*\^\s*(\d+)", term)
        if m:
            terms.append(LinkTerm("power", coef, int(m.group(1)), power=float(m.group(2))))
            continue
        m = re.fullmatch(r"abs\(\s*X(\d+)\s*\)", term)
        if m:
            terms.append(LinkTerm("abs", coef, int(m.group(1))))
            continue
        m = re.fullmatch(r"X(\d+)", term)
        if m:
            terms.append(LinkTerm("linear", coef, int(m.group(1))))
            continue
        raise DatasetFormatError(f"unknown link term {term!r}")
    for term in terms:
        if not 1 <= term.index <= reference_count:
            raise DatasetFormatError(f"link index X{term.index} outside the reference grid")
    return tuple(terms)


def parse_catalog(text: str) -> dict[str, ModelSpec]:
    """Parse the plain-text model catalog into model specs keyed by id."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise DatasetFormatError(f"bad catalog syntax: {exc}") from exc
    models: dict[str, ModelSpec] = {}
    for model_id in parser.sections():
        section = parser[model_id]
        kind = section.get("type", "gaussian").strip().lower()
        prior = eval_fraction(section.get("prior", "0.5"))
        if kind in ("gaussian", "mixture"):
            relevant = tuple(float(v) for v in section.get("relevant", "").split())
            models[model_id] = GaussianModel(
                id=model_id,
                class0=_parse_class_law(section["class0"]),
                class1=_parse_class_law(section["class1"]),
                prior=prior,
                relevant=relevant,
            )
        elif kind == "logistic":
            ref = int(section.get("reference_count", "100"))
            models[model_id] = LogisticModel(
                id=model_id,
                marginal=_parse_class_law(section["process"]),
                terms=_parse_link(section["link"], ref),
                prior=prior,
                reference_count=ref,
            )
        else:
            raise DatasetFormatError(f"model {model_id!r} has unknown type {kind!r}")
    return models


def load_catalog(path=None) -> dict[str, ModelSpec]:
    """Load a catalog file, defaulting to the built-in one."""
    if path is None:
        text = resources.files("rkfda").joinpath("models.catalog").read_text(encoding="utf-8")
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return parse_catalog(text)


_BUILTIN: dict[str, ModelSpec] | None = None


def builtin_catalog() -> dict[str, ModelSpec]:
    """The shipped catalog, loaded once per process."""
    global _BUILTIN
    if _BUILTIN is None:
        _BUILTIN = load_catalog()
    return _BUILTIN
