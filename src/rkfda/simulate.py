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
The logistic labels compute ``expit(v) = 1 / (1 + exp(-v))`` per curve with
libm's ``exp`` (``math.exp``), the formula ``scipy.special.expit`` evaluates,
so the labels equal scipy's bit for bit without importing ``scipy.special``;
numpy's vectorized ``exp`` rounds differently.

Every curve gets its own counter-derived RNG stream keyed by
(entropy, class, index), so generation is reproducible bit-for-bit no matter
how work is scheduled: curve ``i`` of class ``y`` draws from
``PCG64(SeedSequence(seed, spawn_key=(y, i)))``.  The seed words of all
curves of a dataset come from one pass of the SeedSequence hash
(``_spawn_seed_words``): the entropy words, shared by every curve, are
hashed once as Python ints, and only the two key words (class and index)
run on (curves, 4) uint32 arrays.  Building a curve's stream then costs one
``PCG64`` construction rather than a ``SeedSequence`` per curve.  The
per-curve loop only draws, in a fixed order: the mixture component (a
bisection of the law's cumulative weights), the path's standard normals
(written straight into the output), the bridge's endpoint normal, any
random slopes, and the logistic uniform.  Everything else -- step scaling
and ``cumsum``, bridge pinning, the OU recursion, the smoothing product,
trends and the logistic link -- runs on blocks of rows of the output, in
place.  The smoothed-Brownian product is a stack of matrix-vector products,
``np.matmul(weights, block[:, :, None])``, which numpy runs as one gemv per
row and so rounds exactly as ``weights @ row`` does; one matrix product
over the block would round differently and change the data.  The smoothing
matrix is cached read-only by the grid's point values and the bandwidth,
so the datasets of a plan, and the threads that make them, share it.

A component's trend is a flat tuple of terms -- :class:`LinearTrend`,
:class:`PeakTrend`, :class:`HillsideTrend` and :class:`RandomSlopeTrend` --
whose values are added onto zeros in order; ``()`` is a zero mean.  Random
slopes draw in the order their terms appear.

The built-in catalog ships as a plain-text file, ``models.catalog``, parsed
by :func:`parse_catalog`.  Trends and logistic links are read by one
signed-term reader, which applies a term's optional ``c *`` coefficient.
"""

from __future__ import annotations

import functools
import math
import re
from bisect import bisect_right
from dataclasses import dataclass
from importlib import resources
from typing import Union

import numpy as np

from .core import DatasetFormatError, Grid, LabeledDataset, _parse_ini, _read_section, make_grid
from .kernels import (
    _BRIDGE_END_SLACK,
    BrownianBridgeKernel,
    BrownianKernel,
    OrnsteinUhlenbeckKernel,
    _require_finite_positive,
)

__all__ = [
    "LinearTrend",
    "RandomSlopeTrend",
    "PeakTrend",
    "HillsideTrend",
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
class LinearTrend:
    slope: float = 1.0

    def values(self, t):
        return self.slope * t


@dataclass(frozen=True)
class RandomSlopeTrend:
    """Linear trend theta*t with a fresh Gaussian slope per curve."""

    sd: float

    def __post_init__(self):
        _require_finite_positive(sd=self.sd)


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


TrendSpec = Union[LinearTrend, PeakTrend, HillsideTrend, RandomSlopeTrend]


def trend_eval(trend: tuple, t) -> np.ndarray | float:
    """Evaluate a deterministic trend; random-slope trends need an RNG stream."""
    if any(isinstance(term, RandomSlopeTrend) for term in trend):
        raise ValueError("random-slope trends require trend_realize with an rng")
    tt = np.asarray(t, dtype=float)
    out = _trend_values(trend, tt, ())
    return float(out) if tt.ndim == 0 else out


def trend_realize(trend: tuple, points: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Sample one realization of the trend on the given times."""
    slopes = [rng.normal(0.0, term.sd) for term in trend if isinstance(term, RandomSlopeTrend)]
    return _trend_values(trend, points, slopes)


def _trend_values(trend: tuple, points: np.ndarray, slopes) -> np.ndarray:
    """The terms' values on ``points``, added onto zeros in order.

    ``slopes`` gives the random-slope terms' slopes, in order: a scalar
    slope gives one curve's trend; a vector of k slopes gives a (k, G)
    block, one curve per row.
    """
    slopes = iter(slopes)
    total = np.zeros_like(points)
    for term in trend:
        if isinstance(term, RandomSlopeTrend):
            total = total + np.multiply.outer(next(slopes), points)
        else:
            total = total + term.values(points)
    return total


# ---------------------------------------------------------------------------
# Process generators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmoothedBrownian:
    """Brownian path convolved with a Gaussian weight of the given bandwidth."""

    bandwidth: float

    def __post_init__(self):
        _require_finite_positive(bandwidth=self.bandwidth)


ProcessSpec = Union[BrownianKernel, BrownianBridgeKernel, OrnsteinUhlenbeckKernel, SmoothedBrownian]


def _brownian_steps(points: np.ndarray) -> np.ndarray:
    return np.sqrt(np.diff(points, prepend=0.0))


def smoothing_matrix(grid: Grid, bandwidth: float) -> np.ndarray:
    """Row-normalized Gaussian weights; renormalization handles the boundaries.

    The read-only result is cached by the grid's point values and the
    bandwidth, so grids with equal points share one matrix.
    """
    return _smoothing_matrix(grid.points.tobytes(), float(bandwidth))


@functools.lru_cache(maxsize=4)  # a G = 1000 matrix takes 8 MB
def _smoothing_matrix(points: bytes, bandwidth: float) -> np.ndarray:
    pts = np.frombuffer(points)
    d = pts[:, None] - pts[None, :]
    w = np.exp(-0.5 * (d / bandwidth) ** 2)
    w /= w.sum(axis=1, keepdims=True)
    w.setflags(write=False)
    return w


@dataclass(frozen=True)
class _Component:
    """A process and trend checked and precomputed for one grid.

    ``tail``: time from the last grid point to a bridge's endpoint when each
    curve also draws the endpoint normal (0 otherwise);
    ``slope_sds``: the random-slope terms' standard deviations, in draw order;
    ``weights``: the smoothing matrix of a smoothed Brownian process.
    """

    process: ProcessSpec
    trend: tuple
    tail: float = 0.0
    slope_sds: tuple = ()
    weights: np.ndarray | None = None


def _component(process: ProcessSpec, trend: tuple, grid: Grid) -> _Component:
    slope_sds = tuple(term.sd for term in trend if isinstance(term, RandomSlopeTrend))
    if isinstance(process, BrownianBridgeKernel):
        return _Component(process, trend, _bridge_tail(process, grid), slope_sds)
    if isinstance(process, SmoothedBrownian):
        weights = smoothing_matrix(grid, process.bandwidth)
        return _Component(process, trend, slope_sds=slope_sds, weights=weights)
    if isinstance(process, (BrownianKernel, OrnsteinUhlenbeckKernel)):
        return _Component(process, trend, slope_sds=slope_sds)
    raise TypeError(f"unknown process kind {type(process).__name__}")


def _bridge_tail(spec: BrownianBridgeKernel, grid: Grid) -> float:
    """Time from the last grid point to the bridge's endpoint (0 when negligible)."""
    if grid.points[-1] > spec.t_max + _BRIDGE_END_SLACK:
        raise ValueError("grid extends beyond the bridge endpoint")
    tail = spec.t_max - grid.points[-1]
    return tail if tail > 1e-15 else 0.0


def _process_paths(comp: _Component, grid: Grid, block: np.ndarray, end_normals: np.ndarray) -> None:
    """Turn rows of standard normals into paths of ``comp.process``, in place.

    ``end_normals`` holds each row's bridge endpoint normal (read only by a
    bridge that draws one).  Every operation is row-wise, so a row's path
    does not depend on the other rows of the block.
    """
    spec, pts = comp.process, grid.points
    if isinstance(spec, OrnsteinUhlenbeckKernel):
        sigma = math.sqrt(spec.sigma2)
        rho = math.exp(-spec.theta * grid.spacing)
        innov = sigma * math.sqrt(1.0 - rho * rho)
        # stationary start, then x[i] = rho*x[i-1] + innovation, one time step
        # at a time on a time-major copy so each step reads contiguous memory
        block *= innov
        block[:, 0] *= sigma / innov
        steps = np.ascontiguousarray(block.T)
        for t in range(1, steps.shape[0]):
            steps[t] += rho * steps[t - 1]
        block[:] = steps.T
        return
    block *= _brownian_steps(pts)
    np.cumsum(block, axis=1, out=block)
    if isinstance(spec, BrownianBridgeKernel):
        b_end = block[:, -1] + (math.sqrt(comp.tail) * end_normals if comp.tail else 0.0)
        block -= np.multiply.outer(b_end, pts / spec.t_max)
    elif comp.weights is not None:
        # a stack of matrix-vector products (numpy runs one gemv per row), not
        # one matrix product: a gemm rounds differently and would change the data
        block[:] = np.matmul(comp.weights, block[:, :, None])[:, :, 0]


def gen_process(spec: ProcessSpec, grid: Grid, rng: np.random.Generator) -> np.ndarray:
    """Draw one trajectory of the process from its exact law on the grid."""
    comp = _component(spec, (), grid)
    block = np.empty((1, grid.count))
    rng.standard_normal(out=block[0])
    end = rng.standard_normal() if comp.tail else 0.0
    _process_paths(comp, grid, block, np.array([end]))
    return block[0]


# ---------------------------------------------------------------------------
# Model catalog types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianComponent:
    """A process plus a trend: a tuple of terms, summed in order; ``()`` is a zero mean."""

    process: ProcessSpec
    trend: tuple[TrendSpec, ...] = ()

    def __post_init__(self):
        if not isinstance(self.trend, tuple):
            raise TypeError("trend must be a tuple of terms")


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
            total = total + w * _trend_values(comp.trend, points, [0.0] * len(comp.trend))
        return total


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
    """Marginal process plus P(Y=1 | X) = expit(sum of link terms).

    ``expit`` is evaluated per curve with libm's ``exp``, as
    ``scipy.special.expit`` does (:func:`_expit`).
    """

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


_MASK32 = 0xFFFFFFFF
# numpy's SeedSequence hash constants (pool of 4 uint32 words)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# the same as 0-d uint32 arrays, which numpy combines with arrays fastest
_MIX_L32, _MIX_R32, _SHIFT32 = (np.array(v, dtype=np.uint32) for v in (_MIX_MULT_L, _MIX_MULT_R, 16))


def _hash_sequence(init: int, mult: int, count: int) -> list[int]:
    """The first ``count`` values of a hash constant: init, init*mult, ... (mod 2**32)."""
    values = [init]
    for _ in range(count - 1):
        values.append(values[-1] * mult & _MASK32)
    return values


# the output stage hashes pool word k % 4 with the k-th and (k+1)-th hash_b,
# laid out (2, 4) so that it broadcasts against the pool
_HASH_B = np.array(_hash_sequence(_INIT_B, _MULT_B, 2 * _POOL_SIZE + 1), dtype=np.uint32)
_OUT_XOR = _HASH_B[:-1].reshape(2, _POOL_SIZE)
_OUT_MULT = _HASH_B[1:].reshape(2, _POOL_SIZE)


def _entropy_words(value) -> list[int]:
    """The uint32 words SeedSequence reads from an int or a sequence of ints."""
    if isinstance(value, (int, np.integer)):
        value = int(value)
        if value < 0:
            raise ValueError("expected non-negative integer")
        words = [value & _MASK32]  # least significant first; 0 is one word
        while value > _MASK32:
            value >>= 32
            words.append(value & _MASK32)
        return words
    if isinstance(value, (tuple, list, range, np.ndarray)):
        return [word for part in value for word in _entropy_words(part)]
    raise TypeError(f"seed must be an int or a sequence of ints, not {type(value).__name__}")


def _key_column(values, rows: int) -> np.ndarray:
    """Spawn-key words as a uint32 column: one per row, or one row for all."""
    values = np.asarray(values)
    if values.dtype.kind not in "iu" or values.ndim > 1 or values.size not in (1, rows):
        raise ValueError("spawn key words must be integers, one for all rows or one per row")
    if (values >> 32).any():  # nonzero for a negative word or one of 2**32 or more
        raise ValueError("spawn key words must lie in [0, 2**32)")
    return values.astype(np.uint32).reshape(-1, 1)


def _spawn_seed_words(entropy, labels, indices) -> np.ndarray:
    """PCG64 seed words of the streams keyed (entropy, label, i), one row per i.

    ``labels`` is one label for all rows or one per row of ``indices``.  Row
    r equals ``SeedSequence(entropy, spawn_key=(labels[r], indices[r]))
    .generate_state(4, np.uint64)``: the SeedSequence hash run once over all
    rows.  A label or index of 2**32 or more would take a second key word
    and raises ``ValueError``.
    """
    indices = np.asarray(indices).reshape(-1)
    key = (_key_column(labels, indices.size), _key_column(indices, indices.size))
    run = _entropy_words(entropy)
    run += [0] * (_POOL_SIZE - len(run))  # SeedSequence pads the run entropy when spawned
    # hashmix call j xors with hash_a[j] and multiplies by hash_a[j + 1]:
    # 4 calls per entropy word, then 4 per key word, one per pool word
    hash_a = _hash_sequence(_INIT_A, _MULT_A, _POOL_SIZE * (len(run) + len(key)) + 1)
    calls = zip(hash_a, hash_a[1:])

    # The entropy words are shared by all rows: hash them as Python ints,
    # masking to 32 bits.
    def hashmix(value):
        xor, mult = next(calls)
        value = (value ^ xor) * mult & _MASK32
        return value ^ (value >> 16)

    def mix(x, y):
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(w) for w in run[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in run[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    # The key words differ by row: hash them on uint32 arrays, which wrap
    # modulo 2**32 by themselves.  A key word mixes into the 4 pool words
    # with 4 successive hashmix calls, so one (rows, 4) pass per word.
    pool = np.array(pool, dtype=np.uint32)
    key_hash = np.array(hash_a[-_POOL_SIZE * len(key) - 1 :], dtype=np.uint32)
    key_xor, key_mult = key_hash[:-1].reshape(len(key), -1), key_hash[1:].reshape(len(key), -1)
    for word, xor, mult in zip(key, key_xor, key_mult):
        value = (word ^ xor) * mult
        value ^= value >> _SHIFT32
        pool = _MIX_L32 * pool - _MIX_R32 * value
        pool ^= pool >> _SHIFT32

    # output word 4h + k hashes pool word k; uint32 pairs (low, high) make
    # the four uint64 words, read little-endian as SeedSequence does
    state = (pool[:, None, :] ^ _OUT_XOR) * _OUT_MULT
    state ^= state >> _SHIFT32
    state = state.reshape(-1, 2 * _POOL_SIZE).astype("<u4", copy=False)
    return state.view("<u8").astype(np.uint64, copy=False)


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """Precomputed PCG64 seed words standing in for their SeedSequence."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("precomputed seed words serve PCG64 only")
        return self.words


def _generator(words: np.ndarray) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(_SeedWords(words)))


# rows transformed together: bounds the temporaries of the block transforms
_BLOCK_BYTES = 1 << 21


def _component_paths(comp: _Component, grid: Grid, curves, rows, end_normals, slopes) -> None:
    """Transform ``curves[rows]`` from standard normals to process + trend paths."""
    step = max(1, _BLOCK_BYTES // (8 * grid.count))
    whole = rows.size == len(curves)
    for start in range(0, rows.size, step):
        r = rows[start : start + step]
        # all rows in one component: transform views in place; else gather and scatter
        block = curves[start : start + step] if whole else curves[r]
        _process_paths(comp, grid, block, end_normals[r])
        block += _trend_values(comp.trend, grid.points, slopes[r].T)
        if not whole:
            curves[r] = block


def _expit1(v: float) -> float:
    try:
        return 1.0 / (1.0 + math.exp(-v))
    except OverflowError:  # exp(-v) above the largest double: C gives 1 / (1 + inf)
        return 0.0


def _expit(x: np.ndarray) -> np.ndarray:
    """``scipy.special.expit(x)`` bit for bit: ``1 / (1 + exp(-v))`` with libm's ``exp``.

    NaN maps to NaN and -inf to 0.  There is no fixed overflow threshold:
    just above -709.79 the value is a nonzero subnormal.
    """
    return np.array([_expit1(v) for v in x.tolist()], dtype=float)


def gen_model_dataset(model: ModelSpec, n: int, grid: Grid, seed) -> LabeledDataset:
    """Generate ``n`` labeled curves; bit-identical for equal (model, n, grid, seed).

    ``seed`` may be an int or a tuple of ints; curve ``i`` of class ``y``
    always consumes the stream keyed (seed, y, i), so the output does not
    depend on evaluation order.  A logistic model keys every curve with
    class 0 and draws its label last from the curve's own stream.
    """
    if n < 1:
        raise ValueError("sample size must be positive")
    if isinstance(model, GaussianModel):
        laws = (model.class0, model.class1)
        labels = (_generator(_spawn_seed_words(seed, 2, [0])[0]).random(n) < model.prior).astype(int)
        keys = labels  # the class word of each curve's stream key
    elif isinstance(model, LogisticModel):
        laws = (model.marginal,)
        keys = np.zeros(n, dtype=int)
    else:
        raise TypeError(f"unknown model kind {type(model).__name__}")
    components = [[_component(c.process, c.trend, grid) for c in law.components] for law in laws]
    # a mixture picks its component by bisecting the cumulative weights;
    # cumsum may fall a few ulp short of 1.0, so the last cell is clamped
    cumulative = [np.cumsum(law.weights).tolist() if len(law.weights) > 1 else None for law in laws]
    words = _spawn_seed_words(seed, keys, np.arange(n))

    # per curve only the draws, in stream order; the output holds the normals
    curves = np.empty((n, grid.count))
    picks = []
    end_normals = np.zeros(n)
    slopes = np.zeros((n, max(len(c.slope_sds) for law in components for c in law)))
    uniforms = np.empty(n) if isinstance(model, LogisticModel) else None
    generator, pcg64 = np.random.Generator, np.random.PCG64  # looked up once, not per curve
    for i, (w, y, out) in enumerate(zip(words, keys.tolist(), curves)):
        rng = generator(pcg64(_SeedWords(w)))
        cum = cumulative[y]
        c = 0 if cum is None else min(bisect_right(cum, rng.random()), len(cum) - 1)
        picks.append(c)
        rng.standard_normal(out=out)
        comp = components[y][c]
        if comp.tail:
            end_normals[i] = rng.standard_normal()
        if comp.slope_sds:
            for k, sd in enumerate(comp.slope_sds):
                slopes[i, k] = rng.normal(0.0, sd)
        if uniforms is not None:
            uniforms[i] = rng.random()

    picks = np.array(picks)
    for y, law_components in enumerate(components):
        for c, comp in enumerate(law_components):
            rows = np.flatnonzero((keys == y) & (picks == c))
            _component_paths(comp, grid, curves, rows, end_normals, slopes)
    if uniforms is not None:
        labels = (uniforms < _expit(model.link_values(curves, grid))).astype(int)
    curves.setflags(write=False)  # the dataset keeps this buffer without a copy
    return LabeledDataset(grid=grid, curves=curves, labels=labels, fixed_prior=model.prior)


# ---------------------------------------------------------------------------
# Catalog parsing
# ---------------------------------------------------------------------------

_NUM = r"[-+]?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?"
# a number's mantissa and exponent letter, whose sign follows: '1e' of '1e-3'
_MANTISSA_E = re.compile(r"(?<![\w.])\d+(?:\.\d+)?[eE]$")
_COEFFICIENT = re.compile(rf"({_NUM})\s*\*\s*(.+)")


def _signed_terms(text: str) -> list[tuple[float, str]]:
    """Read 'A + c*B - C' as [(1, 'A'), (c, 'B'), (-1, 'C')].

    Terms split at a '+' or '-' outside parentheses, except the sign of a
    number's exponent; a term's coefficient is its sign times its optional
    leading 'c *'.
    """
    terms: list[tuple[float, str]] = []
    sign, buf, depth = 1.0, "", 0
    for ch in text + "+":  # the final '+' ends the last term
        depth += (ch == "(") - (ch == ")")
        if depth or ch not in "+-" or _MANTISSA_E.search(buf):
            buf += ch
            continue
        term = buf.strip()
        if term:
            m = _COEFFICIENT.fullmatch(term)
            terms.append((sign * float(m.group(1)), m.group(2).strip()) if m else (sign, term))
            sign, buf = 1.0, ""
        if ch == "-":
            sign = -sign
    if depth:
        raise DatasetFormatError(f"unbalanced parentheses in {text!r}")
    return terms


# the process tokens that take no parameters
_PROCESS_TOKENS = {
    "B": BrownianKernel(), "BB": BrownianBridgeKernel(), "OU": OrnsteinUhlenbeckKernel(),
    "sB": SmoothedBrownian(bandwidth=0.05), "ssB": SmoothedBrownian(bandwidth=0.10),
}


def _parse_process(token: str) -> ProcessSpec:
    token = token.strip()
    if token in _PROCESS_TOKENS:
        return _PROCESS_TOKENS[token]
    m = re.fullmatch(rf"OU\(\s*({_NUM})\s*,\s*({_NUM})\s*\)", token)
    if m:
        return OrnsteinUhlenbeckKernel(theta=float(m.group(1)), sigma2=float(m.group(2)))
    m = re.fullmatch(rf"sB\(\s*({_NUM})\s*\)", token)
    if m:
        return SmoothedBrownian(bandwidth=float(m.group(1)))
    raise DatasetFormatError(f"unknown process token {token!r}")


def _parse_trend_term(coef: float, term: str) -> TrendSpec:
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
        return RandomSlopeTrend(sd=abs(coef) * float(m.group(1)))
    raise DatasetFormatError(f"unknown trend term {term!r}")


def _parse_component(text: str) -> GaussianComponent:
    terms = _signed_terms(text)
    if not terms:
        raise DatasetFormatError(f"empty component in {text!r}")
    (coef, proc), *trend = terms
    if coef != 1.0 or not text.lstrip().startswith(proc):
        raise DatasetFormatError("component must start with a process, without sign or coefficient")
    return GaussianComponent(_parse_process(proc), tuple(_parse_trend_term(c, t) for c, t in trend))


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


def _parse_link(text: str) -> tuple:
    terms = []
    for coef, term in _signed_terms(text):
        recip = re.fullmatch(rf"({_NUM})\s*/\s*X(\d+)", term)
        if recip:
            terms.append(LinkTerm("recip", coef * float(recip.group(1)), int(recip.group(2))))
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
    return tuple(terms)


def _prior(text: str) -> float:
    p = eval_fraction(text)
    if not 0.0 < p < 1.0:
        raise ValueError(f"prior {p!r} must lie in (0, 1)")
    return p


# every key a model's section may hold, with its parser, by model type
_GAUSSIAN_KEYS = {
    "type": str, "class0": _parse_class_law, "class1": _parse_class_law, "prior": _prior,
    "relevant": lambda text: tuple(map(float, text.split())),
}
_LOGISTIC_KEYS = {
    "type": str, "process": _parse_class_law, "link": _parse_link, "prior": _prior, "reference_count": int,
}


def parse_catalog(text: str) -> dict[str, ModelSpec]:
    """Parse the plain-text model catalog into model specs keyed by id.

    A key the model's type does not allow, a missing key and a malformed
    value (a weight of 1/0, a prior outside (0, 1), a link index outside the
    reference grid) each raise DatasetFormatError naming the model and the
    key.
    """
    parser = _parse_ini(text, "catalog")
    models: dict[str, ModelSpec] = {}
    for model_id in parser.sections():
        section = parser[model_id]
        name = f"model {model_id!r}"
        kind = section.get("type", "gaussian").strip().lower()
        if kind in ("gaussian", "mixture"):
            values = _read_section(section, name, _GAUSSIAN_KEYS, required=("class0", "class1"))
            values.pop("type", None)
            models[model_id] = GaussianModel(id=model_id, **values)  # the keys are the field names
        elif kind == "logistic":
            values = _read_section(section, name, _LOGISTIC_KEYS, required=("process", "link"))
            ref = values.get("reference_count", 100)
            bad = [term.index for term in values["link"] if not 1 <= term.index <= ref]
            if bad:
                raise DatasetFormatError(f"{name}, key 'link': index X{bad[0]} outside the reference grid")
            prior = values.get("prior", 0.5)
            models[model_id] = LogisticModel(model_id, values["process"], values["link"], prior, ref)
        else:
            raise DatasetFormatError(f"{name} has unknown type {kind!r}")
    return models


def load_catalog(path=None) -> dict[str, ModelSpec]:
    """Load a catalog file, defaulting to the built-in one."""
    if path is None:
        text = resources.files("rkfda").joinpath("models.catalog").read_text(encoding="utf-8")
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return parse_catalog(text)


@functools.cache
def builtin_catalog() -> dict[str, ModelSpec]:
    """The shipped catalog, loaded once per process."""
    return load_catalog()
