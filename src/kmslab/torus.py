"""Discrete periodic fields on [0, 2*pi)^n and their spectral calculus.

The domain is fixed to [0, 2*pi)^n so grid frequencies are integer vectors
in [-M/2, M/2)^n and spectral differentiation is exact for band-limited
fields.  Spectra are normalized so that Parseval reads

    lp_norm(f, 2)^2 == sum_xi ||f_hat(xi)||^2

i.e. the coefficients absorb the cell-volume factor of the L^2 norm.
Compactly supported whole-space fields are modeled as zero-mean periodic
fields; every report states this.

The calculus works on the real-FFT half spectrum of a field
(`HalfSpectrum`): one rfftn, its last axis halved to the bins
0 ... M/2 - 1, -M/2 (`TorusGrid.half_frequency_grid`).  A spectrum holds
its coefficients on a `BandBox`, the bins with |xi_j| <= c on every axis
(0 ... c on the last); the full half grid is the box c = M/2.  Transforms
run only over the 1-D lines that carry the box, and every grid array a
spectrum reads (frequencies, Parseval weights, |xi|^2, the zero mask,
multiplier tables) is read through it.  `random_bandlimited`
synthesizes its field from a box spectrum and `bump_field` from the 1-D
transforms of its profiles; each hands that spectrum on, and its samples
are made on first read of `values`.  Every other field starts on the full
box.  A field's L^2 norm is the Parseval sum with
`TorusGrid.parseval_weights` (1 on the last-axis bins 0 and M/2, whose
partners -xi lie in the half grid too, 2 elsewhere).

The trial space is the band without Nyquist rows: every half spectrum
holds 0 wherever a coordinate of xi is -M/2.  A real field's Nyquist mode
has vanishing odd derivatives on the grid, so it would give every
odd-order operator a spurious null direction there.  `HalfSpectrum.of`
sets those rows to 0 after its transform, `bump_field` drops the Nyquist
term of each 1-D profile and `random_bandlimited` stays below M/2.  On
that space an operator acts by (i xi)^alpha Re B_alpha and a multiplier by
m(xi): what multiplying the full spectrum and keeping the real part of the
inverse computes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .operators import ArgumentError, OperatorSpec, check_count, check_seed, multiindex_enumerate

__all__ = [
    "TorusGrid",
    "TensorField",
    "BandBox",
    "HalfSpectrum",
    "apply_operator",
    "apply_multiplier",
    "apply_partmap",
    "lp_norm",
    "homog_sobolev_norm",
    "negative_sobolev_norm_l2",
    "sobolev_conjugate",
    "dual_exponent_chain",
    "random_bandlimited",
    "plane_wave_field",
    "bump_field",
]

# a field has zero mean when |mean| <= ZERO_MEAN_TOL max|values|
ZERO_MEAN_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class TorusGrid:
    """Uniform grid on [0, 2*pi)^n with M points per axis (M even, >= 4)."""

    n: int
    points_per_axis: int

    def __post_init__(self):
        if self.n < 1:
            raise ArgumentError("n", "dimension must be >= 1")
        m = self.points_per_axis
        if m < 4 or m % 2 != 0:
            raise ArgumentError(
                "points_per_axis", "points_per_axis must be an even integer >= 4"
            )

    @property
    def shape(self) -> tuple:
        return (self.points_per_axis,) * self.n

    @property
    def cell_volume(self) -> float:
        return (2.0 * math.pi / self.points_per_axis) ** self.n

    @property
    def spectrum_scale(self) -> float:
        # raw fftn output times this gives Parseval-normalized coefficients
        return (2.0 * math.pi) ** (self.n / 2.0) / self.points_per_axis**self.n

    @cached_property
    def axis_frequencies(self) -> np.ndarray:
        m = self.points_per_axis
        freqs = np.rint(np.fft.fftfreq(m) * m).astype(np.int64)
        freqs.setflags(write=False)
        return freqs

    @cached_property
    def frequency_grid(self) -> np.ndarray:
        mesh = np.meshgrid(*([self.axis_frequencies] * self.n), indexing="ij")
        grid = np.stack(mesh, axis=-1)
        grid.setflags(write=False)
        return grid

    @property
    def half_shape(self) -> tuple:
        """Shape of a real-FFT half spectrum: the last axis keeps M/2 + 1 bins."""
        m = self.points_per_axis
        return (m,) * (self.n - 1) + (m // 2 + 1,)

    @cached_property
    def half_frequency_grid(self) -> np.ndarray:
        """Frequencies of the half spectrum, shape half_shape + (n,).

        The last axis holds the bins 0 ... M/2 - 1 and then -M/2, the
        Nyquist convention of frequency_grid.
        """
        m = self.points_per_axis
        last = np.append(np.arange(m // 2), -(m // 2))
        axes = [self.axis_frequencies] * (self.n - 1) + [last]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        grid.setflags(write=False)
        return grid

    @cached_property
    def half_zero_mask(self) -> np.ndarray:
        mask = ~np.any(self.half_frequency_grid != 0, axis=-1)
        mask.setflags(write=False)
        return mask

    @cached_property
    def half_frequency_norm2(self) -> np.ndarray:
        out = np.sum(self.half_frequency_grid.astype(float) ** 2, axis=-1)
        out.setflags(write=False)
        return out

    @cached_property
    def parseval_weights(self) -> np.ndarray:
        """Multiplicity of each half-spectrum bin in the full spectrum sum.

        1 on the last-axis bins 0 and M/2 (the partner -xi is in the half
        grid too), 2 elsewhere (the partner is its conjugate, left out).
        """
        weights = np.full(self.half_shape, 2.0)
        weights[..., 0] = 1.0
        weights[..., -1] = 1.0
        weights.setflags(write=False)
        return weights

    @cached_property
    def points(self) -> np.ndarray:
        axis = 2.0 * math.pi * np.arange(self.points_per_axis) / self.points_per_axis
        mesh = np.meshgrid(*([axis] * self.n), indexing="ij")
        pts = np.stack(mesh, axis=-1)
        pts.setflags(write=False)
        return pts

    @cached_property
    def canonical_frequencies(self) -> np.ndarray:
        """Flat (count, n) array of the nonzero frequencies without a Nyquist coordinate.

        One representative of each {xi, -xi} pair (the lexicographically
        positive one) is kept, which suffices for real fields; the order is
        that of frequency_grid.
        """
        flat = self.frequency_grid.reshape(-1, self.n)
        keep = np.any(flat != 0, axis=1) & ~np.any(flat == -self.points_per_axis // 2, axis=1)
        flat = flat[keep]
        lead = flat[np.arange(flat.shape[0]), np.argmax(flat != 0, axis=1)]
        flat = flat[lead > 0]
        flat.setflags(write=False)
        return flat


@dataclass(frozen=True, eq=False)
class BandBox:
    """The half-grid bins with |xi_j| <= cutoff on every axis, 0 ... cutoff on the last.

    1 <= cutoff <= M/2; cutoff = M/2 is the full half grid, whose Nyquist
    bins every spectrum holds at 0, and every smaller box leaves them out.
    On a full axis the box keeps the bins 0 ... c, -c ... -1, in grid order.
    take() restricts an array of shape grid.half_shape + (...) to the box;
    the full box returns it as it is, so the full-grid calculus is the box
    calculus at cutoff M/2.
    """

    grid: TorusGrid
    cutoff: int

    def __post_init__(self):
        if not 1 <= self.cutoff <= self.grid.points_per_axis // 2:
            raise ArgumentError("cutoff", "a box cutoff must satisfy 1 <= cutoff <= M/2")

    @property
    def is_full(self) -> bool:
        return self.cutoff == self.grid.points_per_axis // 2

    @property
    def shape(self) -> tuple:
        if self.is_full:
            return self.grid.half_shape
        return (2 * self.cutoff + 1,) * (self.grid.n - 1) + (self.cutoff + 1,)

    @property
    def axis_bins(self) -> np.ndarray:
        """The bins of a full axis that the box keeps: 0 ... c, then M - c ... M - 1."""
        m, c = self.grid.points_per_axis, self.cutoff
        return np.concatenate([np.arange(c + 1), np.arange(m - c, m)])

    def take(self, array: np.ndarray) -> np.ndarray:
        """array (shape grid.half_shape + trailing axes) on the box's bins."""
        if self.is_full:
            return array
        n = self.grid.n
        out = array[(slice(None),) * (n - 1) + (slice(0, self.cutoff + 1),)]
        return out[np.ix_(*[self.axis_bins] * (n - 1))] if n > 1 else out

    frequencies = property(lambda self: self.take(self.grid.half_frequency_grid))
    zero_mask = property(lambda self: self.take(self.grid.half_zero_mask))
    frequency_norm2 = property(lambda self: self.take(self.grid.half_frequency_norm2))
    parseval_weights = property(lambda self: self.take(self.grid.parseval_weights))


@dataclass(eq=False)
class TensorField:
    """A real d-vector-valued function sampled on a TorusGrid.

    Complex or non-finite values are refused with ValueError.
    """

    grid: TorusGrid
    values: np.ndarray
    # the exact half spectrum random_bandlimited or bump_field synthesized
    # the field from, returned by HalfSpectrum.of; None on every other field
    _spectrum = None

    @classmethod
    def _generated(cls, spectrum: "HalfSpectrum", sample) -> "TensorField":
        """The field of spectrum; sample() makes its values on first read, read-only,
        so the spectrum cannot go stale."""
        field = cls.__new__(cls)
        field.__dict__.update(grid=spectrum.grid, _spectrum=spectrum, _sample=sample)
        return field

    def __getattr__(self, name):
        # reached only while a generated field has not made its values yet
        if name != "values" or "_sample" not in self.__dict__:
            raise AttributeError(name)
        vals = self.__dict__["_sample"]()
        vals.setflags(write=False)
        self.__dict__["values"] = vals
        del self.__dict__["_sample"]
        return vals

    def __setattr__(self, name, value):
        # new values leave the spectrum of the old ones behind
        if name == "values":
            self.__dict__.pop("_spectrum", None)
            self.__dict__.pop("_sample", None)
        super().__setattr__(name, value)

    def __post_init__(self):
        if np.iscomplexobj(self.values):
            raise ValueError("field values must be real")
        vals = np.asarray(self.values, dtype=float)
        if vals.shape[: self.grid.n] != self.grid.shape or vals.ndim != self.grid.n + 1:
            raise ValueError(
                f"values shape {vals.shape} incompatible with grid {self.grid.shape} + fiber"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        self.values = vals

    @property
    def fiber_dim(self) -> int:
        if self._spectrum is not None:
            return self._spectrum.coefficients.shape[-1]
        return self.values.shape[-1]

    @property
    def mean(self) -> np.ndarray:
        return self.values.mean(axis=tuple(range(self.grid.n)))

    @property
    def is_zero_mean(self) -> bool:
        """|mean| <= ZERO_MEAN_TOL max|values|, or the kept spectrum's zero mode is 0."""
        if self._spectrum is not None:
            # the generator sets the zero mode to exactly 0 for a zero-mean field
            return not np.any(self._spectrum.coefficients[(0,) * self.grid.n])
        scale = float(np.max(np.abs(self.values)))
        return bool(np.max(np.abs(self.mean)) <= ZERO_MEAN_TOL * scale)

    def with_zero_mean(self) -> "TensorField":
        return TensorField(self.grid, self.values - self.mean)

    def __add__(self, other):
        self._check_compatible(other)
        return TensorField(self.grid, self.values + other.values)

    def __sub__(self, other):
        self._check_compatible(other)
        return TensorField(self.grid, self.values - other.values)

    def __mul__(self, scalar):
        return TensorField(self.grid, self.values * float(scalar))

    __rmul__ = __mul__

    def _check_compatible(self, other):
        if not isinstance(other, TensorField):
            raise TypeError("expected a TensorField")
        if other.grid is not self.grid and (
            other.grid.n != self.grid.n
            or other.grid.points_per_axis != self.grid.points_per_axis
        ):
            raise ValueError("fields live on different grids")
        if other.fiber_dim != self.fiber_dim:
            raise ValueError("fields have different fiber dimensions")


# --------------------------------------------------------------------------
# half-spectrum calculus
# --------------------------------------------------------------------------

def _rfftn(box, values):
    """numpy's rfftn of (grid.shape + (d,)) samples over the grid axes, on the box only.

    rfftn is a loop of 1-D transforms: rfft on the last grid axis, then fft
    from the second-to-last axis down to the first.  This is that loop over
    only the lines that carry box bins, so the result is rfftn's restricted
    to the box, bit for bit.
    """
    n = box.grid.n
    out = np.fft.rfftn(values, axes=(n - 1,))
    out = out[(slice(None),) * (n - 1) + (slice(0, box.cutoff + 1),)]
    for axis in range(n - 2, -1, -1):
        out = np.fft.fftn(out, axes=(axis,))
        if not box.is_full:
            out = out.take(box.axis_bins, axis=axis)
    return out


def _irfftn(box, coef):
    """numpy's irfftn, over the grid axes, of box coefficients zero-padded to the half grid.

    irfftn is ifft from the first grid axis up, then irfft on the last.  A
    line with no box bin is zero and stays zero until the last transform, so
    each step pads only the axis it transforms; irfft pads the last axis
    itself.  Bit for bit the samples irfftn gives; trailing axes are kept.
    """
    n, m = box.grid.n, box.grid.points_per_axis
    out = coef
    for axis in range(n - 1):
        if not box.is_full:
            padded = np.zeros(out.shape[:axis] + (m,) + out.shape[axis + 1 :], complex)
            padded[(slice(None),) * axis + (box.axis_bins,)] = out
            out = padded
        out = np.fft.ifftn(out, axes=(axis,))
    return np.fft.irfftn(out, s=(m,), axes=(n - 1,))


def _forward(box, values):
    """Parseval-normalized real-FFT half spectrum of (grid.shape + (d,)) samples, on the box."""
    return _rfftn(box, values) * box.grid.spectrum_scale


def _inverse(box, coef):
    """Real samples of a half spectrum on the box; trailing component axes are kept."""
    return _irfftn(box, coef) / box.grid.spectrum_scale


def _parseval_norm(box, coef, weight=None):
    """L^2 norm of the real field with half spectrum coef on the box; weight multiplies each bin."""
    pairs = np.ascontiguousarray(coef).view(float)
    power = np.einsum("...j,...j->...", pairs, pairs)
    weights = box.parseval_weights if weight is None else box.parseval_weights * weight
    return math.sqrt(float(np.vdot(weights, power)))


def _lp(grid, values, p):
    """Discrete L^p norm of (grid.shape + (d,)) samples, Euclidean fiber norm."""
    if not 1 <= p < math.inf:
        raise ValueError("need 1 <= p < infinity")
    # |v|^p as (sum_j v_j^2)^(p/2): one power per point, no square root
    power = np.einsum("...j,...j->...", values, values)
    return float((np.sum(power ** (p / 2.0)) * grid.cell_volume) ** (1.0 / p))


# multiplication by i on a row (re, im): (re, im) @ R = (-im, re)
_QUARTER_TURN = np.array([[0.0, 1.0], [-1.0, 0.0]])


@dataclass(eq=False)
class HalfSpectrum:
    """Real-FFT half spectrum of a real field, Parseval-normalized, on a BandBox.

    coefficients has shape box.shape + (d,) and is zero off the box and on
    the Nyquist rows; the box is read off that shape (its last grid axis
    holds cutoff + 1 bins), and the full box has shape
    grid.half_shape + (d,).  to_field() is the real field the full-grid
    calculus would give (module docstring).
    """

    grid: TorusGrid
    coefficients: np.ndarray

    @classmethod
    def of(cls, field: TensorField) -> "HalfSpectrum":
        """The spectrum the field's generator kept, else one full-box transform
        with its Nyquist rows set to 0: the field projected on the trial space."""
        if field._spectrum is not None:
            return field._spectrum
        grid, half = field.grid, field.grid.points_per_axis // 2
        coef = _forward(BandBox(grid, half), field.values)
        for axis in range(grid.n):
            coef[(slice(None),) * axis + (half,)] = 0.0
        return cls(grid, coef)

    @property
    def box(self) -> BandBox:
        return BandBox(self.grid, self.coefficients.shape[self.grid.n - 1] - 1)

    def to_field(self) -> TensorField:
        return TensorField(self.grid, _inverse(self.box, self.coefficients))

    def __sub__(self, other: "HalfSpectrum") -> "HalfSpectrum":
        return HalfSpectrum(self.grid, self.coefficients - other.coefficients)

    def apply_operator(self, spec: OperatorSpec) -> "HalfSpectrum":
        """B u from u: coefficients map by (i xi)^alpha Re B_alpha.

        The imaginary part of a complex B_alpha maps a real field to an
        imaginary one, which the real part of the inverse drops.  Each alpha
        is one real product on the (re, im) pairs of the coefficients:
        i^|alpha| = i^k is the rotation R^k, R = [[0, 1], [-1, 0]] acting on
        a row (re, im), and xi^alpha weighs the rows.
        """
        box, coef = self.box, self.coefficients
        pairs = np.ascontiguousarray(coef).view(float).reshape(-1, 2 * coef.shape[-1])
        rotation = np.linalg.matrix_power(_QUARTER_TURN, spec.k % 4)
        xi = box.frequencies.reshape(-1, self.grid.n).astype(float)
        out = np.zeros((pairs.shape[0], 2 * spec.l))
        term = np.empty_like(out)
        for alpha, mat in spec.coeffs.items():
            np.matmul(pairs, np.kron(mat.real.T, rotation), out=term)
            term *= alpha.power(xi)[:, None]
            out += term
        return HalfSpectrum(self.grid, out.view(complex).reshape(coef.shape[:-1] + (spec.l,)))

    def apply_multiplier(self, desc) -> "HalfSpectrum":
        """m(D) u from u, through desc.grid_table applied on the box."""
        table = desc.grid_table(self.grid)
        return HalfSpectrum(self.grid, table.apply(self.box, self.coefficients))

    def apply_partmap(self, part) -> "HalfSpectrum":
        return HalfSpectrum(self.grid, part.apply(self.coefficients))

    def _derivative(self, m):
        """Coefficients of the m-th derivative tensor, stacked on the last axis.

        Block beta is weighted by sqrt(m!/beta!), so the stacked field's
        Frobenius norm is the full derivative tensor's.
        """
        coef = self.coefficients
        if m == 0:
            return coef
        indices = multiindex_enumerate(self.grid.n, m)
        out = np.empty(coef.shape[:-1] + (len(indices), coef.shape[-1]), dtype=complex)
        i_xi = 1j * self.box.frequencies.astype(float)
        for b, beta in enumerate(indices):
            weight = math.sqrt(beta.multiplicity()) * beta.power(i_xi)
            out[..., b, :] = weight[..., None] * coef
        return out.reshape(coef.shape[:-1] + (-1,))

    def sobolev_norm(self, m: int, p: float) -> float:
        """L^p norm of the m-th derivative tensor: a Parseval sum at p = 2,
        otherwise one inverse transform of all its components."""
        blocks = self._derivative(m)
        if p == 2:
            return _parseval_norm(self.box, blocks)
        return _lp(self.grid, _inverse(self.box, blocks), p)

    def negative_sobolev_norm(self, s: float) -> float:
        """(sum_{xi != 0} |xi|^{-2s} ||f_hat(xi)||^2)^{1/2} over the full spectrum."""
        box = self.box
        norm2 = box.frequency_norm2
        weight = np.zeros_like(norm2)
        nz = ~box.zero_mask
        weight[nz] = norm2[nz] ** (-s)
        return _parseval_norm(box, self.coefficients, weight)


def apply_operator(spec: OperatorSpec, field: TensorField) -> TensorField:
    """Apply the differential operator spectrally: coefficients map by B[i xi]."""
    if field.fiber_dim != spec.d:
        raise ValueError(f"field fiber {field.fiber_dim} != operator source {spec.d}")
    if field.grid.n != spec.n:
        raise ValueError("grid and operator dimensions differ")
    return HalfSpectrum.of(field).apply_operator(spec).to_field()


def apply_multiplier(desc, field: TensorField) -> TensorField:
    """Apply a MultiplierDescriptor frequency-wise; the zero mode is annihilated."""
    rows, cols = desc.shape
    if field.fiber_dim != cols:
        raise ValueError(f"field fiber {field.fiber_dim} != multiplier columns {cols}")
    return HalfSpectrum.of(field).apply_multiplier(desc).to_field()


def apply_partmap(part, field: TensorField) -> TensorField:
    """Apply a pointwise part map A to every fiber value."""
    if field.fiber_dim != part.d:
        raise ValueError(f"field fiber {field.fiber_dim} != part map source {part.d}")
    return TensorField(field.grid, part.apply(field.values))


def lp_norm(field: TensorField, p: float) -> float:
    """Discrete L^p norm with Euclidean (Frobenius) fiber norm."""
    return _lp(field.grid, field.values, p)


def _require_zero_mean(field, what):
    if not field.is_zero_mean:
        raise ValueError(f"{what} requires a zero-mean field (project the mean out first)")


def homog_sobolev_norm(field: TensorField, m: int, p: float) -> float:
    """L^p norm of the full m-th derivative tensor of the field.

    Components are weighted by the multinomial multiplicities m!/alpha!, so
    at p = 2 the squared norm equals the |xi|^{2m}-weighted spectrum sum.
    m = 0 reduces to the plain L^p norm.
    """
    if m < 0:
        raise ValueError("derivative order must be >= 0")
    if m == 0:
        return lp_norm(field, p)
    if not 1 <= p < math.inf:
        raise ValueError("need 1 <= p < infinity")
    _require_zero_mean(field, "homogeneous Sobolev norm")
    return HalfSpectrum.of(field).sobolev_norm(m, p)


def negative_sobolev_norm_l2(field: TensorField, s: float) -> float:
    """Homogeneous negative-order norm via Fourier weights, p = 2 only.

    Returns (sum_{xi != 0} |xi|^{-2s} ||f_hat(xi)||^2)^{1/2}.  There is no
    exponent argument: the package has no grid-honest realization of
    W^{-s,p} norms for p != 2.
    """
    if s < 0:
        raise ValueError("order s must be >= 0")
    _require_zero_mean(field, "negative-order Sobolev norm")
    return HalfSpectrum.of(field).negative_sobolev_norm(s)


def sobolev_conjugate(p: float, n: int) -> float:
    """The Sobolev conjugate exponent p* = n p / (n - p) for 1 <= p < n."""
    if not 1 <= p < n:
        raise ValueError(f"need 1 <= p < n, got p={p}, n={n}")
    return n * p / (n - p)


def dual_exponent_chain(p: float, n: int) -> tuple[float, float]:
    """The duality exponent q = n p / (n p - n + p) and its conjugate q/(q-1).

    The chain closes on the Sobolev conjugate: q/(q-1) = p*.  Both values
    are returned; the identity is verified internally.
    """
    if not 1 <= p < n:
        raise ValueError(f"need 1 <= p < n, got p={p}, n={n}")
    q = n * p / (n * p - n + p)
    q_dual = q / (q - 1.0)
    p_star = sobolev_conjugate(p, n)
    if abs(q_dual - p_star) > 1e-12 * max(1.0, p_star):
        raise AssertionError(
            f"duality chain failed to close: q/(q-1)={q_dual} vs p*={p_star}"
        )
    return q, q_dual


# --------------------------------------------------------------------------
# field generators (discrete stand-ins for compactly supported test fields)
# --------------------------------------------------------------------------

def random_bandlimited(
    grid: TorusGrid,
    d: int,
    cutoff: int,
    seed: int | np.random.SeedSequence,
) -> TensorField:
    """Zero-mean random field supported on frequencies with |xi_j| <= cutoff.

    The real-FFT spectrum of white noise (d standard normals per grid
    point) is cut to the band box of cutoff and its zero mode dropped;
    only the lines that carry the box are transformed, so the spectrum is
    that of the full rfftn and mask bit for bit.  It is scaled to unit L^2
    norm by its Parseval sum.  Deterministic given the seed (a non-negative
    integer or a SeedSequence).  The field keeps that box spectrum, so
    HalfSpectrum.of (and kms_sides) take no transform of it; its samples
    are the inverse transform of the spectrum from the box, made on the
    first read of values and read-only, so the spectrum cannot go stale.
    """
    check_count("d", d)
    check_count("cutoff", cutoff)
    if d < 1:
        raise ArgumentError("d", "the fibre dimension d must be >= 1")
    if not 1 <= cutoff < grid.points_per_axis // 2:
        raise ArgumentError("cutoff", "cutoff must satisfy 1 <= cutoff < M/2")
    if not isinstance(seed, np.random.SeedSequence):
        check_seed(seed)
    rng = np.random.default_rng(seed)
    box = BandBox(grid, cutoff)
    hat = _forward(box, rng.standard_normal(grid.shape + (d,)))
    hat[box.zero_mask] = 0.0
    nrm = _parseval_norm(box, hat)
    if nrm > 0:
        hat *= 1.0 / nrm
    hat.setflags(write=False)
    return TensorField._generated(HalfSpectrum(grid, hat), lambda: _inverse(box, hat))


def plane_wave_field(grid: TorusGrid, xi0, v) -> TensorField:
    """The real plane wave Re(v e^{i x . xi0}); spectrum supported on {+-xi0}.

    xi0 must be a nonzero grid frequency without Nyquist components.
    """
    xi0 = np.asarray(xi0)
    if xi0.shape != (grid.n,):
        raise ArgumentError("xi0", f"frequency must have shape ({grid.n},)")
    xi_int = np.rint(xi0).astype(np.int64)
    if not np.array_equal(xi_int, xi0):
        raise ArgumentError("xi0", "plane-wave frequency must be an integer vector")
    if not np.any(xi_int):
        raise ArgumentError("xi0", "plane-wave frequency must be nonzero")
    half = grid.points_per_axis // 2
    if np.any(np.abs(xi_int) >= half):
        raise ArgumentError(
            "xi0", "plane-wave frequency must avoid the Nyquist rows (|xi_j| < M/2)"
        )
    v = np.asarray(v)
    phase = grid.points @ xi_int.astype(float)
    wave = np.exp(1j * phase)[..., None] * v
    return TensorField(grid, wave.real)


def bump_field(
    grid: TorusGrid,
    center,
    width: float,
    v,
    zero_mean: bool = True,
) -> TensorField:
    """Gaussian bump exp(-|x - c|^2 / (2 w^2)) v with periodic distance, Nyquist terms dropped.

    The Gaussian is the product of n 1-D profiles, so its half spectrum is
    the outer product of their fft (the first n - 1 axes) and rfft (the
    last), times v: no n-D transform is taken.  Each profile loses its
    Nyquist term, S[M/2] (-1)^i / M at sample i, from its samples and its spectrum, so
    the field lies in the trial space (module docstring).  The field keeps
    that spectrum, as random_bandlimited does; its samples, the product of
    the profiles times v, are made on the first read of values and are
    read-only.  With zero_mean=True (default) the zero mode is 0 and the
    mean is subtracted from the samples, so the field is usable in
    homogeneous norms; pass False to compare against whole-space quadrature
    oracles.
    """
    center = np.asarray(center, dtype=float)
    if center.shape != (grid.n,):
        raise ArgumentError("center", f"center must have shape ({grid.n},)")
    if not 0 < width < math.inf:
        raise ArgumentError("width", "width must be positive and finite")
    v = np.array(v, dtype=float)  # a copy: the samples are made later
    m = grid.points_per_axis
    axis = 2.0 * math.pi * np.arange(m) / m
    nyquist_mode = np.where(np.arange(m) % 2 == 0, 1.0 / m, -1.0 / m)
    profiles, spectra = [], []
    for j, c in enumerate(center):
        distance = (axis - c + math.pi) % (2.0 * math.pi) - math.pi
        profile = np.exp(-(distance**2) / (2.0 * width**2))
        transform = np.fft.rfftn if j == grid.n - 1 else np.fft.fftn
        spectrum = transform(profile, axes=(0,))
        profiles.append(profile - spectrum[m // 2].real * nyquist_mode)
        spectrum[m // 2] = 0.0
        spectra.append(spectrum)
    hat = reduce(np.multiply.outer, spectra) * grid.spectrum_scale
    if zero_mean:
        hat[(0,) * grid.n] = 0.0
    hat = hat[..., None] * v
    hat.setflags(write=False)

    def sample():
        profile = reduce(np.multiply.outer, profiles)
        if zero_mean:
            profile -= math.prod(p.mean() for p in profiles)
        return profile[..., None] * v

    return TensorField._generated(HalfSpectrum(grid, hat), sample)
