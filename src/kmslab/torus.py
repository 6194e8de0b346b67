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
0 ... M/2 - 1, -M/2.  A spectrum holds its coefficients on a `BandBox`,
the bins with |xi_j| <= c on every axis (0 ... c on the last); the full
half grid is the box c = M/2.  The inverse transform runs only over the
1-D lines that carry the box.  A box builds its frequencies, |xi|^2, zero
mask and Parseval weights from its own axis bins by broadcasting, on each
read, and a KMS trial reads each once (`HalfSpectrum.trial_norms`); no
grid holds an array of the half grid's size.  Multiplier tables are read
through the box (`BandBox.take`).  The generators write a spectrum on a
box, `random_bandlimited` by drawing it there and `bump_field` from the
periodised Gaussian's closed form, and hand it on with the field, whose
samples are made on first read of `values`.  Every other field is
transformed once, on the full box.  A field's L^2 norm is the Parseval
sum with `BandBox.parseval_weights` (1 on the last-axis bins 0 and M/2,
whose partners -xi lie in the half grid too, 2 elsewhere).

Norms stream the spectrum.  Every inverse transform is `_slabs` of a
`_line_buffer` (box coefficients padded to M bins on the first axis): that
axis in place, then the others x_0 slab by x_0 slab.  `_irfftn` takes it
in one slab; the slab reducer `_lq_norms`, every L^q norm with q != 2,
takes SLAB_BYTES of samples at a time and keeps only |f|^q per point.
`HalfSpectrum.apply_operator` and a KMS trial's block pass
(`HalfSpectrum.trial_norms`) walk the bins in runs of whole last-axis
lines (`_bin_runs`).  Both keep the whole box's numbers, bit for bit.

The trial space is the band without Nyquist rows: every half spectrum
holds 0 wherever a coordinate of xi is -M/2.  A real field's Nyquist mode
has vanishing odd derivatives on the grid, so it would give every
odd-order operator a spurious null direction there.  `HalfSpectrum.of`
sets those rows to 0 after its transform, and both generators write their
spectra on a box below M/2.  On that space an operator acts by
(i xi)^alpha Re B_alpha and a multiplier by m(xi): what multiplying the
full spectrum and keeping the real part of the inverse computes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .operators import (
    ArgumentError,
    OperatorSpec,
    check_count,
    check_seed,
    multiindex_enumerate,
)

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
    "bump_cutoff",
]

# a field has zero mean when |mean| <= ZERO_MEAN_TOL max|values|
ZERO_MEAN_TOL = 1e-12
# multiply-adds of B[i xi] that each run of the block pass holds at least,
# where a box is cut into runs (_bin_runs).  numpy hands BLAS one matrix
# product per run, and BLAS takes a small product through a kernel that
# rounds differently (OpenBLAS: m n k <= 1e6), so runs this large keep the
# bits that the box taken whole gets
BLOCK_PRODUCT = 1 << 21
# bytes of samples that the slab reducer (_lq_norms) makes at a time, at
# least one x_0 plane
SLAB_BYTES = 1 << 20


@dataclass(frozen=True, eq=False)
class TorusGrid:
    """Uniform grid on [0, 2*pi)^n with M points per axis (M even, >= 4)."""

    n: int
    points_per_axis: int

    def __post_init__(self):
        check_count("n", self.n)
        check_count("points_per_axis", self.points_per_axis)
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

    @property
    def axis_points(self) -> np.ndarray:
        """The M sample coordinates 2 pi j / M of one axis."""
        return 2.0 * math.pi * np.arange(self.points_per_axis) / self.points_per_axis

    @cached_property
    def points(self) -> np.ndarray:
        mesh = np.meshgrid(*([self.axis_points] * self.n), indexing="ij")
        pts = np.stack(mesh, axis=-1)
        pts.setflags(write=False)
        return pts

    @cached_property
    def canonical_frequencies(self) -> np.ndarray:
        """Flat (count, n) array of the nonzero frequencies without a Nyquist coordinate.

        One representative of each {xi, -xi} pair (the lexicographically
        positive one) is kept, which suffices for real fields; the order is
        that of frequency_grid.  The frequencies are meshed from
        axis_frequencies here and dropped, so the grid caches no
        frequency_grid for them.
        """
        mesh = np.meshgrid(*([self.axis_frequencies] * self.n), indexing="ij", copy=False)
        flat = np.stack(mesh, axis=-1).reshape(-1, self.n)
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
    calculus at cutoff M/2.  frequencies, frequency_norm2, zero_mask and
    parseval_weights are fresh arrays of the box's shape, built on each
    read from its axis bins by broadcasting; the grid keeps none of them.
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
        """The bins of a full axis that the box keeps: 0 ... c, then M - c ... M - 1; all M on the full box."""
        m, c = self.grid.points_per_axis, self.cutoff
        return np.concatenate([np.arange(c + 1), np.arange(max(m - c, c + 1), m)])

    def take(self, array: np.ndarray) -> np.ndarray:
        """array (shape grid.half_shape + trailing axes) on the box's bins."""
        if self.is_full:
            return array
        n = self.grid.n
        out = array[(slice(None),) * (n - 1) + (slice(0, self.cutoff + 1),)]
        return out[np.ix_(*[self.axis_bins] * (n - 1))] if n > 1 else out

    def _mesh(self) -> list:
        """The box's axis frequencies (int64) as sparse meshgrid arrays that broadcast to its shape:
        grid.axis_frequencies at axis_bins on a full axis, its first cutoff + 1 on the last."""
        freqs, n = self.grid.axis_frequencies, self.grid.n
        axes = [freqs[self.axis_bins]] * (n - 1) + [freqs[: self.cutoff + 1]]
        return np.meshgrid(*axes, indexing="ij", sparse=True)

    @property
    def frequencies(self) -> np.ndarray:
        """The frequency of each bin, int64, shape box.shape + (n,)."""
        return np.stack(np.broadcast_arrays(*self._mesh()), axis=-1)

    @property
    def frequency_norm2(self) -> np.ndarray:
        """|xi|^2 of each bin: a sum of broadcast squares of integers, exact."""
        return sum(np.square(axis, dtype=float) for axis in self._mesh())

    @property
    def zero_mask(self) -> np.ndarray:
        """True at xi = 0, the box's first bin, alone."""
        mask = np.zeros(self.shape, bool)
        mask[(0,) * self.grid.n] = True
        return mask

    @property
    def parseval_weights(self) -> np.ndarray:
        """Multiplicity of each bin in the full spectrum sum: 1 on the last-axis bin 0, and on M/2
        in the full box (the partner -xi is in the half grid too), 2 elsewhere (it is left out)."""
        weights = np.full(self.shape, 2.0)
        weights[..., 0] = 1.0
        if self.is_full:
            weights[..., -1] = 1.0
        return weights


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

def _pad_and_invert(box, coef, axis):
    """ifft in place along a full grid axis of box coefficients, zero-padded there to M bins first.

    coef already holds M bins on that axis where the box is full, and on
    the first axis of a _line_buffer; it is then transformed in place,
    otherwise its padded copy is.
    """
    m = box.grid.points_per_axis
    if coef.shape[axis] != m:
        padded = np.zeros(coef.shape[:axis] + (m,) + coef.shape[axis + 1 :], complex)
        padded[(slice(None),) * axis + (box.axis_bins,)] = coef
        coef = padded
    return np.fft.ifftn(coef, axes=(axis,), out=coef)


def _slabs(box, lines, planes):
    """numpy's irfftn over the grid axes of the box coefficients in a _line_buffer, by x_0 slab.

    Yields (slice of x_0, samples of those planes), planes x_0 planes at a
    time; trailing axes are kept.  irfftn is ifft from the first grid axis
    up, then irfft on the last.  The first axis is inverted once, in place
    in lines, which is spent; each slab of it then takes the other axes on
    its own, which transforms the same 1-D lines.  A line with no box bin
    is zero and stays zero until the last transform, so each later step
    pads only the axis it transforms (_pad_and_invert); irfft zero-fills
    the last axis line by line itself.  Bit for bit the samples irfftn
    gives, whatever planes is.
    """
    n, m = box.grid.n, box.grid.points_per_axis
    if n == 1:
        yield slice(None), np.fft.irfftn(lines, s=(m,), axes=(0,))
        return
    _pad_and_invert(box, lines, 0)
    for lo in range(0, m, planes):
        out = lines[lo : lo + planes]
        if lo + planes >= m:
            # the last slab's view holds what is left of the buffer
            del lines
        for axis in range(1, n - 1):
            out = _pad_and_invert(box, out, axis)
        yield slice(lo, lo + planes), np.fft.irfftn(out, s=(m,), axes=(n - 1,))


def _line_buffer(box, comps):
    """Zeros for box coefficients of comps components, padded to M bins on the first grid axis.

    That axis is the first one _slabs inverts, so the buffer is inverted in
    place, with no padded copy; at n = 1 it is the box's own shape.
    """
    shape = box.shape
    if box.grid.n > 1:
        shape = (box.grid.points_per_axis,) + shape[1:]
    return np.zeros(shape + (comps,), complex)


def _lines(box, coef):
    """Box coefficients copied into a _line_buffer of their own, by one assignment on the first axis."""
    lines = _line_buffer(box, coef.shape[-1])
    lines[slice(None) if lines.shape[0] == box.shape[0] else box.axis_bins] = coef
    return lines


def _write_run(box, lines, run, values):
    """Write the coefficients of a run (a slice) of the box's flat bins into a _line_buffer."""
    flat = lines.reshape(-1, values.shape[-1])
    if lines.shape[0] == box.shape[0]:
        flat[run] = values
        return
    plane = math.prod(box.shape[1:])
    bins = np.arange(run.start, run.stop)
    flat[box.axis_bins[bins // plane] * plane + bins % plane] = values


def _irfftn(box, coef):
    """_slabs of a copy of coef in one slab: the samples of every x_0 plane at once."""
    return next(_slabs(box, _lines(box, coef), box.grid.points_per_axis))[1]


def _forward(grid, values):
    """Parseval-normalized real-FFT half spectrum of (grid.shape + (d,)) samples, on the full box.

    Only a field the caller built is transformed, so no forward transform is
    pruned to a smaller box.
    """
    return np.fft.rfftn(values, axes=tuple(range(grid.n))) * grid.spectrum_scale


def _inverse(box, coef):
    """Real samples of a half spectrum on the box; trailing component axes are kept."""
    samples = _irfftn(box, coef)
    samples /= box.grid.spectrum_scale
    return samples


def _power(coef):
    """||coef||^2 per bin: the dot product of each bin's (re, im) pairs."""
    pairs = np.ascontiguousarray(coef).view(float)
    return np.einsum("...j,...j->...", pairs, pairs)


def _parseval_sum(weights, power):
    """L^2 norm from the per-bin power of a half spectrum and the weights of its bins (_side_weights)."""
    return math.sqrt(float(np.vdot(weights, power)))


def _parseval_norm(box, coef, order=0):
    """L^2 norm of the real field with half spectrum coef on the box, |xi|^order-weighted below order 0."""
    return _parseval_sum(_side_weights(box, box.parseval_weights, order), _power(coef))


def _fourier_weight(box, order):
    """|xi|^(2 order) on the box's bins and 0 at xi = 0: the Parseval weight of a negative order."""
    norm2 = box.frequency_norm2
    zero = (0,) * box.grid.n
    norm2[zero] = 1.0
    weight = norm2 ** float(order)
    weight[zero] = 0.0
    return weight


def _side_weights(box, parseval, order):
    """The weights of a side's Parseval sum: the box's parseval weights, times the Fourier weight below order 0."""
    return parseval if order >= 0 else parseval * _fourier_weight(box, order)


def _check_exponent(p):
    if not 1 <= p < math.inf:
        raise ValueError("need 1 <= p < infinity")


def _point_powers(values, p):
    """|v|^p at each point of (..., d) samples, Euclidean fiber norm."""
    # |v|^p as (sum_j v_j^2)^(p/2): one power per point, no square root
    return np.einsum("...j,...j->...", values, values) ** (p / 2.0)


def _lp_of_powers(grid, powers, p):
    """The discrete L^p norm from the grid.shape array of |v|^p per point: one np.sum."""
    return float((np.sum(powers) * grid.cell_volume) ** (1.0 / p))


def _lp(grid, values, p):
    """Discrete L^p norm of (grid.shape + (d,)) samples, Euclidean fiber norm."""
    _check_exponent(p)
    return _lp_of_powers(grid, _point_powers(values, p), p)


def _lq_norms(box, lines, q, part=None):
    """[|f|_q] of the real field f whose box coefficients a _line_buffer holds, and |A f|_q with a part map.

    The slab reducer: lines is inverted in place, SLAB_BYTES of samples at
    a time, whole x_0 planes (_slabs), and each slab writes |f|^q, and
    |A f|^q with A on each block of part.d components, per point into a
    grid.shape array.  One np.sum of each array then gives the norm, the
    sum _lp takes of the samples made at once, so the norms are _lp's bit
    for bit; no sample array of the whole grid is held.
    """
    _check_exponent(q)
    grid = box.grid
    plane = 8 * lines.shape[-1] * grid.points_per_axis ** (grid.n - 1)
    powers = [np.empty(grid.shape) for _ in range(1 if part is None else 2)]
    for where, samples in _slabs(box, lines, max(1, SLAB_BYTES // plane)):
        samples /= grid.spectrum_scale
        powers[0][where] = _point_powers(samples, q)
        if part is not None:
            d = part.d
            blocks = [part.apply(samples[..., j : j + d]) for j in range(0, samples.shape[-1], d)]
            mapped = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=-1)
            powers[1][where] = _point_powers(mapped, q)
            del blocks, mapped
        # dropped before _slabs makes the next slab, so one slab is alive at a time
        del samples
    return [_lp_of_powers(grid, array, q) for array in powers]


def _derivative(freqs, coef, m):
    """Coefficients of the m-th derivative tensor at integer frequencies freqs, stacked on the last axis.

    freqs has shape coef.shape[:-1] + (n,).  Block beta is weighted by
    sqrt(m!/beta!), so the stacked field's Frobenius norm is the full
    derivative tensor's.
    """
    if m == 0:
        return coef
    indices = multiindex_enumerate(freqs.shape[-1], m)
    out = np.empty(coef.shape[:-1] + (len(indices), coef.shape[-1]), dtype=complex)
    i_xi = 1j * freqs.astype(float)
    for b, beta in enumerate(indices):
        weight = math.sqrt(beta.multiplicity()) * beta.power(i_xi)
        out[..., b, :] = weight[..., None] * coef
    return out.reshape(coef.shape[:-1] + (-1,))


def _bin_runs(box, spec):
    """The block pass's runs of a box's bins, in flat order: whole last-axis lines.

    The lines are split evenly, into as many runs as keeps each one at
    BLOCK_PRODUCT multiply-adds of the real products of B[i xi]
    (_operator_rows) or more; a box below that is one run.
    """
    line = box.shape[-1]
    lines = math.prod(box.shape) // line
    per_run = -(-BLOCK_PRODUCT // (4 * max(1, spec.d * spec.l) * line))
    count = max(1, lines // per_run)
    edges = [i * lines // count * line for i in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def _operator_rows(spec, pairs, xi, out, term):
    """B u on rows of (re, im) pairs at float frequencies xi, into out; term is scratch of out's shape.

    Each alpha is one real product with its matrix of spec.real_products,
    i^k Re B_alpha on the pairs, and xi^alpha weighs the rows.
    """
    out[...] = 0.0
    for alpha, product in spec.real_products:
        np.matmul(pairs, product, out=term)
        term *= alpha.power(xi)[:, None]
        out += term
    return out


def _operator_runs(spec, freqs, vec, runs, scratch):
    """(run, frequencies, B u) for each run of a box's flat bins, u's rows vec, freqs theirs: the B walk.

    B u of a run is _operator_rows into one buffer that every run reuses,
    with the product's term in scratch (2 l floats per bin of the widest run).
    """
    out = np.empty((max(run.stop - run.start for run in runs), spec.l), complex)
    for run in runs:
        rows = run.stop - run.start
        b_run, xi = out[:rows], freqs[run]
        term = scratch[: 2 * rows * spec.l].reshape(rows, -1)
        _operator_rows(spec, vec[run].view(float), xi.astype(float), b_run.view(float), term)
        yield run, xi, b_run


def _side_norms(box, order, q, comps, walk, weights, part=None):
    """[|grad^order f|_q], and |A grad^order f|_q with a part map, from the runs of f's half spectrum.

    walk yields (run, frequencies, f) for each run (a slice of the box's
    flat bins), f of comps components; a fourth entry g is what the A side
    reads at q = 2, in place of f.  At q = 2 a side is the Parseval sum of
    its per-bin power with weights, the side's _side_weights.  Otherwise
    grad^order f is written run by run into a _line_buffer and reduced
    there in place (_lq_norms), A on each derivative block: the one route
    of every L^q side.
    """
    if q == 2:
        derivative = max(order, 0)
        power = [np.empty(math.prod(box.shape)) for _ in range(1 if part is None else 2)]
        for run, xi, f, *g in walk:
            power[0][run] = _power(_derivative(xi, f, derivative))
            if part is not None:
                # A on whole last-axis lines, as on the box-shaped spectrum
                a = part.apply(g[0].reshape(-1, box.shape[-1], comps)).reshape(len(f), -1)
                power[1][run] = _power(_derivative(xi, a, derivative))
        return [_parseval_sum(weights, each) for each in power]
    lines = _line_buffer(box, math.comb(box.grid.n + order - 1, order) * comps)
    for run, xi, f, *g in walk:
        _write_run(box, lines, run, _derivative(xi, f, order))
    del xi, f, g  # views of the walk's buffers: they go before the reduction
    return _lq_norms(box, lines, q, part)


def _residual_runs(box, freqs, vec, runs, scratch, table, power):
    """(run, frequencies, R, P) for each run of the box's flat bins, P's rows vec, freqs theirs: R's walk.

    R = P - corr P, table.apply_rows writing corr P into scratch, or P where
    table is None; P's per-bin power goes into power on the way.
    """
    keys = None if table is None else table.bin_keys(box)
    for run in runs:
        p_run = r_run = vec[run]
        power[run] = _power(p_run)
        if table is not None:
            corr = scratch[: 2 * p_run.size].view(complex).reshape(p_run.shape)
            table.apply_rows(keys, run, p_run, corr)
            r_run = np.subtract(p_run, corr, out=corr)
        yield run, freqs[run], r_run, p_run


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
        coef = _forward(grid, field.values)
        for axis in range(grid.n):
            coef[(slice(None),) * axis + (half,)] = 0.0
        return cls(grid, coef)

    @property
    def box(self) -> BandBox:
        return BandBox(self.grid, self.coefficients.shape[self.grid.n - 1] - 1)

    def to_field(self) -> TensorField:
        return TensorField(self.grid, _inverse(self.box, self.coefficients))

    def apply_operator(self, spec: OperatorSpec) -> "HalfSpectrum":
        """B u from u: coefficients map by (i xi)^alpha Re B_alpha.

        The imaginary part of a complex B_alpha maps a real field to an
        imaginary one, which the real part of the inverse drops.  The bins
        are taken in the block pass's runs (_bin_runs) by the B walk
        (_operator_runs), one real product per alpha on each run.
        """
        box, runs = self.box, _bin_runs(self.box, spec)
        vec = np.ascontiguousarray(self.coefficients).reshape(-1, spec.d)
        out = np.empty((vec.shape[0], spec.l), complex)
        scratch = np.empty(2 * max(run.stop - run.start for run in runs) * spec.l)
        freqs = box.frequencies.reshape(-1, box.grid.n)
        for run, _, b_run in _operator_runs(spec, freqs, vec, runs, scratch):
            out[run] = b_run
        return HalfSpectrum(self.grid, out.reshape(box.shape + (spec.l,)))

    def apply_multiplier(self, desc) -> "HalfSpectrum":
        """m(D) u from u, through desc.grid_table applied on the box."""
        table = desc.grid_table(self.grid)
        return HalfSpectrum(self.grid, table.apply(self.box, self.coefficients))

    def sobolev_norm(self, m: float, p: float) -> float:
        """L^p norm of the m-th derivative tensor: a Parseval sum at p = 2,
        otherwise the slab reducer (_lq_norms) on all its components, in a
        line buffer.  An order m < 0 is the Fourier weight |xi|^m, p = 2
        only: (sum_{xi != 0} |xi|^{2m} ||f_hat(xi)||^2)^{1/2}."""
        box = self.box
        if m < 0:
            if p != 2:
                raise ValueError("a negative order is a Fourier weight at p = 2")
            return _parseval_norm(box, self.coefficients, m)
        blocks = _derivative(box.frequencies, self.coefficients, m)
        if p == 2:
            return _parseval_norm(box, blocks)
        # on the full box the derivative's blocks (m >= 1) are a fresh line buffer already
        return _lq_norms(box, blocks if m > 0 and box.is_full else _lines(box, blocks), p)[0]

    def trial_norms(self, spec, part, table, norms) -> tuple:
        """(|P|_2, [|grad^m R|_q, |A grad^m R|_q], |B P|) of a KMS trial on this spectrum P.

        The block pass.  norms is ((m, q), (order, q_B)), those of the left
        and A sides and of the B side; R = P - corr P with table the
        correction's OrbitTable, else P; no A side without a part map (at
        q = 2 it reads A P, as the whole-box composition does).  The B walk
        (_operator_runs) and then R's walk (_residual_runs, its correction
        in the product's scratch buffer) each feed _side_norms, B's side
        reduced and freed before R's is written: one line buffer at a time.
        Without a correction the scratch buffer goes with the B walk, before
        B's reduction.  The box's arrays are built once per trial: the
        frequencies both walks read, gone before R's reduction, and the
        Parseval weights of each side order (_side_weights).
        """
        box = self.box
        (m, q), (b_order, b_q) = norms
        vec = np.ascontiguousarray(self.coefficients).reshape(-1, spec.d)
        runs = _bin_runs(box, spec)
        freqs = box.frequencies.reshape(-1, box.grid.n)
        parseval = box.parseval_weights
        weights = {order: _side_weights(box, parseval, order) for order in {m, b_order}}
        # the product's term, then the correction, share one buffer
        scratch = np.empty(2 * max(run.stop - run.start for run in runs) * max(spec.l, spec.d))
        b_walk = _operator_runs(spec, freqs, vec, runs, scratch)
        if table is None:
            # R's walk reads no scratch: the B walk holds its last reference
            # and frees it when it ends, before B's reduction
            scratch = None
        (b_norm,) = _side_norms(box, b_order, b_q, spec.l, b_walk, weights[b_order])
        power = np.empty(vec.shape[0])
        walk = _residual_runs(box, freqs, vec, runs, scratch, table, power)
        # the walk holds the last references, so they go before R's reduction
        del vec, runs, scratch, freqs
        left = _side_norms(box, m, q, spec.d, walk, weights[m], part)
        return _parseval_sum(parseval, power), left, b_norm


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
    m = 0 reduces to the plain L^p norm.  An order m that is not an
    integer, or is a bool, is refused with ArgumentError("m").
    """
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)):
        raise ArgumentError("m", f"derivative order must be an integer, got {m!r}")
    if m < 0:
        raise ArgumentError("m", "derivative order must be >= 0")
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
    W^{-s,p} norms for p != 2.  An order s that is not a finite real
    number, or is a bool, is refused with ArgumentError("s").
    """
    if isinstance(s, bool) or not isinstance(s, numbers.Real) or not math.isfinite(s):
        raise ArgumentError("s", f"order s must be a finite real number, got {s!r}")
    if s < 0:
        raise ArgumentError("s", "order s must be >= 0")
    _require_zero_mean(field, "negative-order Sobolev norm")
    return HalfSpectrum.of(field).sobolev_norm(-s, 2.0)


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

    The half spectrum is drawn on the band box of cutoff only: complex
    normals (independent standard normal real and imaginary parts) on every
    box bin.  On the last-axis bin-0 plane, where xi and -xi are both kept,
    z(xi) becomes (z(xi) + conj z(-xi)) / sqrt(2), so the field is real; the
    zero mode is 0.  This is the distribution of white noise's spectrum on
    the box, with no white noise and no forward transform.  It is scaled to
    unit L^2 norm by its Parseval sum.  Deterministic given the seed (a
    non-negative integer or a SeedSequence).  The field keeps that box
    spectrum, so HalfSpectrum.of (and kms_sides) take no transform of it;
    its samples are the inverse transform of the spectrum from the box,
    made on the first read of values and read-only, so the spectrum cannot
    go stale.
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
    hat = rng.standard_normal(box.shape + (d, 2)).view(complex)[..., 0]
    # the box axes are cyclic in the bins 0 ... c, -c ... -1: -xi sits at -i mod (2c + 1)
    mirror = -np.arange(2 * cutoff + 1) % (2 * cutoff + 1)
    plane = hat[..., 0, :]
    plane[...] = (plane + plane[np.ix_(*[mirror] * (grid.n - 1))].conj()) / math.sqrt(2.0)
    hat[box.zero_mask] = 0.0
    nrm = _parseval_norm(box, hat)
    if nrm > 0:
        hat *= 1.0 / nrm
    hat.setflags(write=False)
    return TensorField._generated(HalfSpectrum(grid, hat), lambda: _inverse(box, hat))


def plane_wave_field(grid: TorusGrid, xi0, v) -> TensorField:
    """The real plane wave Re(v e^{i x . xi0}); spectrum supported on {+-xi0}.

    xi0 must be a nonzero grid frequency without Nyquist components and v a
    finite non-empty 1-D fibre vector, real or complex.  The phase x . xi0
    is the broadcast sum of the per-axis phases x_j xi0_j, so the grid
    caches no array of sample points for it.
    """
    xi_int = _wave_frequency(grid, xi0, "xi0")
    v = _fibre_vector(v, None)
    axis = grid.axis_points
    phase = reduce(np.add.outer, [axis * float(x) for x in xi_int])
    wave = np.exp(1j * phase)[..., None] * v
    return TensorField(grid, wave.real)


def _wave_frequency(grid: TorusGrid, xi, argument: str) -> np.ndarray:
    """xi as an int64 vector; ArgumentError(argument) unless it is a nonzero integer n-vector with |xi_j| < M/2."""
    xi = np.asarray(xi)
    if xi.shape != (grid.n,):
        raise ArgumentError(argument, f"frequency must have shape ({grid.n},)")
    # a non-finite entry is refused before the cast, which would warn on it
    xi_int = np.rint(xi).astype(np.int64) if np.all(np.isfinite(xi)) else None
    if xi_int is None or not np.array_equal(xi_int, xi):
        raise ArgumentError(argument, "plane-wave frequency must be an integer vector")
    if not np.any(xi_int):
        raise ArgumentError(argument, "plane-wave frequency must be nonzero")
    if np.any(np.abs(xi_int) >= grid.points_per_axis // 2):
        raise ArgumentError(argument, "plane-wave frequency must avoid the Nyquist rows (|xi_j| < M/2)")
    return xi_int


def _fibre_vector(v, dtype):
    """v as a new 1-D array of dtype; ArgumentError("v") unless it is 1-D, non-empty and finite."""
    v = np.array(v, dtype=dtype)
    if v.ndim != 1 or not v.size or not np.all(np.isfinite(v)):
        raise ArgumentError("v", "v must be a non-empty 1-D fibre vector of finite values")
    return v


def bump_cutoff(grid: TorusGrid, width: float) -> int:
    """The band box cutoff of bump_field: ceil(sqrt(106 ln 2) / width), at most M/2 - 1.

    The smallest c with exp(-width^2 c^2 / 2) <= 2^-53, so below the cap
    every coefficient the box drops is under the peak's roundoff.  A
    width that is not a positive finite real number, or is a bool, is
    refused with ArgumentError("width").
    """
    if isinstance(width, bool) or not isinstance(width, numbers.Real) or not 0 < width < math.inf:
        raise ArgumentError("width", f"width must be a positive finite real number, got {width!r}")
    return min(math.ceil(math.sqrt(106.0 * math.log(2.0)) / width), grid.points_per_axis // 2 - 1)


def bump_field(
    grid: TorusGrid,
    center,
    width: float,
    v,
    zero_mean: bool = True,
) -> TensorField:
    """The periodised Gaussian bump sum_j exp(-|x - c + 2 pi j|^2 / (2 w^2)) v, band-limited.

    By Poisson summation its Parseval-normalized coefficient at xi is
    w^n exp(-w^2 |xi|^2 / 2) e^{-i xi . c} v: the numpy fft of each axis's
    samples, M (w / sqrt(2 pi)) exp(-w^2 k^2 / 2) e^{-i k c_j} up to
    aliasing, times grid.spectrum_scale.  The spectrum is that closed form
    on the band box of bump_cutoff(grid, width), so the field lies in the
    trial space (module docstring), and it drops the Gaussian's tail beyond
    the box, exp(-w^2 (cutoff + 1)^2 / 2) of the peak and below.  The field
    keeps that spectrum, as random_bandlimited does; its samples, the
    inverse transform from the box, are made on the first read of values and
    are read-only.  With zero_mean=True (default) the zero mode is 0, so the
    field is usable in homogeneous norms; pass False to compare against
    whole-space quadrature oracles.  center must be a finite n-vector, width
    as bump_cutoff takes it and v a finite non-empty 1-D fibre vector; the
    field keeps its own copy of v.
    """
    center = np.asarray(center, dtype=float)
    if center.shape != (grid.n,) or not np.all(np.isfinite(center)):
        raise ArgumentError("center", f"center must be a finite vector of shape ({grid.n},)")
    cutoff = bump_cutoff(grid, width)
    v = _fibre_vector(v, float)
    box = BandBox(grid, cutoff)
    k = grid.axis_frequencies[box.axis_bins]
    axes = [k] * (grid.n - 1) + [k[: box.cutoff + 1]]
    hat = reduce(
        np.multiply.outer,
        [width * np.exp(-0.5 * (width * q) ** 2 - 1j * q * x) for q, x in zip(axes, center)],
    )
    if zero_mean:
        hat[(0,) * grid.n] = 0.0
    hat = hat[..., None] * v
    hat.setflags(write=False)
    return TensorField._generated(HalfSpectrum(grid, hat), lambda: _inverse(box, hat))
