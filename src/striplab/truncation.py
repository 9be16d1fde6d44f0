"""Constructive Lipschitz truncation on rectangular grids.

Given a grid-sampled field u, the kit replaces it by a Lipschitz function v
that agrees with u outside a small bad set:

* the bad set is a superlevel set of the Hardy-Littlewood maximal function of
  |grad u|, with the level chosen by minimizing t^p * area{Mf > t} over a
  geometric candidate grid in [a, A];
* on the bad set, v is the upper McShane extension of u from the good set,
  component by component;
* the thin-rectangle variant extends u from a strip of height h to the unit
  square by successive reflection, truncates there, and maps the cleanest
  strip back.

The certified gradient bound is measured on the discrete gradient of the
output, so `sup |grad v| <= lam` holds exactly by construction.  The chosen
level always lies in [a, A]; the certified bound can exceed it by the
measured extension factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import fft as sfft

from .errors import ConfigError, TruncationFailure

KAPPA_WINDOW = 4  # cells; pair window for the good-set steepness measurement
LADDER_FACTOR = np.sqrt(2.0)
N_CANDIDATES = 64
MCSHANE_TILE = 8  # nodes per side of a fill tile


@dataclass(eq=False)
class GridFunction:
    """Node samples of a scalar or 2-vector field on a uniform rectangle.

    values has shape (n1, n2) or (n1, n2, ncomp); spacing is (d1, d2).
    """

    values: np.ndarray
    spacing: tuple[float, float]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim not in (2, 3):
            raise ConfigError(f"grid values must be 2- or 3-d, got shape {self.values.shape}")
        if self.values.shape[0] < 2 or self.values.shape[1] < 2:
            raise ConfigError("grid needs at least 2 nodes per direction")
        d1, d2 = (float(s) for s in self.spacing)
        if not (d1 > 0 and d2 > 0):
            raise ConfigError(f"grid spacings must be positive, got {self.spacing!r}")
        if not np.all(np.isfinite(self.values)):
            raise ConfigError("grid values must be finite")
        self.spacing = (d1, d2)

    @property
    def n1(self) -> int:
        return self.values.shape[0]

    @property
    def n2(self) -> int:
        return self.values.shape[1]

    @property
    def ncomp(self) -> int:
        return 1 if self.values.ndim == 2 else self.values.shape[2]

    @property
    def cell_area(self) -> float:
        return self.spacing[0] * self.spacing[1]

    @property
    def extent(self) -> tuple[float, float]:
        return ((self.n1 - 1) * self.spacing[0], (self.n2 - 1) * self.spacing[1])

    def components(self) -> np.ndarray:
        """Values as (n1, n2, ncomp) regardless of rank."""
        if self.values.ndim == 2:
            return self.values[:, :, None]
        return self.values


def gradient_magnitude(gf: GridFunction) -> GridFunction:
    """Pointwise |grad u| from forward differences, anchored at cell corners.

    The (n1-1, n2-1) anchored values are edge-padded back to node shape so
    downstream averaging sees a field on the same grid.
    """
    u = gf.components()
    d1, d2 = gf.spacing
    gx = (u[1:, :-1] - u[:-1, :-1]) / d1
    gy = (u[:-1, 1:] - u[:-1, :-1]) / d2
    mag = np.sqrt(np.sum(gx**2 + gy**2, axis=-1))
    mag = np.pad(mag, ((0, 1), (0, 1)), mode="edge")
    return GridFunction(values=mag, spacing=gf.spacing)


def dirichlet_energy(gf: GridFunction) -> float:
    """Integral of |grad u|^2 by the cell-anchored forward-difference rule."""
    mag = gradient_magnitude(gf).values[:-1, :-1]
    return float(gf.cell_area * np.sum(mag**2))


def grad_sup(gf: GridFunction) -> float:
    return float(np.max(gradient_magnitude(gf).values[:-1, :-1]))


_KERNEL_CACHE: dict = {}


def _radius_ladder(gf: GridFunction) -> np.ndarray:
    d1, d2 = gf.spacing
    r = 0.5 * min(d1, d2)
    diam = float(np.hypot(*gf.extent))
    radii = [r]
    while radii[-1] < diam:
        radii.append(radii[-1] * LADDER_FACTOR)
    return np.array(radii)


def _ball_kernels(gf: GridFunction):
    """FFT kernels and in-domain counts for each ladder radius, cached per grid.

    Each entry is (kernel transform, padded shape, in-domain count, (m1, m2)).
    A ball of radius r spans offsets -m..m per axis, m = min(r/d, n - 1), and
    is transformed at p = next_fast_len(n + m).  That padding is exact: for
    an output node i in [0, n) the offset i - k of each kernel tap k in
    [-m, m] lies in [-m, n - 1 + m].  As p >= n + m, no index wraps past p,
    and the negative ones wrap to [p - m, p), which lies at or beyond n,
    where the padded input is zero.  So the circular convolution equals the
    linear one on the domain.
    """
    key = (gf.n1, gf.n2, gf.spacing)
    hit = _KERNEL_CACHE.get(key)
    if hit is not None:
        return hit
    d1, d2 = gf.spacing
    ones = np.ones((gf.n1, gf.n2))
    entries = []
    for r in _radius_ladder(gf):
        m1 = min(int(r / d1), gf.n1 - 1)
        m2 = min(int(r / d2), gf.n2 - 1)
        off1 = np.arange(-m1, m1 + 1)
        off2 = np.arange(-m2, m2 + 1)
        mask = (off1[:, None] * d1) ** 2 + (off2[None, :] * d2) ** 2 <= r * r
        pshape = (sfft.next_fast_len(gf.n1 + m1), sfft.next_fast_len(gf.n2 + m2))
        kern = np.zeros(pshape)
        kern[np.ix_(off1 % pshape[0], off2 % pshape[1])] = mask
        kfft = sfft.rfft2(kern)
        den = sfft.irfft2(sfft.rfft2(ones, s=pshape) * kfft, s=pshape)[: gf.n1, : gf.n2]
        entries.append((kfft, pshape, np.maximum(den, 0.5), (m1, m2)))
    _KERNEL_CACHE[key] = entries
    return entries


def _reaching_radii(f: np.ndarray, kernels, floor: float) -> int:
    """How many of the ladder kernels, smallest first, can reach floor.

    f >= 0, so the sum of f over the in-domain part of the box
    [i - m1, i + m1] x [j - m2, j + m2] is at least the ball sum at (i, j).
    Box sums come from one summed-area table as separable window sums: its
    rows taken at the clipped ends i + m1 + 1 and i - m1, then the columns
    of that difference at j + m2 + 1 and j - m2.  A radius whose bound
    max((box + slack) / den) stays below floor cannot reach it anywhere.
    slack = 1e-9 * sum(f) covers the roundoff of the table and of the FFT
    ball sum; for f >= 0 both stay within a few eps * sum(f) (under
    4 eps * sum(f) on the reflected 65x65 squares).  Radii are checked
    from the largest down, and the first one the bound cannot skip ends
    the search.
    """
    n1, n2 = f.shape
    table = np.zeros((n1 + 1, n2 + 1))
    np.cumsum(np.cumsum(f, axis=0), axis=1, out=table[1:, 1:])
    slack = 1e-9 * table[-1, -1]
    i = np.arange(n1)
    j = np.arange(n2)
    for keep in range(len(kernels), 0, -1):
        _, _, den, (m1, m2) = kernels[keep - 1]
        rows = (np.take(table, np.minimum(i + m1 + 1, n1), axis=0)
                - np.take(table, np.maximum(i - m1, 0), axis=0))
        box = (np.take(rows, np.minimum(j + m2 + 1, n2), axis=1)
               - np.take(rows, np.maximum(j - m2, 0), axis=1))
        if np.max((box + slack) / den) >= floor:
            return keep
    return 0


def maximal_function(grad_mag: GridFunction, *, floor: float = 0.0) -> GridFunction:
    """Discrete Hardy-Littlewood maximal function over a geometric radius ladder.

    Radii run from half a cell (ball = the node itself, so the output
    dominates the input pointwise) by factors of sqrt(2) up to the domain
    diameter.  Ball averages count only in-domain nodes.  Each ball sum is
    one FFT convolution zero-padded to n + m nodes per axis (rounded up to
    a fast length), which is exact for offsets up to m (see _ball_kernels).

    floor > 0 skips the largest radii whose ball averages provably stay
    below floor at every node: a box sum of f bounds each ball sum from
    above (see _reaching_radii).  A skipped radius cannot lift any value to
    floor or above, so wherever the full maximal function is >= floor the
    output is bitwise the same, and below floor it is still >= f.  Callers
    that only compare the output with levels c >= floor (as thin_truncate
    does) get the same decisions.  floor = 0 convolves every radius.
    """
    if grad_mag.values.ndim != 2:
        raise ConfigError("maximal function expects a scalar field")
    if np.any(grad_mag.values < 0):
        raise ConfigError("maximal function expects a nonnegative field")
    f = grad_mag.values
    n1, n2 = f.shape
    kernels = _ball_kernels(grad_mag)[1:]
    if floor > 0:
        kernels = kernels[: _reaching_radii(f, kernels, floor)]
    out = f.copy()
    for kfft, pshape, den, _ in kernels:
        num = sfft.irfft2(sfft.rfft2(f, s=pshape) * kfft, s=pshape)[:n1, :n2]
        np.maximum(out, num / den, out=out)
    return GridFunction(values=np.maximum(out, 0.0), spacing=grad_mag.spacing)


def select_lambda(
    f: GridFunction, a: float, A: float, p: float = 2.0
) -> tuple[float, np.ndarray]:
    """Minimize g(t) = t^p * area{f > t} over a geometric grid of levels.

    Returns the minimizing level (first hit on ties, i.e. the smallest) and
    the boolean superlevel mask at that level.
    """
    if not (0 < a < A):
        raise ConfigError(f"need 0 < a < A, got a={a!r}, A={A!r}")
    if not p > 1:
        raise ConfigError(f"need p > 1, got p={p!r}")
    if f.values.ndim != 2:
        raise ConfigError("level selection expects a scalar field")
    cand = np.geomspace(a, A, N_CANDIDATES)
    flat = np.sort(f.values, axis=None)
    counts = flat.size - np.searchsorted(flat, cand, side="right")
    g = cand**p * counts * f.cell_area
    lam = float(cand[int(np.argmin(g))])
    return lam, f.values > lam


def _good_set_kappa(u: np.ndarray, good: np.ndarray, t: float, spacing) -> float:
    """Extension constant: level t or the windowed good-set steepness of u.

    Checks all good node pairs within a KAPPA_WINDOW-cell box; the certified
    bound is measured on the final output, so locality here costs quality at
    worst.
    """
    d1, d2 = spacing
    best = 0.0
    n1, n2 = good.shape
    for di in range(0, KAPPA_WINDOW + 1):
        for dj in range(-KAPPA_WINDOW, KAPPA_WINDOW + 1):
            if di == 0 and dj <= 0:
                continue
            dist = np.hypot(di * d1, dj * d2)
            sl_a = (slice(di, n1), slice(max(dj, 0), n2 + min(dj, 0)))
            sl_b = (slice(0, n1 - di), slice(max(-dj, 0), n2 - max(dj, 0)))
            pair = good[sl_a] & good[sl_b]
            if not np.any(pair):
                continue
            diff = np.abs(u[sl_a] - u[sl_b])[pair]
            best = max(best, float(np.max(diff)) / dist)
    return max(t, best)


def _mcshane(
    u: np.ndarray, good: np.ndarray, kappa: float, spacing, fill: np.ndarray | None = None
) -> np.ndarray:
    """Upper McShane extension of each component from the good set.

    fill restricts which non-good nodes get overwritten (the minimum still
    ranges over every good node); None means fill all of them.

    Filled nodes are taken tile by tile.  A good node g enters a tile's
    minimum only if u(g) + kappa * (distance from g to the tile's box) is at
    most the tile-wide upper bound U = min_g u(g) + kappa * (farthest
    distance from g to the box), plus a 1e-9 relative slack, for some
    component; every other good node is beaten at every node of the tile,
    so the minimum, and each candidate's value, is the same as over the
    whole good set.

    That test runs only over the good nodes in a window around the tile.
    The same bound taken over the good nodes of a small neighbourhood of
    the tile (its box grown by 1, 2, 4, ... cells until one is inside)
    gives U' >= U, so every node that passes, and every node attaining U,
    lies within R = max_c (U'_c + slack_c - min_g u_c(g)) / kappa of the
    box; the window is the tile's index box grown by ceil(R / d) + 1 cells
    per axis.  Good nodes are in row-major order, so the window is a run of
    rows of them, and the candidates keep their order.
    """
    d1, d2 = spacing
    n1, n2 = good.shape
    xs = np.arange(n1) * d1
    ys = np.arange(n2) * d2
    gi, gj = np.nonzero(good)
    gx, gy = xs[gi], ys[gj]
    gvals = u[good]  # (ngood, ncomp)
    gmin = np.min(gvals, axis=0, initial=np.inf)
    row_start = np.searchsorted(gi, np.arange(n1 + 1))

    def window(i0, i1, j0, j1, w1, w2):
        """Good-node indices in rows i0-w1..i1+w1 and columns j0-w2..j1+w2."""
        lo = row_start[max(i0 - w1, 0)]
        hi = row_start[min(i1 + w1 + 1, n1)]
        cols = gj[lo:hi]
        return lo + np.flatnonzero((cols >= j0 - w2) & (cols <= j1 + w2))

    def tile_bound(w, x0, x1, y0, y1):
        """Tile upper bound over good nodes w, and its slack."""
        far = np.hypot(np.maximum(gx[w] - x0, x1 - gx[w]), np.maximum(gy[w] - y0, y1 - gy[w]))
        upper = np.min(gvals[w] + kappa * far[:, None], axis=0)
        return upper, 1e-9 * (1.0 + np.abs(upper))

    bad = ~good if fill is None else fill & ~good
    bi, bj = np.nonzero(bad)
    v = u.copy()
    tile = (bi // MCSHANE_TILE) * (n2 // MCSHANE_TILE + 1) + bj // MCSHANE_TILE
    order = np.argsort(tile, kind="stable")
    for sel in np.split(order, np.flatnonzero(np.diff(tile[order])) + 1):
        if sel.size == 0:
            continue
        ti, tj = bi[sel], bj[sel]
        i0, i1, j0, j1 = ti.min(), ti.max(), tj.min(), tj.max()
        box = x0, x1, y0, y1 = xs[i0], xs[i1], ys[j0], ys[j1]
        grow = 1
        while (w := window(i0, i1, j0, j1, grow, grow)).size == 0 and grow < max(n1, n2):
            grow *= 2
        upper, slack = tile_bound(w, *box)
        reach = np.max(upper + slack - gmin) / kappa
        w = window(i0, i1, j0, j1, int(min(np.ceil(reach / d1), n1)) + 1,
                   int(min(np.ceil(reach / d2), n2)) + 1)
        upper, slack = tile_bound(w, *box)
        wx, wy, wvals = gx[w], gy[w], gvals[w]
        near = np.hypot(np.maximum(np.maximum(x0 - wx, wx - x1), 0.0),
                        np.maximum(np.maximum(y0 - wy, wy - y1), 0.0))
        keep = np.any(wvals + kappa * near[:, None] <= upper + slack, axis=1)
        dist = np.hypot(xs[ti][:, None] - wx[None, keep], ys[tj][:, None] - wy[None, keep])
        v[ti, tj] = np.min(wvals[None, keep, :] + kappa * dist[:, :, None], axis=1)
    return v


def _truncate_at_level(
    u: GridFunction, mf: GridFunction, t: float, fill: np.ndarray | None = None
) -> tuple[GridFunction, np.ndarray, float]:
    """Shared core: good set from mf at level t, McShane fill on the rest.

    fill optionally limits which bad nodes are overwritten; values on filled
    nodes do not depend on the restriction.
    """
    bad = mf.values > t
    if bad.all():
        raise TruncationFailure(
            f"good set is empty at level {t!r}; raise the upper bound A"
        )
    if not bad.any():
        return GridFunction(values=u.values.copy(), spacing=u.spacing), bad, t
    comps = u.components()
    kappa = max(
        _good_set_kappa(comps[:, :, c], ~bad, t, u.spacing)
        for c in range(comps.shape[-1])
    )
    v = _mcshane(comps, ~bad, kappa, u.spacing, fill=fill)
    if u.values.ndim == 2:
        v = v[:, :, 0]
    return GridFunction(values=v, spacing=u.spacing), bad, kappa


@dataclass(eq=False)
class TruncationResult:
    """Outcome of a thin-strip truncation."""

    v: GridFunction
    level: float        # selected level, always in [a, A]
    lam: float          # certified bound: max(level, measured sup |grad v|)
    bad_mask: np.ndarray  # {u != v} on the strip grid
    q: float            # lam^2 * area{u != v} / (energy / log(A/a))
    strip_index: int
    kappa: float
    mismatch_area: float
    energy: float
    log_ratio: float
    extension_factor: float = field(init=False)

    def __post_init__(self):
        self.extension_factor = self.lam / self.level if self.level > 0 else 1.0


def _reflection_rows(K: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Source row and strip index for each extended row J in 0..K."""
    J = np.arange(K + 1)
    t = J - K // 2
    strip = np.floor_divide(t + m // 2, m)
    inner = t - strip * m
    j_src = np.where(strip % 2 == 0, inner + m // 2, m // 2 - inner)
    return j_src, strip


def reflect_to_square(u: GridFunction) -> tuple[GridFunction, np.ndarray]:
    """Extend a strip field to the unit square by successive reflection.

    Requires square-compatible spacing: 1/d2 an even integer and an even
    number of cells across the strip.  Returns the extended field and the
    strip index of each extended row.
    """
    d1, d2 = u.spacing
    m = u.n2 - 1
    K = round(1.0 / d2)
    if abs(K * d2 - 1.0) > 1e-9 or K % 2 != 0:
        raise ConfigError(f"transverse spacing must evenly divide 1 into an even count, got d2={d2!r}")
    if m % 2 != 0:
        raise ConfigError(f"strip needs an even number of cells across, got {m}")
    h = m * d2
    if int(np.floor((1.0 - h) / (2.0 * h))) < 1:
        raise ConfigError(f"strip too thick to reflect: fewer than 3 strips fit at h={h!r}")
    j_src, strip = _reflection_rows(K, m)
    ext = GridFunction(values=u.values[:, j_src], spacing=(d1, d2))
    return ext, strip


def _strip_slice(i0: int, K: int, m: int) -> np.ndarray:
    """Extended row indices of strip i0, ordered to match the source rows."""
    J0 = i0 * m + (K - m) // 2
    rows = np.arange(J0, J0 + m + 1)
    if i0 % 2 != 0:
        rows = rows[::-1]
    return rows


def thin_truncate(u: GridFunction, a: float, A: float, p: float = 2.0) -> TruncationResult:
    """Truncate a thin-strip field via reflection and strip selection.

    Extends u to the unit square, truncates there at the level minimizing
    t^p * area{Mf > t} over [a, A], picks the strip with the fewest bad
    nodes (ties: smaller |i|, then smaller i), and maps it back with the
    matching orientation.
    """
    if not (0 < a < A):
        raise ConfigError(f"need 0 < a < A, got a={a!r}, A={A!r}")
    ext, _ = reflect_to_square(u)
    m = u.n2 - 1
    K = ext.n2 - 1
    # every threshold below is at least a, so radii that cannot reach a are skipped
    mf = maximal_function(gradient_magnitude(ext), floor=a)
    level, bad_probe = select_lambda(mf, a, A, p)

    n_side = (K - m) // (2 * m)
    bad_counts = {}
    for i0 in range(-n_side, n_side + 1):
        rows = _strip_slice(i0, K, m)
        bad_counts[i0] = int(np.sum(bad_probe[:, rows]))
    i0 = min(bad_counts, key=lambda i: (bad_counts[i], abs(i), i))
    rows = _strip_slice(i0, K, m)

    # fill only the selected strip's nodes; nothing else is read back
    fill = np.zeros_like(bad_probe)
    fill[:, rows] = True
    v_ext, bad_ext, kappa = _truncate_at_level(ext, mf, level, fill=fill)

    v_strip = GridFunction(values=v_ext.values[:, rows], spacing=u.spacing)
    mask = np.any(v_strip.components() != u.components(), axis=-1)
    area = float(np.sum(mask) * u.cell_area)
    energy = dirichlet_energy(u)
    log_ratio = float(np.log(A / a))
    lam = max(level, grad_sup(v_strip))
    if area == 0.0:
        q = 0.0
    elif energy == 0.0:
        q = float("inf")
    else:
        q = lam * lam * area / (energy / log_ratio)
    return TruncationResult(
        v=v_strip,
        level=level,
        lam=lam,
        bad_mask=mask,
        q=q,
        strip_index=i0,
        kappa=kappa,
        mismatch_area=area,
        energy=energy,
        log_ratio=log_ratio,
    )


def rough_field(seed: int, vector: bool = True):
    """A resolution-independent test field: low modes plus sharp bumps.

    Returns a callable (x, y) -> values with the last axis the component
    axis when vector.  Parameters are drawn once from the seed, so samples
    on different grids discretize the same function.
    """
    rng = np.random.default_rng(seed)
    ncomp = 2 if vector else 1
    comps = []
    for _ in range(ncomp):
        nmode = 6
        kvec = rng.integers(-3, 4, size=(nmode, 2))
        kvec[np.all(kvec == 0, axis=1)] = [1, 0]
        amp = rng.normal(size=nmode) * 1.5 / (1.0 + np.sum(kvec**2, axis=1))
        phase = rng.uniform(0.0, 2.0 * np.pi, size=nmode)
        comps.append((kvec.astype(float), amp, phase))
    nbump = int(rng.integers(1, 4))
    bx = rng.uniform(0.1, 0.9, size=nbump)
    by_rel = rng.uniform(0.2, 0.8, size=nbump)
    bw = rng.uniform(0.015, 0.04, size=nbump)
    bamp = rng.uniform(0.3, 1.0, size=(nbump, ncomp)) * rng.choice(
        [-1.0, 1.0], size=(nbump, ncomp)
    )

    def evaluate(x: np.ndarray, y: np.ndarray, height: float = 1.0) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.zeros(x.shape + (ncomp,))
        for c, (kvec, amp, phase) in enumerate(comps):
            arg = 2.0 * np.pi * (
                x[..., None] * kvec[:, 0] + y[..., None] * kvec[:, 1]
            ) + phase
            out[..., c] = np.sum(amp * np.cos(arg), axis=-1)
        for b in range(nbump):
            d2 = (x - bx[b]) ** 2 + (y - by_rel[b] * height) ** 2
            out += bamp[b] * np.exp(-d2 / bw[b] ** 2)[..., None]
        if not vector:
            return out[..., 0]
        return out

    return evaluate


def sample_on_strip(fn, n1_cells: int, n2_cells: int, height: float) -> GridFunction:
    """Sample a callable field on the node grid of (0,1) x (0,height)."""
    d1 = 1.0 / n1_cells
    d2 = height / n2_cells
    x = np.arange(n1_cells + 1) * d1
    y = np.arange(n2_cells + 1) * d2
    X, Y = np.meshgrid(x, y, indexing="ij")
    return GridFunction(values=fn(X, Y, height), spacing=(d1, d2))
