"""Constructive Lipschitz truncation on rectangular grids.

Given a grid-sampled field u, the kit replaces it by a Lipschitz function v
that agrees with u outside a small bad set:

* the bad set is a superlevel set of the box maximal function of |grad u|
  from a summed-area table, with the level chosen by minimizing
  t^2 * area{Mf > t} over a geometric candidate grid in [a, A].  The
  truncation lemma needs only a maximal operator comparable to the
  centred-ball one (Acerbi & Fusco 1984; Friesecke, James & Mueller 2002,
  appendix), and the box of half-width floor(r / d) holds the disc of
  radius r and lies in the disc of radius sqrt(2) * r;
* on the bad set, v is the upper McShane extension of u from the good set,
  component by component;
* the thin-rectangle variant extends u from a strip of height h to the unit
  square by successive reflection, truncates there, and maps the cleanest
  strip back.

The certified gradient bound is measured on the discrete gradient of the
output, so `sup |grad v| <= lam` holds exactly by construction.  The chosen
level always lies in [a, A]; the certified bound can exceed it by the
measured extension factor lam / level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DiagnosticError

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

    The squared differences are summed component by component on 2-d
    slices, in component order, which for one or two components is bitwise
    the sum over the component axis.  The (n1-1, n2-1) anchored values are
    edge-padded back to node shape so downstream averaging sees a field on
    the same grid.
    """
    u = gf.components()
    d1, d2 = gf.spacing
    sq = 0.0
    for c in range(u.shape[-1]):
        uc = u[:, :, c]
        gx = (uc[1:, :-1] - uc[:-1, :-1]) / d1
        gy = (uc[:-1, 1:] - uc[:-1, :-1]) / d2
        sq = sq + (gx**2 + gy**2)
    mag = np.pad(np.sqrt(sq), ((0, 1), (0, 1)), mode="edge")
    return GridFunction(values=mag, spacing=gf.spacing)


def dirichlet_energy(gf: GridFunction) -> float:
    """Integral of |grad u|^2 by the cell-anchored forward-difference rule."""
    mag = gradient_magnitude(gf).values[:-1, :-1]
    return float(gf.cell_area * np.sum(mag**2))


def grad_sup(gf: GridFunction) -> float:
    return float(np.max(gradient_magnitude(gf).values[:-1, :-1]))


def maximal_function(grad_mag: GridFunction) -> GridFunction:
    """Box maximal function from one summed-area table, over a radius ladder.

    Radii run from half a cell by factors of sqrt(2) up to the domain
    diameter.  Radius r averages f over the in-domain nodes of the box of
    half-width m = min(floor(r / d), n - 1) per axis; the smallest box is
    the node itself, so the output dominates the input.  Each box sum is
    the summed-area table's rows at the clipped window ends
    min(i + m1 + 1, n1) and max(i - m1, 0), differenced, then likewise in
    j; radii that share (m1, m2) are averaged once.

    The Lipschitz truncation lemma needs only a maximal operator comparable
    to the centred-ball one (Acerbi & Fusco 1984; the appendix of
    Friesecke, James & Mueller 2002).  The box of radius r contains every
    node of the disc of radius r and lies inside the disc of radius
    sqrt(2) * r, the next rung (the last disc covers the domain).  So for
    f >= 0, with #S the in-domain node count of S and D_r the disc average,

        (#disc_r / #box_r) D_r  <=  B_r  <=  (#disc_sqrt2r / #box_r) D_sqrt2r,

    and c Mf <= box Mf <= C Mf for the disc maximal function Mf, with c the
    least and C the largest of these count ratios over radii and nodes.
    They depend only on the grid; away from the edges of a fine grid they
    tend to pi / 4 and pi / 2.  The certified bound sup |grad v| <= lam is
    measured on the output, so it holds either way.
    """
    if grad_mag.values.ndim != 2:
        raise ConfigError("maximal function expects a scalar field")
    if np.any(grad_mag.values < 0):
        raise ConfigError("maximal function expects a nonnegative field")
    f = grad_mag.values
    n1, n2 = f.shape
    d1, d2 = grad_mag.spacing
    radii = [0.5 * min(d1, d2)]
    while radii[-1] < np.hypot(*grad_mag.extent):
        radii.append(radii[-1] * LADDER_FACTOR)
    table = np.zeros((n1 + 1, n2 + 1))
    np.cumsum(np.cumsum(f, axis=0), axis=1, out=table[1:, 1:])
    i, j = np.arange(n1), np.arange(n2)
    out = f.copy()
    for m1, m2 in dict.fromkeys((min(int(r / d1), n1 - 1), min(int(r / d2), n2 - 1))
                                for r in radii):
        if m1 == m2 == 0:
            continue
        hi1, lo1 = np.minimum(i + m1 + 1, n1), np.maximum(i - m1, 0)
        hi2, lo2 = np.minimum(j + m2 + 1, n2), np.maximum(j - m2, 0)
        rows = np.take(table, hi1, axis=0) - np.take(table, lo1, axis=0)
        box = np.take(rows, hi2, axis=1) - np.take(rows, lo2, axis=1)
        np.maximum(out, box / np.outer(hi1 - lo1, hi2 - lo2), out=out)
    return GridFunction(values=out, spacing=grad_mag.spacing)


def select_lambda(f: GridFunction, a: float, A: float) -> tuple[float, np.ndarray]:
    """Minimize g(t) = t^2 * area{f > t} over a geometric grid of levels.

    Returns the minimizing level (first hit on ties, i.e. the smallest) and
    the boolean superlevel mask at that level.
    """
    if not (0 < a < A):
        raise ConfigError(f"need 0 < a < A, got a={a!r}, A={A!r}")
    if f.values.ndim != 2:
        raise ConfigError("level selection expects a scalar field")
    cand = np.geomspace(a, A, N_CANDIDATES)
    flat = np.sort(f.values, axis=None)
    counts = flat.size - np.searchsorted(flat, cand, side="right")
    g = cand**2 * counts * f.cell_area
    lam = float(cand[int(np.argmin(g))])
    return lam, f.values > lam


def _good_set_kappa(u: np.ndarray, good: np.ndarray, t: float, spacing) -> float:
    """Extension constant: level t or the windowed good-set steepness of u.

    u is (n1, n2, ncomp).  Checks all good node pairs within a KAPPA_WINDOW-
    cell box, over every component at once; the certified bound is measured
    on the final output, so locality here costs quality at worst.

    Bad nodes are NaN in a (ncomp, n1, n2) copy of u, so a pair with a bad
    end differs by NaN, which fmax and fmin skip: per window offset,
    max |a - b| over the good pairs is max(fmax(a - b), -fmin(a - b)), and
    NaN exactly when the offset has no good pair.  Offsets no pair fits in
    (di >= n1 or |dj| >= n2) are skipped.
    """
    d1, d2 = spacing
    n1, n2 = good.shape
    g = np.where(good, np.moveaxis(u, -1, 0), np.nan)
    best = 0.0
    for di in range(0, KAPPA_WINDOW + 1):
        for dj in range(-KAPPA_WINDOW, KAPPA_WINDOW + 1):
            if (di == 0 and dj <= 0) or di >= n1 or abs(dj) >= n2:
                continue
            sl_a = (slice(None), slice(di, n1), slice(max(dj, 0), n2 + min(dj, 0)))
            sl_b = (slice(None), slice(0, n1 - di), slice(max(-dj, 0), n2 - max(dj, 0)))
            diff = g[sl_a] - g[sl_b]
            steep = max(np.fmax.reduce(diff, axis=None), -np.fmin.reduce(diff, axis=None))
            if np.isnan(steep):
                continue
            best = max(best, float(steep) / np.hypot(di * d1, dj * d2))
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
    per axis and clipped to the grid, and its candidates are that block's
    good nodes, with values from u's (ncomp, n1, n2) component planes.  The
    minimum over them runs along the middle axis of (ncomp, candidates,
    tile nodes): an elementwise minimum of contiguous rows.
    """
    d1, d2 = spacing
    n1, n2 = good.shape
    xs = np.arange(n1) * d1
    ys = np.arange(n2) * d2
    planes = np.moveaxis(u, -1, 0)
    gmin = np.min(planes, axis=(1, 2), where=good, initial=np.inf)

    def window(i0, i1, j0, j1, w1, w2):
        """Positions and values of the good nodes in rows i0-w1..i1+w1, columns j0-w2..j1+w2."""
        r0, c0 = max(i0 - w1, 0), max(j0 - w2, 0)
        wi, wj = np.nonzero(good[r0:i1 + w1 + 1, c0:j1 + w2 + 1])
        return xs[r0:][wi], ys[c0:][wj], planes[:, r0:, c0:][:, wi, wj]

    def tile_bound(wx, wy, wvals, x0, x1, y0, y1):
        """Tile upper bound over the good nodes of a window, and its slack."""
        far = np.hypot(np.maximum(wx - x0, x1 - wx), np.maximum(wy - y0, y1 - wy))
        upper = np.min(wvals + kappa * far, axis=-1)
        return upper, 1e-9 * (1.0 + np.abs(upper))

    bad = ~good if fill is None else fill & ~good
    bi, bj = np.nonzero(bad)
    v = planes.copy()
    tile = (bi // MCSHANE_TILE) * (n2 // MCSHANE_TILE + 1) + bj // MCSHANE_TILE
    order = np.argsort(tile, kind="stable")
    for sel in np.split(order, np.flatnonzero(np.diff(tile[order])) + 1):
        if sel.size == 0:
            continue
        ti, tj = bi[sel], bj[sel]
        i0, i1, j0, j1 = ti.min(), ti.max(), tj.min(), tj.max()
        box = x0, x1, y0, y1 = xs[i0], xs[i1], ys[j0], ys[j1]
        grow = 1
        while (w := window(i0, i1, j0, j1, grow, grow))[0].size == 0 and grow < max(n1, n2):
            grow *= 2
        upper, slack = tile_bound(*w, *box)
        reach = np.max(upper + slack - gmin) / kappa
        wx, wy, wvals = window(i0, i1, j0, j1, int(min(np.ceil(reach / d1), n1)) + 1,
                               int(min(np.ceil(reach / d2), n2)) + 1)
        upper, slack = tile_bound(wx, wy, wvals, *box)
        near = np.hypot(np.maximum(np.maximum(x0 - wx, wx - x1), 0.0),
                        np.maximum(np.maximum(y0 - wy, wy - y1), 0.0))
        keep = np.any(wvals + kappa * near <= (upper + slack)[:, None], axis=0)
        dist = np.hypot(xs[ti] - wx[keep, None], ys[tj] - wy[keep, None])
        v[:, ti, tj] = np.min(wvals[:, keep, None] + kappa * dist, axis=1)
    return np.moveaxis(v, 0, -1)


@dataclass(eq=False)
class TruncationResult:
    """Outcome of a thin-strip truncation."""

    v: GridFunction
    level: float        # selected level, always in [a, A]
    lam: float          # certified bound: max(level, grad_sup)
    grad_sup: float     # measured sup |grad v| on the strip grid
    bad_mask: np.ndarray  # {u != v} on the strip grid
    q: float            # lam^2 * area{u != v} / (energy / log(A/a))
    strip_index: int
    kappa: float
    mismatch_area: float
    energy: float


def square_cells(m: int, d2: float) -> int:
    """Cells K across the unit square that a strip of m cells of width d2 reflects onto.

    Requires square-compatible spacing: 1/d2 an even integer, an even number
    m of cells across the strip, and room for at least three strips.
    """
    K = round(1.0 / d2)
    if abs(K * d2 - 1.0) > 1e-9 or K % 2 != 0:
        raise ConfigError(f"transverse spacing must evenly divide 1 into an even count, got d2={d2!r}")
    if m % 2 != 0:
        raise ConfigError(f"strip needs an even number of cells across, got {m}")
    h = m * d2
    if int(np.floor((1.0 - h) / (2.0 * h))) < 1:
        raise ConfigError(f"strip too thick to reflect: fewer than 3 strips fit at h={h!r}")
    return K


def reflect_to_square(u: GridFunction) -> GridFunction:
    """Extend a strip field to the unit square by successive reflection.

    The spacing must pass ``square_cells``.  Extended row J of K lies in
    strip floor((J - K/2 + m/2) / m), the center strip being 0; even strips
    copy the m + 1 source rows in order, odd strips mirror them.  A vector
    field's values are a view of contiguous (ncomp, n1, K + 1) planes.
    """
    d1, d2 = u.spacing
    m = u.n2 - 1
    K = square_cells(m, d2)
    t = np.arange(K + 1) - K // 2
    strip = np.floor_divide(t + m // 2, m)
    inner = t - strip * m
    j_src = np.where(strip % 2 == 0, inner + m // 2, m // 2 - inner)
    planes = np.take(np.ascontiguousarray(np.moveaxis(u.components(), -1, 0)), j_src, axis=2)
    values = np.moveaxis(planes, 0, -1) if u.values.ndim == 3 else planes[0]
    return GridFunction(values=values, spacing=(d1, d2))


def _strip_slice(i0: int, K: int, m: int) -> np.ndarray:
    """Extended row indices of strip i0, ordered to match the source rows."""
    J0 = i0 * m + (K - m) // 2
    rows = np.arange(J0, J0 + m + 1)
    if i0 % 2 != 0:
        rows = rows[::-1]
    return rows


def thin_truncate(u: GridFunction, a: float, A: float) -> TruncationResult:
    """Truncate a thin-strip field via reflection and strip selection.

    Extends u to the unit square, takes the level minimizing t^2 *
    area{Mf > t} over [a, A], with Mf the box maximal function of |grad u|
    from a summed-area table (comparable to the centred-ball one, which is
    all the truncation lemma needs: see maximal_function), picks the strip
    with the fewest bad nodes (Mf > level; ties: smaller |i|, then smaller
    i), McShane-fills its bad nodes from the good set, and maps it back with
    the matching orientation.
    """
    if not (0 < a < A):
        raise ConfigError(f"need 0 < a < A, got a={a!r}, A={A!r}")
    ext = reflect_to_square(u)
    m = u.n2 - 1
    K = ext.n2 - 1
    mf = maximal_function(gradient_magnitude(ext))
    level, bad = select_lambda(mf, a, A)
    if bad.all():
        raise DiagnosticError(f"good set is empty at level {level!r}; raise the upper bound A")

    n_side = (K - m) // (2 * m)
    bad_counts = {}
    for i0 in range(-n_side, n_side + 1):
        rows = _strip_slice(i0, K, m)
        bad_counts[i0] = int(np.sum(bad[:, rows]))
    i0 = min(bad_counts, key=lambda i: (bad_counts[i], abs(i), i))
    rows = _strip_slice(i0, K, m)

    ext_u, kappa = ext.components(), level
    if bad.any():
        fill = np.zeros_like(bad)  # only the selected strip is read back
        fill[:, rows] = True
        kappa = _good_set_kappa(ext_u, ~bad, level, ext.spacing)
        ext_u = _mcshane(ext_u, ~bad, kappa, ext.spacing, fill=fill)

    v_strip = GridFunction(values=ext_u[:, rows].reshape(u.values.shape), spacing=u.spacing)
    mask = np.any(v_strip.components() != u.components(), axis=-1)
    area = float(np.sum(mask) * u.cell_area)
    energy = dirichlet_energy(u)
    sup = grad_sup(v_strip)
    lam = max(level, sup)
    if area == 0.0:
        q = 0.0
    elif energy == 0.0:
        q = float("inf")
    else:
        q = lam * lam * area / (energy / float(np.log(A / a)))
    return TruncationResult(
        v=v_strip,
        level=level,
        lam=lam,
        grad_sup=sup,
        bad_mask=mask,
        q=q,
        strip_index=i0,
        kappa=kappa,
        mismatch_area=area,
        energy=energy,
    )


def rough_field(seed: int):
    """A resolution-independent 2-vector test field: low modes plus sharp bumps.

    Returns a callable (x, y) -> values with the last axis of length 2 the
    component axis.  Parameters are drawn once from the seed, so samples
    on different grids discretize the same function.
    """
    rng = np.random.default_rng(seed)
    comps = []
    for _ in range(2):
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
    bamp = rng.uniform(0.3, 1.0, size=(nbump, 2)) * rng.choice([-1.0, 1.0], size=(nbump, 2))

    def evaluate(x: np.ndarray, y: np.ndarray, height: float = 1.0) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.zeros(x.shape + (2,))
        for c, (kvec, amp, phase) in enumerate(comps):
            arg = 2.0 * np.pi * (
                x[..., None] * kvec[:, 0] + y[..., None] * kvec[:, 1]
            ) + phase
            out[..., c] = np.sum(amp * np.cos(arg), axis=-1)
        for b in range(nbump):
            d2 = (x - bx[b]) ** 2 + (y - by_rel[b] * height) ** 2
            out += bamp[b] * np.exp(-d2 / bw[b] ** 2)[..., None]
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
