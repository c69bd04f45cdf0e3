"""Spectral-parameter grids in the upper half-plane."""

from __future__ import annotations

import numpy as np


def rect_grid(re_min: float, re_max: float, n_re: int,
              im_min: float, im_max: float, n_im: int) -> np.ndarray:
    """Flattened grid of complex z over a rectangle in the upper half-plane.

    Real parts are linearly spaced; imaginary parts are log-spaced (to
    resolve 1/sqrt(Im z) scalings).  Points are ordered row-major (Re fast),
    which downstream report writers rely on for byte-stable output.
    """
    if im_min <= 0:
        raise ValueError("im_min must be positive")
    if not np.all(np.isfinite([re_min, re_max, im_min, im_max])):
        raise ValueError("grid bounds must be finite")
    if n_re < 1 or n_im < 1:
        raise ValueError(f"grid needs n_re >= 1 and n_im >= 1, got {n_re}, {n_im}")
    re = np.linspace(re_min, re_max, n_re)
    im = np.geomspace(im_min, im_max, n_im)
    zz = re[None, :] + 1j * im[:, None]
    return zz.ravel()


def uniform_net(re_min: float, re_max: float,
                im_min: float, im_max: float, spacing: float) -> np.ndarray:
    """Uniform net with the given spacing, always including the rectangle's
    corners (endpoints are kept even when the side is not a multiple of the
    spacing)."""
    if not np.isfinite(spacing) or spacing <= 0:
        raise ValueError("spacing must be positive and finite")
    if not np.all(np.isfinite([re_min, re_max, im_min, im_max])):
        raise ValueError("net bounds must be finite")

    def axis(lo, hi):
        n = max(int(np.floor((hi - lo) / spacing + 1e-12)) + 1, 2)
        pts = lo + spacing * np.arange(n)
        if pts[-1] < hi - 1e-12 * max(1.0, abs(hi)):
            pts = np.append(pts, hi)
        else:
            pts[-1] = hi
        return pts

    re = axis(re_min, re_max)
    im = axis(im_min, im_max)
    zz = re[None, :] + 1j * im[:, None]
    return zz.ravel()
