"""The embedding constants' certification computed plainly, and the
one-batch oracles that the tests check ``analysis``'s family against.

``reference_constant`` draws the seeded family one batch of 500 at a time,
builds every sample in one pass (``_family_oracle``), scores every sample
(``_ratio_oracle``) and doubles the maximum: no screen, chunks, pool or
memo. However ``analysis`` screens and cuts its work, the public
``embedding_constant_for_gate`` and ``embedding_constant_for_bound`` must
give these bits.
"""

import numpy as np

from delaywave.spaces import gradient_energies


def split_exponents(kind, p1, p2):
    """The split ratio's exponents and scale of a kind, written as
    ``analysis`` writes them: "gate" is int |u|^p over ge^{p/2}, "bound"
    (1/2) int |u|^{2p-2} over ge^{p-1}."""
    if kind == "gate":
        return dict(num_low=p1, num_high=p2, den_low=p1, den_high=p2, num_scale=1.0)
    return dict(num_low=2.0 * p1 - 2.0, num_high=2.0 * p2 - 2.0,
                den_low=2.0 * (p1 - 1.0), den_high=2.0 * (p2 - 1.0), num_scale=0.5)


def _family_oracle(grid, batch, rng):
    """The one-batch certification family as first written: every draw and
    every sample built in one pass."""
    n_modes = 6
    decay = np.arange(1, n_modes + 1) ** 2
    axis_modes = [
        np.stack([np.sin((k + 1) * np.pi * grid.coords[axis] / L)
                  for k in range(n_modes)], axis=0)
        for axis, L in enumerate(grid.lengths)
    ]
    if grid.dimension == 1:
        coef = rng.standard_normal((batch, n_modes)) / decay
        smooth = coef @ axis_modes[0]
    else:
        coef2 = rng.standard_normal((batch, n_modes, n_modes))
        coef2 /= np.add.outer(decay, decay)
        smooth = np.einsum("bkl,ki,lj->bij", coef2, axis_modes[0], axis_modes[1])
    profiles = []
    for axis, L in enumerate(grid.lengths):
        x = grid.coords[axis]
        centers = rng.uniform(0.15 * L, 0.85 * L, size=batch)
        widths = np.exp(rng.uniform(np.log(0.01 * L), np.log(0.3 * L), size=batch))
        prof = np.exp(-((x[None, :] - centers[:, None]) ** 2) / widths[:, None] ** 2)
        prof *= np.sin(np.pi * x / L)[None, :]
        profiles.append(prof)
    if grid.dimension == 1:
        bump = profiles[0]
    else:
        bump = profiles[0][:, :, None] * profiles[1][:, None, :]
    pick = rng.uniform(size=(batch,) + (1,) * grid.dimension)
    fams = np.where(pick < 0.45, smooth, np.where(pick < 0.9, bump, smooth + bump))
    amp = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), size=(batch,)))
    fams = fams * amp.reshape([batch] + [1] * grid.dimension)
    fams[:, grid.boundary] = 0.0
    return fams


def _ratio_oracle(grid, fam, num_low, num_high, den_low, den_high, num_scale):
    """The split ratio of each sample of fam with a positive denominator."""
    w = grid.weights
    absu = np.abs(fam)
    big = absu >= 1.0
    num = num_scale * (
        np.sum(np.where(big, absu**num_high, 0.0) * w, axis=tuple(range(1, fam.ndim)))
        + np.sum(np.where(big, 0.0, absu**num_low) * w, axis=tuple(range(1, fam.ndim)))
    )
    ge = gradient_energies(fam, grid)
    den = ge ** (den_high / 2.0) + ge ** (den_low / 2.0)
    valid = den > 0.0
    return num[valid] / den[valid]


def _split_ratio_oracle(grid, num_low, num_high, den_low, den_high, num_scale,
                        n_samples, rng, batch=500):
    """The one-thread, one-batch-at-a-time certification as first written."""
    best = 0.0
    done = 0
    while done < n_samples:
        b = min(batch, n_samples - done)
        fam = _family_oracle(grid, b, rng)
        ratio = _ratio_oracle(grid, fam, num_low, num_high, den_low, den_high, num_scale)
        if ratio.size:
            best = max(best, float(np.max(ratio)))
        done += b
    return best


def reference_constant(kind, grid, p1, p2, seed, n_samples):
    """The certified constant of a kind: twice the unscreened maximum of its
    split ratio over n_samples functions of the family drawn from seed."""
    return 2.0 * _split_ratio_oracle(grid, n_samples=n_samples, rng=np.random.default_rng(seed),
                                     **split_exponents(kind, p1, p2))
