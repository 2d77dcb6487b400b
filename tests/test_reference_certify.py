"""``embedding_constant_for_gate`` and ``embedding_constant_for_bound`` give
the bits of ``reference_constant`` (``_reference_certify.py``) however
certification cuts its work: in chunks of the default size, of one sample or
of seven."""

import functools

import numpy as np
import pytest

from _reference_certify import _family_oracle, _ratio_oracle, reference_constant, split_exponents
from delaywave import analysis, parallel
from delaywave.spaces import make_grid

EMBEDDINGS = {"gate": analysis.embedding_constant_for_gate,
              "bound": analysis.embedding_constant_for_bound}

# (kind, lengths, nodes, p1, p2, n_samples): 1234 samples end in a partial
# batch; at p1 = 1.5 the screen's bound is +inf and every sample is scored
_CONFIGS = {
    "1d-gate": ("gate", 1.0, 101, 3.2, 3.5, 1234),
    "1d-bound": ("bound", 1.0, 101, 3.2, 3.5, 1234),
    "1d-gate-p1.5": ("gate", 1.0, 101, 1.5, 3.0, 1234),
    "17x23-gate": ("gate", (1.0, 2.0), (17, 23), 3.2, 3.5, 1008),
    "17x23-bound": ("bound", (1.0, 2.0), (17, 23), 3.2, 3.5, 1008),
    "33x21-gate": ("gate", (1.0, 2.0), (33, 21), 3.2, 3.5, 1234),
    "33x21-bound": ("bound", (1.0, 2.0), (33, 21), 3.2, 3.5, 1234),
    "65x65-gate": ("gate", (1.0, 1.0), (65, 65), 3.2, 3.5, 620),
    "65x65-bound": ("bound", (1.0, 1.0), (65, 65), 3.2, 3.5, 620),
}
CASES = {f"{name}-seed{seed}": config + (seed,)
         for name, config in _CONFIGS.items() for seed in (7, 2024)}
# 8 samples whose last holds the maximum: at seven samples per chunk it is
# alone in the remainder chunk
REMAINDER = {
    "remainder-1d-gate-seed19": ("gate", 1.0, 101, 3.2, 3.5, 8, 19),
    "remainder-1d-bound-seed19": ("bound", 1.0, 101, 3.2, 3.5, 8, 19),
    "remainder-17x23-gate-seed3": ("gate", (1.0, 2.0), (17, 23), 3.2, 3.5, 8, 3),
    "remainder-17x23-bound-seed3": ("bound", (1.0, 2.0), (17, 23), 3.2, 3.5, 8, 3),
}
ALL_CASES = {**CASES, **REMAINDER}
# samples per chunk; None = parallel.BLOCK_VALUES's default
WAYS = {
    "plain": None,
    "split-1": 1,
    "split-7": 7,
}


@functools.cache
def _reference(kind, lengths, nodes, p1, p2, n_samples, seed):
    return reference_constant(kind, make_grid(lengths, nodes), p1, p2, seed, n_samples)


def _certify(monkeypatch, kind, grid, p1, p2, n_samples, seed, per_chunk):
    """The public constant of a kind, certified in chunks of ``per_chunk``
    samples from an empty memo."""
    with monkeypatch.context() as patch:
        patch.setattr(analysis, "_ratio_memo", {})
        if per_chunk is not None:
            patch.setattr(parallel, "BLOCK_VALUES", per_chunk * grid.weights.size)
        return EMBEDDINGS[kind](grid, p1, p2, seed=seed, n_samples=n_samples)


@pytest.mark.parametrize("way", list(WAYS))
@pytest.mark.parametrize("case", list(ALL_CASES))
def test_certification_equals_the_reference(monkeypatch, case, way):
    kind, lengths, nodes, p1, p2, n_samples, seed = ALL_CASES[case]
    grid = make_grid(lengths, nodes)
    got = _certify(monkeypatch, kind, grid, p1, p2, n_samples, seed, WAYS[way])
    assert got == _reference(kind, lengths, nodes, p1, p2, n_samples, seed)


@pytest.mark.parametrize("case", list(REMAINDER))
def test_remainder_case_holds_the_maximum_last(case):
    kind, lengths, nodes, p1, p2, n_samples, seed = REMAINDER[case]
    grid = make_grid(lengths, nodes)
    ratio = _ratio_oracle(grid, _family_oracle(grid, n_samples, np.random.default_rng(seed)),
                          **split_exponents(kind, p1, p2))
    assert ratio.size == 8 and np.argmax(ratio) == 7
    assert 2.0 * ratio[7] == _reference(kind, lengths, nodes, p1, p2, n_samples, seed)


def test_certification_equals_the_reference_property(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=25, deadline=None)
    @hypothesis.given(dimension=st.sampled_from([1, 2]), length=st.integers(5, 60),
                      sides=st.tuples(st.integers(5, 16), st.integers(5, 16)),
                      exponents=st.tuples(st.floats(1.5, 5.0), st.floats(1.5, 5.0)),
                      kind=st.sampled_from(list(EMBEDDINGS)), seed=st.integers(0, 2**32 - 1),
                      n_samples=st.integers(1, 1100), way=st.sampled_from(list(WAYS)))
    def check(dimension, length, sides, exponents, kind, seed, n_samples, way):
        grid = make_grid(1.0, length) if dimension == 1 else make_grid((1.0, 2.0), sides)
        p1, p2 = sorted(exponents)
        got = _certify(monkeypatch, kind, grid, p1, p2, n_samples, seed, WAYS[way])
        assert got == reference_constant(kind, grid, p1, p2, seed, n_samples)

    check()
