import os
import threading

import pytest

from delaywave import analysis, parallel, solver
from delaywave.scenario import run_scenario


def test_chunks_cut_by_values(monkeypatch):
    monkeypatch.setattr(parallel, "BLOCK_VALUES", 7)
    assert parallel.chunks(10, 3) == [slice(0, 2), slice(2, 4), slice(4, 6),
                                      slice(6, 8), slice(8, 10)]
    assert parallel.chunks(3, 100) == [slice(0, 1), slice(1, 2), slice(2, 3)]
    monkeypatch.setattr(parallel, "BLOCK_VALUES", 100)
    assert parallel.chunks(4, 5) == [slice(0, 4)]  # a step of 20, stopped at n
    # aligned to 4 items: a step of 6 is cut to 4, and a last slice of 1 to 3
    # items is merged into the one before
    monkeypatch.setattr(parallel, "BLOCK_VALUES", 6)
    assert parallel.chunks(12, 1, multiple=4) == [slice(0, 4), slice(4, 8), slice(8, 12)]
    for n in (9, 10, 11):
        assert parallel.chunks(n, 1, multiple=4) == [slice(0, 4), slice(4, n)]
    assert parallel.chunks(3, 1, multiple=4) == [slice(0, 3)]


def test_chunks_cover_range_in_aligned_bounded_slices(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(n=st.integers(0, 300), item_values=st.integers(1, 50),
                      multiple=st.integers(1, 9), block_values=st.integers(0, 400))
    def check(n, item_values, multiple, block_values):
        monkeypatch.setattr(parallel, "BLOCK_VALUES", block_values)
        cut = parallel.chunks(n, item_values, multiple=multiple)
        assert [i for c in cut for i in range(c.start, c.stop)] == list(range(n))
        assert all(c.stop <= n and c.step is None for c in cut)
        assert all(c.start % multiple == 0 for c in cut)
        most = max(multiple, block_values // item_values // multiple * multiple)
        assert all(c.stop - c.start <= most for c in cut[:-1])
        if len(cut) > 1:
            assert cut[-1].stop - cut[-1].start >= multiple
            # only a last slice merged with a short remainder is longer
            assert cut[-1].stop - cut[-1].start < most + multiple

    check()


# a 17x17 box at negative energy, which certifies both embedding constants
_BOX = solver.RunConfig(dimension=2, lengths=(1.0, 1.0), nodes=(17, 17), n_tau=4, n_rho=9,
                        m="2.2 + 0.3*x*y", p="3.2 + 0.3*x", u0="20*sin(pi*x)*sin(pi*y)",
                        t_end=0.05)


def test_run_bytes_do_not_depend_on_the_block_size(monkeypatch):
    # at 4000 values a block is one shift lane, 108 energy points or 13
    # certification samples, so every kernel runs several blocks
    real = parallel.chunks
    pieces = {}

    def chunks(n, item_values, multiple=1):
        cut = real(n, item_values, multiple)
        pieces[item_values] = max(pieces.get(item_values, 0), len(cut))
        return cut

    monkeypatch.setattr(parallel, "chunks", chunks)
    texts = []
    for block_values in (4000, parallel.BLOCK_VALUES):
        monkeypatch.setattr(parallel, "BLOCK_VALUES", block_values)
        monkeypatch.setattr(analysis, "_ratio_memo", {})  # so both runs certify
        pieces.clear()
        result = run_scenario(_BOX)
        texts.append((result.csv_text, result.json_text))
        if block_values == 4000:
            # shift lanes, energy points, certification samples
            assert pieces[8 * 17 * 17] == 4 and pieces[9 * 4] == 3 and pieces[17 * 17] > 1
    assert result.summary["energy"]["initial"] < 0.0
    assert result.summary["T_low"] is not None
    assert texts[0] == texts[1]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_run_starts_no_thread(monkeypatch):
    # on two CPUs, at 32 points a chunk, the helper contracts half of each
    # 2-D energy sample's 9 chunks, and both certifications run in this thread
    contracted = []
    real = solver._Helper.contract

    def contract(helper):
        contracted.append(helper.pid)
        real(helper)

    monkeypatch.setattr(solver._Helper, "contract", contract)
    monkeypatch.setattr(parallel, "workers", lambda: 2)
    monkeypatch.setattr(parallel, "BLOCK_VALUES", 32 * _BOX.n_rho * _BOX.n_tau)
    monkeypatch.setattr(analysis, "_ratio_memo", {})  # so both constants are certified
    before = threading.active_count()
    result = run_scenario(_BOX)
    assert threading.active_count() == before
    assert contracted and result.summary["T_low"] is not None
