import os
import threading
from dataclasses import replace

import numpy as np
import pytest

from delaywave import analysis, energetics, parallel, solver
from delaywave.config import load_preset, parse_config
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


def test_run_bytes_do_not_depend_on_the_block_size(monkeypatch, tmp_path):
    # at 4000 values a block is one shift lane, an energy tile of half a block
    # 52 points, and a certification chunk 13 samples, so every kernel runs
    # several pieces. Each cut is logged to a file, as certification cuts
    # its samples in a forked child
    real = parallel.chunks
    log = tmp_path / "cuts"

    def chunks(n, item_values, multiple=1):
        cut = real(n, item_values, multiple)
        with open(log, "a") as handle:
            handle.write(f"{item_values} {len(cut)}\n")
        return cut

    monkeypatch.setattr(parallel, "chunks", chunks)
    texts = []
    for block_values in (4000, parallel.BLOCK_VALUES):
        monkeypatch.setattr(parallel, "BLOCK_VALUES", block_values)
        monkeypatch.setattr(analysis, "_ratio_memo", {})  # so both runs certify
        log.write_text("")
        result = run_scenario(_BOX)
        texts.append((result.csv_text, result.json_text))
        pieces = {}
        for line in log.read_text().splitlines():
            item_values, count = map(int, line.split())
            pieces[item_values] = max(pieces.get(item_values, 0), count)
        if block_values == 4000:
            # shift lanes, energy tiles (each point counted twice), certification
            # samples
            assert pieces[8 * 17 * 17] == 4 and pieces[2 * 9 * 4] == 6 and pieces[17 * 17] > 1
    assert result.summary["energy"]["initial"] < 0.0
    assert result.summary["T_low"] is not None
    assert texts[0] == texts[1]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_run_starts_no_thread(monkeypatch):
    # on two CPUs, at 32 points a chunk, the helper contracts half of each
    # 2-D energy sample's 9 chunks, and both certifications run in a forked
    # child; this process starts no thread
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


def test_energy_tiles_are_half_a_block_past_one_block(monkeypatch):
    # box-2d's 65x65 field of 16 x 32 values a point is 17 MB: tiles of at
    # most half a block, each starting at a multiple of the gemv's row group
    first, second = energetics._point_halves(np.empty((16, 32, 65, 65)))
    cut = first + second
    assert [i for c in cut for i in range(c.start, c.stop)] == list(range(65 * 65))
    assert len(first) == len(cut) // 2 and len(cut) > 2
    assert all(c.start % energetics._GEMV_ROWS == 0 for c in cut)
    assert all((c.stop - c.start) * 16 * 32 <= parallel.BLOCK_VALUES // 2 for c in cut[:-1])
    assert cut[0].stop == 128
    # the decay_exponential field is one block or less: one tile, which its
    # energy samples contract in the calling process, with no hand-off
    problem = solver.build_problem(parse_config(load_preset("decay_exponential")))
    z = np.empty((problem.kernel.nodes.size, problem.rho_nodes.size) + problem.grid.shape)
    assert z.size <= parallel.BLOCK_VALUES
    assert energetics._point_halves(z) == ([], [slice(0, 201)])
    if hasattr(os, "fork"):
        contracted = []
        real = solver._Helper.contract

        def contract(helper):
            contracted.append(helper.pid)
            real(helper)

        monkeypatch.setattr(solver._Helper, "contract", contract)
        monkeypatch.setattr(parallel, "spare_cpu", lambda: True)
        trajectory = solver.run(solver.build_problem(replace(problem.config, t_end=0.5)))
        assert len(trajectory.reports) == 6 and not contracted
