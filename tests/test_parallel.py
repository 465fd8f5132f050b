import multiprocessing
import os

import numpy as np
import pytest

from cpseq import parallel
from cpseq.parallel import fork_map


def _one_core(monkeypatch):
    monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {0})


def _two_cores(monkeypatch):
    monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {0, 1})


def test_fork_map_keeps_order_and_equals_the_in_process_map(monkeypatch):
    rows = [np.arange(n) * 0.1 for n in range(7)]  # neither the function nor the items need to pickle

    def cube_sum(row):
        return float((row**3).sum()), row[::-1]

    _two_cores(monkeypatch)
    forked = fork_map(cube_sum, rows)
    _one_core(monkeypatch)
    in_process = fork_map(cube_sum, rows)
    assert len(forked) == len(in_process) == len(rows)
    for (total, reverse), (want_total, want_reverse), row in zip(forked, in_process, rows):
        assert total == want_total == float((row**3).sum())
        assert reverse.tobytes() == want_reverse.tobytes() == row[::-1].tobytes()
    assert parallel._call is None
    assert not multiprocessing.active_children()


def test_fork_map_of_nothing_is_empty():
    assert fork_map(lambda x: 1 / 0, []) == []


@pytest.mark.parametrize("cores", [_one_core, _two_cores])
def test_a_worker_error_is_raised_in_the_parent_and_every_worker_is_joined(monkeypatch, cores):
    def check(x):
        if x == 3:
            raise ValueError(f"item {x} is odd one out")
        return x

    cores(monkeypatch)
    with pytest.raises(ValueError, match=r"^item 3 is odd one out$"):
        fork_map(check, range(6))
    assert parallel._call is None
    assert not multiprocessing.active_children()


def test_fork_map_runs_in_process_where_the_platform_has_no_affinity_call(monkeypatch):
    monkeypatch.delattr(parallel.os, "sched_getaffinity", raising=False)  # as on macOS and Windows
    items = list(range(5))
    assert fork_map(lambda x: (x * x, os.getpid()), items) == [(x * x, os.getpid()) for x in items]
    assert not multiprocessing.active_children()
