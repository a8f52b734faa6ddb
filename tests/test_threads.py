import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from conceptkb import threads

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _python(code: str, **env: str) -> str:
    """Run ``code`` in a fresh interpreter whose environment sets no BLAS
    thread count beyond ``env``; returns its stdout."""
    clean = {k: v for k, v in os.environ.items() if k not in threads.BLAS_THREAD_ENV}
    clean["PYTHONPATH"] = os.pathsep.join([SRC, clean.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", code], env={**clean, **env},
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


class TestBlasThreads:
    def test_package_import_does_not_load_numpy(self):
        assert _python("import sys, conceptkb; print('numpy' in sys.modules)") == "False"

    def test_cli_pins_one_thread_before_numpy(self):
        code = ("import os, sys, conceptkb.cli, conceptkb.training as t; "
                "print(*(os.environ[v] for v in conceptkb.threads.BLAS_THREAD_ENV), "
                "t.BLOCK_CHUNK_BYTES)")
        assert _python(code) == f"1 1 1 {2**20}"

    def test_cli_keeps_a_count_the_environment_sets(self):
        code = ("import os, conceptkb.cli, conceptkb.training as t; "
                "print(os.environ.get('OPENBLAS_NUM_THREADS'), t.BLOCK_CHUNK_BYTES)")
        assert _python(code, OMP_NUM_THREADS="2") == f"None {32 * 2**20}"

    def test_cli_leaves_the_environment_once_numpy_loaded(self):
        code = "import numpy, os, conceptkb.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
        assert _python(code) == "None"

    @pytest.mark.parametrize("env, expected", [
        ({"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": "1"}, 3),
        ({"MKL_NUM_THREADS": "2"}, 2),
        ({"OMP_NUM_THREADS": "1"}, 1),
        ({"OPENBLAS_NUM_THREADS": "", "OMP_NUM_THREADS": "4"}, 4),
        ({"OMP_NUM_THREADS": "4,2"}, None),
        ({}, None),
    ])
    def test_blas_threads_reads_the_environment(self, monkeypatch, env, expected):
        for var in threads.BLAS_THREAD_ENV:
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert threads.blas_threads() == (threads.usable_cores() if expected is None else expected)


class TestUsableCores:
    def test_counts_the_affinity_set(self, monkeypatch):
        """A process pinned to one CPU (``taskset -c 0``) has one usable
        core, whatever the machine's count."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        for var in threads.BLAS_THREAD_ENV:
            monkeypatch.delenv(var, raising=False)
        assert threads.usable_cores() == 1
        assert threads.blas_threads() == 1

    def test_falls_back_to_the_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert threads.usable_cores() == 3


class TestMapOrdered:
    @pytest.mark.parametrize("workers", [0, 1, 2, 3])
    def test_results_in_item_order(self, workers):
        assert threads.map_ordered(lambda x: x * x, list(range(20)), workers) == [
            x * x for x in range(20)]

    def test_runs_on_threads_only_with_workers(self):
        def on_main(_):
            return threading.current_thread() is threading.main_thread()
        assert all(threads.map_ordered(on_main, [1, 2, 3], 1))
        assert not any(threads.map_ordered(on_main, [1, 2, 3], 2))
        assert all(threads.map_ordered(on_main, [1], 2))

    @pytest.mark.parametrize("workers", [1, 3])
    def test_raises_for_the_first_failing_item(self, workers):
        release = threading.Event()

        def fn(x):
            if x == 1:
                if threading.current_thread() is not threading.main_thread():
                    release.wait(5)  # so that item 3 fails first
                raise ValueError("item 1")
            if x == 3:
                release.set()
                raise ValueError("item 3")
            return x

        with pytest.raises(ValueError, match="item 1"):
            threads.map_ordered(fn, [0, 1, 2, 3], workers)
