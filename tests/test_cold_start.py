"""Import-time guard: every su3rep command is a fresh interpreter, so what
importing su3rep does is paid on each run.  The checks run in a subprocess,
where nothing else has loaded the modules yet."""

import os
import subprocess
import sys

import su3rep

_SRC = os.path.dirname(os.path.dirname(su3rep.__file__))

_SCRIPT = """
import argparse, os, sys

built = []
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init

import su3rep, su3rep.cli

loaded = [m for m in ("concurrent.futures", "multiprocessing", "json") if m in sys.modules]
assert not loaded, f"import su3rep loaded {loaded}"
assert not built, f"import su3rep built {len(built)} ArgumentParser(s)"

import concurrent.futures

pools = []
class RecordingPool(concurrent.futures.ProcessPoolExecutor):
    def __init__(self, max_workers):
        pools.append(max_workers)
        super().__init__(max_workers=max_workers)
concurrent.futures.ProcessPoolExecutor = RecordingPool
os.cpu_count = lambda: 2

strip = lambda summary: [
    (r.p, r.q, r.d, r.commutators_ok, r.casimir_ok, r.structure_ok, r.error)
    for r in summary.rows
]
serial = su3rep.sweep(30, jobs=1)
assert pools == [], pools
parallel = su3rep.sweep(30, jobs=2)
assert pools == [2], pools
assert strip(parallel) == strip(serial) and serial.passed
print("ok")
"""


def test_import_loads_no_pool_json_or_parser_and_sweep_still_forks():
    env = dict(os.environ, PYTHONPATH=_SRC)
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert (result.returncode, result.stdout) == (0, "ok\n"), result.stderr
