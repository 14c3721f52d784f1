"""Import-time guard: every su3rep command is a fresh interpreter, so what
importing su3rep does is paid on each run.  The checks run in a subprocess,
where nothing else has loaded the modules yet.  su3rep.verify loads on first
use only: importing su3rep and running generate, weights or unknowns leave it
unloaded, and verify and sweep load it."""

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
assert "su3rep.verify" not in sys.modules, "import su3rep loaded su3rep.verify"
assert set(su3rep.__all__) <= set(dir(su3rep)), set(su3rep.__all__) - set(dir(su3rep))
assert "su3rep.verify" not in sys.modules, "dir(su3rep) loaded su3rep.verify"

import contextlib, io

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = su3rep.cli.main(list(argv))
    return rc, out.getvalue()

label = ("--p", "3", "--q", "2")
for argv in (("generate", *label, "--matrix", "F2", "--format", "json"),
             ("weights", *label), ("unknowns", *label)):
    rc, text = run(*argv)
    assert rc == 0 and text, (argv, rc)
    assert "su3rep.verify" not in sys.modules, f"{argv[0]} loaded su3rep.verify"
rc, text = run("verify", *label)
assert (rc, text.splitlines()[-1]) == (0, "PASS"), (rc, text)
assert "su3rep.verify" in sys.modules, "verify did not load su3rep.verify"

import su3rep.verify as verify
for name in su3rep.__all__:
    value = getattr(su3rep, name)  # every name resolves, verify's to verify's own
    assert value is getattr(verify, name, value), name
try:
    su3rep.no_such_name
except AttributeError as err:
    assert "no_such_name" in str(err), err
else:
    raise AssertionError("su3rep.no_such_name resolved")

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
