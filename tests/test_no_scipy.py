"""The library runs without scipy: nothing imports it, and blocking it changes no output."""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import ordercones
from ordercones.cli import main

SRC = str(Path(ordercones.__file__).resolve().parent.parent)

HULL = json.dumps(
    {"kind": "hull", "vertices": [[0.6, 0.0, 0.8], [-0.3, 0.27**0.5, 0.8], [-0.3, -(0.27**0.5), 0.8]]}
)
SIGMA3 = json.dumps({"n": 2, "re": [[1, 0], [0, -1]]})
ROT_Z = json.dumps([[-0.5, -(0.75**0.5), 0], [0.75**0.5, -0.5, 0], [0, 0, 1]])
VERBS = [
    ["m2", "member", "--region", HULL, "--matrix", json.dumps({"n": 2, "re": [[8, 0], [0, 6]]})],
    ["m2", "order", "--region", HULL, "--samples", "1000", "--format", "csv"],
    ["m2", "transverse", "--region", HULL, "--matrix", SIGMA3],
    ["m2", "cobounded", "--region", HULL],
    ["m2", "rotation", "--region", HULL, "--matrix", ROT_Z],
]
ACCEPT = ["accept", "all", "--seed", "7"]

# Runs each argv through cli.main with every scipy import raising ImportError.
BLOCKED_RUN = r"""
import contextlib, io, json, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, NoScipy())
from ordercones.cli import main

runs = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    runs.append([code, buf.getvalue()])
json.dump(runs, sys.stdout)
"""


def python(*args: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def without_timings(text: str) -> list[str]:
    return [re.sub(r"\(\d+\.\d+s", "(", line) for line in text.splitlines()]


def test_import_loads_no_scipy():
    # import ordercones alone runs no module, so every one is loaded before sys.modules is read.
    code = (
        "import json, sys, ordercones; ordercones.__all__; "
        "import ordercones.acceptance, ordercones.sampling, ordercones.cli; "
        "print(json.dumps(sorted(sys.modules)))"
    )
    loaded = json.loads(python("-c", code))
    modules = {p.stem for p in Path(SRC, "ordercones").glob("*.py")} - {"__init__"}
    assert {f"ordercones.{m}" for m in modules} <= set(loaded)
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []


def test_verbs_run_with_scipy_blocked(capsys, acceptance_seed7):
    runs = json.loads(python("-c", BLOCKED_RUN, json.dumps(VERBS + [ACCEPT])))
    for argv, (code, out) in zip(VERBS, runs):
        assert main(argv) == 0
        assert (code, out) == (0, capsys.readouterr().out), argv[:2]
    code, out = runs[-1]
    assert code == 0
    expected = [r.line() for r in acceptance_seed7] + ["ALL CRITERIA PASSED"]
    assert without_timings(out) == without_timings("\n".join(expected))
