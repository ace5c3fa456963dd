"""Every console check of the ordercones command line, each one row of data.

A row's answer is its stdout, or the file its argv names with --out.  Its
check is ("sha256", hex digest), ("dumps", None): the answer is what
json.dumps(..., sort_keys=True, indent=2) writes of it, and a newline,
("json", value) for strict JSON, ("pred", name) of PREDICATES, or (None, None).

tests/test_cli.py runs every row through cli.main with warnings as errors, or
in a child where its environment or a pipe matters: a row that took over a
hand-written test under that test's name and ids, the rest under
test_console_check.
``python tests/console_checks.py`` runs every row through the installed
``ordercones`` script, the werror rows also under ``python -W error -m
ordercones.cli``, and exits 1 naming each row that failed.
"""
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Row:
    name: str
    argv: list
    code: int = 0
    check: tuple = (None, None)
    env: dict | None = None  # added to the environment; the row then runs in a child process
    stdin: str | None = None
    quiet: bool = True  # stderr must be empty
    werror: bool = False  # the script also runs it under python -W error -m ordercones.cli
    same_out: bool = False  # with --out answer, the file gets stdout's bytes and stdout nothing
    pipe: int = 0  # the reader closes standard output after this many bytes
    files: dict | None = None  # name -> text, written to the working directory first


def _covers(out: bytes, err: bytes) -> bool:
    """The sprinkle's pairs are its relation's covering pairs, in row-major order."""
    d = json.loads(out)
    r = np.array(d["relation"], dtype=bool)
    s = (r & ~np.eye(len(r), dtype=bool)).astype(np.float32)
    i, j = ((s > 0) & ~(s @ s > 0)).nonzero()
    e = d["elements"]
    return bool(d["pairs"]) and d["pairs"] == [[e[a], e[b]] for a, b in zip(i.tolist(), j.tolist())]


def _causal(out: bytes, err: bytes) -> bool:
    """The sprinkle's relation is its coordinates' causal order wherever every difference exceeds 1e-12."""
    d = json.loads(out)
    t, x = (np.array([d["coords"][e][c] for e in d["elements"]]) for c in "tx")
    du, dv, dt = (w[None, :] - w[:, None] for w in (t + x, t - x, t))
    sure = (abs(du) > 1e-12) & (abs(dv) > 1e-12) & (abs(dt) > 1e-12)
    r = np.array(d["relation"], dtype=bool)
    return bool(sure.any()) and not (sure & (r != ((du >= 0) & (dv >= 0) & (dt > 0)))).any()


def _report_keys(out: bytes, err: bytes) -> bool:
    keys = {"number", "name", "passed", "elapsed", "budget", "seed", "details"}
    criteria = json.loads(out)["criteria"]
    return len(criteria) == 11 and all(set(c) == keys for c in criteria)


def _join_range(out: bytes, err: bytes) -> bool:
    c = json.loads(out)
    return 0 <= c["alpha"] <= 1 and c["beta"] >= 0


def _imports(out: bytes, err: bytes) -> bool:
    """PYTHONPROFILEIMPORTTIME's report names ordercones.poset and no 2x2, acceptance or sampling module."""
    loaded = {line.rsplit("|", 1)[-1].strip() for line in err.decode().splitlines()}
    banned = {f"ordercones.{m}" for m in ("m2", "hermitian", "acceptance", "sampling")}
    return "ordercones.poset" in loaded and not loaded & banned


PREDICATES = {"covers": _covers, "causal": _causal, "report_keys": _report_keys, "join_range": _join_range,
              "imports": _imports}


def _refuse(token):
    raise ValueError(f"non-strict JSON token {token}")


CHECKS = {
    "sha256": lambda out, err, want: hashlib.sha256(out).hexdigest() == want,
    "dumps": lambda out, err, _: out == (json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n").encode(),
    "json": lambda out, err, want: json.loads(out, parse_constant=_refuse) == want,
    "pred": lambda out, err, name: PREDICATES[name](out, err),
}


def _sha(text: str) -> tuple:
    return "sha256", hashlib.sha256(text.encode()).hexdigest()


def _error(kind: str, detail: str) -> tuple:
    return "json", {"error": {"kind": kind, "detail": detail}}


def _express_files() -> dict:
    """A random 40-point dominance order, its two coordinates and 18 running maxima over
    down-sets as generators, and one more as the target."""
    rng = np.random.default_rng(5)
    pts = rng.random((40, 2))
    rel = (pts[:, None, 0] <= pts[None, :, 0]) & (pts[:, None, 1] <= pts[None, :, 1])
    iso = np.where(rel, rng.uniform(-2, 2, size=(19, 40, 1)), -np.inf).max(axis=1)
    return {"poset.json": json.dumps({"elements": [f"d{i}" for i in range(40)], "relation": rel.astype(int).tolist()}),
            "gens.json": json.dumps(np.vstack([pts.T, iso[:-1]]).tolist()), "target.json": json.dumps(iso[-1].tolist())}


def _w(name, code, argv, check) -> Row:
    return Row(name, argv, code, check, werror=True)


_FULL = '{"kind":"full"}'
_CAP = '{"kind":"cap","center":[0,0,1],"radius":0.3}'
_HULL = ('{"kind":"hull","vertices":[[0.9,0.1,0.42426406871192845],[0.2,0.6,0.7745966692414834],'
         '[0.1,-0.4,0.9110433579144299],[0.5,0.2,0.8426149773176358]]}')
_C2 = '{"elements":["a","b"],"pairs":[["a","b"],["b","a"]]}'
_AB = '{"elements":["a","b"],"pairs":[["a","b"]]}'
_HALF_CHAIN = ["--poset", '{"elements":["a","b","c"],"pairs":[["a","b"],["b","c"]]}',
               "--generators", "[[-1e300,0,1e300]]", "--target", "[-1e308,0,1.7e308]"]
_CYCLE = "relation contains a 2-cycle between distinct ids"
_NOT_FINITE = _error("DomainError", "result is not finite: Out of range float values are not JSON compliant")
_TOO_LARGE = _error("InvalidInput", "input too large for this machine's memory")
_ZERO = [[0.0, 0.0], [0.0, 0.0]]
_SPRINKLE_1000 = ["poset", "sprinkle", "--n", "1000", "--seed", "1"]
_EXPRESS = ["--poset", "poset.json", "--generators", "gens.json", "--target", "target.json"]

ROWS = [
    Row("readme-scan", ["m2", "order", "--region", _FULL, "--samples", "100", "--seed", "1", "--format", "csv"],
        check=("sha256", "e766e2f51beb6b8c5d2a24b860b8f9007d187150f79d2a0e2e54f50414480a5e")),
    Row("cap-scan-csv-out", ["m2", "order", "--region", '{"kind":"cap","center":[0,0,1],"radius":0.5}',
                             "--samples", "10000", "--seed", "2", "--format", "csv"],
        check=("sha256", "553de799aaa393adf7fa43ae340cb221e7fd1015b74614457c335979141e32f0"), same_out=True),
    _w("hull-scan-csv", 0, ["m2", "order", "--region", _HULL, "--samples", "100000", "--seed", "1", "--format", "csv"],
       ("sha256", "82623ead87ef94faf576965a0309d45b521c5557189ad45c0c96609d1a2b4751")),
    _w("hull-scan-json", 0, ["m2", "order", "--region", _HULL, "--samples", "100000", "--seed", "1", "--format", "json"],
       ("sha256", "1a86bcd742a952cab90721cc53b9ef04e476626a7bf9cf406baabc3362f8bf1a")),
    Row("csv-id-not-ascii-under-ascii-locale", ["poset", "combine", "--a", '{"elements":["é","b"],"pairs":[["é","b"]]}',
        "--b", '{"elements":["x"],"pairs":[]}', "--mode", "disjoint_union", "--format", "csv"],
        check=_sha("source,target\né,b\n"), env={"LC_ALL": "C", "PYTHONIOENCODING": "ascii"}, same_out=True),
    Row("poset-check-imports", ["poset", "check", "--in", '{"elements":["a"],"pairs":[]}'], check=("pred", "imports"),
        env={"PYTHONPROFILEIMPORTTIME": "1"}, quiet=False),
    Row("poset-bounds-from-stdin", ["poset", "bounds", "--in", "-"], check=("json", {"bottom": "a", "top": "c"}),
        stdin='{"elements":["a","b","c"],"pairs":[["a","b"],["b","c"]]}'),
    Row("cycle-check", ["poset", "check", "--in", _C2],
        check=("json", {"detail": _CYCLE, "reason": "AntisymmetryViolation", "valid": False})),
    Row("cycle-characters", ["dual", "characters", "--in", _C2], 1, _error("AntisymmetryViolation", _CYCLE)),
    Row("cycle-express", ["cone", "express", "--poset", _C2, "--generators", "[[0,1]]", "--target", "[0,1]"], 1,
        _error("AntisymmetryViolation", _CYCLE)),
    Row("accept-fast", ["accept", "all", "--fast"]),
    *(Row(f"accept-c8-c9-seed-{s}", ["accept", "all", "--seed", str(s), "--criteria", "8,9"]) for s in range(1, 6)),
    Row("accept-report", ["accept", "all", "--fast", "--out", "report.json"], check=("pred", "report_keys")),
    Row("sprinkle-300-dumps", ["poset", "sprinkle", "--n", "300", "--seed", "3"], check=("dumps", None)),
    Row("sprinkle-1000-out", _SPRINKLE_1000, check=("dumps", None), werror=True, same_out=True),
    Row("sprinkle-1000-covers", _SPRINKLE_1000, check=("pred", "covers"), werror=True),
    Row("sprinkle-1000-causal", _SPRINKLE_1000, check=("pred", "causal"), werror=True),
    # Each output is far larger than a pipe's buffer, so the child is still writing when the pipe closes.
    Row("closed-pipe-sprinkle", ["poset", "sprinkle", "--n", "300", "--seed", "1"], 1, _sha("{"), werror=True, pipe=1),
    Row("closed-pipe-scan-csv", ["m2", "order", "--region", _FULL, "--samples", "100000", "--format", "csv"], 1,
        _sha("p"), werror=True, pipe=1),
    # The relation grid of a 1000-point sprinkle runs from about 0.3 MB to 9.3 MB of its text.
    Row("closed-pipe-sprinkle-1000-mid-grid", _SPRINKLE_1000, 1,
        ("sha256", "890f43a92a5bd7abd1b94576c6e252a82e5c10a2600761fcad53fd8b7876fbe4"), werror=True, pipe=1_000_000),
    Row("express-prune-dumps", ["cone", "express", "--prune", *_EXPRESS], check=("dumps", None), files=_express_files()),
    Row("express-dumps", ["cone", "express", *_EXPRESS], check=("dumps", None), files=_express_files()),
    Row("join-coeffs-1e6", ["m2", "join-coeffs", "--a", '{"re":[[-27880.783511058962,-113267.46687930713],'
        '[-113267.46687930713,770259.290796789]],"im":[[0,207883.35130353685],[-207883.35130353685,0]]}',
        "--b", '{"re":[[-722773.9990462515,97652.67077559941],[97652.67077559941,-237038.66887501953]],'
        '"im":[[0,-492846.5514085313],[492846.5514085313,0]]}'], check=("pred", "join_range")),
    # Refusals and inputs near the largest float.
    _w("exp", 1, ["herm", "fn", "--fn", "exp", "--in", "[[1000,0],[0,0]]"],
       _error("DomainError", "function not finite at eigenvalue 1000.0")),
    _w("sqrt-1e-11", 1, ["herm", "fn", "--fn", "sqrt", "--in", "[[-1e-11,0],[0,1e-11]]"],
       _error("DomainError", "function undefined at eigenvalue -1e-11: negative spectral point")),
    _w("bloch", 1, ["m2", "order", "--region", _FULL, "--p", '{"bloch":[1e200,0,0]}', "--q", '{"bloch":[0,0,1]}'],
       _error("InvalidInput", "Bloch vector must be finite and unit length, got norm 1e+200")),
    _w("spinor-hopf", 1, ["m2", "hopf", "--xi", "[[1e200,0],[0,0]]"], _error("NotNormalized", "state vector has norm 1e+200")),
    _w("spinor-fs", 1, ["m2", "fs", "--p", '{"xi":[[0,1e200],[0,0]]}', "--q", '{"bloch":[0,0,1]}'],
       _error("NotNormalized", "state vector has norm 1e+200")),
    _w("density", 1, ["m2", "state-order", "--region", _FULL, "--rho", '{"bloch":[1e200,0,0]}', "--sigma", '{"bloch":[0,0,0]}'],
       _error("InvalidInput", "density Bloch vector must be finite with norm <= 1")),
    _w("hull", 1, ["m2", "order", "--region", '{"kind":"hull","vertices":[[1e200,0,1],[0,1,1],[1,1,1]]}',
                   "--p", "[0,0,1]", "--q", "[0,0,1]"], _error("InvalidInput", "hull vertices must be finite and unit length")),
    _w("diagonals-classify", 1, ["herm", "classify", "--in", "[[1e308,1e308],[1e308,1e308]]"], _NOT_FINITE),  # eigenvalue 2e308
    _w("diagonals-member", 0, ["m2", "member", "--region", _FULL, "--matrix", "[[1e308,1e308],[1e308,1e308]]"],
       ("json", {"member": True})),
    _w("diagonals-join-coeffs", 0, ["m2", "join-coeffs", "--a", "[[1e308,0],[0,1e308]]", "--b", "[[0,1e308],[1e308,0]]"],
       ("json", {"alpha": 1.0, "beta": 0.0})),
    _w("lattice", 0, ["herm", "lattice", "--a", "[[1e308,0],[0,-1e308]]", "--b", "[[-1e308,0],[0,1e308]]"],
       ("json", {"join": {"n": 2, "re": [[1e308, 0.0], [0.0, 1e308]], "im": _ZERO},
                 "meet": {"n": 2, "re": [[-1e308, 0.0], [0.0, -1e308]], "im": _ZERO}})),
    # the join is |a| = 2.12e308 times the identity
    _w("lattice-past-the-largest-float", 1, ["herm", "lattice", "--a", "[[1.5e308,1.5e308],[1.5e308,-1.5e308]]",
       "--b", "[[-1.5e308,-1.5e308],[-1.5e308,1.5e308]]"], _error("DomainError", "join or meet is past the largest float")),
    _w("transverse", 0, ["m2", "transverse", "--region", _CAP, "--matrix", "[[1e200,0],[0,-1e200]]"],
       ("json", {"axis": [0.0, 0.0, 1.0], "classification": "lambda2_below_lambda1",
                 "eigenvalues": [[1e200, 0.0], [-1e200, 0.0]]})),
    _w("transverse-not-normal", 1, ["m2", "transverse", "--region", _CAP, "--matrix", "[[1e200,1e200],[0,0]]"],
       _error("NotNormal", "matrix is 4.27e-01 of its scale squared away from normal")),
    # Cone verbs whose differences, products or sums pass the largest float: such a value
    # is inf with its sign, so the answers are those of the finite inputs nearby.
    _w("cone-isotone", 0, ["cone", "isotone", "--poset", _AB, "--f", "[-1.7e308,1.7e308]"], ("json", {"isotone": True})),
    _w("cone-contains", 0, ["cone", "contains", "--elements", '["a","b"]', "--functions", "[[0,1]]", "--f", "[1e308,-1e308]"],
       ("json", {"contains": False})),
    _w("cone-order-from", 0, ["cone", "order-from", "--elements", '["a","b"]', "--functions", "[[1.7e308,0]]", "--tol", "1e308"],
       ("json", {"elements": ["a", "b"], "pairs": [["b", "a"]], "relation": [[1, 0], [1, 1]], "separates_points": True})),
    _w("cone-decompose", 1, ["cone", "decompose", "--poset", _AB, "--f", "[-1.7e308,1.7e308]"],
       _error("NegativeValues", "function must be nonnegative")),
    _w("cone-eval-scale", 1, ["cone", "eval", "--expr", '{"op":"scale","factor":1e300,"args":[{"gen":0}]}',
                              "--functions", "[[1e300,0]]"], _NOT_FINITE),
    _w("cone-eval-sum", 1, ["cone", "eval", "--expr", '{"op":"sum","args":[{"const":1.7e308},{"const":1.7e308}]}',
                            "--size", "2"], _NOT_FINITE),
    _w("cone-express-prune", 1, ["cone", "express", "--prune", *_HALF_CHAIN], _NOT_FINITE),
    _w("cone-express", 1, ["cone", "express", *_HALF_CHAIN], _NOT_FINITE),
    _w("cobounded-duality", 0, ["dual", "cobounded-duality", "--in", '{"elements":["a","b"],"pairs":[]}'],
       ("json", {"agree": True, "bounded": False, "cobounded": False})),
    _w("lone-surrogate-id", 1, ["poset", "combine", "--a", '{"elements":["\\ud800","b"],"pairs":[["\\ud800","b"]]}',
       "--b", '{"elements":["x"],"pairs":[]}', "--mode", "disjoint_union", "--format", "csv"],
       _error("InvalidInput", "element ids must have a UTF-8 form, but one holds the lone surrogate '\\ud800'")),
    # Sizes whose first array needs more than 2**48 bytes, so that its allocation fails at once.
    _w("too-large-scan", 1, ["m2", "order", "--region", _FULL, "--samples", "1000000000000000"], _TOO_LARGE),
    _w("too-large-sprinkle", 1, ["poset", "sprinkle", "--n", "100000000000000", "--seed", "1"], _TOO_LARGE),
    _w("too-large-eval", 1, ["cone", "eval", "--expr", '{"const":1}', "--size", "100000000000000"], _TOO_LARGE),
]


def process(command: list, env: dict | None = None):
    """A call that runs command + argv in a child process, with env and the row's env added to this one's."""
    def call(row: Row, argv: list, cwd: Path) -> tuple:
        child_env = {**os.environ, **(env or {}), **(row.env or {})}
        if not row.pipe:
            proc = subprocess.run(command + argv, input=(row.stdin or "").encode(), capture_output=True, cwd=cwd,
                                  env=child_env, timeout=600)
            return proc.returncode, proc.stdout, proc.stderr
        with subprocess.Popen(command + argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=cwd,
                              env=child_env) as child:
            try:
                out = child.stdout.read(row.pipe)
                child.stdout.close()
                _, err = child.communicate(timeout=600)
            finally:
                child.kill()
        return child.returncode, out, err
    return call


def failure(row: Row, call, cwd: Path) -> str:
    """What the row's run through call(row, argv, cwd) -> (exit code, stdout, stderr) got wrong, or ''."""
    try:
        for name, text in (row.files or {}).items():
            (cwd / name).write_bytes(text.encode())
        code, out, err = call(row, row.argv, cwd)
        if code != row.code or (row.quiet and err):
            return f"exit {code}, want {row.code}; stderr {err[-2000:]!r}"
        if "--out" in row.argv:
            out = (cwd / row.argv[row.argv.index("--out") + 1]).read_bytes()
        if row.same_out:
            code, printed, err = call(row, row.argv + ["--out", "answer"], cwd)
            if code != row.code or printed or (row.quiet and err) or (cwd / "answer").read_bytes() != out:
                return f"with --out: exit {code}, stdout {printed[:200]!r}, stderr {err[-2000:]!r}, or other bytes"
        kind, want = row.check
        return "" if kind is None or CHECKS[kind](out, err, want) else f"{kind} check fails on {out[:200]!r}"
    except Exception:  # a check that cannot run, such as on output that is not JSON, fails its row
        return traceback.format_exc(limit=-2)


def main() -> int:
    script = [shutil.which("ordercones") or "ordercones"]
    werror = [sys.executable, "-W", "error", "-m", "ordercones.cli"]
    failed = []
    for row in ROWS:
        wrong = []
        for how, command in [("script", script)] + [("-W error", werror)] * row.werror:
            with tempfile.TemporaryDirectory() as cwd:
                why = failure(row, process(command), Path(cwd))
            if why:
                wrong.append(f"\n    {how}: {why}")
        print(("FAIL  " if wrong else "ok    ") + row.name + "".join(wrong), flush=True)
        if wrong:
            failed.append(row.name)
    if failed:
        print(f"{len(failed)} of {len(ROWS)} console checks failed: {', '.join(failed)}")
        return 1
    print(f"all {len(ROWS)} console checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
