import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import console_checks
import numpy as np
import pytest

from ordercones import cli
from ordercones.cli import build_parser, main
from ordercones.isotone_cone import DEFAULT_TOL
from ordercones.m2 import GEOM_TOL, PureStatePoint, SphericalRegion, pure_state_order, pure_state_order_many
from ordercones.poset import FinitePoset
from ordercones.sampling import region_fixtures

CHAIN3 = json.dumps({"elements": ["a", "b", "c"], "pairs": [["a", "b"], ["b", "c"]]})


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _reject_constant(token):
    raise ValueError(f"non-strict JSON token {token}")


def run_json(capsys, argv):
    """Exit code and stdout parsed as strict JSON (no NaN or Infinity tokens)."""
    code, out = run(capsys, argv)
    return code, json.loads(out, parse_constant=_reject_constant)


def test_poset_check_valid_chain(capsys):
    code, data = run_json(capsys, ["poset", "check", "--in", CHAIN3])
    assert code == 0
    assert data == {"bounded": True, "valid": True}


def test_poset_bounds_and_interval(capsys):
    code, data = run_json(capsys, ["poset", "bounds", "--in", CHAIN3])
    assert code == 0 and data == {"bottom": "a", "top": "c"}
    code, data = run_json(capsys, ["poset", "interval", "--in", CHAIN3, "--x", "a", "--y", "c"])
    assert code == 0 and data == {"elements": ["a", "b", "c"]}


def test_poset_reduce(capsys):
    pre = json.dumps({"elements": ["x", "y", "z"], "pairs": [["x", "y"], ["y", "x"], ["y", "z"]]})
    code, data = run_json(capsys, ["poset", "reduce", "--in", pre])
    assert code == 0
    assert data["poset"]["elements"] == ["x", "z"]
    assert data["projection"] == {"x": "x", "y": "x", "z": "z"}


def test_poset_combine_product(capsys):
    two = json.dumps({"elements": ["0", "1"], "pairs": [["0", "1"]]})
    code, data = run_json(capsys, ["poset", "combine", "--mode", "product", "--a", two, "--b", two])
    assert code == 0
    assert data["elements"] == ["(0,0)", "(0,1)", "(1,0)", "(1,1)"]


def test_sprinkle_deterministic_bytes(capsys):
    code1, out1 = run(capsys, ["poset", "sprinkle", "--n", "30", "--seed", "5"])
    code2, out2 = run(capsys, ["poset", "sprinkle", "--n", "30", "--seed", "5"])
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert FinitePoset.from_json(data).n == 30


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["--n", "200", "--seed", "5"], "998b387a8a137740f58e0beb69b6cc1092070a88ed7b8917567697193b6ba851"),
        (["--n", "200", "--seed", "5", "--format", "csv"],
         "90b7ec3ca6b9645aa05f55d2c054840b996495bbaff06586665f14dbb154113b"),
        # recorded while the SplitMix64 stream was drawn one Python int at a time
        (["--n", "0", "--seed", "3"], "b445d671fd3c2427fd539fee62c192af4cfbee636e873849449307f465e6bc79"),
        (["--n", "1", "--seed", "3"], "7df9c0559e82ad0554ba3081e5b12a963581525700fc139d4b8790162b2be610"),
        (["--n", "40", "--seed", "-7"], "4e464870763be4d0bc92dd5902b5a127f8d41eebc5cb19e47125fd3575c04935"),
        (["--n", "40", "--seed", str(2**70)], "fa033fbd65696811f52f2c9d81e2d39cd8c945f44f27146f326a19e033c1f14e"),
    ],
    ids=["json", "csv", "n0", "n1", "seed-7", "seed-2**70"],
)
def test_sprinkle_bytes_are_pinned(capsys, argv, digest):
    code, out = run(capsys, ["poset", "sprinkle", *argv])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


_POS6 = json.dumps({"elements": ["a", "b", "c", "d", "e", "f"],
                    "pairs": [["a", "c"], ["b", "c"], ["b", "d"], ["c", "e"], ["d", "e"], ["d", "f"]]})
_DIAMOND = json.dumps({"elements": ["p", "q", "r", "s"], "pairs": [["p", "q"], ["p", "r"], ["q", "s"], ["r", "s"]]})
_HULL = json.dumps({"kind": "hull", "vertices": [
    [0.09759000729485331, 0.19518001458970663, 0.9759000729485331],
    [0.4833682445228318, -0.09667364890456637, 0.8700628401410972],
    [-0.3179993640019079, 0.42399915200254396, 0.8479983040050879],
    [0.0, -0.5070201265633938, 0.8619342151577695]]})
_MAT_A = json.dumps({"n": 2, "re": [[2.5, 0.3], [0.3, 1.25]], "im": [[0, -0.7], [0.7, 0]]})
_MAT_B = json.dumps({"n": 2, "re": [[1.0, -0.2], [-0.2, 3.0]], "im": [[0, 0.4], [-0.4, 0]]})


# sha256 of stdout recorded before isotonicity, the induced order and the
# Pauli coordinates each had one shared kernel; the morphism rows were
# recorded again when the report dropped its constant star_morphism field.
@pytest.mark.parametrize(
    "argv, digest",
    [
        (["dual", "from-poset", "--in", _POS6], "e95be2c02bad435c26a17015129e442f9b34c602ceb9316e398c25969983dec0"),
        (["dual", "morphism", "--source", _DIAMOND, "--target", _POS6, "--map", '{"p": "b", "q": "c", "r": "d", "s": "e"}'],
         "5895f22ecc4331e67ecb59c9e44d6d0e7055f72ad5b14fbd7d780bf0fb2dc251"),
        (["dual", "morphism", "--source", _DIAMOND, "--target", _POS6, "--map", '{"p": "b", "q": "c", "r": "f", "s": "e"}'],
         "3b8b258d542305b257b1b33f07edf8364ef495409df45d8b79912053cfa4596d"),
        (["herm", "spectral", "--in", _MAT_A], "4882467898acf447effab15083a7b0227082c6a2b12ad97f390c95263385cf35"),
        (["m2", "join-coeffs", "--a", _MAT_A, "--b", _MAT_B],
         "aa3209a7b22b17e2c452feb46c86102f64d8cea072009c48393e10eafac41907"),
        (["m2", "member", "--region", _HULL, "--matrix", _MAT_A],
         "d02ba242cb261c22fe7573813011af3d4e223e42a9f0063c557965ef3c1de603"),
        (["m2", "member", "--region", _HULL, "--matrix", '{"n":2,"re":[[2,0.1],[0.1,0.5]]}'],
         "9469cab82b79236abfc44a4d4ef8518a872d48404e169f24158af485672938f1"),
    ],
    ids=["from-poset", "morphism-isotone", "morphism-not-isotone", "spectral", "join-coeffs", "member-out", "member-in"],
)
def test_order_rule_outputs_are_pinned(capsys, argv, digest):
    code, out = run(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_emitted_poset_json_reparses_equal(capsys):
    code, data = run_json(capsys, ["poset", "combine", "--mode", "disjoint_union", "--a", CHAIN3, "--b", json.dumps({"elements": ["z"], "pairs": []})])
    assert code == 0
    p = FinitePoset.from_json(data)
    assert p.to_json() == data


def test_cone_isotone_and_tol_flag(capsys):
    code, data = run_json(capsys, ["cone", "isotone", "--poset", CHAIN3, "--f", "[0,1,2]"])
    assert code == 0 and data == {"isotone": True}
    code, data = run_json(capsys, ["cone", "isotone", "--poset", CHAIN3, "--f", "[0,1,0.5]"])
    assert data == {"isotone": False}
    code, data = run_json(
        capsys, ["cone", "isotone", "--poset", CHAIN3, "--f", "[0,1,0.5]", "--tol", "1.0"]
    )
    assert data == {"isotone": True}


def test_cone_express_eval_round_trip(capsys):
    gens = "[[0,1,2]]"
    code, data = run_json(
        capsys,
        ["cone", "express", "--poset", CHAIN3, "--generators", gens, "--target", "[0,3,7]"],
    )
    assert code == 0 and data["max_error"] <= 1e-9
    code, out = run_json(
        capsys, ["cone", "eval", "--expr", json.dumps(data["expr"]), "--functions", gens]
    )
    assert code == 0
    assert np.allclose(out["values"], [0, 3, 7])


def _dominance_express_args(n, seed):
    """cone express inputs on a random 2-D dominance order of n elements: its two
    coordinates and n/2 - 2 running maxima over down-sets as generators, one more as target."""
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    rel = (pts[:, None, 0] <= pts[None, :, 0]) & (pts[:, None, 1] <= pts[None, :, 1])
    iso = np.where(rel, rng.uniform(-2.0, 2.0, size=(n // 2 - 1, n, 1)), -np.inf).max(axis=1)
    names = [f"d{i}" for i in range(n)]
    poset = {"elements": names, "pairs": [[names[a], names[b]] for a, b in zip(*np.nonzero(rel)) if a != b]}
    gens = np.vstack([pts.T, iso[:-1]]).tolist()
    return ["--poset", json.dumps(poset), "--generators", json.dumps(gens), "--target", json.dumps(iso[-1].tolist())]


# sha256 of stdout recorded before the prune's dominance was decided one cyclic shift at a time;
# the empty poset's, {"expr": {"args": [], "op": "join"}, "max_error": 0.0}, once it was answered.
@pytest.mark.parametrize(
    "args, code, digest",
    [
        (_dominance_express_args(60, 36), 0, "63e1f7466457047659facad961980fdd88abaeace93958554be06997105de4d7"),
        (["--poset", CHAIN3, "--generators", "[[0, 1, 2], [0, 2, 3]]", "--target", "[0, 1.5, 1.5]"], 0,
         "585b65ae47b28393c60c89dc7f9d9dbaeb1a0533977c084de292ba6d31b5739c"),
        (["--poset", '{"elements": [], "pairs": []}', "--generators", "[[]]", "--target", "[]"], 0,
         "d2cda65bff9e0288ca24a0ff18cb4c1281ddd5ff02dcb8abf24e419973f86c51"),
    ],
    ids=["dominance-60", "chain3", "empty"],
)
def test_pruned_expression_bytes_are_pinned(capsys, args, code, digest):
    got, out = run(capsys, ["cone", "express", "--prune", *args])
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cone_error_contract(capsys):
    code, data = run_json(capsys, ["cone", "isotone", "--poset", CHAIN3, "--f", "[0,1]"])
    assert code == 1
    assert data["error"]["kind"] == "DimensionMismatch"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["poset", "no-such-verb"])
    assert exc.value.code == 2


def test_herm_lattice_and_classify(capsys):
    a = json.dumps({"n": 2, "re": [[3, 0], [0, 0]], "im": [[0, 0], [0, 0]]})
    b = json.dumps({"n": 2, "re": [[1, 0], [0, 2]], "im": [[0, 0], [0, 0]]})
    code, data = run_json(capsys, ["herm", "lattice", "--a", a, "--b", b])
    assert code == 0
    assert np.allclose(data["join"]["re"], [[3, 0], [0, 2]])
    code, data = run_json(capsys, ["herm", "classify", "--in", a])
    assert data == {"norm": 3.0, "positive": True, "positive_invertible": False}


def test_herm_fn_sqrt_domain_error(capsys):
    # the cut below 0 is relative to the matrix's scale, so 1e-11 times the first matrix is refused too
    for neg in (json.dumps({"n": 2, "re": [[-1, 0], [0, 1]]}), "[[-1e-11,0],[0,1e-11]]"):
        code, data = run_json(capsys, ["herm", "fn", "--in", neg, "--fn", "sqrt"])
        assert code == 1 and data["error"]["kind"] == "DomainError"


def test_m2_hopf_reference(capsys):
    code, data = run_json(capsys, ["m2", "hopf", "--xi", "[[1,0],[0,0]]"])
    assert code == 0
    assert np.allclose(data["bloch"], [0, 0, 1])


def test_m2_member_and_order(capsys):
    cap = json.dumps({"kind": "cap", "center": [0, 0, 1], "radius": 0.3})
    s3_plus = json.dumps({"n": 2, "re": [[8, 0], [0, 6]]})
    code, data = run_json(capsys, ["m2", "member", "--region", cap, "--matrix", s3_plus])
    assert code == 0 and data == {"member": True}
    code, data = run_json(
        capsys,
        [
            "m2", "order", "--region", cap,
            "--p", json.dumps({"bloch": [0, 0, -1]}),
            "--q", json.dumps({"bloch": [0, 0, 1]}),
        ],
    )
    assert data == {"relation": "less"}


@pytest.mark.parametrize(
    "region",
    [
        '{"kind": "cap", "center": [0, 0, NaN], "radius": 0.3}',
        '{"kind": "hull", "vertices": [[0.6, 0, 0.8], [-0.3, 0.5196, 0.8], [NaN, 0, 1]]}',
    ],
    ids=["cap-nan-center", "hull-nan-vertex"],
)
def test_m2_member_rejects_non_finite_region(capsys, region):
    s3_plus = json.dumps({"n": 2, "re": [[8, 0], [0, 6]]})
    code, data = run_json(capsys, ["m2", "member", "--region", region, "--matrix", s3_plus])
    assert code == 1
    assert data["error"]["kind"] == "InvalidInput" and "finite" in data["error"]["detail"]


@pytest.mark.parametrize("region", ['{"kind": "cap"}', '{"kind": "hull"}', '{"kind": "cap", "center": [0, 0, 1]}'])
def test_m2_member_rejects_region_missing_fields(capsys, region):
    s3_plus = json.dumps({"n": 2, "re": [[8, 0], [0, 6]]})
    code, data = run_json(capsys, ["m2", "member", "--region", region, "--matrix", s3_plus])
    assert code == 1
    assert data["error"]["kind"] == "InvalidInput" and "needs" in data["error"]["detail"]


def test_m2_order_sampled_csv_is_deterministic(capsys):
    cap = json.dumps({"kind": "cap", "center": [0, 0, 1], "radius": 0.5})
    argv = ["m2", "order", "--region", cap, "--samples", "5", "--seed", "3", "--format", "csv"]
    code1, out1 = run(capsys, argv)
    code2, out2 = run(capsys, argv)
    assert code1 == 0 and out1 == out2
    lines = out1.strip().splitlines()
    assert lines[0] == "px,py,pz,qx,qy,qz,relation"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert len(first) == 7
    [float(x) for x in first[:6]]  # coordinates are plain numerals
    assert first[6] in ("less", "greater", "equal", "incomparable")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", ["cap-0.3", "hull-skew", "full"])
def test_m2_order_scan_matches_scalar_recomputation(capsys, monkeypatch, name, fmt):
    monkeypatch.setattr(cli, "_CSV_BLOCK", 64)  # three full blocks and a partial one
    region = dict(region_fixtures())[name]
    argv = ["m2", "order", "--region", json.dumps(region.to_json()), "--samples", "200", "--seed", "11",
            "--format", fmt]
    code, out = run(capsys, argv)
    assert code == 0
    if fmt == "csv":
        lines = out.strip().splitlines()
        assert lines[0] == "px,py,pz,qx,qy,qz,relation"
        cells = [line.split(",") for line in lines[1:]]
        pairs = np.array([[float(x) for x in row[:6]] for row in cells])
        relations = [row[6] for row in cells]
    else:
        samples = json.loads(out)["samples"]
        pairs = np.array([s["p"] + s["q"] for s in samples])
        relations = [s["relation"] for s in samples]
    pts = np.random.default_rng(11).normal(size=(400, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    assert pairs.tobytes() == pts.reshape(200, 6).tobytes()
    want = [
        pure_state_order(region, PureStatePoint.from_bloch(row[:3]), PureStatePoint.from_bloch(row[3:]))
        for row in pairs
    ]
    assert relations == want


_HULL_SKEW = json.dumps(dict(region_fixtures())["hull-skew"].to_json())


def _scan(capsys, tmp_path, samples, seed="5"):
    """The scan's CSV as written to stdout and to --out, in bytes."""
    argv = ["m2", "order", "--region", _HULL_SKEW, "--samples", str(samples), "--seed", seed, "--format", "csv"]
    code, out = run(capsys, argv)
    assert code == 0
    path = tmp_path / f"scan_{samples}.csv"
    assert main(argv + ["--out", str(path)]) == 0 and capsys.readouterr().out == ""
    return out.encode(), path.read_bytes()


def test_m2_order_scan_csv_bytes_are_pinned(capsys, tmp_path):
    # Recorded before the CSV was written block by block.
    stdout, out_file = _scan(capsys, tmp_path, 10_000)
    assert stdout == out_file
    assert hashlib.sha256(stdout).hexdigest() == "2ec5c1f6f3f3d1af12d45a7097273b72b113de21b988a93effabaeaa6be6b199"


# With blocks of 4 rows: one row, one block, a block and a row, three blocks.
@pytest.mark.parametrize("samples", [1, 4, 5, 12])
def test_m2_order_scan_csv_is_the_same_bytes_at_any_block_size(capsys, monkeypatch, tmp_path, samples):
    whole = _scan(capsys, tmp_path, samples)  # a single block at the default size
    monkeypatch.setattr(cli, "_CSV_BLOCK", 4)
    assert _scan(capsys, tmp_path, samples) == whole
    assert whole[0] == whole[1] and whole[0].count(b"\n") == samples + 1 and whole[0].endswith(b"\n")


@pytest.mark.parametrize("sink", ["stdout", "out"])
def test_m2_order_scan_csv_is_written_a_block_at_a_time(capsys, monkeypatch, tmp_path, sink):
    writes = []

    class Recorder(io.StringIO):  # a text sink with no binary buffer takes the decoded parts
        def write(self, text):
            writes.append(text)
            return super().write(text)

    class BytesRecorder(io.BytesIO):  # --out is opened in binary
        def write(self, data):
            writes.append(data.decode())
            return super().write(data)

    if sink == "stdout":
        monkeypatch.setattr("sys.stdout", Recorder())
    else:
        monkeypatch.setattr(cli, "open", lambda *args, **kwargs: BytesRecorder(), raising=False)
    monkeypatch.setattr(cli, "_CSV_BLOCK", 64)
    argv = ["m2", "order", "--region", _HULL_SKEW, "--samples", "1000", "--seed", "5", "--format", "csv"]
    assert main(argv + (["--out", "scan.csv"] if sink == "out" else [])) == 0
    monkeypatch.undo()
    code, out = run(capsys, argv)
    assert code == 0 and "".join(writes) == out
    rows = out.splitlines()[1:]
    block_text = max(len("\n" + "\n".join(rows[k:k + 64])) for k in range(0, len(rows), 64))
    assert len(writes) > len(rows) // 64 and max(map(len, writes)) <= block_text


def _scan_payload(samples, seed):
    """The JSON scan's payload, built whole: one dict per sample."""
    pts = np.random.default_rng(seed).normal(size=(2 * samples, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    region = SphericalRegion.from_json(json.loads(_HULL_SKEW))
    relations = pure_state_order_many(region, pts[0::2], pts[1::2])
    return {"samples": [{"p": p, "q": q, "relation": r} for p, q, r in zip(pts[0::2], pts[1::2], relations)]}


# One sample, a block less one, one block, a block and a sample.
@pytest.mark.parametrize("extra", [None, -1, 0, 1])
def test_m2_order_json_scan_is_the_whole_payloads_bytes(capsys, tmp_path, extra):
    samples = 1 if extra is None else cli._CSV_BLOCK + extra
    argv = ["m2", "order", "--region", _HULL_SKEW, "--samples", str(samples), "--seed", "5"]
    code, out = run(capsys, argv)
    path = tmp_path / "scan.json"
    assert code == 0 and main(argv + ["--out", str(path)]) == 0 and capsys.readouterr().out == ""
    want = cli._dumps(_scan_payload(samples, 5)) + "\n"
    assert out == want and path.read_text(encoding="utf-8") == want


def test_m2_order_json_scan_holds_one_block():
    """20,000 samples written whole take about 20 MB: one dict per sample and the whole text."""
    argv = ["m2", "order", "--region", _HULL_SKEW, "--samples", "20000", "--seed", "4"]
    sink = io.StringIO()
    sink.write = len  # counts each text and keeps none
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and peak < 10e6


def _reference_scan(samples, seed, fmt):
    """The scan as the per-value writer wrote it: repr of every coordinate, joined row by row."""
    pts = np.random.default_rng(seed).normal(size=(2 * samples, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    region = SphericalRegion.from_json(json.loads(_HULL_SKEW))
    relations = pure_state_order_many(region, pts[0::2], pts[1::2])
    rows = pts.reshape(samples, 6).tolist()
    if fmt == "csv":
        lines = [",".join(map(repr, row)) + "," + rel for row, rel in zip(rows, relations)]
        return "\n".join(["px,py,pz,qx,qy,qz,relation", *lines]) + "\n", rows
    head, tail = cli._indented({"samples": [None]}, "").split("null")
    parts = cli._indented({"p": ["@"] * 3, "q": ["@"] * 3, "relation": "@"}, "    ").split('"@"')
    sample = "%r".join(parts[:-1]) + "%s" + parts[-1]
    samples_text = ",\n    ".join([sample % (*row, json.dumps(rel)) for row, rel in zip(rows, relations)])
    return head + samples_text + tail + "\n", rows


# Two blocks at the default size; seed 8 has a coordinate below 1e-4 in its 8th sample, seed 2 in its 1756th.
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("block, samples, seed", [(None, 5000, 2), (4, 300, 8), (1, 12, 8)])
def test_m2_order_scan_is_the_per_value_writers_bytes(capsys, monkeypatch, tmp_path, fmt, block, samples, seed):
    if block is not None:
        monkeypatch.setattr(cli, "_CSV_BLOCK", block)
    want, rows = _reference_scan(samples, seed, fmt)
    assert (np.abs(rows) < 1e-4).any()  # some coordinates take the repr fallback
    argv = ["m2", "order", "--region", _HULL_SKEW, "--samples", str(samples), "--seed", str(seed), "--format", fmt]
    code, out = run(capsys, argv)
    path = tmp_path / f"scan.{fmt}"
    assert code == 0 and main(argv + ["--out", str(path)]) == 0 and capsys.readouterr().out == ""
    assert out == want and path.read_bytes() == want.encode()


def _repr_corpus() -> np.ndarray:
    """Floats in and around the domain _repr_slots certifies, each with both signs."""
    rng = np.random.default_rng(34)
    exponents = np.arange(1023 - 14, 1023, dtype=np.uint64)[:, None]  # 2**-14 ... 2**-1
    mantissas = rng.integers(0, 2**52, size=(14, 1000), dtype=np.uint64)
    binades = ((exponents << np.uint64(52)) | mantissas).view(np.float64).ravel()
    digits = rng.integers(1, 17, size=4000)
    short = rng.integers(1, 10**digits) / 10.0**digits  # k / 10**d, d = 1 ... 16
    decimals = np.concatenate([10.0 ** -np.arange(1, 5), short[short < 1]])
    down = up = decimals
    steps = []  # the decimals' neighbours 1, 2 and 3 ulps away
    for _ in range(3):
        down, up = np.nextafter(down, 0), np.nextafter(up, 1)
        steps += (down, up)
    ties = np.arange(26215, 26615, 2) / 2.0**18  # 10**17 * x ends in .5, halfway between its two 17-digit candidates
    edges = [np.nextafter(1e-4, -1), np.nextafter(1e-4, 1), 1 - 2**-53, 0.0, 1.0, 5e-324, 1e300, np.inf, np.nan]
    values = np.concatenate([binades, decimals, *steps, ties, edges, 2.0 ** np.arange(-20, 3)])
    return np.concatenate([values, -values])


def test_repr_slots_write_the_bytes_of_repr(monkeypatch):
    values = _repr_corpus()
    fallbacks = []
    monkeypatch.setattr(cli, "repr", lambda v: fallbacks.append(v) or float.__repr__(v), raising=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        slots = cli._repr_slots(values)
    assert slots.shape == (values.size, cli._SLOT)
    text = np.concatenate([slots, np.full((values.size, 1), ord(","), np.uint8)], axis=1).ravel()
    assert text[text != 0].tobytes().decode().split(",")[:-1] == list(map(float.__repr__, values.tolist()))
    assert 0 < len(fallbacks) < values.size // 10  # both the certified digits and the fallback ran


@pytest.mark.parametrize(
    "region, samples, seed",
    [(_HULL_SKEW, "0", "5"), (_HULL_SKEW, "3", "-1"), ('{"kind": "cap"', "3", "5")],
    ids=["no-samples", "negative-seed", "malformed-region"],
)
def test_refused_scan_creates_no_out_file(capsys, tmp_path, region, samples, seed):
    for fmt in ("csv", "json"):
        path = tmp_path / f"scan.{fmt}"
        argv = ["m2", "order", "--region", region, "--samples", samples, "--seed", seed, "--format", fmt, "--out", str(path)]
        code, out = run(capsys, argv)
        assert code == 1 and json.loads(out)["error"]["kind"] == "InvalidInput"
        assert not path.exists()


def test_m2_transverse_cli(capsys):
    cap = json.dumps({"kind": "cap", "center": [0, 0, 1], "radius": 0.3})
    s3 = json.dumps({"n": 2, "re": [[1, 0], [0, -1]]})
    code, data = run_json(capsys, ["m2", "transverse", "--region", cap, "--matrix", s3])
    assert code == 0 and data["classification"] == "lambda2_below_lambda1"


def test_dual_characters_round_trip(capsys):
    code, data = run_json(capsys, ["dual", "from-poset", "--in", CHAIN3])
    assert code == 0 and "generators" in data
    code, back = run_json(capsys, ["dual", "characters", "--in", json.dumps(data)])
    assert code == 0
    assert FinitePoset.from_json(back) == FinitePoset.from_json(json.loads(CHAIN3))


def test_dual_morphism_cli(capsys):
    code, data = run_json(
        capsys,
        [
            "dual", "morphism", "--source", CHAIN3, "--target", CHAIN3,
            "--map", json.dumps({"map": {"a": "c", "b": "b", "c": "a"}}),
        ],
    )
    assert code == 0
    assert data == {"isotone": False, "pullback_preserves_cone": False}


def test_gps_order_csv(capsys):
    space = json.dumps(
        {
            "points": ["0", "1", "2"],
            "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]],
            "landmarks": ["0"],
        }
    )
    code, out = run(capsys, ["gps", "order", "--in", space, "--format", "csv"])
    assert code == 0
    assert out.strip().splitlines() == ["source,target", "0,1", "0,2", "1,2"]
    code, data = run_json(capsys, ["gps", "complete", "--in", space])
    assert code == 0 and data == {"complete": True}


def test_file_io_round_trip(tmp_path, capsys):
    src = tmp_path / "chain.json"
    src.write_text(CHAIN3)
    dst = tmp_path / "out.json"
    code, _ = run(capsys, ["poset", "bounds", "--in", str(src), "--out", str(dst)])
    assert code == 0
    assert json.loads(dst.read_text()) == {"bottom": "a", "top": "c"}


def test_missing_file_is_domain_error(capsys):
    code, data = run_json(capsys, ["poset", "bounds", "--in", "does-not-exist.json"])
    assert code == 1 and data["error"]["kind"] == "InvalidInput"


_NESTED = "[" * 5000 + "]" * 5000
_NESTED_SUMS = '{"op": "sum", "args": [' * 495 + '{"gen": 0}' + "]}" * 495


@pytest.mark.parametrize(
    "verb, content, source",
    [
        (["poset", "check", "--in"], "{bad", "stdin"),
        (["poset", "check", "--in"], b"\xff{}", "stdin"),
        (["poset", "check", "--in"], _NESTED, "stdin"),
        (["poset", "check", "--in"], b"\xff{}", "file"),
        (["poset", "check", "--in"], _NESTED, "file"),
        (["poset", "check", "--in"], _NESTED, "inline"),
        (["cone", "eval", "--functions", "[[0, 1]]", "--expr"], _NESTED_SUMS, "inline"),
    ],
    ids=["stdin-malformed", "stdin-not-utf8", "stdin-nested", "file-not-utf8", "file-nested", "inline-nested", "inline-nested-sums"],
)
def test_undecodable_input_is_invalid_input(tmp_path, monkeypatch, capsys, verb, content, source):
    raw = content if isinstance(content, bytes) else content.encode()
    if source == "stdin":
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
        arg, named = "-", "standard input"
    elif source == "file":
        path = tmp_path / "input.json"
        path.write_bytes(raw)
        arg = named = str(path)
    else:
        arg, named = content, "inline JSON"
    code, data = run_json(capsys, [*verb, arg])
    assert code == 1 and data["error"]["kind"] == "InvalidInput"
    assert named in data["error"]["detail"]


def test_cone_decompose_and_contains(capsys):
    code, data = run_json(capsys, ["cone", "decompose", "--poset", CHAIN3, "--f", "[0,1,2]"])
    assert code == 0
    assert [(t["coeff"], t["indicator"]) for t in data["terms"]] == [
        (1.0, [0, 1, 1]),
        (1.0, [0, 0, 1]),
    ]
    code, data = run_json(
        capsys,
        ["cone", "contains", "--elements", '["a","b"]', "--functions", "[[0,1]]", "--f", "[2,5]"],
    )
    assert code == 0 and data == {"contains": True}


def test_cone_order_from(capsys):
    code, data = run_json(
        capsys, ["cone", "order-from", "--elements", '["a","b","c"]', "--functions", "[[0,0,1]]"]
    )
    assert code == 0
    assert data["separates_points"] is False
    assert data["relation"][0][1] == 1 and data["relation"][1][0] == 1


def test_cone_minimal_with_separator_pair(capsys):
    diamond = json.dumps(
        {
            "elements": ["bot", "m1", "m2", "top"],
            "pairs": [["bot", "m1"], ["bot", "m2"], ["m1", "top"], ["m2", "top"]],
        }
    )
    code, data = run_json(capsys, ["cone", "minimal", "--in", diamond, "--pair", "bot", "top"])
    assert code == 0
    assert {data["witness"]["x"], data["witness"]["y"]} == {"m1", "m2"}
    sep = data["separator"]["values"]
    assert sep[0] != sep[3]
    code, data = run_json(capsys, ["cone", "minimal", "--in", CHAIN3])
    assert code == 0 and data == {"totally_ordered": True, "witness": None}


def test_the_cached_parser_carries_nothing_from_one_call_to_the_next(capsys, monkeypatch):
    diamond = json.dumps(
        {
            "elements": ["bot", "m1", "m2", "top"],
            "pairs": [["bot", "m1"], ["bot", "m2"], ["m1", "top"], ["m2", "top"]],
        }
    )
    argvs = [
        ["cone", "minimal", "--in", diamond, "--pair", "bot", "top"],
        ["cone", "minimal", "--in", diamond],
        ["cone", "isotone", "--poset", CHAIN3, "--f", "[0,1,0.5]", "--tol", "1.0"],
        ["cone", "isotone", "--poset", CHAIN3, "--f", "[0,1,0.5]"],
        ["poset", "check", "--in", CHAIN3],
        ["cone", "minimal", "--in", diamond, "--pair", "m1", "top"],
        ["cone", "minimal", "--in", CHAIN3],
    ]
    assert cli._parser("cone", "minimal") is cli._parser("cone", "minimal")
    cached = [run(capsys, argv) for argv in argvs]
    for argv in argvs:  # each namespace is the one a fresh parser makes
        assert vars(cli._parser(*argv[:2]).parse_args(argv)) == vars(build_parser().parse_args(argv))
    monkeypatch.setattr(cli, "_parser", build_parser)
    assert cached == [run(capsys, argv) for argv in argvs]
    assert [code for code, _ in cached] == [0] * len(argvs)


def test_cone_cobounded_cli(capsys):
    anti = json.dumps({"elements": ["a", "b"], "pairs": []})
    code, data = run_json(capsys, ["cone", "cobounded", "--in", anti])
    assert code == 0
    assert data["cobounded"] is False and data["witness"]["condition"] == "sum"


def test_herm_spectral_and_fn(capsys):
    m = json.dumps({"n": 2, "re": [[0, 1], [1, 0]]})
    code, data = run_json(capsys, ["herm", "spectral", "--in", m])
    assert code == 0 and np.allclose(data["eigenvalues"], [-1, 1])
    code, data = run_json(capsys, ["herm", "fn", "--in", m, "--fn", "abs"])
    assert code == 0 and np.allclose(data["re"], [[1, 0], [0, 1]])


_HUGE = "[[1e200,0],[0,-1e200]]"


@pytest.mark.parametrize(
    "argv, want",
    [
        (["herm", "spectral", "--in", _HUGE],
         {"eigenvalues": [-1e200, 1e200], "eigenvectors_re": [[-0.0, 1.0], [1.0, 0.0]], "eigenvectors_im": [[0.0, 0.0], [0.0, 0.0]]}),
        (["herm", "classify", "--in", _HUGE], {"norm": 1e200, "positive": False, "positive_invertible": False}),
        (["herm", "lattice", "--a", _HUGE, "--b", "[[0,0],[0,0]]"],
         {"join": {"n": 2, "re": [[1e200, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]},
          "meet": {"n": 2, "re": [[0.0, 0.0], [0.0, -1e200]], "im": [[0.0, 0.0], [0.0, 0.0]]}}),
        (["m2", "join-coeffs", "--a", _HUGE, "--b", "[[0,0],[0,0]]"], {"alpha": 0.5, "beta": 5e199}),
        (["m2", "member", "--region", '{"kind":"cap","center":[0,0,1],"radius":0.3}', "--matrix", _HUGE], {"member": True}),
        # the pair at scale 1 gives alpha = 0.7236..., beta = 0.8944...
        (["m2", "join-coeffs", "--a", "[[3e160,1e160],[1e160,0]]", "--b", "[[0,0],[0,1e160]]"],
         {"alpha": 0.7236067977499789, "beta": 8.944271909999159e+159}),
        (["m2", "join-coeffs", "--a", "[[1e308,0],[0,-1e308]]", "--b", "[[-1e308,0],[0,1e308]]"], {"alpha": 0.5, "beta": 1e308}),
        (["herm", "fn", "--fn", "abs", "--in", "[[1e308,0],[0,1e308]]"],
         {"n": 2, "re": [[1e308, 0.0], [0.0, 1e308]], "im": [[0.0, 0.0], [0.0, 0.0]]}),
    ],
    ids=["spectral", "classify", "lattice", "join-coeffs", "member", "join-coeffs-1e160", "join-coeffs-1e308", "fn-abs-1e308"],
)
def test_entries_whose_squares_overflow_are_answered(capsys, argv, want):
    # matrices and lengths are read over a power of two, so an answer that fits a float is finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, data = run_json(capsys, argv)
    assert code == 0 and data == want


def test_m2_state_order_fs_and_join_coeffs(capsys):
    cap = json.dumps({"kind": "cap", "center": [0, 0, 1], "radius": 0.2})
    code, data = run_json(
        capsys,
        [
            "m2", "state-order", "--region", cap,
            "--rho", json.dumps({"bloch": [0, 0, 0]}),
            "--sigma", json.dumps({"bloch": [0, 0, 1]}),
        ],
    )
    assert code == 0 and data == {"relation": "less"}
    code, data = run_json(
        capsys,
        ["m2", "fs", "--p", json.dumps({"bloch": [0, 0, 1]}), "--q", json.dumps({"bloch": [1, 0, 0]})],
    )
    assert code == 0
    assert data["distance"] == pytest.approx(np.pi / 4)
    assert data["probability"] == pytest.approx(0.5)
    s3 = json.dumps({"n": 2, "re": [[1, 0], [0, -1]]})
    neg = json.dumps({"n": 2, "re": [[-1, 0], [0, 1]]})
    code, data = run_json(capsys, ["m2", "join-coeffs", "--a", s3, "--b", neg])
    assert code == 0
    assert data == {"alpha": 0.5, "beta": 1.0}


def test_m2_cobounded_and_rotation(capsys):
    cap = json.dumps({"kind": "cap", "center": [0, 0, 1], "radius": 0.3})
    code, data = run_json(capsys, ["m2", "cobounded", "--region", cap])
    assert code == 0 and data["witness"]["slack"] >= 1e-6
    rot_z = [[0, -1, 0], [1, 0, 0], [0, 0, 1]]
    code, data = run_json(capsys, ["m2", "rotation", "--region", cap, "--matrix", json.dumps(rot_z)])
    assert code == 0 and data == {"preserves": True}
    flip = [[1, 0, 0], [0, -1, 0], [0, 0, -1]]
    code, data = run_json(capsys, ["m2", "rotation", "--region", cap, "--matrix", json.dumps(flip)])
    assert code == 0 and data == {"preserves": False}
    # a cap too small to hold two distinct points has no witness
    tiny = json.dumps({"kind": "cap", "center": [0, 0, 1], "radius": 1e-13})
    code, out = run(capsys, ["m2", "cobounded", "--region", tiny])
    assert code == 0 and out == '{\n  "witness": null\n}\n'


_ANTICHAIN2 = json.dumps({"elements": ["a", "b"], "pairs": []})
_V3 = json.dumps({"elements": ["a", "b", "c"], "pairs": [["a", "c"], ["b", "c"]]})


def test_dual_cobounded_duality_cli(capsys):
    for poset_json, bounded in ((CHAIN3, True), (_ANTICHAIN2, False), (_V3, False)):
        code, data = run_json(capsys, ["dual", "cobounded-duality", "--in", poset_json])
        assert code == 0
        assert data == {"agree": True, "bounded": bounded, "cobounded": bounded}


def test_dual_cobounded_duality_computes_each_answer_once(capsys):
    from ordercones import isotone_cone, poset
    # Calls are counted by code object, so a call through any module's name for the function counts.
    watched = {poset.bounds.__code__: "bounds", isotone_cone.cobounded_commutative.__code__: "cobounded_commutative"}
    calls = dict.fromkeys(watched.values(), 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            calls[watched[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        code = main(["dual", "cobounded-duality", "--in", _V3])
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert code == 0
    assert calls == {"bounds": 1, "cobounded_commutative": 1}


_SRC = str(Path(cli.__file__).resolve().parent.parent)


def _run_module(*args):
    """python <args> in a child that imports the package from the same tree as this process."""
    env = dict(os.environ, PYTHONPATH=_SRC)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


_LONE_SURROGATE_COMBINE = ["poset", "combine", "--a", '{"elements":["\\ud800","b"],"pairs":[["\\ud800","b"]]}',
                           "--b", '{"elements":["x"],"pairs":[]}', "--mode", "disjoint_union", "--format", "csv"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_an_id_with_no_utf8_form_is_refused_and_writes_no_out_file(capsys, tmp_path, fmt):
    path = tmp_path / f"relation.{fmt}"
    code, out = run(capsys, _LONE_SURROGATE_COMBINE[:-1] + [fmt, "--out", str(path)])
    error = json.loads(out)["error"]
    assert code == 1 and error["kind"] == "InvalidInput" and "\\ud800" in error["detail"]
    assert not path.exists()


def test_installed_script_entry_point():
    proc = _run_module("-m", "ordercones.cli", "m2", "hopf", "--xi", "[[1,0],[0,0]]")
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"bloch": [0.0, 0.0, 1.0]}


# Runs cli.main(argv) with stdout swallowed, then prints the package modules loaded.
_LOADED = """
import contextlib, io, json, sys
from ordercones import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("ordercones."))]))
"""


@pytest.mark.parametrize(
    "argv, absent, present",
    [
        (["poset", "check", "--in", CHAIN3], ["m2", "hermitian", "isotone_cone", "acceptance", "sampling"], ["poset"]),
        (["herm", "lattice", "--a", "[[3,0],[0,0]]", "--b", "[[1,0],[0,2]]"], ["poset", "isotone_cone", "m2"], ["hermitian"]),
        (["accept", "all", "--fast", "--criteria", "6"], [], ["acceptance"]),
    ],
    ids=["poset-check", "herm-lattice", "accept-all"],
)
def test_a_call_loads_only_its_verbs_modules(argv, absent, present):
    proc = _run_module("-c", _LOADED, json.dumps(argv))
    code, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0 and proc.stderr == ""
    assert [m for m in absent if f"ordercones.{m}" in loaded] == []
    assert [m for m in present if f"ordercones.{m}" not in loaded] == []


def test_a_library_patch_made_after_importing_cli_reaches_its_verb():
    argv = ["herm", "lattice", "--a", "[[3,0],[0,0]]", "--b", "[[1,0],[0,2]]"]
    patched = (
        "import sys\n"
        "from ordercones import cli, hermitian\n"
        "original = hermitian.lattice_ops\n"
        "hermitian.lattice_ops = lambda a, b: original(a, b)[::-1]\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    plain, swapped = _run_module("-m", "ordercones.cli", *argv), _run_module("-c", patched, *argv)
    assert plain.returncode == swapped.returncode == 0
    want = json.loads(plain.stdout)
    assert json.loads(swapped.stdout) == {"join": want["meet"], "meet": want["join"]}


def _in_process(capsysbinary, monkeypatch):
    """A console_checks call that runs argv through cli.main in the working directory, with warnings as errors."""
    def call(row, argv, cwd):
        monkeypatch.chdir(cwd)
        if row.stdin is not None:
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(row.stdin.encode()), encoding="utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        return code, *capsysbinary.readouterr()
    return call


def _check(request, row, child=False):
    """Run one console_checks row with warnings as errors: in process, or in a child where asked or where
    the row sets an environment variable or closes the pipe, since those act on the whole process."""
    if child or row.env or row.pipe:
        call = console_checks.process([sys.executable, "-W", "error", "-m", "ordercones.cli"], {"PYTHONPATH": _SRC})
    else:
        call = _in_process(request.getfixturevalue("capsysbinary"), request.getfixturevalue("monkeypatch"))
    assert console_checks.failure(row, call, request.getfixturevalue("tmp_path")) == ""


_ROW = {row.name: row for row in console_checks.ROWS}
_NAMED = {"bloch", "exp", "cycle-check", "cycle-characters", "cycle-express"}


def _named(*names):
    """A test of the rows named, each 'row' or 'test id=row': rows that took over a hand-written test run
    under its name and ids, and test_console_check runs the rest."""
    _NAMED.update(name.split("=")[-1] for name in names)

    @pytest.mark.parametrize("row", [pytest.param(_ROW[n.split("=")[-1]], id=n.split("=")[0]) for n in names])
    def test(request, row):
        _check(request, row)
    return test


_CONE = ["cone-isotone", "cone-contains", "cone-order-from", "cone-decompose", "cone-eval-scale", "cone-eval-sum",
         "cone-express-prune", "cone-express"]
_DIAGONALS = ["diagonals-classify", "diagonals-member", "diagonals-join-coeffs", "lattice", "lattice-past-the-largest-float"]
test_ci_warning_steps_in_process = _named("exp", "sqrt-1e-11", "bloch", "spinor=spinor-hopf", "density", "hull",
                                          *_DIAGONALS, "transverse", "transverse-not-normal", *_CONE,
                                          "cobounded-duality", "lone-surrogate-id")
test_cone_verbs_near_the_largest_float_leave_stderr_empty = _named(*_CONE)
test_diagonals_near_the_largest_float_leave_stderr_empty = _named(
    *(name.replace("diagonals-", "") + "=" + name for name in _DIAGONALS))
test_overflowing_density_and_hull_entries_are_invalid_input_with_nothing_on_stderr = _named("density", "hull")
test_overflowing_spinor_entry_is_not_normalized_with_nothing_on_stderr = _named("hopf=spinor-hopf", "fs=spinor-fs")
test_a_reader_that_closes_the_pipe_gets_exit_1_and_an_empty_stderr = _named(
    "sprinkle-json=closed-pipe-sprinkle", "scan-csv=closed-pipe-scan-csv",
    "sprinkle-1000-mid-grid=closed-pipe-sprinkle-1000-mid-grid")
test_a_csv_id_that_is_not_ascii_is_written_as_utf8_whatever_the_locale = _named(
    "stdout=csv-id-not-ascii-under-ascii-locale", "out=csv-id-not-ascii-under-ascii-locale")


def test_overflowing_bloch_entry_is_invalid_input_with_nothing_on_stderr(request):
    _check(request, _ROW["bloch"], child=True)


def test_overflowing_exp_is_domain_error_with_nothing_on_stderr(request):
    _check(request, _ROW["exp"], child=True)


def test_poset_check_reports_cycle(request):
    for name in ("cycle-check", "cycle-characters", "cycle-express"):
        _check(request, _ROW[name])


@pytest.mark.parametrize("row", [row for row in console_checks.ROWS if row.name not in _NAMED], ids=lambda row: row.name)
def test_console_check(request, row):
    _check(request, row)


def test_accept_fast_single_criterion(capsys):
    code, out = run(capsys, ["accept", "all", "--fast", "--criteria", "6", "--seed", "9"])
    assert code == 0
    assert "PASS" in out and "transversality-cases" in out
    assert "ALL CRITERIA PASSED" in out


def test_accept_report_file(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, _ = run(
        capsys,
        ["accept", "all", "--fast", "--criteria", "6,10", "--seed", "9", "--out", str(report)],
    )
    assert code == 0
    data = json.loads(report.read_text())
    assert data["all_passed"] is True
    assert [c["number"] for c in data["criteria"]] == [6, 10]
    assert all(c["seed"] == 9 for c in data["criteria"])


@pytest.mark.parametrize("criteria", ["8,x", "8,,9", "", "1.5"])
def test_accept_rejects_non_integer_criteria(capsys, criteria):
    code, data = run_json(capsys, ["accept", "all", "--fast", "--criteria", criteria])
    assert code == 1 and data["error"]["kind"] == "InvalidInput"


@pytest.mark.parametrize("criteria", ["99", "0", "6,12", "-1"])
def test_accept_rejects_unknown_criteria(capsys, criteria):
    code, data = run_json(capsys, ["accept", "all", "--fast", "--criteria", criteria])
    assert code == 1 and data["error"]["kind"] == "InvalidInput"
    assert "1-11" in data["error"]["detail"]


# family -> error kind of `cone express` on the 3-chain and of `cone eval` of
# {"gen": 0}; None where the call succeeds.
@pytest.mark.parametrize(
    "family, express_kind, eval_kind",
    [
        ("[[0, 1, 2], [0, 1]]", "DimensionMismatch", "DimensionMismatch"),
        ("[[0, 1, 2], [NaN, 1]]", "InvalidInput", "InvalidInput"),
        ("[0, 1, 2]", "InvalidInput", "InvalidInput"),
        ("[[0, 1], [1, 0]]", "DimensionMismatch", None),
        ("[[0, NaN, 2]]", "InvalidInput", "InvalidInput"),
        ("[[0, 1, Infinity]]", "InvalidInput", "InvalidInput"),
        ("[[0, NaN]]", "InvalidInput", "InvalidInput"),
        ('[[0, "x", 2]]', "InvalidInput", "InvalidInput"),
        ("[]", "OrderNotDetermined", "InvalidInput"),
    ],
    ids=["ragged", "ragged-nan", "flat", "wrong-width", "nan", "inf", "nan-wrong-width", "text", "empty"],
)
def test_cone_bad_families_keep_their_error_kinds(capsys, family, express_kind, eval_kind):
    express = ["cone", "express", "--poset", CHAIN3, "--generators", family, "--target", "[0, 1, 2]"]
    evaluate = ["cone", "eval", "--expr", '{"gen": 0}', "--functions", family]
    for argv, kind in ((express, express_kind), (evaluate, eval_kind)):
        code, data = run_json(capsys, argv)
        assert (code, data.get("error", {}).get("kind")) == ((1, kind) if kind else (0, None))


@pytest.mark.parametrize(
    "argv, kind",
    [
        (["herm", "classify", "--in", '{"re":[[NaN,0],[0,1]]}'], "InvalidInput"),
        (
            [
                "m2", "state-order", "--region", '{"kind": "cap", "center": [0, 0, 1], "radius": 0.3}',
                "--rho", '{"bloch":[NaN,0,0]}', "--sigma", '{"bloch":[0,0,1]}',
            ],
            "InvalidInput",
        ),
        # beta = sqrt(2) * 1.5e308 lies past the largest float
        (["m2", "join-coeffs", "--a", "[[1.5e308,1.5e308],[1.5e308,-1.5e308]]", "--b", "[[-1.5e308,-1.5e308],[-1.5e308,1.5e308]]"],
         "DomainError"),
        (["cone", "eval", "--expr", '{"const": Infinity}', "--size", "2"], "InvalidInput"),
        (["cone", "eval", "--expr", '{"op": "scale", "factor": NaN, "args": [{"gen": 0}]}', "--functions", "[[0,1]]"], "InvalidInput"),
        (["m2", "rotation", "--region", '{"kind": "full"}', "--matrix", "[[NaN,0,0],[0,1,0],[0,0,1]]"], "InvalidInput"),
        (["m2", "hopf", "--xi", "[[NaN,0],[0,0]]"], "InvalidInput"),
    ],
    ids=[
        "nan-matrix", "nan-density-state", "overflowing-join-coeffs", "infinite-const", "nan-scale-factor",
        "nan-rotation", "nan-spinor",
    ],
)
def test_non_finite_values_are_errors_in_strict_json(capsys, argv, kind):
    with np.errstate(all="ignore"):
        code, data = run_json(capsys, argv)
    assert code == 1 and data["error"]["kind"] == kind


def test_cone_eval_size_must_be_nonnegative(capsys):
    code, data = run_json(capsys, ["cone", "eval", "--expr", '{"const": 1}', "--size", "-1"])
    assert code == 1 and data["error"]["kind"] == "InvalidInput" and "size" in data["error"]["detail"]
    assert run_json(capsys, ["cone", "eval", "--expr", '{"const": 1}', "--size", "0"]) == (0, {"values": []})


@pytest.mark.parametrize("samples", ["-3", "0"])
def test_m2_order_rejects_non_positive_samples(capsys, samples):
    cap = json.dumps({"kind": "cap", "center": [0, 0, 1], "radius": 0.3})
    argv = ["m2", "order", "--region", cap, "--samples", samples, "--p", '{"bloch":[0,0,-1]}', "--q", '{"bloch":[0,0,1]}']
    code, data = run_json(capsys, argv)
    assert code == 1 and data["error"]["kind"] == "InvalidInput" and "--samples" in data["error"]["detail"]


@pytest.mark.parametrize("text", ["true", "null", "[1, 2]"])
def test_poset_input_must_be_an_object(capsys, text):
    code, data = run_json(capsys, ["poset", "bounds", "--in", text])
    assert code == 1 and data["error"]["kind"] == "InvalidInput"


_GENS = ["--functions", "[[0,1]]"]


@pytest.mark.parametrize(
    "argv, kind",
    [
        (["cone", "eval", "--expr", '{"gen": "x"}', *_GENS], "InvalidInput"),
        (["cone", "eval", "--expr", '{"gen": true}', *_GENS], "InvalidInput"),
        (["cone", "eval", "--expr", '{"const": "1"}', "--size", "2"], "InvalidInput"),
        (["cone", "eval", "--expr", '{"op": "scale", "factor": 2}', *_GENS], "InvalidInput"),
        (["cone", "eval", "--expr", '{"op": "scale", "factor": 2, "args": [{"gen": 0}, {"gen": 0}]}', *_GENS], "InvalidInput"),
        (["cone", "eval", "--expr", '{"op": "join"}', *_GENS], "InvalidInput"),
        (["cone", "eval", "--expr", '{"op": "meet", "args": {"gen": 0}}', *_GENS], "InvalidInput"),
        (["cone", "eval", "--expr", '{"gen": 0}', "--functions", '{"x": 1}'], "InvalidInput"),
        (["gps", "order", "--in", '{"points": ["a"]}', "--landmarks", '["a"]'], "InvalidInput"),
        (["gps", "complete", "--in", "[1]", "--landmarks", '["a"]'], "InvalidInput"),
        (["poset", "bounds", "--in", json.dumps({"elements": ["a"], "pairs": [["a"]]})], "InvalidInput"),
        (["m2", "hopf", "--xi", "{}"], "InvalidInput"),
        (["m2", "hopf", "--xi", "[1, 0]"], "DimensionMismatch"),
        (["poset", "bounds", "--in", '{"elements": 5}'], "InvalidInput"),
        (["poset", "bounds", "--in", '{"elements": ["a"], "pairs": 5}'], "InvalidInput"),
        (["poset", "bounds", "--in", '{"elements": ["a", "b"], "relation": [[1, "x"], [0, 1]]}'], "InvalidInput"),
        (["poset", "bounds", "--in", '{"elements": ["a", "b"], "relation": [[1, 2], [0, 1]]}'], "InvalidInput"),
        (["poset", "bounds", "--in", '{"elements": ["a", "b"], "relation": [[1, 0], [0]]}'], "InvalidInput"),
        (["gps", "order", "--in", '{"points": 5, "dist": [[0]]}', "--landmarks", '["a"]'], "InvalidInput"),
        (["gps", "order", "--in", '{"points": ["a"], "dist": "x"}', "--landmarks", '["a"]'], "InvalidInput"),
        (["gps", "order", "--in", '{"points": ["a"], "dist": [[0]], "landmarks": 5}'], "InvalidInput"),
        (["herm", "spectral", "--in", '{"re": "x"}'], "InvalidInput"),
        (["herm", "spectral", "--in", "true"], "InvalidInput"),
        (["m2", "order", "--region", '{"kind": "full"}', "--p", "[[1, 0], [0]]", "--q", "[0, 0, 1]"], "InvalidInput"),
        (["m2", "rotation", "--region", '{"kind": "full"}', "--matrix", '[["x"]]'], "InvalidInput"),
        (["cone", "isotone", "--poset", '{"elements": ["a"]}', "--f", '["x"]'], "InvalidInput"),
        (["dual", "morphism", "--source", '{"elements": ["a"]}', "--target", '{"elements": ["a"]}',
          "--map", '["a"]'], "InvalidInput"),
        (["m2", "state-order", "--region", '{"kind": "full"}', "--rho", '{"bloch": "x"}',
          "--sigma", '{"bloch": [0, 0, 0]}'], "InvalidInput"),
        (["poset", "check", "--in", '{"elements": ["None", null]}'], "InvalidInput"),
        (["poset", "bounds", "--in", '{"elements": [{"a": 1}, null, 1.5]}'], "InvalidInput"),
        (["poset", "bounds", "--in", '{"elements": ["a", "1"], "pairs": [["a", 1]]}'], "InvalidInput"),
        (["cone", "order-from", "--elements", '["a", 1]', "--functions", "[[0, 1]]"], "InvalidInput"),
        (["cone", "order-from", "--elements", '{"a": 1}', "--functions", "[[0]]"], "InvalidInput"),
        (["gps", "order", "--in", '{"points": ["a", 2], "dist": [[0, 1], [1, 0]]}', "--landmarks", '["a"]'],
         "InvalidInput"),
        (["gps", "order", "--in", '{"points": ["a", "b"], "dist": [[0, 1], [1, 0]]}', "--landmarks", "[null]"],
         "InvalidInput"),
        (["dual", "morphism", "--source", '{"elements": ["a"]}', "--target", '{"elements": ["a"]}',
          "--map", '{"map": {"a": null}}'], "InvalidInput"),
    ],
    ids=[
        "gen-string", "gen-bool", "const-string", "scale-without-arg", "scale-two-args", "join-without-args",
        "args-not-a-list", "functions-without-key", "metric-without-dist", "metric-not-an-object",
        "one-id-pair", "hopf-without-xi", "hopf-flat-xi",
        "elements-not-a-list", "pairs-not-a-list", "relation-string-entry", "relation-entry-two",
        "relation-ragged", "points-not-a-list", "dist-string", "landmarks-not-a-list", "matrix-re-string",
        "matrix-not-an-object", "ragged-xi", "rotation-string", "function-string", "map-not-an-object",
        "density-bloch-string", "check-null-id", "object-and-number-ids", "number-pair-id",
        "cone-number-id", "cone-elements-object", "number-point-id", "null-landmark", "null-map-value",
    ],
)
def test_malformed_input_is_an_error_object(capsys, argv, kind):
    code, data = run_json(capsys, argv)
    assert code == 1 and set(data) == {"error"} and data["error"]["kind"] == kind
    assert isinstance(data["error"]["detail"], str)


def test_poset_check_reports_malformed_pair(capsys):
    bad = json.dumps({"elements": ["a", "b"], "pairs": [["a"]]})
    code, data = run_json(capsys, ["poset", "check", "--in", bad])
    assert code == 0
    assert data["valid"] is False and data["reason"] == "InvalidInput"


@pytest.mark.parametrize(
    "argv",
    [
        ["poset", "combine", "--mode", "product", "--a", CHAIN3, "--b", json.dumps({"elements": ["x", "y"], "pairs": []})],
        ["poset", "sprinkle", "--n", "12", "--seed", "4"],
        ["cone", "order-from", "--elements", '["a","b","c"]', "--functions", "[[0,0,1],[1,0,2]]"],
        ["dual", "characters", "--in", json.dumps({"elements": ["bot", "m", "top"], "pairs": [["bot", "m"], ["bot", "top"]]})],
    ],
    ids=["poset-combine", "poset-sprinkle", "cone-order-from", "dual-characters"],
)
def test_relation_csv_matches_json_relation(capsys, argv):
    code, data = run_json(capsys, argv)
    assert code == 0
    elements, rel = data["elements"], data["relation"]
    expected = sorted(
        f"{elements[i]},{elements[j]}" for i in range(len(elements)) for j in range(len(elements)) if i != j and rel[i][j]
    )
    code, out = run(capsys, argv + ["--format", "csv"])
    assert code == 0
    header, *rows = out.rstrip("\n").split("\n")
    assert header == "source,target"
    assert rows == expected


# Every verb with its --tol default (None: the verb has no --tol).
VERB_TOLS = {
    ("poset", "check"): None,
    ("poset", "reduce"): None,
    ("poset", "combine"): None,
    ("poset", "interval"): None,
    ("poset", "bounds"): None,
    ("poset", "sprinkle"): None,
    ("cone", "isotone"): DEFAULT_TOL,
    ("cone", "order-from"): DEFAULT_TOL,
    ("cone", "express"): DEFAULT_TOL,
    ("cone", "eval"): None,
    ("cone", "decompose"): DEFAULT_TOL,
    ("cone", "contains"): DEFAULT_TOL,
    ("cone", "minimal"): None,
    ("cone", "cobounded"): None,
    ("herm", "spectral"): None,
    ("herm", "fn"): None,
    ("herm", "lattice"): None,
    ("herm", "classify"): None,
    ("m2", "hopf"): None,
    ("m2", "member"): GEOM_TOL,
    ("m2", "order"): GEOM_TOL,
    ("m2", "state-order"): GEOM_TOL,
    ("m2", "fs"): None,
    ("m2", "transverse"): GEOM_TOL,
    ("m2", "join-coeffs"): None,
    ("m2", "cobounded"): None,
    ("m2", "rotation"): GEOM_TOL,
    ("dual", "from-poset"): None,
    ("dual", "characters"): None,
    ("dual", "morphism"): None,
    ("dual", "cobounded-duality"): None,
    ("gps", "complete"): DEFAULT_TOL,
    ("gps", "order"): DEFAULT_TOL,
}


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_verb_list_is_complete():
    verbs = {(g, v) for g, gp in _subparsers(build_parser()).items() for v in _subparsers(gp)}
    assert verbs == set(VERB_TOLS) | {("accept", "all")}


@pytest.mark.parametrize("group, verb", list(VERB_TOLS), ids=[f"{g}-{v}" for g, v in VERB_TOLS])
def test_verb_tol_default(group, verb):
    sp = _subparsers(_subparsers(build_parser())[group])[verb]
    expected = VERB_TOLS[group, verb]
    assert sp.get_default("tol") == expected
    assert ("--tol" in sp.format_help()) == (expected is not None)


@pytest.mark.parametrize("group, verb", list(VERB_TOLS), ids=[f"{g}-{v}" for g, v in VERB_TOLS])
def test_missing_required_flag_is_usage_error(capsys, group, verb):
    with pytest.raises(SystemExit) as exc:
        main([group, verb])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "the following arguments are required" in captured.err and "Traceback" not in captured.err


def _usage_argvs(group, verb):
    """--help, a missing required flag, an unknown flag and a bad value of each flag with choices."""
    sp = _subparsers(_subparsers(build_parser())[group])[verb]
    choices = [a.option_strings[-1] for a in sp._actions if a.choices]
    # Each required flag with a value its type and choices take, so the unknown flag is what the parser refuses.
    values = {a.option_strings[-1]: a.choices[0] if a.choices else "1" if a.type is int else CHAIN3 for a in sp._actions}
    required = [arg for a in sp._actions if a.required for arg in (a.option_strings[-1], values[a.option_strings[-1]])]
    return [[group, verb, "--help"], [group, verb], [group, verb, *required, "--bogus"]] + [
        [group, verb, *required, flag, "nope"] for flag in choices
    ]


def _parse_outcome(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("group, verb", list(VERB_TOLS), ids=[f"{g}-{v}" for g, v in VERB_TOLS])
def test_one_verb_parser_prints_what_the_full_parser_prints(capsys, group, verb):
    one = _subparsers(cli._parser(group, verb))
    assert list(one) == [group] and list(_subparsers(one[group])) == [verb]
    for argv in _usage_argvs(group, verb):
        assert _parse_outcome(capsys, main, argv) == _parse_outcome(capsys, build_parser().parse_args, argv), argv


@pytest.mark.parametrize(
    "argv", [[], ["--help"], ["poset", "--help"], ["m2", "-h"], ["accept", "all", "--help"], ["poset", "nope"]]
)
def test_help_above_a_verb_is_the_full_parsers(capsys, argv):
    assert _parse_outcome(capsys, main, argv) == _parse_outcome(capsys, build_parser().parse_args, argv)


_CAP = json.dumps({"kind": "cap", "center": [0, 0, 1], "radius": 0.3})
_FULL = '{"kind": "full"}'
_SPACE = json.dumps({"points": ["0", "1"], "dist": [[0, 1], [1, 0]], "landmarks": ["0"]})

# A call that succeeds at the default --tol, for every verb with --tol.
TOL_CALLS = {
    ("cone", "isotone"): ["--poset", CHAIN3, "--f", "[0,1,2]"],
    ("cone", "order-from"): ["--elements", '["a","b"]', "--functions", "[[0,1]]"],
    ("cone", "express"): ["--poset", CHAIN3, "--generators", "[[0,1,2]]", "--target", "[0,3,7]"],
    ("cone", "decompose"): ["--poset", CHAIN3, "--f", "[0,1,2]"],
    ("cone", "contains"): ["--elements", '["a","b"]', "--functions", "[[0,1]]", "--f", "[0,2]"],
    ("m2", "member"): ["--region", _CAP, "--matrix", "[[8,0],[0,6]]"],
    ("m2", "order"): ["--region", _FULL, "--p", '{"bloch":[0,0,1]}', "--q", '{"bloch":[0,0,-1]}'],
    ("m2", "state-order"): ["--region", _CAP, "--rho", '{"bloch":[0,0,0]}', "--sigma", '{"bloch":[0,0,1]}'],
    ("m2", "transverse"): ["--region", _CAP, "--matrix", "[[1,0],[0,-1]]"],
    ("m2", "rotation"): ["--region", _CAP, "--matrix", "[[0,-1,0],[1,0,0],[0,0,1]]"],
    ("gps", "complete"): ["--in", _SPACE],
    ("gps", "order"): ["--in", _SPACE],
}


def test_tol_calls_cover_every_tol_verb():
    assert set(TOL_CALLS) == {verb for verb, tol in VERB_TOLS.items() if tol is not None}


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "-1e-300"])
@pytest.mark.parametrize("group, verb", list(TOL_CALLS), ids=[f"{g}-{v}" for g, v in TOL_CALLS])
def test_tol_must_be_finite_and_non_negative(capsys, group, verb, tol):
    code, _ = run_json(capsys, [group, verb, *TOL_CALLS[group, verb]])
    assert code == 0
    code, data = run_json(capsys, [group, verb, *TOL_CALLS[group, verb], f"--tol={tol}"])
    assert code == 1 and data["error"]["kind"] == "InvalidInput" and "--tol" in data["error"]["detail"]
    code, _ = run_json(capsys, [group, verb, *TOL_CALLS[group, verb], "--tol", "0"])
    assert code == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["m2", "order", "--region", _FULL, "--samples", "3", "--seed", "-5"],
        ["accept", "all", "--fast", "--criteria", "1", "--seed", "-1"],
    ],
    ids=["m2-order-scan", "accept-all"],
)
def test_negative_seed_is_invalid_input(capsys, argv):
    code, out = run(capsys, argv)
    data = json.loads(out)
    assert code == 1 and data["error"]["kind"] == "InvalidInput" and "--seed" in data["error"]["detail"]


def test_sprinkle_takes_a_negative_seed(capsys):
    code, data = run_json(capsys, ["poset", "sprinkle", "--n", "5", "--seed", "-1"])
    assert code == 0 and FinitePoset.from_json(data).n == 5
