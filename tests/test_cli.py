import argparse
import hashlib
import io
import json
import warnings

import numpy as np
import pytest

from ordercones import cli
from ordercones.cli import build_parser, main
from ordercones.isotone_cone import DEFAULT_TOL
from ordercones.m2 import GEOM_TOL, PureStatePoint, pure_state_order
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


def test_poset_check_reports_cycle(capsys):
    bad = json.dumps({"elements": ["a", "b"], "pairs": [["a", "b"], ["b", "a"]]})
    code, data = run_json(capsys, ["poset", "check", "--in", bad])
    assert code == 0
    assert data["valid"] is False and data["reason"] == "AntisymmetryViolation"


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
# Pauli coordinates each had one shared kernel.
@pytest.mark.parametrize(
    "argv, digest",
    [
        (["dual", "from-poset", "--in", _POS6], "e95be2c02bad435c26a17015129e442f9b34c602ceb9316e398c25969983dec0"),
        (["dual", "morphism", "--source", _DIAMOND, "--target", _POS6, "--map", '{"p": "b", "q": "c", "r": "d", "s": "e"}'],
         "e4e46093d5a3ce41b3e71ac74b343254a1c3500bbd2606d6d4bd9e28249bcb27"),
        (["dual", "morphism", "--source", _DIAMOND, "--target", _POS6, "--map", '{"p": "b", "q": "c", "r": "f", "s": "e"}'],
         "3a6f30a7de3808f767f3314070df4082d30117c0e1b7c8ae2c9cd01f7a67c292"),
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
    neg = json.dumps({"n": 2, "re": [[-1, 0], [0, 1]]})
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
    assert data == {"isotone": False, "pullback_preserves_cone": False, "star_morphism": True}


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
    assert cli._parser() is cli._parser()
    cached = [run(capsys, argv) for argv in argvs]
    for argv in argvs:  # each namespace is the one a fresh parser makes
        assert vars(cli._parser().parse_args(argv)) == vars(build_parser().parse_args(argv))
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
    ],
    ids=["spectral", "classify", "lattice", "join-coeffs", "member"],
)
def test_entries_whose_squares_overflow_are_answered(capsys, argv, want):
    # lengths are taken on the vector over 2**600 where the plain squares overflow
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


def test_dual_cobounded_duality_cli(capsys):
    code, data = run_json(capsys, ["dual", "cobounded-duality", "--in", CHAIN3])
    assert code == 0
    assert data == {"agree": True, "bounded": True, "cobounded": True}


def _run_module(*args):
    """python <args> in a child that imports the package from the same tree as this process."""
    import os
    import subprocess
    import sys as _sys
    from pathlib import Path

    import ordercones

    env = dict(os.environ, PYTHONPATH=str(Path(ordercones.__file__).resolve().parent.parent))
    return subprocess.run([_sys.executable, *args], capture_output=True, text=True, env=env)


def test_installed_script_entry_point():
    proc = _run_module("-m", "ordercones.cli", "m2", "hopf", "--xi", "[[1,0],[0,0]]")
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"bloch": [0.0, 0.0, 1.0]}


def test_overflowing_bloch_entry_is_invalid_input_with_nothing_on_stderr():
    proc = _run_module(
        "-W", "error", "-m", "ordercones.cli", "m2", "order", "--region", '{"kind":"full"}',
        "--p", '{"bloch":[1e200,0,0]}', "--q", '{"bloch":[0,0,1]}',
    )
    assert proc.returncode == 1 and proc.stderr == ""
    assert json.loads(proc.stdout)["error"]["kind"] == "InvalidInput"


def test_overflowing_exp_is_domain_error_with_nothing_on_stderr():
    proc = _run_module("-W", "error", "-m", "ordercones.cli", "herm", "fn", "--fn", "exp", "--in", "[[1000,0],[0,0]]")
    assert proc.returncode == 1 and proc.stderr == ""
    assert json.loads(proc.stdout) == {"error": {"detail": "function not finite at eigenvalue 1000.0", "kind": "DomainError"}}


@pytest.mark.parametrize(
    "argv",
    [
        ["m2", "hopf", "--xi", "[[1e200,0],[0,0]]"],
        ["m2", "fs", "--p", '{"xi":[[0,1e200],[0,0]]}', "--q", '{"bloch":[0,0,1]}'],
    ],
    ids=["hopf", "fs"],
)
def test_overflowing_spinor_entry_is_not_normalized_with_nothing_on_stderr(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    assert json.loads(captured.out) == {"error": {"detail": "state vector has norm 1e+200", "kind": "NotNormalized"}}


@pytest.mark.parametrize(
    "argv, detail",
    [
        (["m2", "state-order", "--region", '{"kind":"full"}', "--rho", '{"bloch":[1e200,0,0]}', "--sigma", '{"bloch":[0,0,0]}'],
         "density Bloch vector must be finite with norm <= 1"),
        (["m2", "order", "--region", '{"kind":"hull","vertices":[[1e200,0,1],[0,1,1],[1,1,1]]}', "--p", "[0,0,1]", "--q", "[0,0,1]"],
         "hull vertices must be finite and unit length"),
    ],
    ids=["density", "hull"],
)
def test_overflowing_density_and_hull_entries_are_invalid_input_with_nothing_on_stderr(capsys, argv, detail):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    assert json.loads(captured.out) == {"error": {"detail": detail, "kind": "InvalidInput"}}


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
        (["m2", "join-coeffs", "--a", "[[1e308,0],[0,-1e308]]", "--b", "[[-1e308,0],[0,1e308]]"], "DomainError"),
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
