"""Malformed input is refused with its own error kind, in the library and through the CLI."""
import json
import math

import numpy as np
import pytest

from ordercones.cli import main
from ordercones.errors import OrderConesError
from ordercones.gps import FiniteMetricSpace
from ordercones.hermitian import HermitianMatrix, complex_matrix_from_json
from ordercones.isotone_cone import expr_from_json, minimal_witness
from ordercones.m2 import (
    DensityState,
    PureStatePoint,
    SphericalRegion,
    hopf,
    matrix_from_pauli,
    pauli_coords,
    rotation_preserves,
    transversality,
)
from ordercones.poset import FinitePoset, FinitePreorder, combine, sprinkle_minkowski

ANTICHAIN2 = FinitePoset(["a", "b"], np.eye(2, dtype=bool))
CAP = SphericalRegion.cap([0, 0, 1], 0.3)
SPACE_NO_LANDMARKS = json.dumps({"points": ["0", "1"], "dist": [[0, 1], [1, 0]]})

# (id, a library call or a CLI argv, error kind, a pattern its detail matches)
REFUSALS = [
    ("metric-duplicate-ids", lambda: FiniteMetricSpace(["a", "a"], [[0, 1], [1, 0]]), "InvalidInput", "distinct"),
    ("metric-wrong-shape", lambda: FiniteMetricSpace(["a", "b"], [[0]]), "InvalidInput", "must be 2x2"),
    ("metric-non-finite", lambda: FiniteMetricSpace(["a", "b"], [[0, math.inf], [math.inf, 0]]),
     "InvalidInput", "finite"),
    ("metric-nonzero-diagonal", lambda: FiniteMetricSpace(["a", "b"], [[1, 1], [1, 1]]),
     "InvalidInput", "zero diagonal"),
    ("preorder-duplicate-ids", lambda: FinitePreorder(["a", "a"], np.ones((2, 2))), "InvalidInput", "distinct"),
    ("preorder-wrong-shape", lambda: FinitePreorder(["a", "b"], [[1]]), "InvalidInput", "must be 2x2"),
    ("preorder-irreflexive", lambda: FinitePreorder(["a"], [[0]]), "InvalidInput", "reflexive"),
    ("preorder-json-without-elements", lambda: FinitePreorder.from_json({"pairs": []}), "InvalidInput", "elements"),
    ("combine-sum", lambda: combine(ANTICHAIN2, ANTICHAIN2, "sum"), "InvalidInput", "mode"),
    ("sprinkle-negative", lambda: sprinkle_minkowski(-1, 0), "InvalidInput", "nonnegative"),
    ("hermitian-non-square", lambda: HermitianMatrix([[1, 2, 3]]), "InvalidInput", "square"),
    ("hermitian-re-im-shapes", lambda: complex_matrix_from_json({"re": [[1, 0], [0, 1]], "im": [[0]]}),
     "DimensionMismatch", "share a shape"),
    ("expr-non-object", lambda: expr_from_json([1]), "InvalidInput", "must be an object"),
    ("expr-unknown-node", lambda: expr_from_json({"op": "max", "args": []}), "InvalidInput", "unknown expression"),
    ("separator-same-element", lambda: minimal_witness(ANTICHAIN2).separator("a", "a"),
     "InvalidInput", "two distinct"),
    ("pauli-coords-3x3", lambda: pauli_coords(np.eye(3)), "DimensionMismatch", "2x2"),
    ("transversality-3x3", lambda: transversality(CAP, np.eye(3)), "DimensionMismatch", "2x2"),
    ("matrix-from-pauli-2-entries", lambda: matrix_from_pauli(1.0, [0, 0]), "DimensionMismatch", "3 entries"),
    ("hopf-3-entries", lambda: hopf([1, 0, 0]), "DimensionMismatch", "2 entries"),
    ("rotation-2x2", lambda: rotation_preserves(CAP, np.eye(2)), "DimensionMismatch", "3x3"),
    ("cap-radius-list", lambda: SphericalRegion.cap([0, 0, 1], [0.1, 0.2]), "InvalidInput", "a number"),
    ("hull-2-vertices", lambda: SphericalRegion.hull([[0, 0, 1], [0, 1, 0]]), "InvalidInput", "at least 3"),
    ("region-unknown-kind", lambda: SphericalRegion("disc"), "InvalidInput", "unknown region kind"),
    ("region-json-unknown-kind", lambda: SphericalRegion.from_json({"kind": "disc"}),
     "InvalidInput", "unknown region kind"),
    ("region-json-not-object", lambda: SphericalRegion.from_json([1]), "InvalidInput", "must be an object"),
    ("cap-extreme-vertices", lambda: CAP.extreme_vertices, "InvalidInput", "hull regions only"),
    ("state-json-without-xi-or-bloch", lambda: PureStatePoint.from_json({"z": 1}), "InvalidInput", "xi"),
    ("density-json-without-bloch", lambda: DensityState.from_json({"xi": [[1, 0], [0, 0]]}),
     "InvalidInput", "bloch"),
    ("cli-herm-fn-cube", ["herm", "fn", "--fn", "cube", "--in", "[[1,0],[0,1]]"], "InvalidInput", "unknown function"),
    ("cli-m2-order-no-states", ["m2", "order", "--region", '{"kind":"full"}'], "InvalidInput", "--p and --q"),
    ("cli-gps-order-no-landmarks", ["gps", "order", "--in", SPACE_NO_LANDMARKS], "InvalidInput", "no landmarks"),
    ("cli-blank-in", ["poset", "bounds", "--in", "  "], "InvalidInput", "empty input"),
]


@pytest.mark.parametrize("call, kind, detail", [row[1:] for row in REFUSALS], ids=[row[0] for row in REFUSALS])
def test_refusal_kind(capsys, call, kind, detail):
    if callable(call):
        with pytest.raises(OrderConesError, match=detail) as exc:
            call()
        assert exc.value.kind == kind
        return
    code = main(call)
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    error = json.loads(captured.out)["error"]
    assert error.keys() == {"kind", "detail"} and error["kind"] == kind
    assert detail in error["detail"]
