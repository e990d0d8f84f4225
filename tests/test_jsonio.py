import json

import pytest

from hypadd import make_field, to_mumford
from hypadd.jsonio import (
    curve_from_json,
    curve_to_json,
    divisor_from_json,
    divisor_to_json,
    dumps,
    point_from_json,
    point_to_json,
    scalar_from_json,
    scalar_to_json,
)
from tests.conftest import q_pair, seeded

Q = make_field("q")
P = make_field("fp", 10007)


def test_scalar_forms():
    assert scalar_to_json(Q.scalar("3/4")) == "3/4"
    assert scalar_to_json(Q.scalar(-2)) == "-2"
    assert scalar_to_json(P.scalar(17)) == 17
    assert scalar_from_json(Q, "3/4") == Q.scalar("3/4")
    assert scalar_from_json(Q, 5) == Q.scalar(5)
    assert scalar_from_json(P, "12") == P.scalar(12)


def test_scalar_rejects_bool_and_junk():
    with pytest.raises(ValueError):
        scalar_from_json(Q, True)
    with pytest.raises(ValueError):
        scalar_from_json(Q, 1.5)


def test_curve_round_trip_q():
    rng = seeded("jsonio-curve")
    c, _, _ = q_pair(2, rng)
    obj = curve_to_json(c)
    assert obj["genus"] == 2
    assert obj["field"] == "q"
    assert len(obj["lambda"]) == 4
    back = curve_from_json(json.loads(json.dumps(obj)))
    assert back.genus == c.genus
    assert back.lambda1 == c.lambda1
    assert back.lambda2 == c.lambda2


def test_curve_lambda_is_ascending_weight():
    rng = seeded("jsonio-order")
    c, _, _ = q_pair(2, rng)
    obj = curve_to_json(c)
    # ascending: lambda_4, lambda_6, lambda_8, lambda_10
    lam = [Q.scalar(v) for v in obj["lambda"]]
    assert lam[0] == c.lambda2[-1]
    assert lam[1] == c.lambda2[0]
    assert lam[2] == c.lambda1[-1]
    assert lam[3] == c.lambda1[0]


def test_curve_validation_errors():
    with pytest.raises(ValueError):
        curve_from_json({"genus": 0, "field": "q", "lambda": []})
    with pytest.raises(ValueError):
        curve_from_json({"genus": 2, "field": "q", "lambda": [1, 2, 3]})
    for genus in (True, 1.0, "1"):
        with pytest.raises(ValueError, match="genus"):
            curve_from_json({"genus": genus, "field": "q", "lambda": ["0", "1"]})


def test_point_round_trip():
    rng = seeded("jsonio-point")
    c, a, _ = q_pair(3, rng)
    obj = point_to_json(a)
    back = point_from_json(Q, json.loads(json.dumps(obj)))
    assert back == a


def test_divisor_round_trip():
    rng = seeded("jsonio-divisor")
    c, a, _ = q_pair(2, rng)
    d = to_mumford(a, c)
    obj = divisor_to_json(d)
    back = divisor_from_json(Q, json.loads(json.dumps(obj)))
    assert back == d


def test_dumps_is_canonical():
    s1 = dumps({"b": 1, "a": [1, 2]})
    s2 = dumps({"a": [1, 2], "b": 1})
    assert s1 == s2
    assert json.loads(s1) == {"a": [1, 2], "b": 1}
