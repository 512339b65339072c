import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from kemst.errors import ParameterError
from kemst.scenario_io import (
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from kemst.scenarios import (
    KineticScenario,
    gen_chebyshev,
    gen_circle,
    gen_diamond,
    gen_rational_bumps,
    gen_split,
)
from kemst.trajectories import linear


@pytest.mark.parametrize(
    "sc",
    [
        gen_chebyshev(3, 5, k=0.1),
        gen_rational_bumps(4, 4),
        gen_circle(6, e_len=0.07),
        gen_diamond(5),
        gen_split(6),
    ],
    ids=["chebyshev", "bumps", "circle", "diamond", "split"],
)
def test_generator_scenarios_round_trip(tmp_path, sc):
    path = tmp_path / "sc.json"
    save_scenario(path, sc)
    back = load_scenario(path)
    assert back.n == sc.n and back.dim == sc.dim and back.horizon == sc.horizon
    assert back.label == sc.label and back.k == sc.k
    for t in np.linspace(0.0, sc.horizon, 7):
        np.testing.assert_allclose(
            back.positions(float(t)), sc.positions(float(t)), atol=1e-12
        )
    # generator files keep their construction metadata
    assert back.meta.get("generator") == sc.meta.get("generator")


@pytest.mark.parametrize(
    "params, field",
    [
        ({"name": "diamond", "per_sid": 9}, "per_sid"),
        ({"name": "chebyshev", "s": "3", "n": 11}, "s"),
        ({"name": "chebyshev", "s": 3, "n": 11.9}, "n"),
        ({"name": "chebyshev", "s": 3, "n": 11, "T": "1"}, "T"),
        ({"name": "circle", "n": 7, "e_len": "0.05"}, "e_len"),
        ({"name": "circle", "n": True}, "n"),
        ({"name": "circle", "n": 7, "s": 3}, "s"),
        ({"name": "split", "n": 8, "colors": "01010101"}, "colors"),
        ({"name": "split", "n": 4, "colors": [0, 1, 2, 1]}, "colors"),
        ({"name": "split", "n": 4, "colors": [0, 1, True, 1]}, "colors"),
        ({"name": "split", "n": 4, "colors": [0, 1, 0.0, 1]}, "colors"),
    ],
)
def test_generator_parameters_are_typed(params, field):
    # A generator-form file's parameters used to be cast with int(), float()
    # or list(), and a key the generator does not know was dropped.
    with pytest.raises(ParameterError, match=f"field {field!r}"):
        scenario_from_dict({"format_version": 1, "generator": params})


def test_generator_parameters_may_be_null():
    params = {"name": "circle", "n": 7, "e_len": None}
    sc = scenario_from_dict({"format_version": 1, "generator": params})
    assert sc.positions(0.3).tobytes() == gen_circle(7).positions(0.3).tobytes()


def test_explicit_points_round_trip(tmp_path):
    sc = KineticScenario(
        points=(linear([0.0, 0.0], [1.0, 0.5], 2.0), linear([1.0, 1.0], [0.0, 1.0], 2.0)),
        k=0.25,
        label="pair",
    )
    path = tmp_path / "pair.json"
    save_scenario(path, sc)
    back = load_scenario(path)
    assert back.k == 0.25 and back.label == "pair"
    for t in (0.0, 0.7, 2.0):
        np.testing.assert_allclose(back.positions(t), sc.positions(t), atol=1e-15)
    # `linear` builds numpy floats; the dict holds Python floats of the same bits
    assert scenario_from_dict(scenario_to_dict(sc)) == sc


def test_format_version_rejected():
    data = scenario_to_dict(gen_split(4))
    data["format_version"] = 99
    with pytest.raises(ParameterError):
        scenario_from_dict(data)


def test_point_count_mismatch_rejected(tmp_path):
    sc = KineticScenario(points=(linear([0.0], [1.0], 1.0), linear([1.0], [0.0], 1.0)))
    data = json.loads(json.dumps(scenario_to_dict(sc)))
    data["n"] = 3
    with pytest.raises(ParameterError, match="field 'n'"):
        scenario_from_dict(data)


@pytest.mark.parametrize(
    "header, field",
    [
        ({"n": 5, "d": 3, "T": "abc"}, "n"),
        ({"n": 7.0}, "n"),
        ({"d": 3}, "d"),
        ({"d": True}, "d"),
        ({"T": 2.0}, "T"),
        ({"T": "1.0"}, "T"),
    ],
)
def test_generator_header_fields_checked(header, field):
    # A generator-form file's top-level n, d and T used to be ignored.
    data = {"format_version": 1, **header, "generator": {"name": "circle", "n": 7}}
    with pytest.raises(ParameterError, match=f"field {field!r}"):
        scenario_from_dict(data)


def test_generator_header_fields_may_match_or_be_null():
    gen = {"name": "chebyshev", "s": 3, "n": 11, "T": 2.0}
    for header in ({"n": 11, "d": 1, "T": 2.0}, {"n": 11, "T": 2}, {"n": None, "T": None}):
        sc = scenario_from_dict({"format_version": 1, **header, "generator": gen})
        assert (sc.n, sc.dim, sc.horizon) == (11, 1, 2.0)


def test_scenario_json_is_versioned_text(tmp_path):
    path = tmp_path / "v.json"
    save_scenario(path, gen_split(4))
    raw = json.loads(path.read_text())
    assert raw["format_version"] == 1
    assert raw["generator"]["name"] == "split"


@pytest.mark.parametrize(
    "sc",
    [
        gen_chebyshev(3, 5, T=2.0, k=0.1),
        gen_rational_bumps(4, 4, k=0.2),
        gen_circle(6, e_len=0.07),
        gen_diamond(5),
        gen_split(6, colors=[0, 0, 1, 0, 1, 1], K=2.5),
    ],
    ids=["chebyshev", "bumps", "circle", "diamond", "split"],
)
def test_generator_save_load_save_byte_identical(tmp_path, sc):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    save_scenario(first, sc)
    save_scenario(second, load_scenario(first))
    assert second.read_bytes() == first.read_bytes()
    data = scenario_to_dict(sc)
    assert json.loads(json.dumps(data)) == data  # plain JSON types in memory too


@pytest.mark.parametrize(
    "sc, digest",
    [
        (gen_chebyshev(3, 5, k=0.1), "b7669147002d5fdc6f58822ba24b6f460548a648d84089e5033494922bf2d0b0"),
        (gen_rational_bumps(4, 4), "b5432ef606e1f04c61fcc2ad14fa934ab6f942f931a5b8a95331efae9712bd0d"),
        (gen_circle(6, e_len=0.07), "9f1d92a6a867f30b4610cb1268a677b903cc59fa9ccafc3cec45ad7a536dcde3"),
        (gen_diamond(5), "3ab47a83fd8d35cf6a4734c35c146e901312d6c897b64af4b7badbf3cf15973c"),
        (gen_split(6), "fdba339d266688369ff22bb4e1225518cac67bf46889f65ffb655ba92ecffae2"),
    ],
    ids=["chebyshev", "bumps", "circle", "diamond", "split"],
)
def test_points_form_bytes_pinned(tmp_path, sc, digest):
    # Each generator's points written out explicitly (no generator in meta):
    # the sha256 of the file, pinned when the coefficients were written as
    # the numpy floats the generators build.
    path = tmp_path / "points.json"
    save_scenario(path, dataclasses.replace(sc, meta={}))
    assert "points" in json.loads(path.read_text())
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_explicit_points_save_load_save_byte_identical(tmp_path):
    from kemst.trajectories import ArcSegment, LinearSegment, Trajectory

    bump = ((0.3,), (1.0, 0.0, 1.0))  # 0.3 / (1 + t^2)
    scripted = Trajectory(
        "scripted",
        2,
        1.0,
        segments=(
            LinearSegment(0.0, 0.5, (1.0, 0.5), (0.5, 0.5)),
            ArcSegment(0.5, 1.0, (0.5, 0.0), 0.5, math.pi / 2, math.pi),
        ),
    )
    sc = KineticScenario(
        points=(
            Trajectory("polynomial", 2, 1.0, coeffs=((0.1, 0.7, -0.2), (0.9,))),
            Trajectory("rational", 2, 1.0, terms=((bump, bump), (bump,)), clamp_unit=True),
            scripted,
        ),
        k=0.05,
        K=3.0,
        morph_mode="rotation",
        label="mixed",
    )
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    save_scenario(first, sc)
    back = load_scenario(first)
    save_scenario(second, back)
    assert second.read_bytes() == first.read_bytes()
    assert back.points == sc.points
    data = scenario_to_dict(sc)
    assert json.loads(json.dumps(data)) == data
    assert scenario_from_dict(data).points == sc.points
