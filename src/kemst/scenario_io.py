"""Scenario files: versioned JSON, either a generator reference or explicit
per-point trajectory data.

Schema (format_version 1):
    {
      "format_version": 1,
      "label": str, "n": int, "d": int, "T": float,
      "k": float|null, "K": float|null, "morph_mode": "slide"|"rotation",
      "generator": {"name": ..., <params>}          # one of these two
      "points": [ {"kind": ..., "clamp_unit": bool}, ... ]
    }

A field of the wrong JSON type raises ParameterError naming it: numbers
must be JSON numbers (a bool is not one) and "n", "d" JSON integers. A
generator parameter must be of the type its generator declares: a JSON
integer for an int, a JSON number for a float, and for split's "colors" a
list of the integers 0 and 1. A key the generator does not declare raises
ParameterError naming it and the generator. A given top-level "n", "d" or
"T" must also equal the built scenario's, in either form.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from .errors import ParameterError
from .scenarios import GENERATORS, KineticScenario
from .trajectories import ArcSegment, LinearSegment, Trajectory

FORMAT_VERSION = 1

_SEGMENT_TYPES = {"linear": LinearSegment, "arc": ArcSegment}
_SEGMENT_TAGS = {cls: tag for tag, cls in _SEGMENT_TYPES.items()}


def _plain(value):
    """A field value in JSON form: tuples become lists."""
    return list(value) if isinstance(value, tuple) else value


def _number(value, field: str) -> float:
    """A JSON number as binary64; anything else, bool included, or an
    integer beyond the float range raises ParameterError naming the field."""
    if type(value) not in (int, float):
        raise ParameterError(f"field {field!r} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ParameterError(f"field {field!r} is too large for a float") from None


def _floats(value, field: str):
    """The inverse for numeric fields: a binary64 number or tuple of them."""
    if isinstance(value, (list, tuple)):
        return tuple(_number(x, field) for x in value)
    return _number(value, field)


def _integer(value, field: str) -> int:
    """A JSON integer; a bool or a float raises ParameterError naming the field."""
    if type(value) is not int:
        raise ParameterError(f"field {field!r} must be an integer, got {value!r}")
    return value


def _colors(value, field: str) -> None:
    """Raise ParameterError naming the field unless value is a JSON list of
    the integers 0 and 1."""
    if type(value) is not list or any(type(c) is not int or c not in (0, 1) for c in value):
        raise ParameterError(f"field {field!r} must be a list of 0s and 1s, got {value!r}")


_PARAM_CHECKS = {int: _integer, float: _number, list: _colors}


def _check_generator_params(name: str, params: dict) -> None:
    """Raise ParameterError unless each of a generator-form file's parameters
    is one its generator declares, of the declared type or None (default)."""
    spec = GENERATORS[name].params
    for key, value in params.items():
        if key not in spec:
            raise ParameterError(f"field {key!r} is not a parameter of generator {name!r}")
        if value is not None:
            _PARAM_CHECKS[spec[key][0]](value, key)


def _traj_to_dict(traj: Trajectory) -> dict:
    out: dict = {"kind": traj.kind}
    if traj.clamp_unit:
        out["clamp_unit"] = True
    if traj.kind == "polynomial":
        out["coeffs"] = [list(c) for c in traj.coeffs]
    elif traj.kind == "rational":
        out["terms"] = [
            [[list(num), list(den)] for num, den in coord] for coord in traj.terms
        ]
    else:
        out["segments"] = [
            {"type": _SEGMENT_TAGS[type(seg)]}
            | {f.name: _plain(getattr(seg, f.name)) for f in dataclasses.fields(seg)}
            for seg in traj.segments
        ]
    return out


def _traj_from_dict(d: dict, dim: int, horizon: float) -> Trajectory:
    kind = d["kind"]
    clamp = d.get("clamp_unit", False)
    if type(clamp) is not bool:
        raise ParameterError(f"field 'clamp_unit' must be true or false, got {clamp!r}")
    if kind == "polynomial":
        return Trajectory(
            kind="polynomial",
            dim=dim,
            horizon=horizon,
            coeffs=tuple(_floats(c, "coeffs") for c in d["coeffs"]),
            clamp_unit=clamp,
        )
    if kind == "rational":
        return Trajectory(
            kind="rational",
            dim=dim,
            horizon=horizon,
            terms=tuple(
                tuple((_floats(num, "terms"), _floats(den, "terms")) for num, den in coord)
                for coord in d["terms"]
            ),
            clamp_unit=clamp,
        )
    if kind == "scripted":
        segs = []
        for seg in d["segments"]:
            cls = _SEGMENT_TYPES.get(seg["type"])
            if cls is None:
                raise ParameterError(f"unknown segment type {seg['type']!r}")
            fields = dataclasses.fields(cls)
            segs.append(cls(**{f.name: _floats(seg[f.name], f.name) for f in fields}))
        return Trajectory(
            kind="scripted", dim=dim, horizon=horizon, segments=tuple(segs),
            clamp_unit=clamp,
        )
    raise ParameterError(f"unknown trajectory kind {kind!r}")


def scenario_to_dict(sc: KineticScenario) -> dict:
    out = {
        "format_version": FORMAT_VERSION,
        "label": sc.label,
        "n": sc.n,
        "d": sc.dim,
        "T": sc.horizon,
        "k": sc.k,
        "K": sc.K,
        "morph_mode": sc.morph_mode,
    }
    gen_name = sc.meta.get("generator")
    if gen_name in GENERATORS:
        # n and T are the scenario's own; generators keep the rest in meta
        known = {"n": sc.n, "T": sc.horizon, **sc.meta}
        params = {key: _plain(known[key]) for key in GENERATORS[gen_name].params}
        out["generator"] = {"name": gen_name, **params}
    else:
        out["points"] = [_traj_to_dict(p) for p in sc.points]
    return out


def build_generator(name: str, **params) -> KineticScenario:
    if name not in GENERATORS:
        raise ParameterError(
            f"unknown generator {name!r}; available: {sorted(GENERATORS)}"
        )
    spec = GENERATORS[name].params
    given = {key: params[key] for key in spec if params.get(key) is not None}
    missing = [key for key, (_type, required) in spec.items() if required and key not in given]
    if missing:
        raise ParameterError(
            f"generator {name!r} needs {', '.join('--' + m for m in missing)}"
        )
    return GENERATORS[name](**{key: spec[key][0](value) for key, value in given.items()})


def scenario_from_dict(d: dict) -> KineticScenario:
    version = d.get("format_version")
    if version != FORMAT_VERSION:
        raise ParameterError(f"unsupported format_version {version!r}")
    if "generator" in d:
        gen = dict(d["generator"])
        name = gen.pop("name")
        if name in GENERATORS:  # else build_generator names it as unknown
            _check_generator_params(name, gen)
        sc = build_generator(name, **gen)
    elif "points" in d:
        dim = _integer(d["d"], "d")
        horizon = _number(d["T"], "T")
        points = tuple(_traj_from_dict(p, dim, horizon) for p in d["points"])
        sc = KineticScenario(points=points)
    else:
        raise ParameterError("scenario needs either 'generator' or 'points'")
    for key, check, built in (("n", _integer, sc.n), ("d", _integer, sc.dim),
                              ("T", _number, sc.horizon)):
        if d.get(key) is not None and check(d[key], key) != built:
            raise ParameterError(f"field {key!r} is {d[key]!r} but the scenario has {built!r}")
    label, k, K = d.get("label", sc.label), d.get("k"), d.get("K")
    if not isinstance(label, str):
        raise ParameterError(f"field 'label' must be a string, got {label!r}")
    return dataclasses.replace(
        sc,
        k=None if k is None else _number(k, "k"),
        K=None if K is None else _number(K, "K"),
        morph_mode=d.get("morph_mode", sc.morph_mode),
        label=label,
    )


def save_scenario(path, sc: KineticScenario) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(scenario_to_dict(sc), indent=2, sort_keys=True) + "\n")


def load_scenario(path) -> KineticScenario:
    """Read a scenario file. A file that cannot be read or parsed, or whose
    fields are missing or of the wrong type, raises ParameterError naming it."""
    try:
        return scenario_from_dict(json.loads(Path(path).read_text()))
    except ParameterError:
        raise
    except (OSError, KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ParameterError(f"{path}: malformed scenario, {type(exc).__name__}: {exc}") from exc
