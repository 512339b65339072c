import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from xml.dom import minidom

import pytest

import kemst
from kemst.cli import main
from kemst.errors import AuditFailure, DomainError
from kemst.event_stability import approximation_audit
from kemst.scenario_io import save_scenario
from kemst.scenarios import gen_chebyshev, gen_stationary


def run_cli(args):
    return main(args)


def test_gen_then_run_event(tmp_path, capsys):
    out = tmp_path / "cheb.json"
    assert run_cli(["gen", "chebyshev", "--s", "3", "--n", "11", "--k", "0.1",
                    "--out", str(out)]) == 0
    assert out.exists()
    assert run_cli(["run-event", str(out), "--out-dir", str(tmp_path)]) == 0
    captured = capsys.readouterr().out.splitlines()
    summary = captured[-1]
    assert summary.startswith("chebyshev_s3_n11 events=")
    events = int(summary.split("events=")[1].split()[0])
    assert events <= math.ceil(9 / 0.1)
    csv_path = tmp_path / "chebyshev_s3_n11_event.csv"
    header = csv_path.read_text().splitlines()[0]
    assert header == "time,event_type,tree_length,opt_length,ratio,displacement_since_ref"


def test_run_event_stationary_summary(tmp_path, capsys):
    sc_path = tmp_path / "still.json"
    save_scenario(sc_path, gen_stationary([[0.2, 0.2], [0.8, 0.6]], k=0.1))
    assert run_cli(["run-event", str(sc_path), "--out-dir", str(tmp_path)]) == 0
    assert "events=0" in capsys.readouterr().out


def test_oracle_on_generator_name(tmp_path, capsys, pinned):
    assert run_cli([
        "oracle", "--scenario", "circle", "--n", "7", "--mode", "slide",
        "--time-steps", str(pinned["settings"]["oracle_time_steps"]),
        "--e-len", str(pinned["settings"]["oracle_e_len"]),
    ]) == 0
    out = capsys.readouterr().out
    value = float(out.split("oracle_ratio=")[1])
    assert value == pytest.approx(pinned["circle_oracle_slide"]["7"], rel=1e-6)


def test_run_topo_diamond(tmp_path, capsys):
    assert run_cli([
        "run-topo", "diamond", "--per-side", "4", "--mode", "rotation",
        "--samples", "8", "--grid", "129", "--out-dir", str(tmp_path),
    ]) == 0
    out = capsys.readouterr().out
    ratio = float(out.split("max_ratio=")[1].split()[0])
    assert ratio >= (10 - 2 * math.sqrt(2)) / (9 - 2 * math.sqrt(2)) - 1e-6
    csv_path = tmp_path / "diamond_q4_topo.csv"
    assert csv_path.read_text().splitlines()[0] == "time,tree_length,opt_length,ratio"


def test_run_lipschitz_split(tmp_path, capsys):
    assert run_cli([
        "run-lipschitz", "split", "--n", "16", "--K", "0.02",
        "--samples", "9", "--out-dir", str(tmp_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "events=0" in out  # no slide completes at this budget
    csv_path = tmp_path / "split_n16_lipschitz.csv"
    assert csv_path.read_text().splitlines()[0] == (
        "time,active_slides,completed_slides,tree_length,opt_length,ratio"
    )


def test_audit_subcommand_passes(tmp_path, capsys):
    sc_path = tmp_path / "c.json"
    assert run_cli(["gen", "chebyshev", "--s", "2", "--n", "6", "--k", "0.2",
                    "--out", str(sc_path)]) == 0
    assert run_cli(["audit", str(sc_path), "--samples", "16"]) == 0
    assert "max_slack" in capsys.readouterr().out


def test_audit_failure_is_reported_and_later_scenarios_run(tmp_path, monkeypatch, capsys):
    paths = []
    for s in (2, 3, 4):
        paths.append(str(tmp_path / f"c{s}.json"))
        save_scenario(paths[-1], gen_chebyshev(s, 5, k=0.2))
    assert run_cli(["audit", *paths, "--samples", "8"]) == 0
    passing = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in passing] == [
        "chebyshev_s2_n5", "chebyshev_s3_n5", "chebyshev_s4_n5"
    ]

    def fail_second(result, sc):
        if sc.label == "chebyshev_s3_n5":
            raise AuditFailure("additive bound violated", record="rec")
        return approximation_audit(result, sc)

    monkeypatch.setattr("kemst.cli.approximation_audit", fail_second)
    assert run_cli(["audit", *paths, "--samples", "8"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        passing[0],
        "chebyshev_s3_n5 AUDIT FAIL: additive bound violated record=rec",
        passing[2],
    ]


def test_certify_diamond_pinned(capsys, pinned):
    want = pinned["diamond_certificate_q6"]
    assert run_cli(["certify-diamond", "--per-side", "6"]) == 0
    assert capsys.readouterr().out == (
        f"diamond_q6 blocking={want['blocking']:.9g} "
        f"emst={want['emst']:.9g} ratio={want['ratio']:.9g}\n"
    )


def test_bad_flags_exit_two(tmp_path):
    for argv in (["run-event"],  # missing scenario
                 ["gen", "chebyshev", "--s", "2", "--n", "5", "--morph-mode", "rotation"]):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 2
    assert run_cli(["run-event", "no-such-generator", "--out-dir", str(tmp_path)]) == 2


def test_svg_emission(tmp_path):
    sc_path = tmp_path / "c.json"
    run_cli(["gen", "chebyshev", "--s", "2", "--n", "5", "--k", "0.2",
             "--out", str(sc_path)])
    run_cli(["run-event", str(sc_path), "--out-dir", str(tmp_path), "--svg"])
    svg = (tmp_path / "chebyshev_s2_n5_event.svg").read_text()
    assert svg.startswith("<svg") and "<polyline" in svg


def test_svg_title_is_escaped(tmp_path):
    label = "a&b<c>"
    assert run_cli(["run-event", "chebyshev", "--s", "3", "--n", "5", "--k", "0.1",
                    "--label", label, "--out-dir", str(tmp_path), "--svg"]) == 0
    doc = minidom.parse(str(tmp_path / f"{label}_event.svg"))
    title = doc.getElementsByTagName("text")[0]
    assert title.getAttribute("font-size") == "14"
    assert title.firstChild.data == label


def test_label_not_a_plain_file_name_writes_nothing(tmp_path, monkeypatch, capsys):
    # The label names the output files: one with a separator would write
    # outside --out-dir (or the working directory for `gen`), no file name
    # holds a NUL byte, and "", "." and ".." are not names of their own: a
    # run would write "_event.csv", "._event.csv" or ".._event.csv".
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    still = gen_stationary([[0.2, 0.2], [0.8, 0.6]], k=0.1)
    labels = {"ok": "ok", "escape": "../escaped", "nul": "a\0b", "empty": "", "dot": ".",
              "dotdot": ".."}
    for name, label in labels.items():
        save_scenario(tmp_path / f"{name}.json", dataclasses.replace(still, label=label))
    before = sorted(tmp_path.rglob("*"))
    for argv in (
        ["run-event", "chebyshev", "--s", "2", "--n", "5", "--k", "0.2",
         "--label", "../escaped", "--out-dir", "out", "--svg"],
        *(["run-event", str(tmp_path / f"{name}.json"), "--out-dir", "out"]
          for name in labels if name != "ok"),
        ["gen", "chebyshev", "--s", "2", "--n", "5", "--label", ""],
        ["gen", "chebyshev", "--s", "2", "--n", "5", "--label", ".."],
        # a good scenario first must not be run before the bad one is seen
        ["run-event", str(tmp_path / "ok.json"), str(tmp_path / "escape.json"),
         "--out-dir", "out"],
        # nor audited and reported
        ["audit", str(tmp_path / "ok.json"), str(tmp_path / "escape.json")],
        ["gen", "chebyshev", "--s", "2", "--n", "5", "--label", "sub/escaped"],
    ):
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert "label must be a plain file name" in captured.err
        assert captured.out == ""
    assert sorted(tmp_path.rglob("*")) == before


def test_run_lipschitz_svg(tmp_path):
    assert run_cli(["run-lipschitz", "split", "--n", "16", "--K", "0.02", "--samples", "9",
                    "--out-dir", str(tmp_path), "--svg"]) == 0
    svg = (tmp_path / "split_n16_lipschitz.svg").read_text()
    assert svg.startswith("<svg") and "<polyline" in svg


@pytest.mark.parametrize("flag", [["--svg"], ["--jobs", "2"], ["--out-dir", "x"]])
def test_audit_rejects_output_flags(tmp_path, flag):
    # audit writes no files, so it takes none of the run commands' output flags
    with pytest.raises(SystemExit) as exc:
        run_cli(["audit", "chebyshev", "--s", "2", "--n", "5", "--k", "0.2", *flag])
    assert exc.value.code == 2


def test_run_topo_bound_violation_exits_one(tmp_path, inflated_plans, capsys):
    assert run_cli(["run-topo", "diamond", "--per-side", "4", "--mode", "rotation",
                    "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("AUDIT FAIL: rotation morph exceeded 4/3")


def test_jobs_parallel_runs(tmp_path, capsys):
    paths = []
    for s in (2, 3):
        p = tmp_path / f"c{s}.json"
        run_cli(["gen", "chebyshev", "--s", str(s), "--n", "5", "--k", "0.2",
                 "--out", str(p)])
        paths.append(str(p))
    capsys.readouterr()
    assert run_cli(["run-event", *paths, "--out-dir", str(tmp_path), "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert "chebyshev_s2_n5" in out and "chebyshev_s3_n5" in out


def test_cli_import_leaves_out_the_process_pool():
    # Only --jobs > 1 needs the pool; a cold CLI start should not load it.
    code = "import sys, kemst.cli; print('concurrent.futures.process' in sys.modules)"
    env = os.environ | {"PYTHONPATH": str(Path(kemst.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "False\n"


def test_every_generator_reachable_via_gen(tmp_path):
    flags = {
        "chebyshev": ["--s", "3", "--n", "5"],
        "rational-bumps": ["--s", "4", "--n", "4"],
        "circle": ["--n", "6"],
        "diamond": ["--per-side", "4"],
        "split": ["--n", "6"],
    }
    from kemst.scenarios import GENERATORS

    assert set(flags) == set(GENERATORS)
    for name, extra in flags.items():
        out = tmp_path / f"{name}.json"
        assert run_cli(["gen", name, *extra, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["generator"]["name"] == name


def test_out_dir_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("KEMST_OUT_DIR", str(tmp_path / "envout"))
    sc_path = tmp_path / "c.json"
    run_cli(["gen", "chebyshev", "--s", "2", "--n", "5", "--k", "0.2",
             "--out", str(sc_path)])
    run_cli(["run-event", str(sc_path)])
    assert (tmp_path / "envout" / "chebyshev_s2_n5_event.csv").exists()


def test_size_error_exits_two(capsys):
    # diamond has 26 points, above the oracle's cap of 7
    assert run_cli(["oracle", "--scenario", "diamond"]) == 2
    assert capsys.readouterr().err.startswith("error: oracle capped at n=7")


def test_negative_time_steps_exits_two(capsys):
    assert run_cli(["oracle", "--scenario", "circle", "--n", "5", "--time-steps", "-1"]) == 2
    assert capsys.readouterr().err == "error: time_steps must be >= 0\n"


def test_unsupported_kind_exits_two(tmp_path, capsys):
    assert run_cli(["run-lipschitz", "circle", "--n", "8", "--K", "1",
                    "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: the budgeted regime")


def test_domain_error_exits_two(tmp_path, monkeypatch, capsys):
    # No command-line input reaches a DomainError, so the regime raises one.
    def out_of_horizon(*args, **kwargs):
        raise DomainError("t=2 outside [0, 1]")

    monkeypatch.setattr("kemst.cli.run_event_regime", out_of_horizon)
    assert run_cli(["run-event", "circle", "--n", "5", "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: t=2 outside [0, 1]\n"


def test_svg_skipped_on_empty_trace(tmp_path, capsys):
    sc_path = tmp_path / "still.json"
    save_scenario(sc_path, gen_stationary([[0.2, 0.2], [0.8, 0.6]], k=0.1))
    assert run_cli(["run-event", str(sc_path), "--samples", "0", "--svg",
                    "--out-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "stationary events=0 max_ratio=1\n"
    csv_path = tmp_path / "stationary_event.csv"
    assert csv_path.read_text().splitlines() == [
        "time,event_type,tree_length,opt_length,ratio,displacement_since_ref"
    ]
    assert not (tmp_path / "stationary_event.svg").exists()


@pytest.mark.parametrize("grid", ["-1", "0", "1"])
def test_short_grid_exits_two(tmp_path, capsys, grid):
    assert run_cli(["run-topo", "circle", "--n", "5", "--grid", grid,
                    "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: grid must be >= 2\n"


@pytest.mark.parametrize(
    "cmd, flags, name",
    [
        ("run-event", ["chebyshev", "--s", "3", "--n", "5", "--k", "0.2"], "samples"),
        ("run-topo", ["circle", "--n", "5"], "samples"),
        ("run-lipschitz", ["split", "--n", "8", "--K", "1"], "trace_samples"),
    ],
)
def test_negative_samples_exits_two(tmp_path, capsys, cmd, flags, name):
    args = [cmd, *flags, "--out-dir", str(tmp_path)]
    assert run_cli(args + ["--samples", "-1"]) == 2
    assert capsys.readouterr().err == f"error: {name} must be >= 0\n"
    assert run_cli(args + ["--samples", "0"]) == 0
    assert " events=" in capsys.readouterr().out


@pytest.mark.parametrize(
    "cmd, flags, message",
    [
        ("run-event", ["chebyshev", "--s", "3", "--n", "5", "--k", "inf"],
         "scenario needs a positive, finite displacement budget k"),
        ("run-event", ["chebyshev", "--s", "3", "--n", "5", "--k", "nan"],
         "scenario needs a positive, finite displacement budget k"),
        ("run-lipschitz", ["split", "--n", "8", "--K", "nan"],
         "needs a positive, finite speed budget K"),
    ],
)
def test_non_finite_budget_exits_two(tmp_path, capsys, cmd, flags, message):
    assert run_cli([cmd, *flags, "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("k", ["1e200", "1e-200"])
@pytest.mark.parametrize("cmd", ["run-event", "audit"])
def test_budget_past_float_range_exits_two(tmp_path, capsys, monkeypatch, cmd, k):
    # Such a k kept the displacement scan running for over 60 s.
    monkeypatch.chdir(tmp_path)
    assert run_cli([cmd, "chebyshev", "--s", "3", "--n", "5", "--k", k]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: displacement budget k={float(k)!r} is out of range")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("horizon", ["nan", "inf"])
def test_gen_non_finite_horizon_exits_two(tmp_path, capsys, horizon):
    out = tmp_path / "cheb.json"
    args = ["gen", "chebyshev", "--s", "3", "--n", "5", "--T", horizon, "--k", "0.1"]
    assert run_cli(args + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: horizon must be positive and finite\n"
    assert not out.exists()


_STILL = {
    "format_version": 1, "label": "still", "n": 2, "d": 2, "T": 1.0, "k": 0.1,
    "K": None, "morph_mode": "slide",
    "points": [{"kind": "polynomial", "coeffs": [[0.2], [0.2]]},
               {"kind": "polynomial", "coeffs": [[0.8], [0.6]]}],
}


def _still(**fields):
    return json.dumps(_STILL | fields)


def _generator(header=None, **params):
    return json.dumps({"format_version": 1, **(header or {}), "generator": params})


@pytest.mark.parametrize("text,field", [
    (_still(k="0.1"), "k"),
    (_still(label=5), "label"),
    (_still(T="abc"), "T"),
    (_still(points=[{"kind": "polynomial", "coeffs": [["a"], [0.2]]}, _STILL["points"][1]]),
     "coeffs"),
    (_still(points=[{"coeffs": [[0.2], [0.2]]}, _STILL["points"][1]]), None),
    (_still(T="1.0"), "T"),
    (_still(T=10**400), "T"),
    (_still(points=[_STILL["points"][0] | {"clamp_unit": "no"}, _STILL["points"][1]]),
     "clamp_unit"),
    (_still(d=2.5), "d"),
    (_still(n=True), "n"),
    (_generator(name="split", n="abc"), "n"),
    (_generator(name="diamond", per_sid=9), "per_sid"),
    (_generator(name="chebyshev", s="3", n=11.9), "s"),
    (_generator(name="chebyshev", s=3, n=11.9), "n"),
    (_generator(name="circle", n=7, e_len="0.05"), "e_len"),
    (_generator(name="circle", n=7, s=3), "s"),
    (_generator(name="split", n=8, colors="01010101"), "colors"),
    (_generator({"n": 5, "d": 3, "T": "abc"}, name="circle", n=7), "n"),
    (_generator({"T": 2.0}, name="chebyshev", s=3, n=11), "T"),
    (_generator({"n": 7, "T": "abc"}, name="circle", n=7), "T"),
    (_generator({"d": 3}, name="circle", n=7), "d"),
    (json.dumps([_STILL]), None),
    ('{"format_version": 1,', None),
], ids=["k-string", "label-int", "T-string", "coeff-string", "no-kind",
        "T-numeric-string", "T-huge-int", "clamp-string", "d-float", "n-bool",
        "generator-n-string", "generator-unknown-key", "generator-s-string",
        "generator-n-float", "generator-e_len-string", "generator-foreign-key",
        "generator-colors-string", "generator-header-n", "generator-header-T",
        "generator-header-T-string", "generator-header-d", "top-level-array", "truncated"])
def test_malformed_scenario_file_exits_two(tmp_path, capsys, text, field):
    # Exit 1 means AUDIT FAIL, so a file that cannot be read as a scenario
    # must be an argument error, not a traceback. A field of the wrong type
    # is named in the message.
    path = tmp_path / "bad.json"
    path.write_text(text)
    before = sorted(tmp_path.rglob("*"))
    for argv in (["audit", str(path)],
                 ["run-event", str(path), "--out-dir", str(tmp_path / "out")]):
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert field is None or f"field {field!r}" in captured.err
        assert captured.out == ""
    assert sorted(tmp_path.rglob("*")) == before


def _scripted_file(d, *segments):
    """A two-point scripted scenario file: a fixed point and one moving along
    `segments` (each a dict of segment fields)."""
    still = {"type": "linear", "t0": 0.0, "t1": 1.0, "start": [0.5] * d, "end": [0.5] * d}
    return json.dumps({
        "format_version": 1, "label": "scripted", "n": 2, "d": d, "T": 1.0, "k": None,
        "K": None, "morph_mode": "rotation",
        "points": [{"kind": "scripted", "segments": [still]},
                   {"kind": "scripted", "segments": list(segments)}],
    })


def _line(t0, t1, start, end):
    return {"type": "linear", "t0": t0, "t1": t1, "start": start, "end": end}


@pytest.mark.parametrize("text", [
    _scripted_file(2, _line(0.0, 1.0, [0.1, 0.2, 0.3], [0.7, 0.4, 0.5])),
    _scripted_file(2, _line(0.0, 1.0, [0.5], [0.7, 0.4])),
    _scripted_file(1, {"type": "arc", "t0": 0.0, "t1": 1.0, "center": [0.5, 0.5],
                       "radius": 0.25, "angle0": 0.0, "angle1": 2.0}),
    _scripted_file(2, _line(0.0, math.nan, [0.1, 0.2], [0.7, 0.4]),
                   _line(math.nan, 1.0, [0.7, 0.4], [0.7, 0.4])),
    _scripted_file(2, _line(0.0, 1.0, [math.inf, 0.2], [0.7, 0.4])),
    _scripted_file(2, _line(0.0, 0.6, [0.1, 0.2], [0.7, 0.4]),
                   _line(0.6, 0.4, [0.7, 0.4], [0.5, 0.5]),
                   _line(0.4, 1.0, [0.7, 0.4], [0.5, 0.5])),
], ids=["3d-in-2d", "short-point", "arc-in-1d", "nan-time", "inf-coordinate", "backwards"])
def test_bad_scripted_segments_exit_two(tmp_path, capsys, text):
    # Each used to load: run-topo crashed with a traceback at its first
    # array evaluation, or ran on a meaningless motion and exited 0.
    path = tmp_path / "bad.json"
    path.write_text(text)
    argv = ["run-topo", str(path), "--out-dir", str(tmp_path / "out")]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
    assert not (tmp_path / "out").exists()
