import argparse
import json
import math

import numpy as np
import pytest

from declat import generators
from declat.cli import build_parser, main
from declat.hodge import MaterialMap, assemble_galerkin_dual, read_coo
from declat.mesh import load_mesh
from declat.whitney import WhitneyBasis


@pytest.fixture
def kuhn_file(tmp_path):
    path = tmp_path / "kuhn.mesh"
    assert main(["genmesh", "--kind", "kuhn", "--out", str(path)]) == 0
    return path


@pytest.fixture
def refused(tmp_path, monkeypatch, capsys):
    """``refused(argv, flag)`` checks that ``main(argv + ["--out", ...])`` exits 2
    with ``flag`` named in the error line on stderr, and that no mesh was read
    or built, no sweep ran and nothing was written."""
    def no_work(*args, **kwargs):
        raise AssertionError("work ran for a refused flag")

    for target in ("declat.cli.load_mesh", "declat.cli.reflection_sweep",
                   "declat.generators.box_mesh", "declat.generators.annulus_mesh"):
        monkeypatch.setattr(target, no_work)

    def check(argv, flag):
        out = tmp_path / "out.txt"
        with pytest.raises(SystemExit) as exited:
            main([*argv, "--out", str(out)])
        error = capsys.readouterr().err.splitlines()[-1]
        assert exited.value.code == 2
        assert error.startswith(f"declat {argv[0]}: error: ") and flag in error, error
        assert not out.exists()

    return check


_PML_GUIDE = ["pml", "--sweep", "--nx", "2", "--nz", "10", "--length", "2.5",
              "--pml-start", "1.5", "--window-lo", "0.9", "--window-hi", "1.4"]

# Every numeric flag of every subcommand, with each bad value that applies.
_ALL = ("0", "-1", "nan", "inf", "x")
_NEGATIVE = ("-1", "nan", "inf", "x")  # 0 is a valid seed or omega_max
_NOT_FINITE = ("nan", "inf", "-inf", "x")  # any finite number is valid
_BAD_FLAGS = {
    "genmesh": {"--n": _ALL, "--ny": _ALL, "--nz": _ALL, "--segments": _ALL + ("2",),
                "--lx": _ALL, "--ly": _ALL, "--lz": _ALL},
    "assemble": {"--eps": _ALL, "--mu": _ALL},
    "simulate": {"--eps": _ALL, "--mu": _ALL, "--dt": _ALL + ("-0.1",), "--dt-factor": _ALL,
                 "--steps": _ALL + ("-3",), "--trace-every": _ALL, "--seed": _NEGATIVE},
    "eigen": {"--eps": _ALL, "--mu": _ALL, "--count": _ALL + ("-2",), "--sigma": _NOT_FINITE},
    "pml": {"--nx": _ALL, "--nz": _ALL, "--length": _ALL,
            "--omega-factor": _ALL + ("0.9", "1.0"),
            "--omega-maxes": _NEGATIVE + ("0,x", ",", "0,inf"),
            "--pml-start": _ALL + ("1.2", "100"), "--source-z": _ALL + ("3.0",),
            "--window-lo": _NOT_FINITE + ("-0.1", "1.4"),
            "--window-hi": _NOT_FINITE + ("0", "4.2")},
    "pic": {"--paths": _ALL + ("-3",), "--seed": _NEGATIVE, "--charge": _NOT_FINITE,
            "--tau": _ALL},
}
_WHERE = {"genmesh": ["genmesh", "--kind", "box"], "pml": _PML_GUIDE}


@pytest.mark.parametrize("command, flag, value", [
    (command, flag, value)
    for command, flags in _BAD_FLAGS.items() for flag, values in flags.items() for value in values])
def test_bad_flag_exits_2_before_work(refused, command, flag, value):
    where = _WHERE.get(command, [command, "--mesh", "m.mesh"])
    refused([*where, f"{flag}={value}"], flag)


def test_every_numeric_flag_has_a_rule_and_a_row():
    # A bare int or float type would let 0, a negative, nan or inf through.
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert len(sub.choices) == 8
    typed = {}
    for command, parser in sub.choices.items():
        for action in parser._actions:
            assert action.type not in (int, float), (command, action.dest)
            # The malformed --hodge-inverse specs are tested in test_maxwell.py.
            if action.type is not None and action.dest != "hodge_inverse":
                typed.setdefault(command, set()).add(action.option_strings[0])
    assert typed == {command: set(flags) for command, flags in _BAD_FLAGS.items()}


def test_genmesh_kinds(tmp_path):
    for kind in ("tet1", "kuhn", "annulus"):
        out = tmp_path / f"{kind}.mesh"
        assert main(["genmesh", "--kind", kind, "--out", str(out)]) == 0
        assert out.read_text().startswith("declat-mesh 1")
    out = tmp_path / "box.mesh"
    assert main(["genmesh", "--kind", "box", "--n", "2", "--out", str(out)]) == 0


def test_genmesh_box_reads_each_axis_count(tmp_path):
    out = tmp_path / "box.mesh"
    assert main(["genmesh", "--kind", "box", "--n", "2", "--ny", "1", "--nz", "3",
                 "--out", str(out)]) == 0
    assert load_mesh(out).n_tets == 6 * 2 * 1 * 3


@pytest.mark.parametrize("flags, flag", [(["--kind", "box", "--n", "0"], "--n"),
                                         (["--kind", "box", "--n", "2", "--ny", "0"], "--ny"),
                                         (["--kind", "box", "--nz", "0"], "--nz"),
                                         (["--kind", "box", "--nz", "-1"], "--nz"),
                                         (["--kind", "annulus", "--segments", "2"], "--segments")])
def test_genmesh_rejects_counts_before_work(refused, flags, flag):
    refused(["genmesh", *flags], flag)


def test_main_calls_share_one_parser_and_parse_afresh(kuhn_file, tmp_path, monkeypatch):
    # The second call omits --json, which must be back at its default.
    parser = build_parser()
    seen = []
    parse = parser.parse_args
    monkeypatch.setattr(parser, "parse_args", lambda argv: seen.append(argv) or parse(argv))
    a, b = tmp_path / "a.json", tmp_path / "b.txt"
    assert main(["audit", "--mesh", str(kuhn_file), "--json", "--out", str(a)]) == 0
    assert main(["audit", "--mesh", str(kuhn_file), "--out", str(b)]) == 0
    assert len(seen) == 2 and build_parser() is parser
    assert json.loads(a.read_text())["schema"] == "declat-audit-1"
    assert "overall: PASS" in b.read_text() and not b.read_text().startswith("{")


def test_audit_clean_mesh_exit_zero(kuhn_file, tmp_path):
    out = tmp_path / "report.txt"
    assert main(["audit", "--mesh", str(kuhn_file), "--out", str(out)]) == 0
    assert "overall: PASS" in out.read_text()


def test_audit_json_flag(kuhn_file, tmp_path):
    out = tmp_path / "report.json"
    assert main(["audit", "--mesh", str(kuhn_file), "--json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == "declat-audit-1" and payload["passed"]


def test_audit_corrupt_mesh_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.mesh"
    # Sliver-dominated mesh: the metric section fails its margin.
    from declat.mesh import write_mesh

    write_mesh(generators.sliver_mesh(delta=1e-13), bad)
    code = main(["audit", "--mesh", str(bad), "--json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    failed = [
        c["name"]
        for s in payload["sections"]
        for c in s["checks"]
        if not c["passed"]
    ]
    assert failed  # the failing check is named


def test_assemble_writes_coo(kuhn_file, tmp_path):
    out = tmp_path / "h.coo"
    assert main(["assemble", "--mesh", str(kuhn_file), "--out", str(out)]) == 0
    assert out.read_text().startswith("declat-coo 19 19")


def test_assemble_galerkin_pair(kuhn_file, tmp_path):
    out = tmp_path / "h.coo"
    assert main(["assemble", "--mesh", str(kuhn_file), "--which", "galerkin",
                 "--eps", "2.0", "--mu", "1.5", "--out", str(out)]) == 0
    pair = assemble_galerkin_dual(load_mesh(kuhn_file), MaterialMap(eps=2.0, mu=1.5))
    for suffix, H in zip((".eps_inv.coo", ".mu.coo"), pair):
        back = read_coo(tmp_path / f"h{suffix}")
        assert back.shape == H.shape
        assert np.array_equal(back.toarray(), H.toarray())


@pytest.mark.parametrize("flag, value", [("--trace-every", "0"), ("--steps", "0"),
                                         ("--steps", "-3")])
def test_simulate_rejects_counts_below_one(refused, flag, value):
    refused(["simulate", "--mesh", "m.mesh", flag, value], flag)


@pytest.mark.parametrize("argv, flag", [(["pic", "--paths", "-3"], "--paths"),
                                        (["pic", "--paths", "0"], "--paths"),
                                        (["eigen", "--count", "0"], "--count"),
                                        (["eigen", "--count", "-2"], "--count")])
def test_pic_and_eigen_reject_counts_below_one(refused, argv, flag):
    refused(argv + ["--mesh", "m.mesh"], flag)


@pytest.mark.parametrize("argv, flag", [(["simulate", "--dt", "-0.1"], "--dt"),
                                        (["simulate", "--dt", "0"], "--dt"),
                                        (["simulate", "--dt", "nan"], "--dt"),
                                        (["simulate", "--dt", "inf"], "--dt"),
                                        (["simulate", "--dt-factor", "0"], "--dt-factor"),
                                        (["simulate", "--dt-factor", "nan"], "--dt-factor"),
                                        (["pic", "--tau", "0"], "--tau"),
                                        (["pic", "--tau", "-1"], "--tau"),
                                        (["pic", "--tau", "nan"], "--tau")])
def test_time_steps_rejected_before_work(refused, argv, flag):
    refused(argv + ["--mesh", "m.mesh"], flag)


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("command, flag", [(command, flag)
                                           for command in ("simulate", "eigen", "assemble")
                                           for flag in ("--eps", "--mu")]
                         + [("genmesh", flag) for flag in ("--lx", "--ly", "--lz")])
def test_materials_and_lengths_rejected_before_work(refused, command, flag, value):
    where = ["--kind", "box"] if command == "genmesh" else ["--mesh", "m.mesh"]
    refused([command, *where, f"{flag}={value}"], flag)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_eigen_rejects_sigma_that_is_not_finite(refused, value):
    refused(["eigen", f"--sigma={value}", "--mesh", "m.mesh"], "--sigma")


def test_simulate_trace_and_force(kuhn_file, tmp_path):
    out = tmp_path / "trace.csv"
    assert (
        main(
            ["simulate", "--mesh", str(kuhn_file), "--steps", "100",
             "--out", str(out), "--seed", "3"]
        )
        == 0
    )
    lines = out.read_text().splitlines()
    assert lines[0].startswith("step,time_s,H_total_J")
    assert len(lines) == 102  # header + steps + initial sample

    with pytest.raises(SystemExit):
        main(
            ["simulate", "--mesh", str(kuhn_file), "--steps", "10",
             "--dt", "100.0", "--out", str(out)]
        )


def _repeated_vertex(path):
    path.write_text("declat-mesh 1\nvertices 4\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n"
                    "tets 1\n0 1 2 2\n")


def _out_of_range_vertex(path):
    path.write_text("declat-mesh 1\nvertices 4\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n"
                    "tets 2\n0 1 2 3\n0 1 2 9\n")


def _two_kuhn_cubes(path):
    from declat.mesh import write_mesh
    from test_exact import disjoint_union

    write_mesh(disjoint_union(generators.kuhn_cube(), generators.kuhn_cube(), 5.0), path)


@pytest.mark.parametrize("command, write, message", [
    ("audit", _repeated_vertex, "tet [0, 1, 2, 2] at row 0"),
    ("audit", _out_of_range_vertex,
     "tet [0, 1, 2, 9] at row 1 references vertex 9, out of range for 4 vertices"),
    ("dof", _two_kuhn_cubes, "dof audit requires a connected mesh"),
    ("eigen", _two_kuhn_cubes, "dof audit requires a connected mesh"),
])
def test_bad_mesh_exits_one_without_traceback(tmp_path, capsys, monkeypatch, command, write,
                                              message):
    # A string exit code is printed alone, with no traceback, and exits 1,
    # before any eigen solve.
    path = tmp_path / "bad.mesh"
    write(path)
    solves = []
    monkeypatch.setattr("declat.cli.eigenmodes", lambda *args, **kwargs: solves.append(args))
    with pytest.raises(SystemExit) as exited:
        main([command, "--mesh", str(path)])
    assert isinstance(exited.value.code, str)
    assert exited.value.code.startswith(f"declat {command}: ") and message in exited.value.code
    assert capsys.readouterr().out == "" and solves == []


@pytest.mark.parametrize("flags", [["--steps", "1"], ["--steps", "4", "--trace-every", "4"]])
def test_simulate_says_drift_not_measured_from_one_sample(kuhn_file, tmp_path, capsys, flags):
    out = tmp_path / "trace.csv"
    assert main(["simulate", "--mesh", str(kuhn_file), *flags, "--out", str(out)]) == 0
    assert "invariant drift/step not measured" in capsys.readouterr().out


def test_simulate_deterministic(kuhn_file, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        main(
            ["simulate", "--mesh", str(kuhn_file), "--steps", "50",
             "--seed", "11", "--out", str(out)]
        )
    assert a.read_bytes() == b.read_bytes()


def test_eigen_json(kuhn_file, tmp_path):
    out = tmp_path / "modes.json"
    assert main(["eigen", "--mesh", str(kuhn_file), "--count", "1",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == "declat-eigen-2"
    assert payload["rank_certified"] is True and payload["notes"] == []
    assert payload["zero_mode_count_certified"] == 0
    assert payload["nonzero_mode_count_certified"] == 1


def test_eigen_json_without_rank_proof(kuhn_file, tmp_path, monkeypatch):
    # A peel one short of the curl rank proves no mode count: both are
    # null, and the note names the open bound.
    from declat import exact

    peel_rank = exact._peel_rank
    monkeypatch.setattr(exact, "_peel_rank", lambda *args: (peel_rank(*args)[0] - 1, "peel"))
    out = tmp_path / "modes.json"
    assert main(["eigen", "--mesh", str(kuhn_file), "--count", "1",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["rank_certified"] is False
    assert payload["zero_mode_count_certified"] is None
    assert payload["nonzero_mode_count_certified"] is None
    assert [n for n in payload["notes"] if n.startswith("curl rank uncertified")
            and "N_E - r0" in n and "N_F - r2" in n]


def test_dof_exit_and_schema(tmp_path):
    ann = tmp_path / "ann.mesh"
    main(["genmesh", "--kind", "annulus", "--segments", "8", "--out", str(ann)])
    out = tmp_path / "dof.json"
    assert main(["dof", "--mesh", str(ann), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["theta_E"] == payload["theta_B"]
    assert payload["harmonic_dimensions"]["h2_rel"] == 1


def test_pic_conservation_exit_zero(tmp_path):
    out = tmp_path / "cons.json"
    assert main(["pic", "--paths", "300", "--seed", "7", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["max_residual_relative"] <= 1e-12


@pytest.mark.parametrize("command", ["simulate", "pic"])
def test_negative_seed_rejected_before_work(refused, command):
    refused([command, "--mesh", "m.mesh", "--seed", "-1"], "--seed")


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_pic_rejects_charge_that_is_not_finite(refused, value):
    refused(["pic", f"--charge={value}", "--mesh", "m.mesh"], "--charge")


def test_pic_rejects_charge_over_tau_that_overflows(refused):
    # Each is finite, but q / tau is inf: every residual would be NaN.
    refused(["pic", "--charge", "1e300", "--tau", "1e-10", "--mesh", "m.mesh"],
            "--charge/--tau")


def test_pic_reports_nan_residual_and_fails(tmp_path, monkeypatch):
    # A NaN among finite residuals must not be dropped.
    out = tmp_path / "cons.json"
    residuals = iter([0.0, math.nan, 0.0])
    monkeypatch.setattr("declat.cli.verify_conservation", lambda *args: next(residuals))
    assert main(["pic", "--paths", "3", "--out", str(out)]) == 1
    assert math.isnan(json.loads(out.read_text())["max_residual"])


def test_pic_on_convex_mesh_locates_no_point(tmp_path, monkeypatch):
    # Every path's start tet comes from the walk in from its grid seed,
    # which on a convex mesh never needs point location or bary.
    mesh = tmp_path / "box3.mesh"
    assert main(["genmesh", "--kind", "box", "--n", "3", "--out", str(mesh)]) == 0
    calls = {"locate": 0, "bary": 0}
    for name in calls:
        method = getattr(WhitneyBasis, name)

        def counted(self, *args, _name=name, _method=method, **kwargs):
            calls[_name] += 1
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(WhitneyBasis, name, counted)
    out = tmp_path / "cons.json"
    assert main(["pic", "--mesh", str(mesh), "--paths", "50", "--out", str(out)]) == 0
    assert calls == {"locate": 0, "bary": 0}


@pytest.mark.parametrize("flags, flag", [(["--omega-factor", "0.9"], "--omega-factor"),
                                         (["--omega-factor", "1.0"], "--omega-factor"),
                                         (["--omega-factor", "nan"], "--omega-factor"),
                                         (["--source-z", "3.0"], "--source-z"),
                                         (["--source-z", "0"], "--source-z"),
                                         (["--window-lo", "1.2", "--window-hi", "4.2"], "--window-hi"),
                                         (["--window-lo", "-0.1"], "--window-lo"),
                                         (["--nx", "0"], "--nx"),
                                         (["--nz", "0"], "--nz"),
                                         (["--length", "inf"], "--length"),
                                         (["--pml-start", "nan"], "--pml-start"),
                                         (["--pml-start", "100"], "--pml-start"),
                                         (["--pml-start", "-1"], "--pml-start"),
                                         (["--pml-start", "0"], "--pml-start"),
                                         (["--omega-maxes", "0,x"], "--omega-maxes"),
                                         (["--omega-maxes", ","], "--omega-maxes"),
                                         (["--omega-maxes", "nan"], "--omega-maxes"),
                                         (["--omega-maxes", "0,inf"], "--omega-maxes"),
                                         (["--omega-maxes", "-1"], "--omega-maxes"),
                                         (["--window-lo", "1.0", "--window-hi", "1.0"],
                                          "--window-lo"),
                                         (["--window-lo", "1.4", "--window-hi", "0.9"],
                                          "--window-lo"),
                                         (["--pml-start", "1.2"], "--window-hi"),
                                         (["--length", "6", "--pml-start", "3.0",
                                           "--window-lo", "1.2", "--window-hi", "4.2"],
                                          "--window-hi")])
def test_pml_rejects_frequency_and_geometry_before_work(refused, flags, flag):
    refused(_PML_GUIDE + flags, flag)


def test_pml_requires_sweep(refused):
    refused(["pml"], "--sweep")


def test_pml_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(_PML_GUIDE + ["--omega-maxes", "0,6", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "omega,omega_max_profile,thickness,reflection_mag"
    assert len(lines) == 3
