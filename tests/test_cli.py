"""Command-line interface: commands, formats, exit codes."""

import importlib
import io
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import resolvedk
from resolvedk import deloc, fixtures
from resolvedk.action import ResolvedAction
from resolvedk.cli import main
from resolvedk.descriptor import parse_descriptor, serialize_descriptor


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def sphere_file(tmp_path):
    path = tmp_path / "sphere.json"
    path.write_text(serialize_descriptor(fixtures.sphere_rotation()))
    return str(path)


def test_example_lists_fixtures():
    code, out, _ = run_cli("example")
    assert code == 0
    for name in ("sphere_rotation", "projective_plane"):
        assert name in out


def test_example_emits_parseable_descriptor():
    code, out, _ = run_cli("example", "sphere_rotation")
    assert code == 0
    desc = parse_descriptor(out)
    assert set(desc.action.tree.nodes) == {"0", "N", "S"}

    code, out, _ = run_cli("example", "product_trivial:torsion=2+4")
    assert code == 0
    assert parse_descriptor(out).action.group.torsion == (2, 4)

    assert run_cli("example", "no_such_fixture")[0] == 2
    assert run_cli("example", "sphere_rotation_speed:n=x")[0] == 2


def test_validate_passes_on_fixture_file(sphere_file):
    code, out, _ = run_cli("validate", "--input", sphere_file, "--window", "1")
    assert code == 0
    assert "validation passed" in out
    assert "FAIL" not in out

    code, out, _ = run_cli(
        "validate", "--input", sphere_file, "--window", "1", "--format", "json"
    )
    payload = json.loads(out)
    assert code == 0 and payload["ok"] is True


def test_deloc_reports_dimensions(sphere_file):
    code, out, _ = run_cli("deloc", "--input", sphere_file, "--window", "2")
    assert code == 0
    assert "total: even 9, odd 0" in out
    assert "declared: [9, 0]" in out

    code, out, _ = run_cli(
        "deloc", "--input", sphere_file, "--window", "1", "--format", "json"
    )
    payload = json.loads(out)
    assert payload["even"] == 5 and payload["odd"] == 0
    assert payload["sectors"] == {"()": [5, 0]}


def test_deloc_relative_nodes(sphere_file):
    code, out, _ = run_cli(
        "deloc", "--input", sphere_file, "--window", "1",
        "--relative", "N", "--relative", "S",
    )
    assert code == 0
    assert "total: even 0, odd 1" in out


def test_deloc_surfaces_the_odd_k_note(sphere_file):
    code, out, _ = run_cli("deloc", "--input", sphere_file, "--window", "1")
    assert code == 0
    assert "deliberately not reproduced" in out
    payload = json.loads(
        run_cli("deloc", "--input", sphere_file, "--window", "1", "--format", "json")[1]
    )
    assert any("odd" in note.lower() for note in payload["notes"])


def test_kred_reports_node_and_global_ranks(sphere_file):
    code, out, _ = run_cli("kred", "--input", sphere_file, "--window", "1")
    assert code == 0
    assert "node N: window 3, K ranks even 3, odd 0" in out
    assert "global rational K: even 5, odd 0" in out


def test_compare_agrees_on_sphere(sphere_file):
    code, out, _ = run_cli("compare", "--input", sphere_file, "--window", "2")
    assert code == 0
    assert "even 9 = 9" in out
    assert "ranks agree" in out


def test_compare_fails_on_wrong_declared_values(tmp_path):
    sphere = fixtures.sphere_rotation()
    doctored = ResolvedAction(
        sphere.tree, sphere.spaces, sphere.faces, sphere.window_rules,
        bundles=sphere.bundles, chern=sphere.chern,
        expected={"deloc_dims_by_radius": {"1": [4, 0]}},
    )
    path = tmp_path / "doctored.json"
    path.write_text(serialize_descriptor(doctored))
    code, out, _ = run_cli("compare", "--input", str(path), "--window", "1")
    assert code == 1
    assert "FAIL" in out


def test_ch_prints_chern_values(sphere_file):
    code, out, _ = run_cli("ch", "--input", sphere_file, "--window", "3")
    assert code == 0
    assert "poles @ 0 (): (3, 3, 0)" in out
    assert "poles @ N (3): (1)" in out
    assert "closed and compatible" in out


def test_ch_requires_a_wide_enough_window(sphere_file):
    code, _, err = run_cli("ch", "--input", sphere_file, "--window", "1")
    assert code == 2
    assert "enlarge the radius" in err


def test_les_reports_exact_steps(sphere_file):
    code, out, _ = run_cli("les", "--input", sphere_file, "--window", "1", "--prune", "N")
    assert code == 0
    assert "exact six-term sequence" in out
    assert "even total 5" in out

    payload = json.loads(
        run_cli(
            "les", "--input", sphere_file, "--window", "1", "--prune", "N",
            "--format", "json",
        )[1]
    )
    (step,) = payload["steps"]
    assert step["added"] == "N" and step["exact"] is True
    assert step["dims"] == [2, 5, 3, 0, 0, 0]


def test_les_multi_step_on_the_plane(tmp_path):
    path = tmp_path / "plane.json"
    path.write_text(serialize_descriptor(fixtures.projective_plane()))
    code, out, _ = run_cli(
        "les", "--input", str(path), "--window", "1",
        "--prune", "p1", "--prune", "p3", "--prune", "s",
    )
    assert code == 0
    assert out.count("exact six-term sequence") == 3


def test_les_steps_on_the_plane_pinned():
    code, out, _ = run_cli(
        "les", "--input", "fixture:projective_plane", "--window", "2", "--format", "json",
        "--prune", "s", "--prune", "p1", "--prune", "p2", "--prune", "p3",
    )
    assert code == 0
    steps = json.loads(out)["steps"]
    assert [(s["added"], tuple(s["dims"])) for s in steps] == [
        ("p2", (0, 4, 4, 0, 0, 0)),
        ("s", (4, 4, 0, 0, 0, 0)),
        ("p1", (4, 7, 3, 0, 0, 0)),
        ("p3", (7, 12, 5, 0, 0, 0)),
    ]


def test_compare_and_kred_assemble_once(monkeypatch):
    original = deloc.assemble_complex
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("prune", ()))
        return original(*args, **kwargs)

    for info in pkgutil.iter_modules(resolvedk.__path__):
        module = importlib.import_module(f"resolvedk.{info.name}")
        if getattr(module, "assemble_complex", None) is original:
            monkeypatch.setattr(module, "assemble_complex", counted)
    for command in ("compare", "kred"):
        calls.clear()
        code, _, _ = run_cli(command, "--input", "fixture:projective_plane", "--window", "2")
        assert code == 0
        assert len(calls) == 1, (command, calls)


@pytest.mark.parametrize(
    "command", [["validate"], ["deloc"], ["kred"], ["ch"], ["compare"], ["les", "--prune", "N"]]
)
def test_negative_window_is_an_input_error(sphere_file, command):
    code, out, err = run_cli(*command, "--input", sphere_file, "--window", "-1")
    assert (code, out, err) == (2, "", "resolvedk: window radius must be nonnegative\n")


def test_compare_on_the_plane_at_radius_six():
    code, out, _ = run_cli(
        "compare", "--input", "fixture:projective_plane", "--window", "6", "--format", "json"
    )
    payload = json.loads(out)
    assert code == 0 and payload["ok"] is True
    assert payload["even"] == {"delocalized": 36, "rational_k": 36}
    assert payload["odd"] == {"delocalized": 0, "rational_k": 0}


def test_les_input_errors(sphere_file, tmp_path):
    assert run_cli("les", "--input", sphere_file)[0] == 2
    assert run_cli("les", "--input", sphere_file, "--prune", "Q")[0] == 2
    path = tmp_path / "plane.json"
    path.write_text(serialize_descriptor(fixtures.projective_plane()))
    code, _, err = run_cli("les", "--input", str(path), "--prune", "s")
    assert code == 2
    assert "downward" in err


def test_downward_closure_error_does_not_depend_on_the_hash_seed():
    # two seeds that named different nodes while the kept set was scanned
    # in frozenset order
    src = os.path.dirname(os.path.dirname(resolvedk.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    messages = set()
    for seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-m", "resolvedk.cli", "les", "--input", "fixture:projective_plane",
             "--prune", "0", "--prune", "s", "--window", "0"],
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2
        messages.add(proc.stderr)
    assert messages == {"resolvedk: kept set is not downward-closed: 'p1' kept but 's' is not\n"}


def test_stabilize_scans_windows(sphere_file):
    code, out, _ = run_cli("stabilize", "--input", sphere_file, "--window", "2")
    assert code == 0
    assert "stabilized: False" in out
    payload = json.loads(
        run_cli(
            "stabilize", "--input", sphere_file, "--window", "2", "--format", "json"
        )[1]
    )
    assert payload["rows"] == [[0, 1, 0], [1, 5, 0], [2, 9, 0]]


def test_fixture_inputs_with_parameters():
    code, out, _ = run_cli(
        "deloc", "--input", "fixture:sphere_rotation_speed:n=2", "--window", "1"
    )
    assert code == 0
    assert "total: even 10, odd 0" in out

    code, out, _ = run_cli(
        "deloc", "--input", "fixture:product_trivial:torsion=2", "--window", "1"
    )
    assert code == 0
    assert "total: even 10, odd 0" in out


def test_input_error_exit_codes(tmp_path):
    assert run_cli("deloc")[0] == 2
    assert run_cli("deloc", "--input", str(tmp_path / "missing.json"))[0] == 2
    assert run_cli("deloc", "--input", "fixture:klein")[0] == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{\"format\": \"wrong\"}")
    code, _, err = run_cli("deloc", "--input", str(bad))
    assert code == 2 and "resolvedk:" in err

    assert run_cli("deloc", "stray-name", "--input", "fixture:sphere_rotation")[0] == 2


@pytest.mark.parametrize("spec", [
    "sphere_rotation", "sphere_rotation_speed:n=3", "projective_plane", "product_trivial:torsion=2",
])
def test_compare_builds_only_integral_matrices(spec, monkeypatch):
    # the fixtures' matrices are integral, so every matrix a verification run
    # builds stores plain ints: no Fraction object reaches the kernels
    from argparse import Namespace

    from resolvedk import cli
    from resolvedk.ratmat import RationalMatrix

    built = []
    original_of = RationalMatrix._of.__func__
    original_init = RationalMatrix.__init__

    def of(cls, data, ncols):
        mat = original_of(cls, data, ncols)
        built.append(sum(type(x) is not int for _, _, x in mat.entries()))
        return mat

    def init(self, rows, *, ncols=None):
        original_init(self, rows, ncols=ncols)
        built.append(sum(type(x) is not int for _, _, x in self.entries()))

    text = serialize_descriptor(cli._fixture_from_spec(spec))
    monkeypatch.setattr(RationalMatrix, "_of", classmethod(of))
    monkeypatch.setattr(RationalMatrix, "__init__", init)
    result = cli.run("compare", parse_descriptor(text), Namespace(window=3, prune=[], relative=[]))
    assert result.status == cli.OK
    assert len(built) > 100 and sum(built) == 0
