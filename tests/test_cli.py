"""Command-line interface: commands, formats, exit codes."""

import hashlib
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
from resolvedk.action import ResolvedAction, WindowRule
from resolvedk.basespace import CochainComplex, KData, NodeSpaceData
from resolvedk.chargroup import SubgroupDatum
from resolvedk.cli import main
from resolvedk.descriptor import parse_descriptor, serialize_descriptor
from resolvedk.fgab import AbHom, FgAbGroup
from resolvedk.itspace import IsotropyTree
from resolvedk.report import ValidationReport


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


def _changed_bundle(build, label, index, delta=1):
    """A fixture's descriptor with one bundle entry's first class coordinate moved by `delta`."""
    desc = json.loads(serialize_descriptor(build()))
    (entries,) = [per_node[label] for per_node in desc["bundles"].values()]
    cls = entries[index]["class"]
    cls[0] = str(int(cls[0]) + delta)
    return desc


def _compatibility_failure(bundle, sector, face):
    return (
        f"resolvedk: Chern cocycle of {bundle!r} breaks compatibility in sector "
        f"{sector}: face {face}\n"
    )


@pytest.mark.parametrize("build, label, index, delta, argv, err", [
    (fixtures.sphere_rotation, "N", 0, 1, ["--window", "3"],
     _compatibility_failure("poles", "()", "0<N at sector ()")),
    (fixtures.sphere_rotation, "S", 0, -1, ["--window", "3"],
     _compatibility_failure("poles", "()", "0<S at sector ()")),
    (fixtures.projective_plane, "p2", 1, 1, ["--window", "1"],
     _compatibility_failure("tautological", "()", "0<p2 at sector ()")),
    (fixtures.projective_plane, "s", 0, 1, ["--window", "1"],
     _compatibility_failure("tautological", "()", "0<s at sector ()")),
    (lambda: fixtures.sphere_rotation_speed(3), "N", 1, 1, ["--window", "4"],
     _compatibility_failure("poles", "(0,)", "0<N at sector (0,)")),
    # S moved, but N is pruned: the root data must vanish on face 0<N, which
    # comes first in comparable-pair order
    (fixtures.sphere_rotation, "S", 0, 1, ["--window", "3", "--relative", "N"],
     _compatibility_failure("poles", "()", "0<N at sector ()")),
])
def test_ch_names_the_first_face_a_changed_bundle_breaks(
    tmp_path, build, label, index, delta, argv, err
):
    path = tmp_path / "changed.json"
    path.write_text(json.dumps(_changed_bundle(build, label, index, delta)))
    assert run_cli("ch", "--input", str(path), *argv) == (2, "", err)


def test_ch_names_the_first_root_sector_before_the_first_face(tmp_path):
    # on the speed-3 sphere a new class at character 1 on S breaks face 0<S in
    # root sector (1,), one at character 2 on N breaks face 0<N in sector (2,)
    desc = json.loads(serialize_descriptor(fixtures.sphere_rotation_speed(3)))
    path = tmp_path / "added.json"
    added = desc["bundles"]["poles"]
    added["N"].append({"char": ["2"], "class": ["1"]})
    path.write_text(json.dumps(desc))
    assert run_cli("ch", "--input", str(path), "--window", "3") == (
        2, "", _compatibility_failure("poles", "(2,)", "0<N at sector (2,)")
    )
    # sectors come first: face 0<N comes before 0<S, but in a later sector
    added["S"].append({"char": ["1"], "class": ["1"]})
    path.write_text(json.dumps(desc))
    assert run_cli("ch", "--input", str(path), "--window", "3") == (
        2, "", _compatibility_failure("poles", "(1,)", "0<S at sector (1,)")
    )


def test_ch_refuses_a_node_without_its_chain_shift(tmp_path):
    desc = json.loads(serialize_descriptor(fixtures.sphere_rotation()))
    desc["spaces"]["0"]["shifts"] = []
    path = tmp_path / "no-shift.json"
    path.write_text(json.dumps(desc))
    # ch refuses it with the count row, before any Chern row
    assert run_cli("ch", "--input", str(path), "--window", "4") == (
        2, "",
        "resolvedk: node 0: one shift per kernel generator: "
        "kernel rank 1, 0 chain shifts, 1 K shifts\n",
    )
    # validate names the same count, and it is the one failing row
    code, out, _ = run_cli("validate", "--input", str(path), "--window", "4")
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL node 0: one shift per kernel generator: kernel rank 1, 0 chain shifts, 1 K shifts"
    ]
    # and every computing command refuses it with that row
    for argv in (["kred"], ["deloc"], ["compare"], ["les", "--prune", "N"], ["stabilize"]):
        assert run_cli(*argv, "--input", str(path), "--window", "2") == (
            2, "",
            "resolvedk: node 0: one shift per kernel generator: "
            "kernel rank 1, 0 chain shifts, 1 K shifts\n",
        ), argv


@pytest.mark.parametrize("argv, err", [
    (["--relative", "nope"], "resolvedk: cannot prune unknown nodes ['nope']\n"),
    (["--window", "-1"], "resolvedk: window radius must be nonnegative\n"),
], ids=["unknown-prune", "negative-window"])
def test_ch_without_bundles_refuses_what_deloc_refuses(tmp_path, argv, err):
    desc = json.loads(serialize_descriptor(fixtures.sphere_rotation()))
    del desc["bundles"], desc["chern"], desc["expected"]
    path = tmp_path / "no-bundles.json"
    path.write_text(json.dumps(desc))
    for command in ("deloc", "ch"):
        assert run_cli(command, "--input", str(path), *argv) == (2, "", err), command
    # a valid input without bundles says so
    assert run_cli("ch", "--input", str(path), "--window", "2") == (
        0, "descriptor declares no bundles\n", ""
    )


def test_compare_fails_when_k_ranks_disagree_with_node_cohomology(tmp_path):
    # K1 of N gets a free generator that no odd cochain of the point matches;
    # the face's odd K pullback stays empty
    desc = json.loads(serialize_descriptor(fixtures.sphere_rotation()))
    desc["spaces"]["N"]["k"]["k1"] = {"free_rank": "1", "torsion": []}
    assert desc["faces"]["0<N"]["k_pullback"]["odd"] == []
    path = tmp_path / "k1-rank.json"
    path.write_text(json.dumps(desc))
    code, out, _ = run_cli("compare", "--input", str(path), "--window", "2")
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL node N: K ranks match node cohomology: K gives (1, 1), cohomology gives (1, 0)"
    ]


def test_computing_commands_refuse_a_node_differential_that_does_not_square_to_zero(tmp_path):
    desc = json.loads(serialize_descriptor(fixtures.sphere_rotation()))
    desc["spaces"]["0"]["complex"] = {"dims": ["1", "1", "1"], "differentials": [[["1"]], [["1"]]]}
    desc["faces"]["0<S"]["restriction"] = [["1", "0", "0"]]
    del desc["chern"], desc["expected"]
    path = tmp_path / "d-squared.json"
    path.write_text(json.dumps(desc))
    # the face maps are chain maps, so validate fails on the node row only
    code, out, _ = run_cli("validate", "--input", str(path), "--window", "1")
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL node 0: differential squares to zero: fails starting in degree 0"
    ]
    for argv in (["kred"], ["deloc"], ["compare"], ["les", "--prune", "N"], ["stabilize"]):
        assert run_cli(*argv, "--input", str(path), "--window", "1") == (
            2, "", "resolvedk: node 0: differential squares to zero: fails starting in degree 0\n",
        ), argv


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


@pytest.mark.parametrize("argv, calls", [
    (("stabilize", "--window", "0"), 1),
    (("stabilize", "--window", "7"), 8),
    (("kred", "--window", "3"), 1),
    (("deloc", "--window", "3"), 1),
    (("ch", "--window", "3"), 1),
    (("compare", "--window", "3"), 1),
    (("les", "--window", "3", "--prune", "N"), 1),
])
def test_each_command_checks_its_windows_once_per_radius(argv, calls, monkeypatch):
    # and materializes them once per radius: kred's node rows read the
    # windows of the complex its input gate assembled
    original, materialize = ResolvedAction.check_window_saturation, ResolvedAction.windows
    seen, materialized = [], []

    def counted(self, windows):
        seen.append(windows)
        return original(self, windows)

    def counted_windows(self, radius=None):
        materialized.append(radius)
        return materialize(self, radius)

    monkeypatch.setattr(ResolvedAction, "check_window_saturation", counted)
    monkeypatch.setattr(ResolvedAction, "windows", counted_windows)
    assert run_cli(*argv, "--input", "fixture:sphere_rotation")[0] == 0
    assert len(seen) == calls
    assert len(materialized) == calls


def test_ch_checks_its_input_and_chern_data_once_for_all_bundles(tmp_path, monkeypatch):
    # the sphere with its poles bundle copied under a second name
    desc = json.loads(serialize_descriptor(fixtures.sphere_rotation()))
    desc["bundles"]["twin"] = desc["bundles"]["poles"]
    path = tmp_path / "twin.json"
    path.write_text(json.dumps(desc))
    calls = []
    saturation, chern_data = ResolvedAction.check_window_saturation, deloc.validate_chern_data

    def counted_saturation(self, windows):
        calls.append("windows")
        return saturation(self, windows)

    def counted_chern_data(action):
        calls.append("chern")
        return chern_data(action)

    monkeypatch.setattr(ResolvedAction, "check_window_saturation", counted_saturation)
    monkeypatch.setattr(deloc, "validate_chern_data", counted_chern_data)
    code, out, err = run_cli("ch", "--input", str(path), "--window", "3", "--format", "json")
    assert (code, err) == (0, "")
    assert sorted(calls) == ["chern", "windows"]
    # both bundles are listed, each with the poles values
    poles = json.loads(run_cli("ch", "--input", "fixture:sphere_rotation", "--window", "3",
                               "--format", "json")[1])["bundles"]["poles"]
    assert json.loads(out)["bundles"] == {"poles": poles, "twin": poles}
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "da99347e06cf5db46692f52630d12800855f3f99e56207edaf71be2128c0350f"
    )


def test_ch_never_assembles(monkeypatch):
    # ch checks its cocycle face by face on the node tables: with sector
    # assembly refused, every golden ch command line and ch at window 7 on the
    # four fixtures print their recorded outputs
    from test_cli_golden import GOLDEN, cases, digest

    def refused(*args):
        raise AssertionError("ch assembled a sector")

    monkeypatch.setattr(deloc, "_build_sector", refused)
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    for argv in (argv for argv in cases() if argv[0] == "ch"):
        assert digest(argv) == golden[" ".join(argv)], argv
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "perfbench", "digests.json"), encoding="utf-8") as fh:
        recorded = json.load(fh)["outputs"]
    for spec, key in (
        ("sphere_rotation", "sphere_rotation"),
        ("sphere_rotation_speed:n=3", "sphere_rotation_speed_3"),
        ("product_trivial:torsion=2", "product_trivial_2"),
        ("projective_plane", "projective_plane"),
    ):
        code, out, err = run_cli("ch", "--input", "fixture:" + spec, "--window", "7",
                                 "--format", "json")
        assert (code, err) == (0, "")
        # the benchmark records the digest of the JSON payload, without the newline
        assert hashlib.sha256(out.rstrip("\n").encode()).hexdigest() == recorded[f"ch:{key}:w7"]


def test_kred_and_compare_fail_on_a_failed_pruning_step(monkeypatch):
    # a step whose summed hexagon is exact but whose own report is not
    original = deloc._les_of

    def broken(*args):
        instance, rep = original(*args)
        failed = ValidationReport()
        failed.merge(rep)
        failed.add("consecutive maps compose to zero", False, "nonzero: planted")
        return instance, failed

    monkeypatch.setattr(deloc, "_les_of", broken)
    spec = ("--input", "fixture:sphere_rotation", "--window", "1")
    assert run_cli("les", "--prune", "N", *spec)[0] == 1
    code, _, err = run_cli("kred", *spec)
    assert code == 1 and "planted" in err
    code, out, _ = run_cli("compare", *spec)
    assert code == 1
    assert "FAIL pruning hexagons consistent" in out and "ranks agree" not in out


def test_a_descriptor_command_imports_no_fixture_or_bundle_module(sphere_file):
    # import time is most of a command's setup; fixtures and reduced
    # bundles are imported on use only
    src = os.path.dirname(os.path.dirname(resolvedk.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "from resolvedk import cli\n"
        f"cli._load_descriptor({sphere_file!r})\n"
        "print([m for m in ('resolvedk.fixtures', 'resolvedk.redbun') if m in sys.modules])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize(
    "command",
    [["validate"], ["deloc"], ["kred"], ["ch"], ["compare"], ["les", "--prune", "N"], ["stabilize"]],
)
def test_negative_window_is_an_input_error(sphere_file, command):
    code, out, err = run_cli(*command, "--input", sphere_file, "--window", "-1")
    assert (code, out, err) == (2, "", "resolvedk: window radius must be nonnegative\n")


@pytest.mark.parametrize(
    "command",
    [["validate"], ["deloc"], ["kred"], ["ch"], ["compare"], ["les", "--prune", "n"], ["stabilize"]],
)
def test_negative_window_is_an_input_error_on_full_windows(tmp_path, command):
    # a Z/2 point whose only window is full, which ignores a nonnegative radius
    z = FgAbGroup.free(1)
    point = NodeSpaceData(
        CochainComplex.point(), [], KData.trivial_shifts(z, FgAbGroup.free(0), AbHom.identity(z), 0)
    )
    tree = IsotropyTree({"n": SubgroupDatum(AbHom.identity(FgAbGroup(0, (2,))))}, [])
    action = ResolvedAction(tree, {"n": point}, {}, {"n": WindowRule.full()})
    path = tmp_path / "point.json"
    path.write_text(serialize_descriptor(action))
    assert run_cli(*command, "--input", str(path), "--window", "0")[0] == 0
    code, out, err = run_cli(*command, "--input", str(path), "--window", "-1")
    assert (code, out, err) == (2, "", "resolvedk: window radius must be nonnegative\n")


@pytest.mark.parametrize("action, chars, repeated", [
    (fixtures.sphere_rotation, [[], []], "()"),
    (lambda: fixtures.product_trivial((2,)), [["0"], ["1"], ["2"]], "(0,)"),
], ids=["sphere-root-twice", "product-mod-2"])
def test_a_repeated_window_character_is_refused(tmp_path, action, chars, repeated):
    # counted twice, the repeat would make deloc read (5, 1) on the sphere
    # and (10, 1) on the product
    action = action()
    desc = json.loads(serialize_descriptor(action))
    desc["windows"][action.tree.root] = {"kind": "explicit", "chars": chars}
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(desc))
    path = str(path)
    message = f"resolvedk: explicit window repeats the character {repeated}\n"
    for command in ("deloc", "kred", "compare"):
        assert run_cli(command, "--input", path) == (2, "", message), command
    code, out, _ = run_cli("validate", "--input", path, "--format", "json")
    assert code == 1
    assert ["windows materialize", False, message[len("resolvedk: "):-1]] in (
        json.loads(out)["report"]
    )


def test_kred_checks_its_input_before_its_node_rows(sphere_file):
    code, out, err = run_cli(
        "kred", "--input", sphere_file, "--window", "-1", "--relative", "nope"
    )
    assert (code, out, err) == (2, "", "resolvedk: cannot prune unknown nodes ['nope']\n")
    assert run_cli("deloc", "--input", sphere_file, "--window", "-1", "--relative", "nope") == (
        code, out, err
    )


@pytest.mark.parametrize("spec", ["sphere_rotation", "projective_plane"])
def test_kred_materializes_the_windows_at_most_twice(spec, monkeypatch):
    # in fact once: the node rows read the windows of the complex that the
    # input gate assembled, so no second materialization is left
    original = ResolvedAction.windows
    calls = []

    def counted(self, radius=None):
        calls.append(radius)
        return original(self, radius)

    monkeypatch.setattr(ResolvedAction, "windows", counted)
    assert run_cli("kred", "--input", "fixture:" + spec, "--window", "2")[0] == 0
    assert calls == [2], calls


@pytest.mark.parametrize("argv", [
    ("example", "sphere_rotation_speed:n=2,n=3"),
    ("deloc", "--input", "fixture:sphere_rotation_speed:n=2,n=3"),
])
def test_a_repeated_fixture_parameter_is_an_input_error(argv):
    assert run_cli(*argv) == (2, "", "resolvedk: fixture parameter 'n' given twice\n")


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


# -- flags a command does not read ---------------------------------------------


PLANE = ("--input", "fixture:projective_plane", "--window", "1")


@pytest.mark.parametrize("argv, message", [
    (("les", *PLANE, "--prune", "p1", "--relative", "p3"), "les does not take --relative"),
    (("validate", *PLANE, "--relative", "p3"), "validate does not take --relative"),
] + [
    ((command, *PLANE, "--prune", "p3"), f"{command} does not take --prune; only les does")
    for command in ("validate", "kred", "deloc", "ch", "compare", "stabilize")
] + [
    (("example", *name, *flag), f"example does not take {flag[0]}")
    for name in ((), ("sphere_rotation",))
    for flag in (("--input", "x"), ("--window", "0"), ("--prune", "S"), ("--relative", "N"))
] + [
    (("example", "sphere_rotation", "--window", "3", "--relative", "N", "--prune", "S",
      "--input", "x", "--format", "json"), "example does not take --input"),
])
def test_a_flag_the_command_ignores_is_an_input_error(argv, message):
    code, out, err = run_cli(*argv)
    assert (code, out, err) == (2, "", f"resolvedk: {message}\n")


# -- a reader that goes away ---------------------------------------------------


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [
    ("stabilize", "--input", "fixture:sphere_rotation", "--format", "json"),
    ("example", "projective_plane"),
    ("les", *PLANE, "--prune", "p1", "--prune", "p2"),
])
def test_a_closed_pipe_ends_with_the_command_status_and_no_traceback(argv):
    err = io.StringIO()
    assert main(list(argv), out=_ClosedPipe(), err=err) == run_cli(*argv)[0] == 0
    assert err.getvalue() == ""


def test_a_closed_stdout_pipe_exits_quietly():
    # no process reads the pipe, so every write to it fails; the flush at
    # interpreter exit must not fail again
    src = os.path.dirname(os.path.dirname(resolvedk.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "resolvedk.cli", "stabilize",
             "--input", "fixture:sphere_rotation", "--format", "json"],
            env=dict(os.environ, PYTHONPATH=path),
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, "")
