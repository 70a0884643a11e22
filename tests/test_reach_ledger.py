"""Production reach: library code that no command line calls is pinned, with its reason.

A fresh interpreter runs, under ``sys.setprofile`` and from before the
package is imported, the json half of the golden command lines
(``tests/test_cli_golden.cases()``; ``cli.run`` builds both the payload and
the text lines of every command, so the table half reaches nothing more)
plus every descriptor command on each golden fixture serialized to a file
at window 1, plus one section-independence trial per golden fixture through
the public calls the perfbench section trials make
(``ResolvedAction.sections``, ``chargroup.offset_section``, then
``assemble_complex`` and ``redbun.canonical_bundle`` under the offset
sections).  Every function and method defined in ``src/resolvedk`` that
none of these runs calls must be a key of ``UNREACHED``, whose value names
the roadmap item, acceptance criterion, test or benchmark use that keeps
it.  Dunders and functions whose body only raises are not counted.  A
reason that cites ``tests/<file>.py::<name>`` (``*`` globs allowed, and
``::<Class>::<method>``) must name a function or class that file defines,
so a reason cannot outlive the test that keeps it.

A new function that no run reaches fails the test until a command calls it
or it is pinned here; a pinned function that the runs start to reach, or
that is deleted, fails it until its entry goes.  Run this file as a script
to print the unreached functions.
"""

import ast
import fnmatch
import json
import os
import re
import subprocess
import sys

CRIT = "tests/test_acceptance.py::test_criterion_"

UNREACHED = {
    "action.WindowRule.explicit":
        "explicit window rules built in code (tests/test_action.py::test_window_explicit)",
    "chargroup.Character.is_zero":
        "tests/test_character_arithmetic.py::test_kernel_coordinates_invert_kernel_elements",
    "descriptor._Node.fail": "descriptor input errors (tests/test_descriptor.py::test_rejects_*)",
    "descriptor._Node.path": "descriptor input errors (tests/test_descriptor.py::test_rejects_*)",
    "descriptor._Node.rational":
        "non-integral descriptor entries (tests/test_descriptor.py::test_rational_entries)",
    "descriptor._first_repeat":
        "duplicate JSON keys (tests/test_descriptor.py::test_rejects_duplicate_keys_with_path)",
    "descriptor._format_path": "descriptor input errors (tests/test_descriptor.py::test_rejects_*)",
    "fgab.AbHom._compute_split": "AbHom.try_split (acceptance criterion 2)",
    "fgab.AbHom.cokernel": "ROADMAP item 5 (integral six-term sequences)",
    "fgab.AbHom.image": "ROADMAP item 5 (integral six-term sequences)",
    "fgab.AbHom.image_lattice": "ROADMAP item 5 (integral six-term sequences)",
    "fgab.AbHom.is_zero": "ROADMAP item 5; tests/test_fgab.py::TestAbHom::test_kernel_of_projection",
    "fgab.AbHom.kernel": "ROADMAP item 5 (integral six-term sequences)",
    "fgab.AbHom.try_split":
        f"acceptance criterion 2 ({CRIT}2_splitting_absent_but_sections_work)",
    "fgab.FgAbGroup.add":
        "K-classes that land on one lift in redbun.twisted_sum "
        "(tests/test_redbun.py::test_canonicalize_merges_matching_restrictions)",
    "fgab.FgAbGroup.is_trivial": "tests/test_fixtures.py::test_speed_one_is_base_sphere",
    "fgab.SmithDecomposition.verify":
        f"acceptance criterion 1 ({CRIT}1_exact_algebra_suite)",
    "fgab._lattice_quotient": "AbHom.kernel and cokernel (ROADMAP item 5)",
    "fgab.det_int": "ROADMAP item 5 keeps it as the tests' reference determinant",
    "fgab.is_exact_at": "ROADMAP item 5 (integral six-term sequences)",
    "fgab.kernel_basis": "ROADMAP item 5; tests/test_fgab.py::TestSolveAndKernel",
    "fixtures._multipole": "fixtures.random_action",
    "fixtures._twisted": "fixtures.random_action",
    "fixtures.random_action":
        "perfbench/workloads.py random_sections; acceptance criteria 6 and 8",
    "ratmat.RationalMatrix._rows": "read by perfbench/tracer.py (ROADMAP item 6)",
    "ratmat.RationalMatrix.transpose":
        "fgab._lattice_quotient (ROADMAP item 5); "
        "tests/test_ratmat.py::test_sparse_rows_are_canonical, "
        "tests/test_ratmat_differential.py::test_sparse_elimination_matches_sympy, "
        "tests/test_fgab_differential.py::test_sparse_smith_and_hermite",
    "redbun.TwistedTable.is_zero": "the table model of ROADMAP item 4",
    "redbun.TwistedTable.support": "the table model of ROADMAP item 4",
    "redbun.check_iterated": "ROADMAP item 4 (the K side of bundle compatibility)",
    "redbun.corner_mismatch": "ROADMAP item 4 (the K side of bundle compatibility)",
}


def unreached():
    """Qualified names of the library functions the runs never call, sorted."""
    import ast
    import importlib
    import inspect
    import io
    import pkgutil
    import tempfile
    import textwrap

    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(profile)
    try:
        import resolvedk
        from resolvedk import fixtures
        from resolvedk.chargroup import offset_section
        from resolvedk.cli import COMMANDS, main
        from resolvedk.deloc import assemble_complex
        from resolvedk.descriptor import serialize_descriptor
        from resolvedk.redbun import canonical_bundle
        from test_cli_golden import cases

        runs = [argv for argv in cases() if argv[-1] == "json"]
        builds = {
            "sphere": fixtures.sphere_rotation,
            "speed3": lambda: fixtures.sphere_rotation_speed(3),
            "product2": lambda: fixtures.product_trivial((2,)),
            "plane": fixtures.projective_plane,
        }
        with tempfile.TemporaryDirectory() as tmp:
            for name, build in builds.items():
                path = os.path.join(tmp, name + ".json")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(serialize_descriptor(build()))
                runs += [
                    [command, "--input", path, "--window", "1", "--format", "json"]
                    for command in COMMANDS if command != "example"
                ]
            for argv in runs:
                main(argv, out=io.StringIO(), err=io.StringIO())
        for build in builds.values():
            # each node's first window character lifted one kernel generator further
            action = build()
            windows = action.windows(1)
            sections = {
                label: offset_section(base, {
                    windows[label][0]: [1] + [0] * (action.tree.nodes[label].kernel_rank - 1)
                })
                for label, base in action.sections(windows).items()
                if action.tree.nodes[label].kernel_rank
            }
            assemble_complex(action, radius=1, sections=sections)
            for name in sorted(action.bundles):
                canonical_bundle(action, name, sections)
    finally:
        sys.setprofile(None)

    def raises_only(fn):
        body = ast.parse(textwrap.dedent(inspect.getsource(fn))).body[0].body
        if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            body = body[1:]
        return len(body) == 1 and isinstance(body[0], ast.Raise)

    out = []
    for info in pkgutil.iter_modules(resolvedk.__path__):
        module = importlib.import_module(f"resolvedk.{info.name}")
        for obj in vars(module).values():
            members = [obj]
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                members = []
                for attr in vars(obj).values():
                    if isinstance(attr, (staticmethod, classmethod)):
                        attr = attr.__func__
                    if isinstance(attr, property):
                        members += [f for f in (attr.fget, attr.fset, attr.fdel) if f]
                    else:
                        members.append(attr)
            for fn in members:
                fn = inspect.unwrap(fn) if callable(fn) else fn
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and fn.__code__ not in seen
                    and not (fn.__name__.startswith("__") and fn.__name__.endswith("__"))
                    and not raises_only(fn)
                ):
                    out.append(f"{info.name}.{fn.__qualname__}")
    return sorted(out)


def unresolved_citations(ledger):
    """The `tests/...py::name` citations in the ledger's reasons that name nothing."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    bad = []
    for key, reason in sorted(ledger.items()):
        for path, names in re.findall(r"(tests/\w+\.py)((?:::[\w*]+)+)", reason):
            full = os.path.join(root, path)
            if not os.path.exists(full):
                bad.append(f"{key}: {path}{names}")
                continue
            with open(full, encoding="utf-8") as fh:
                scope = ast.parse(fh.read()).body
            for name in names.split("::")[1:]:
                found = [
                    node for node in scope
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and fnmatch.fnmatchcase(node.name, name)
                ]
                if not found:
                    bad.append(f"{key}: {path}{names}")
                    break
                scope = [child for node in found if isinstance(node, ast.ClassDef) for child in node.body]
    return bad


def test_ledger_reasons_cite_tests_that_exist():
    bad = unresolved_citations(UNREACHED)
    assert not bad, f"reasons cite tests that do not exist: {bad}"


def test_unreached_library_functions_are_pinned():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__)],
        env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED="0"),
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    found = set(json.loads(proc.stdout))
    new = sorted(found - set(UNREACHED))
    stale = sorted(set(UNREACHED) - found)
    assert not new, f"no command line calls {new}: call them, delete them, or pin them here"
    assert not stale, f"pinned but now reached or gone, drop them: {stale}"


if __name__ == "__main__":
    json.dump(unreached(), sys.stdout, indent=1)
    sys.stdout.write("\n")
