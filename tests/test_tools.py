"""tools/loc.py counts each line of a module as exactly one kind and totals
the modules, tools/step_cost.py times the steps of each of its cases, for one
tree or two in alternating pairs, and tools/artifact_digest.py digests what a
command writes, the same each time."""

import importlib.util
import json
import os
import pathlib
import shutil
import types

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


loc, step_cost, artifact_digest = _tool("loc"), _tool("step_cost"), _tool("artifact_digest")

SOURCE = '''"""Module docstring
over two lines."""

# a comment
import os  # a trailing comment: code


class A:
    """One line."""

    def f(self):
        """Function docstring.

        A blank line inside counts as docstring."""
        text = """a string that is no docstring
        """
        return text
'''


def test_counts_each_line_as_one_kind():
    assert loc.count(SOURCE) == {"docstring": 6, "comment": 1, "blank": 4, "code": 6,
                                 "lines": 17}


def test_step_cost_times_each_case_on_a_tiny_grid():
    for settings, t_end, snapshots in step_cost.CASES.values():
        tiny = dict(settings, N="8" if settings.get("n") == "2" else "20")
        steps, cost = step_cost.measure(tiny, t_end / 100.0, snapshots, repeats=2)
        assert steps > 0 and cost > 0.0


def tiny_cases():
    return {name: (dict(settings, N="8" if settings.get("n") == "2" else "20"), t_end / 100.0,
                   snapshots) for name, (settings, t_end, snapshots) in step_cost.CASES.items()}


def test_step_cost_pairs_two_trees_on_tiny_grids():
    # every pass in a fresh interpreter, one tree against a copy of itself
    tiny, src = tiny_cases(), str(ROOT / "src")
    rows = step_cost.paired(src, src, tiny, pairs=2, repeats=1)
    assert [row[0] for row in rows] == list(tiny)
    for _, steps_a, steps_b, a, b, diff, won_a, won_b, iqr_a, iqr_b in rows:
        assert steps_a == steps_b > 0 and a > 0.0 and b > 0.0
        assert 0.0 <= won_a + won_b <= 1.0 and iqr_a >= 0.0 and iqr_b >= 0.0
    assert step_cost.main([src] * 3) == 2


def test_step_cost_pairs_alternate_abba_from_paths_of_equal_length(monkeypatch, tmp_path):
    # the passes, faked: A takes 10, 11, 12, 13 us per step and B 12, 11, 15, 11
    # in pair order: differences B - A of 2, 0, 3 and -2, and A wins two pairs, B one
    for tree in ("a", "deeper/b"):
        shutil.copytree(ROOT / "src" / "pmelab", tmp_path / tree / "pmelab",
                        ignore=shutil.ignore_patterns("__pycache__"))
    times, trees = {"a": [10.0, 11.0, 12.0, 13.0], "b": [12.0, 11.0, 15.0, 11.0]}, []

    def run(argv, **kwargs):
        trees.append(argv[3])
        key = os.path.basename(argv[3])
        return types.SimpleNamespace(stdout=json.dumps({"case": [7, times[key].pop(0)]}))

    monkeypatch.setattr(step_cost.subprocess, "run", run)
    rows = step_cost.paired(str(tmp_path / "a"), str(tmp_path / "deeper/b"),
                            {"case": ({}, 1.0, 2)}, pairs=4)
    assert [os.path.basename(t) for t in trees] == list("abbaabba")
    assert len({len(t) for t in trees}) == 1
    assert rows == [("case", 7, 7, 11.5, 11.5, 1.0, 0.5, 0.25, 2.5, 3.25)]


def test_step_cost_wants_a_source_tree(capsys):
    assert step_cost.main([]) == 2 and step_cost.main([str(ROOT)]) == 2
    assert "usage" in capsys.readouterr().err


def test_artifact_digest_wants_a_source_tree(capsys):
    assert artifact_digest.main([]) == 2 and artifact_digest.main([str(ROOT)]) == 2
    assert "usage" in capsys.readouterr().err


def test_artifact_digest_of_a_command_is_the_same_twice():
    src, cmd = str(ROOT / "src"), ["moser-table", "--m", "3"]
    first = artifact_digest.digest(src, cmd)
    assert first["exit"] == 0
    assert sorted(os.path.splitext(name)[1] for name in first["files"]) == [".csv", ".json"]
    assert artifact_digest.digest(src, cmd) == first


def test_artifact_digest_does_not_depend_on_where_the_tree_is(tmp_path):
    cmd = ["check-flux", "--flux", "figure1 k=400", "--umax", "10"]
    digests = []
    for tree in ("a", "deeper/b"):
        shutil.copytree(ROOT / "src" / "pmelab", tmp_path / tree / "pmelab",
                        ignore=shutil.ignore_patterns("__pycache__"))
        digests.append(artifact_digest.digest(str(tmp_path / tree), cmd))
    assert digests[0]["exit"] == 1 and digests[0] == digests[1]


def test_loc_total_row_is_the_sum_of_the_module_rows(capsys):
    assert loc.main([str(ROOT / "src" / "pmelab")]) == 0
    header, *rows, total = capsys.readouterr().out.splitlines()
    assert header.split() == ["module", "lines", *loc.KINDS] and len(rows) > 1
    counts = [[int(v) for v in row.split()[1:]] for row in rows]
    assert total.split()[0] == "total"
    assert [int(v) for v in total.split()[1:]] == [sum(col) for col in zip(*counts)]
