"""tools/loc.py counts each line of a module as exactly one kind,
tools/step_cost.py times the steps of each of its cases, and
tools/artifact_digest.py digests what a command writes, the same each time."""

import importlib.util
import os
import pathlib

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
