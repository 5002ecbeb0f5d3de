"""README cannot drift from the code: its claims table names tests that exist,
with a status that the xfail marks agree with, its commands parse, and its
catalog table is the catalogs.

The tests are read with `ast`, never imported or run."""

import ast
import pathlib
import re
import shlex

import pytest

from pmelab import cli
from pmelab import problem as pr

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
TEST_ID = re.compile(r"`(tests/[\w/]+\.py)((?:::\w+)+)`")


def _table(header: str) -> list[list[str]]:
    """The body rows of the README table whose header row starts with `header`,
    each split into its cells (an escaped \\| stays inside its cell)."""
    lines = README.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(header))
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        rows.append([c.strip() for c in re.split(r"(?<!\\)\|", line)[1:-1]])
    return rows


CLAIMS = _table("| Claim |")


def _node(path: str, names: list[str]):
    """The ast node of test `path::names[0]::...`, or None if there is none."""
    nodes = ast.parse((ROOT / path).read_text(encoding="utf-8")).body
    node = None
    for name in names:
        node = next((n for n in nodes if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                     and n.name == name), None)
        if node is None:
            return None
        nodes = node.body
    return node


def _xfail(node):
    """The node's @pytest.mark.xfail decorator, called or not, if it has one."""
    for dec in node.decorator_list:
        if ast.unparse(dec.func if isinstance(dec, ast.Call) else dec) == "pytest.mark.xfail":
            return dec
    return None


def _strict(mark) -> bool:
    return isinstance(mark, ast.Call) and any(
        k.arg == "strict" and isinstance(k.value, ast.Constant) and k.value.value is True
        for k in mark.keywords)


def _claims():
    """(claim, status, [(test id, node)]) for each row of the claims table."""
    for claim, _, checked, status in CLAIMS:
        tests = [(path + rest, _node(path, rest.split("::")[1:]))
                 for path, rest in TEST_ID.findall(checked)]
        yield claim, status, tests


def test_claims_table_has_a_row_per_claim():
    assert len(CLAIMS) >= 11
    assert all(len(row) == 4 for row in CLAIMS)
    assert all(re.match(r"(holds|fails)\b", status) for *_, status in CLAIMS)


def test_every_test_the_claims_name_exists():
    missing = [tid for _, _, tests in _claims() for tid, node in tests if node is None]
    assert not missing
    assert all(tests for _, _, tests in _claims())


def test_a_failing_claim_names_a_strict_xfail_and_no_other_claim_an_xfail():
    for claim, status, tests in _claims():
        marks = [_xfail(node) for _, node in tests if node is not None]
        if status.startswith("fails"):
            assert any(m is not None and _strict(m) for m in marks), claim
        else:
            assert all(m is None for m in marks), claim


def test_the_tools_and_commands_the_claims_name_exist():
    commands = {shlex.split(line)[1] for line in _cli_lines()}
    for _, _, checked, _ in CLAIMS:
        assert all((ROOT / p).is_file() for p in re.findall(r"`(tools/[\w/]+\.py)`", checked))
        assert set(re.findall(r"`pmelab ([\w-]+)` verdict", checked)) <= commands


def _cli_lines() -> list[str]:
    """The `pmelab ...` lines of README's sh blocks."""
    blocks = re.findall(r"```sh\n(.*?)```", README, flags=re.S)
    return [line for block in blocks for line in block.splitlines()
            if line.startswith("pmelab ")]


@pytest.mark.parametrize("line", _cli_lines())
def test_every_readme_command_parses(line):
    cli.build_parser().parse_args(shlex.split(line)[1:])


def test_the_verdict_table_lists_every_readme_command():
    listed = {row[0].strip("`") for row in _table("| Command |")}
    assert listed == {shlex.split(line)[1] for line in _cli_lines()}


def test_the_catalog_table_is_the_catalogs():
    # a default written <key> is taken from the problem's setting `key`
    catalogs = {"flux": pr.FLUX_CATALOG, "u0": pr.U0_CATALOG}
    rows = _table("| Key |")
    listed = {(key.strip("`"), re.search(r"`(\w+)`", entry)[1]) for key, entry, _ in rows}
    assert listed == {(key, name) for key, cat in catalogs.items() for name in cat}
    for key, entry, params in rows:
        _, defaults = catalogs[key.strip("`")][re.search(r"`(\w+)`", entry)[1]]
        text = re.search(r"`([^`]*)`", params)
        written = dict(p.split("=") for p in text[1].split()) if text else {}
        assert set(written) == set(defaults), entry
        for name, value in written.items():
            if value.startswith("<"):
                assert value[1:-1] in pr._KNOWN_KEYS, (entry, name)
            else:
                assert float(value) == defaults[name], (entry, name)
