import ast
import builtins
import pathlib

import pytest

import pmelab
from pmelab import cli
from pmelab.errors import ConfigError, RunError

SOURCES = sorted(pathlib.Path(pmelab.__file__).parent.glob("*.py"))
RAISABLE = {"ConfigError", "RunError"}


def _name(node) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return getattr(node, "id", "")


def _is_exception(name: str) -> bool:
    builtin = getattr(builtins, name, None)
    return (name.endswith(("Error", "Exception"))
            or isinstance(builtin, type) and issubclass(builtin, BaseException))


def test_exception_classes_only_in_errors_module():
    assert "errors.py" in [p.name for p in SOURCES]
    defined = [f"{p.name}:{node.lineno} {node.name}"
               for p in SOURCES if p.name != "errors.py"
               for node in ast.walk(ast.parse(p.read_text()))
               if isinstance(node, ast.ClassDef)
               and any(_is_exception(_name(b)) for b in node.bases)]
    assert defined == []


def test_every_raise_names_an_allowed_class():
    stray = [f"{p.name}:{node.lineno} {_name(node.exc)}"
             for p in SOURCES
             for node in ast.walk(ast.parse(p.read_text()))
             if isinstance(node, ast.Raise) and node.exc is not None
             and _name(node.exc) not in RAISABLE]
    assert stray == []


@pytest.mark.parametrize("exc, code", [(ConfigError("bad input"), 2),
                                       (RunError("could not finish"), 1)])
def test_dispatch_maps_the_two_classes(monkeypatch, tmp_path, exc, code, capsys):
    def command(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_moser_table", command)
    assert cli.dispatch(["--outdir", str(tmp_path), "moser-table"]) == code
    assert str(exc) in capsys.readouterr().err
