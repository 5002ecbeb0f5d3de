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


# Public functions that no command calls, each kept for the reason beside it.
UNREACHED_ON_PURPOSE = {
    # the paper's norm-halving exponents in closed form; test_halving_* pins them
    "exponents.halving_exponents",
    "barenblatt.sup_value",  # exact sup-norm power law, the oracle of criterion 3
    # criterion 7; needs >= 20 snapshots, and decay-study runs with 13 in criterion 10
    "harness.audit_energy_inequality",
}


def _references(node) -> list[str]:
    """The names that `node` reads, less the parameters and assignment targets
    bound inside it: a local `mass` is not a reference to `barenblatt.mass`."""
    bound = {a.arg for a in ast.walk(node) if isinstance(a, ast.arg)} | {
        ref.id for ref in ast.walk(node)
        if isinstance(ref, ast.Name) and isinstance(ref.ctx, ast.Store)}
    return [_name(ref) for ref in ast.walk(node)
            if isinstance(ref, ast.Attribute)
            or isinstance(ref, ast.Name) and ref.id not in bound]


def test_every_public_function_is_reached_from_the_cli():
    # name -> the code that a reference to the name reaches: a module-level
    # function, a class without its public methods, a module-level value; a
    # public method is reached by its own name, whatever the object it is read from
    nodes, public = {}, set()
    for p in SOURCES:
        for node in ast.parse(p.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                nodes.setdefault(node.name, []).append(node)
                if not node.name.startswith("_"):
                    public.add((p.stem, node.name, node.name))
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        nodes.setdefault(item.name, []).append(item)
                        public.add((p.stem, f"{node.name}.{item.name}", item.name))
                    else:
                        nodes.setdefault(node.name, []).append(item)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    nodes.setdefault(_name(target), []).append(node.value)
    reached, todo = set(), ["dispatch", "main"]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [ref for node in nodes.get(name, []) for ref in _references(node)]
    unreached = {f"{module}.{qualname}" for module, qualname, name in public
                 if name not in reached}
    assert unreached == UNREACHED_ON_PURPOSE


def test_every_record_field_is_read():
    # a dataclass field of the package must be read as an attribute in the
    # package or its tests, or belong to a record that dataclasses.asdict
    # writes out whole; else the value is kept for no one. It matches by name
    # alone, so a read of grid.n counts for every field called n; the echo
    # test below catches the fields that only hand back a caller's argument
    tests = sorted(pathlib.Path(__file__).parent.glob("*.py"))
    trees = {p: ast.parse(p.read_text()) for p in SOURCES + tests}
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    read = {node.attr for node in nodes
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    # the record written whole: asdict(name), name assigned the call of a
    # function whose return annotation is the record's class
    returns = {node.name: _name(node.returns) for node in nodes
               if isinstance(node, ast.FunctionDef) and node.returns is not None}
    made = {node.targets[0].id: returns.get(_name(node.value)) for node in nodes
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Call)}
    whole = {made.get(_name(arg)) for node in nodes
             if isinstance(node, ast.Call) and _name(node) == "asdict" for arg in node.args}
    unread = [f"{node.name}.{item.target.id}"
              for p in SOURCES for node in ast.walk(trees[p])
              if isinstance(node, ast.ClassDef) and node.name not in whole
              and any(_name(d) == "dataclass" for d in node.decorator_list)
              for item in node.body
              if isinstance(item, ast.AnnAssign) and item.target.id not in read]
    assert unread == []


def _echoes(fn: ast.FunctionDef, records: set) -> list[str]:
    """record.field for each keyword that a record returned by fn, built in a
    return, assigned to a returned name or stored into a returned container,
    sets from a bare parameter of fn or a loop variable over one."""
    params = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
    echoed = params | {name.id for loop in ast.walk(fn)
                       if isinstance(loop, (ast.For, ast.comprehension))
                       and _name(loop.iter) in params
                       for name in ast.walk(loop.target) if isinstance(name, ast.Name)}
    out = [node.value for node in ast.walk(fn) if isinstance(node, ast.Return) and node.value]
    returned = {name.id for value in out
                for name in (value.elts if isinstance(value, ast.Tuple) else [value])
                if isinstance(name, ast.Name)}
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and any(
                _name(t.value if isinstance(t, ast.Subscript) else t) in returned
                for t in node.targets):
            out.append(node.value)  # name = ..., container[key] = ...
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and _name(node.func.value) in returned):
            out += node.args  # container.append(...)
    return [f"{_name(call)}.{kw.arg}" for value in out for call in ast.walk(value)
            if isinstance(call, ast.Call) and _name(call) in records
            for kw in call.keywords
            if isinstance(kw.value, ast.Name) and kw.value.id in echoed]


def test_no_record_echoes_its_builders_arguments():
    # a record that a function returns holds what the function found: a field set
    # from the function's own parameter hands the caller back what it passed in
    trees = [ast.parse(p.read_text()) for p in SOURCES]
    records = {node.name for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)
               and any(_name(d) == "dataclass" for d in node.decorator_list)}
    echoes = sorted({field for tree in trees for fn in ast.walk(tree)
                     if isinstance(fn, ast.FunctionDef) for field in _echoes(fn, records)})
    assert echoes == []


def test_frozen_objects_are_set_only_in_post_init():
    # object.__setattr__ writes through a frozen dataclass; outside the class's
    # own __post_init__ it would change an object after it is built
    stray = []
    for p in SOURCES:
        tree = ast.parse(p.read_text())
        building = {id(node) for fn in ast.walk(tree)
                    if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"
                    for node in ast.walk(fn)}
        stray += [f"{p.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                  and _name(node.value) == "object" and id(node) not in building]
    assert stray == []


def test_no_module_caches_or_threads():
    # a step plan belongs to a run (built once and passed to solver.advance), so no module
    # keeps a process-wide cache, and the package starts no threads
    stray = []
    for p in SOURCES:
        for node in ast.walk(ast.parse(p.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute) and _name(node.value) == "functools":
                names = [f"functools.{node.attr}"]
            else:
                continue
            stray += [f"{p.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] == "threading"
                      or name in ("functools.lru_cache", "functools.cache")]
    assert stray == []
