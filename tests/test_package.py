"""Package-level tests: the export rule, the one home of the domain kinds and of the
disk rules, and the README's examples."""

import ast
import inspect
import pathlib
import re
import shlex

import cmetric
from cmetric import contraction, domains, errors, fixed_point, holomaps, metric_core
from cmetric.cli import main

MODULES = (errors, metric_core, domains, holomaps, contraction, fixed_point)

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_the_package_exports_each_module_list_once():
    joined = [name for module in MODULES for name in module.__all__]
    assert cmetric.__all__ == ["__version__", *joined]
    assert len(set(cmetric.__all__)) == len(cmetric.__all__)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(cmetric, name) is getattr(module, name)
    star = {}
    exec("from cmetric import *", star)
    assert set(star) - {"__builtins__"} == set(cmetric.__all__)


def test_only_domains_and_the_cli_name_a_domain_kind():
    # every other module works on the chart A·Δⁿ + b alone, never on a domain's class
    kinds = {
        name for name, obj in vars(domains).items()
        if inspect.isclass(obj) and issubclass(obj, domains.Domain) and not inspect.isabstract(obj)
    }
    assert kinds == {"UnitDisk", "ScaledDisk", "AffineDiskImage", "Polydisk", "AffineImage"}
    source = pathlib.Path(domains.__file__).parent
    for path in sorted(source.glob("*.py")):
        if path.name in ("domains.py", "cli.py"):
            continue
        named = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.update({node.name, node.asname})
        assert not named & kinds, f"{path.name} names {sorted(named & kinds)}"


def test_only_metric_core_compares_a_modulus_with_one():
    # membership in the disk is ``metric_core._inside``, which also counts an overflowing
    # modulus as outside; a new ``abs(m) < 1.0`` would state it again without that case
    def is_abs(node):
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "abs"

    def is_one(node):
        return isinstance(node, ast.Constant) and node.value == 1.0

    source = pathlib.Path(metric_core.__file__).parent
    found = []
    for path in sorted(source.glob("*.py")):
        if path.name == "metric_core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            operands = [node.left, *node.comparators] if isinstance(node, ast.Compare) else []
            if any(map(is_abs, operands)) and any(map(is_one, operands)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_metric_core_states_the_disk_rules():
    # bulk membership (``_below``) and the quotient's numpy forms live in ``metric_core``;
    # a module that names these would state a disk rule a second time
    numpy_names, constants = {"abs", "hypot", "log1p"}, {"_TINY"}
    source = pathlib.Path(metric_core.__file__).parent
    found = set()
    for path in sorted(source.glob("*.py")):
        if path.name == "metric_core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Attribute)
                and getattr(node.value, "id", None) == "np"
                and node.attr in numpy_names
                or isinstance(node, ast.Name) and node.id in constants
                or isinstance(node, ast.alias) and node.name in constants
            ):
                found.add(f"{path.name}:{node.lineno}")
    assert sorted(found) == []


def _block(text, lang, after):
    """The first fenced ``lang`` block of ``text`` that follows the line ``after``."""
    return re.search(rf"^{re.escape(after)}\n.*?^```{lang}\n(.*?)^```$", text, re.M | re.S)[1]


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    exec(_block(text, "python", "## Library quickstart"), {})
    assert capsys.readouterr().out
    monkeypatch.chdir(tmp_path)
    commands = 0
    for line in _block(text, "sh", "Example:").splitlines():
        words = shlex.split(line)
        if words[0] == "echo":
            assert words[2] == ">"
            (tmp_path / words[3]).write_text(words[1] + "\n", encoding="utf-8")
        else:
            assert words[0] == "cmetric"
            assert main(words[1:]) == 0
            commands += 1
    assert commands == 2
    rows = (tmp_path / "sweep.csv").read_text(encoding="utf-8").splitlines()
    assert rows[0].startswith("config,") and len(rows) == 1 + 5
