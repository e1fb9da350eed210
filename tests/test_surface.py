"""The names other code reads off the package: the README's import block and
the benchmark's attribute chains."""

import ast
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import munchkin

ROOT = Path(__file__).resolve().parents[1]


def readme_surface_names():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library surface", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    (node,) = [n for n in ast.walk(ast.parse(code)) if isinstance(n, ast.ImportFrom)]
    assert node.module == "munchkin"
    return [alias.name for alias in node.names]


def _chain(node):
    """``m.a.b`` or ``self.m.a.b`` as ``["a", "b"]``; None for any other root."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    names.reverse()
    if isinstance(node, ast.Name) and node.id == "m":
        return names
    if isinstance(node, ast.Name) and node.id == "self" and names[:1] == ["m"]:
        return names[1:]
    return None


def bench_chains():
    chains = set()
    for name in ("campaigns.py", "run.py"):
        tree = ast.parse((ROOT / "bench" / name).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                chain = _chain(node)
                if chain:
                    chains.add(tuple(chain))
    return sorted(chains)


def test_every_readme_surface_name_is_exported():
    names = readme_surface_names()
    assert len(names) > 20
    assert set(names) <= set(munchkin.__all__), set(names) - set(munchkin.__all__)


def test_every_bench_attribute_chain_resolves_on_a_fresh_import():
    chains = bench_chains()
    assert ("run_fs",) in chains and ("report", "campaign_json_bytes") in chains
    # A fresh interpreter, so only the submodules `import munchkin` loads count.
    script = (
        "import functools, json, sys, munchkin\n"
        "missing = []\n"
        "for chain in json.loads(sys.argv[1]):\n"
        "    try:\n"
        "        functools.reduce(getattr, chain, munchkin)\n"
        "    except AttributeError:\n"
        "        missing.append('.'.join(chain))\n"
        "print(json.dumps(missing))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", script, json.dumps(chains)],
        env=env, capture_output=True, text=True,
    )
    assert out.stdout.strip() == "[]", out.stdout + out.stderr


def test_every_package_name_the_bench_reads_is_public():
    # ``bench/campaigns.py`` reads ``m.build_callgraph`` for fuzz-b2d9's
    # reachable count, outside the timed campaign: a package without that
    # name fails the workload with ``run_failed``. So every name the bench
    # reads off the package stays exported, or is a submodule.
    chains = bench_chains()
    assert ("build_callgraph",) in chains
    submodules = {info.name for info in pkgutil.iter_modules(munchkin.__path__)}
    heads = {chain[0] for chain in chains}
    assert heads <= set(munchkin.__all__) | submodules, heads - set(munchkin.__all__)
    for chain in chains:
        value = munchkin
        for name in chain:
            assert hasattr(value, name), ".".join(chain)
            value = getattr(value, name)


def test_build_callgraph_is_the_program_index_by_its_older_name():
    # The bench reads ``m.build_callgraph(program).reachable()``: the name
    # has no logic of its own, and the package has one call-graph record.
    program = munchkin.generate_program(munchkin.GenParams(2, 3))
    assert munchkin.build_callgraph(program) is munchkin.index_program(program)
    assert munchkin.build_callgraph(program).reachable() == frozenset(
        munchkin.index_program(program).depths
    )
    assert "CallGraph" not in munchkin.__all__


# ``bench/spans.py`` hooks that no campaign calls any more; the bench notes
# each as unbound, and its spans count zero calls.
STALE_HOOKS = {
    ("orchestrator", "build_callgraph"),
    ("orchestrator", "frontier_set"),
    ("symex", "build_callgraph"),
    ("callgraph", "sonar_distances"),
}


def spans_hooks():
    """``(module, attribute path)`` of each entry of ``bench/spans.py``'s ``HOOKS``."""
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["HOOKS"]:
            return [(module, path) for module, path, _ in ast.literal_eval(node.value)]
    raise AssertionError("bench/spans.py has no HOOKS")


def test_every_live_bench_hook_resolves_on_a_fresh_import():
    # A traced run wraps each binding it finds and skips the rest with only
    # a note: an unbound ``symex.Solver`` would skip the traced check that
    # solve calls equal queries plus cache hits.
    live = [hook for hook in spans_hooks() if hook not in STALE_HOOKS]
    assert ("symex", "Solver.solve") in live and ("symex", "run_concrete") in live
    script = (
        "import functools, importlib, json, sys\n"
        "missing = []\n"
        "for module, path in json.loads(sys.argv[1]):\n"
        "    owner = importlib.import_module('munchkin.' + module)\n"
        "    found = functools.reduce(lambda o, a: getattr(o, a, None), path.split('.'), owner)\n"
        "    if not callable(found):\n"
        "        missing.append(module + '.' + path)\n"
        "print(json.dumps(missing))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", script, json.dumps(live)],
        env=env, capture_output=True, text=True,
    )
    assert out.stdout.strip() == "[]", out.stdout + out.stderr
