"""The names other code reads off the package: the README's import block and
the benchmark's attribute chains."""

import ast
import json
import os
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
