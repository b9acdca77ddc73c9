"""Every public top-level function and class in ``src/sinr`` is used by the
package itself: a name only tests call belongs in ``tests/helpers.py``."""

import ast
import pathlib

import sinr

SRC = pathlib.Path(sinr.__file__).parent

#: Public names with no caller in ``src/sinr``, each kept for a stated reason.
EXEMPT = {
    "save_observations": "README defines the observations CSV through it",
    "write_env_raster": "README defines the ENVGRID format through it",
    "save_eval_grid": "README defines the EVALGRID bulk-parsed form through it",
    "bernoulli_entropy": "doctested reference for the me-* absence term",
}


def _referenced_names(tree: ast.Module) -> set[str]:
    """Names a module reads, as a bare name, an attribute or an import,
    outside the top-level definition of the same name."""
    names = set()
    for top in tree.body:
        own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name != own:
                names.add(name)
    return names


def test_every_public_definition_has_a_caller_in_src():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    used = set().union(*map(_referenced_names, trees.values()))
    public = {f"{module}:{node.name}" for module, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    unused = sorted(q for q in public if q.split(":")[1] not in used | EXEMPT.keys())
    assert unused == [], f"public names with no caller in src/sinr: {unused}"
    stale = sorted(EXEMPT.keys() & used)
    assert stale == [], f"exempt names that now have a caller: {stale}"
