"""Census of definitions nothing references; exits 1 when it finds one.

Every top-level function, class and public method under ``src/repro``
whose name no line of ``src/``, ``benchmarks/``, ``examples/``, ``tests/``
or ``docs/`` mentions outside its own definition, ``__all__`` lists,
``_EXPORTS`` tables and package ``__init__`` re-export imports.  Names in
``tools/unreferenced_allow.txt`` are kept on purpose.
"""

import ast
import re
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORD = re.compile(r"[A-Za-z_]\w*")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_export(node: ast.stmt, in_init: bool) -> bool:
    targets = getattr(node, "targets", [getattr(node, "target", None)])
    return (in_init and isinstance(node, ast.ImportFrom)) or any(
        getattr(t, "id", "") in ("__all__", "_EXPORTS") for t in targets)


def main() -> int:
    allowed = {line.split("#")[0].strip() for line in (
        ROOT / "tools/unreferenced_allow.txt").read_text().splitlines()}
    mentions, own, where = Counter(), Counter(), {}
    for top in ("src", "benchmarks", "examples", "tests", "docs"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.suffix not in (".py", ".md"):
                continue
            lines = path.read_text(encoding="utf-8").splitlines()
            tree = ast.parse("\n".join(lines) if path.suffix == ".py" else "")
            for node in tree.body:
                if _is_export(node, path.name == "__init__.py"):
                    lines[node.lineno - 1:node.end_lineno] = \
                        [""] * (node.end_lineno - node.lineno + 1)
            nodes = [n for n in tree.body if isinstance(n, DEFS)
                     and ROOT / "src/repro" in path.parents]
            nodes += [m for n in nodes if isinstance(n, ast.ClassDef)
                      for m in n.body if isinstance(m, DEFS)
                      and not m.name.startswith("_")]
            for node in nodes:  # mentions inside the definition are its own
                where.setdefault(node.name,
                                 f"{path.relative_to(ROOT)}:{node.lineno}")
                own[node.name] += WORD.findall("\n".join(
                    lines[node.lineno - 1:node.end_lineno])).count(node.name)
            mentions.update(WORD.findall("\n".join(lines)))
    dead = sorted(name for name in where if mentions[name] == own[name]
                  and name not in allowed and not name.startswith("__"))
    for name in dead:
        print(f"{where[name]}: {name} is referenced nowhere")
    return 1 if dead else 0


if __name__ == "__main__":
    sys.exit(main())
