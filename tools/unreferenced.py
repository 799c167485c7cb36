"""Census of what nothing uses; exits 1 when it finds something.

Two rules, one walk over ``src/``, ``benchmarks/``, ``examples/``,
``tests/`` and ``docs/``:

1. **Definitions.**  Every top-level function, class and public method
   under ``src/repro`` whose name no line mentions outside its own
   definition, ``__all__`` lists, ``_EXPORTS`` tables and package
   ``__init__`` re-export imports is printed ``path:line: name is
   referenced nowhere``.
2. **Parameters.**  Every parameter with a default — of a top-level
   function, a method, a constructor or a ``@dataclass`` (its init
   fields) under ``src/repro`` — that no call site in a ``*.py`` file
   passes is printed ``path:line: Name(param) is passed nowhere``.
   Calls are matched by the callee's *name* and conservatively: a
   keyword of that name, enough positional arguments to reach it, a
   ``*args`` or ``**kwargs`` at a call of that name, a
   ``functools.partial`` of it, a ``dataclasses.replace(obj, param=...)``
   (any dataclass with that field), ``cls(...)`` inside the class and
   ``super().__init__(...)`` for its bases all count as passing.  A
   call a function makes *through one of its own parameters* —
   ``factory(name, **kw)`` inside ``def _get(self, factory, ...)`` — is
   credited to whatever name a caller hands that parameter
   (``_get(Counter, ...)`` is that call of ``Counter``); a function
   merely held as a value (a registry entry) is credited nothing.

Rule 2 gates every package under ``src/repro``: a parameter nothing
passes fails the run.  A parameter that only ``tests/`` pass is printed
as a ``note:`` line, and fails the run too unless the allow-list names
it with the test or ROADMAP item that keeps it.  The last line is the
tally ``N parameters with defaults, M passed nowhere, K allowed; noted:
T passed only by tests``.

``tools/unreferenced_allow.txt`` is the allow-list of both rules, one
entry a line: ``name  # reason`` keeps a definition, ``Name(param)  #
reason`` (``Class(param)`` for a constructor or dataclass,
``Class.method(param)`` for a method) keeps a parameter, passed nowhere
or only by tests.  The reason is mandatory — it names the open ROADMAP
item that will pass the parameter or the test it is the lever of — and
an entry that no longer matches a finding is an error, so the list
cannot outlive what it excuses.
"""

import ast
import re
import sys
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORD = re.compile(r"[A-Za-z_]\w*")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
EVERY = 10 ** 6  # "*args at the call": every position is passed


def _is_export(node: ast.stmt, in_init: bool) -> bool:
    targets = getattr(node, "targets", [getattr(node, "target", None)])
    return (in_init and isinstance(node, ast.ImportFrom)) or any(
        getattr(t, "id", "") in ("__all__", "_EXPORTS") for t in targets)


def _name(node: ast.expr) -> str:
    """``f`` for the expressions ``f`` and ``x.y.f``, else ``""``."""
    return getattr(node, "attr", getattr(node, "id", ""))


def _decorators(node) -> set[str]:
    """Bare names of a definition's decorators (``dataclass`` for
    ``@dataclasses.dataclass(frozen=True)``)."""
    return {ast.unparse(d).split("(")[0].split(".")[-1]
            for d in node.decorator_list}


def _signature(fn, bound: bool):
    """``(positional names, {defaulted name: line})`` of one ``def``."""
    args = fn.args
    positional = (args.posonlyargs + args.args)[1 if bound else 0:]
    defaulted = {a.arg: a.lineno for a in
                 positional[len(positional) - len(args.defaults):]}
    defaulted.update((a.arg, a.lineno) for a, d in
                     zip(args.kwonlyargs, args.kw_defaults) if d is not None)
    return [a.arg for a in positional], defaulted


def _fields(cls: ast.ClassDef):
    """The init fields of a ``@dataclass`` body, as ``_signature`` gives."""
    positional, defaulted = [], {}
    for node in cls.body:
        if not isinstance(node, ast.AnnAssign) or \
                "ClassVar" in ast.unparse(node.annotation):
            continue
        value = node.value
        spec = {k.arg: k.value for k in value.keywords} if isinstance(
            value, ast.Call) and _name(value.func) == "field" \
            else None
        if spec and getattr(spec.get("init"), "value", True) is False:
            continue
        positional.append(node.target.id)
        if value is not None and (spec is None or
                                  spec.keys() & {"default", "default_factory"}):
            defaulted[node.target.id] = node.lineno
    return positional, defaulted


def signatures(tree: ast.Module):
    """``(callee name, label, positional, defaulted, is_dataclass)`` of
    every top-level function, method, constructor and dataclass."""
    for node in tree.body:
        if isinstance(node, DEFS[:2]):
            yield (node.name, node.name, *_signature(node, False), False)
        if not isinstance(node, ast.ClassDef):
            continue
        if "dataclass" in _decorators(node):
            yield (node.name, node.name, *_fields(node), True)
        for fn in node.body:
            if not isinstance(fn, DEFS[:2]):
                continue
            bound = "staticmethod" not in _decorators(fn)
            if fn.name == "__init__":
                yield (node.name, node.name, *_signature(fn, bound), False)
            elif not fn.name.startswith("__"):
                yield (fn.name, f"{node.name}.{fn.name}",
                       *_signature(fn, bound), False)


def calls(tree: ast.AST, owner: ast.ClassDef | None = None):
    """``(callee name, positional count, keyword names or None for
    **kwargs, handed)`` of every call; ``cls(...)`` and
    ``super().__init__(...)`` are resolved against the enclosing class.
    ``handed`` maps a position or keyword to the name given there."""
    for node in ast.iter_child_nodes(tree):
        yield from calls(node, node if isinstance(node, ast.ClassDef)
                         else owner)
    if not isinstance(tree, ast.Call):
        return
    func, args = tree.func, tree.args
    names = [_name(func)]
    if names == ["partial"] and args:
        names, args = [_name(args[0])], args[1:]
    elif owner and names == ["cls"]:
        names = [owner.name]
    elif owner and names == ["__init__"]:
        names = [_name(base) for base in owner.bases]
    count = EVERY if any(isinstance(a, ast.Starred) for a in args) \
        else len(args)
    keywords = None if any(k.arg is None for k in tree.keywords) \
        else {k.arg for k in tree.keywords}
    handed = {at: _name(value) for at, value in
              [*enumerate(args), *((k.arg, k.value) for k in tree.keywords)]
              if _name(value)}
    for name in names:
        yield name, count, keywords, handed


def relays(tree: ast.Module):
    """``(function name, parameter, its position, positional count,
    keyword names)`` of every call a function makes *through* one of its
    own parameters — ``factory(name, **kw)`` in ``def _get(self, factory,
    ...)`` — so that ``_get(Counter, ...)`` counts as that call of
    ``Counter``."""
    for fn in ast.walk(tree):
        if not isinstance(fn, DEFS[:2]):
            continue
        params = [a.arg for a in fn.args.posonlyargs + fn.args.args]
        params = params[1 if params[:1] in (["self"], ["cls"]) else 0:]
        for name, count, keywords, _ in calls(fn):
            if name in params:
                yield fn.name, name, params.index(name), count, keywords


class Passed:
    """What the call sites of one origin (code, or tests) pass."""

    def __init__(self):
        self.positions, self.keywords = Counter(), defaultdict(set)
        self.everything = set()

    def add(self, name, count, keywords):
        self.positions[name] = max(self.positions[name], count)
        if keywords is None:
            self.everything.add(name)
        else:
            self.keywords[name] |= keywords

    def passes(self, name, param, index, is_dataclass) -> bool:
        return name in self.everything or param in self.keywords[name] or \
            (index is not None and index < self.positions[name]) or \
            (is_dataclass and param in self.keywords["replace"])


def allow_list() -> tuple[dict[str, int], list[str]]:
    """``{entry: line number}`` and the lines that give no reason."""
    entries, bad = {}, []
    path = ROOT / "tools/unreferenced_allow.txt"
    for number, line in enumerate(path.read_text().splitlines(), 1):
        entry, _, reason = (part.strip() for part in line.partition("#"))
        if entry and not reason:
            bad.append(f"{path.relative_to(ROOT)}:{number}: "
                       f"{entry} is allowed without a # reason")
        elif entry:
            entries[entry] = number
    return entries, bad


def main() -> int:
    allowed, problems = allow_list()
    mentions, own, where = Counter(), Counter(), {}
    code, tests, params = Passed(), Passed(), []
    handoffs, through = [], defaultdict(list)
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
            in_src = ROOT / "src/repro" in path.parents
            nodes = [n for n in tree.body if isinstance(n, DEFS) and in_src]
            nodes += [m for n in nodes if isinstance(n, ast.ClassDef)
                      for m in n.body if isinstance(m, DEFS)
                      and not m.name.startswith("_")]
            for node in nodes:  # mentions inside the definition are its own
                where.setdefault(node.name,
                                 f"{path.relative_to(ROOT)}:{node.lineno}")
                own[node.name] += WORD.findall("\n".join(
                    lines[node.lineno - 1:node.end_lineno])).count(node.name)
            mentions.update(WORD.findall("\n".join(lines)))
            origin = tests if top == "tests" else code
            for name, count, keywords, handed in calls(tree):
                origin.add(name, count, keywords)
                handoffs.append((origin, name, handed))
            for name, *relay in relays(tree):
                through[name].append(relay)
            if in_src:
                rel = path.relative_to(ROOT)
                params += [(f"{rel}:{line}", f"{label}({param})", name, param,
                            positional.index(param) if param in positional
                            else None, is_dataclass)
                           for name, label, positional, defaulted, is_dataclass
                           in signatures(tree)
                           for param, line in defaulted.items()]
    for origin, name, handed in handoffs:
        for param, index, count, keywords in through.get(name, ()):
            target = handed.get(param) or handed.get(index)
            if target:
                origin.add(target, count, keywords)
    for name in sorted(where):
        if mentions[name] == own[name] and not name.startswith("__") \
                and not allowed.pop(name, 0):
            problems.append(f"{where[name]}: {name} is referenced nowhere")
    nowhere = n_allowed = n_tests = 0
    for at, label, name, param, index, is_dataclass in params:
        if code.passes(name, param, index, is_dataclass):
            continue
        if tests.passes(name, param, index, is_dataclass):
            n_tests += 1
            print(f"note: {at}: {label} is passed only by tests")
            if not allowed.pop(label, 0):
                problems.append(f"{at}: {label} is passed only by tests "
                                "and not named in the allow-list")
        else:
            nowhere += 1
            if allowed.pop(label, 0):
                n_allowed += 1
            else:
                problems.append(f"{at}: {label} is passed nowhere")
    problems += [f"tools/unreferenced_allow.txt:{number}: {entry} allows "
                 "nothing the census finds" for entry, number
                 in allowed.items()]
    print("\n".join(problems), end="\n" if problems else "")
    print(f"{len(params)} parameters with defaults, {nowhere} passed "
          f"nowhere, {n_allowed} allowed; noted: {n_tests} passed only by "
          "tests")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
