"""List the defaulted parameters and public names of dosedid that no code uses.

    python scripts/option_audit.py [ROOT]

A name-based AST scan. Every function, method and dataclass field of
``src/dosedid`` that has a default is an option; every call anywhere in
``src``, ``tests``, ``demos``, ``scripts`` and ``perfbench`` sets the
options it passes, by keyword or by position. Matching is by name only: a
call ``f(...)`` or ``obj.f(...)`` counts for every function or method named
``f``, a call of a class name counts for that class's ``__init__`` or its
dataclass fields, and the keywords of ``replace(obj, ...)`` count for every
dataclass field of that name. A ``*args`` splat sets nothing, and a
``**kwargs`` splat into a dataclass sets the fields whose names its file
holds as string constants, as the key tables of ``config.py`` hold the
fields that a config block sets; one into ``replace`` sets nothing, since
it would credit every dataclass's field of each such name. So the scan
can miss an option a call sets through a renamed reference (a callback, a
dict of functions) or a ``replace`` splat, and can credit a call to the
wrong function of a shared name; read its list as candidates, not proof.

The public names are each module's ``__all__`` and the names
``dosedid/__init__.py`` imports. A name is reached when code in ``src``,
``demos``, ``scripts`` or ``perfbench`` reads it, as a name, an attribute
or an import, other than the package's re-export in ``__init__``; tests do
not count, since a name only tests reach belongs in ``tests/``
(docs/DECISIONS.md, D15). The same name-only matching applies.

The members are the methods, properties and dataclass fields of every
class of ``src/dosedid``, dunder methods excepted. A member is read when
code in ``USER_DIRS``, its own class included, loads an attribute of its
name or holds its name as a string (as ``getattr`` takes it); assigning a
field, or passing it to a constructor or ``replace``, is not a read, and
this script's own tables are not scanned. A call ``fields(C)`` of a class
name reads every member of ``C``, as code that walks the fields does.

It prints every option that no call sets, then every option that only
tests set, each with the reason it is kept when ``KEPT`` names one
(docs/DECISIONS.md, D12 and D21), then every public name that nothing
outside the tests reaches, with the reason it is kept when ``KEPT_PUBLIC``
names one, then every member that nothing outside the tests reads, with
the reason it is kept when ``KEPT_MEMBERS`` names one. It exits 1 when an
option that no call sets or that only tests set is not in ``KEPT``, an
unreached public name is not in ``KEPT_PUBLIC``, or an unread member is
not in ``KEPT_MEMBERS``.
"""

from __future__ import annotations

import ast
import sys
from collections import defaultdict
from pathlib import Path

CALLER_DIRS = ("src", "tests", "demos", "scripts", "perfbench")
# The code whose use of a public name keeps it public.
USER_DIRS = ("src", "demos", "scripts", "perfbench")

# Options that no call, or only tests, set but that stay, each with its
# reason.
KEPT = {
    ("write_panel", "schema"): "load_panel's counterpart; the file layout is a deployment setting",
    ("estimate_repeated", "grid"): "estimate_curve's public estimation argument",
    ("estimate_repeated", "bandwidth"): "estimate_curve's public estimation argument",
    ("placebo_curves", "bandwidth"): "estimate_curve's public estimation argument",
    ("NuisanceSpec", "kde_bandwidth"): "users set it in the nuisance config block (config._SPEC_KEYS), through replace",
}


# Public names that nothing outside the tests reaches but that stay, each
# with its reason.
KEPT_PUBLIC = {
    "scale_outcomes": "a documented panel preparation step (README's dosedid.panel row) for callers' own data",
    "generate_null_data": "the no-effect DGP that criterion 6 and the null tests draw from, for users' checks",
}


# Members that nothing outside the tests reads but that stay, each with its
# reason, keyed by (class, member). ``DensityEstimate.__call__``, which only
# the tests and the benchmark's tracer call, is a dunder method and so never
# listed.
KEPT_MEMBERS = {
    ("TwoPeriodDataset", "source_pair"): "the (pre, post) periods pair_periods carved the dataset from, its only record of them",
    ("LogisticFit", "iterations"): "IRLS's iteration count per fit, the diagnostic beside converged",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if (isinstance(target, ast.Name) and target.id == "dataclass") or (
            isinstance(target, ast.Attribute) and target.attr == "dataclass"
        ):
            return True
    return False


def _function_options(fn, skip_first: bool) -> dict:
    """``{defaulted name: positional index, or None if keyword-only}``."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args][1 if skip_first else 0 :]
    defaulted = {name: positional.index(name) for name in positional[len(positional) - len(args.defaults) :]}
    for a, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            defaulted[a.arg] = None
    return defaulted


def collect_options(package: Path) -> list[dict]:
    """One entry per callable of the package that has defaulted options."""
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defaulted = _function_options(node, skip_first=False)
                found.append(dict(file=path.name, name=node.name, label=node.name, defaulted=defaulted))
            elif isinstance(node, ast.ClassDef):
                found.extend(_class_options(path.name, node))
    return [entry for entry in found if entry["defaulted"]]


def _class_options(file: str, node: ast.ClassDef) -> list[dict]:
    out = []
    if _is_dataclass(node):
        fields = [s for s in node.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
        defaulted = {s.target.id: i for i, s in enumerate(fields) if s.value is not None}
        out.append(dict(file=file, name=node.name, label=node.name, defaulted=defaulted, fields=True))
    for item in node.body:
        if not isinstance(item, ast.FunctionDef):
            continue
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in item.decorator_list)
        defaulted = _function_options(item, skip_first=not static)
        if item.name == "__init__":
            out.append(dict(file=file, name=node.name, label=node.name, defaulted=defaulted))
        else:
            out.append(dict(file=file, name=item.name, label=f"{node.name}.{item.name}", defaulted=defaulted))
    return out


def _name(node: ast.expr) -> str | None:
    """The name that ``f`` or ``obj.f`` gives, else None."""
    return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None


class _CallCollector(ast.NodeVisitor):
    """Callee names with their positional counts and keywords; ``cls(...)``
    inside a class body names that class, and a ``**`` splat may pass any
    string constant of the file."""

    def __init__(self, rel: str, tree: ast.Module, calls, replaced):
        self.rel, self.calls, self.replaced = rel, calls, replaced
        self.classes: list[str] = []
        self.strings = {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)}

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.classes.append(node.name)
        self.generic_visit(node)
        self.classes.pop()

    def visit_Call(self, node: ast.Call) -> None:
        name = _name(node.func)
        if name == "cls" and self.classes:
            name = self.classes[-1]
        if name is not None:
            keywords = {k.arg for k in node.keywords if k.arg is not None}
            splat = self.strings if any(k.arg is None for k in node.keywords) else set()
            self.calls[name].append((self.rel, sum(not isinstance(a, ast.Starred) for a in node.args), keywords, splat))
            if name == "replace":
                for key in keywords:
                    self.replaced[key].append(self.rel)
        self.generic_visit(node)


def collect_calls(root: Path):
    """``{callee name: [(file, positional count, keywords, splat)]}``,
    where ``splat`` holds the strings a ``**`` splat may pass, and, for each
    keyword of a ``replace`` call, the files that pass it."""
    calls, replaced = defaultdict(list), defaultdict(list)
    for folder in CALLER_DIRS:
        for path in sorted((root / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            _CallCollector(path.relative_to(root).as_posix(), tree, calls, replaced).visit(tree)
    return calls, replaced


def audit(root: Path):
    """``(unset, test_only)``: lists of ``(file, callable, option)``."""
    options = collect_options(root / "src" / "dosedid")
    calls, replaced = collect_calls(root)
    unset, test_only = [], []
    for entry in options:
        for option, index in entry["defaulted"].items():
            setters = [
                rel
                for rel, n_pos, keywords, splat in calls.get(entry["name"], ())
                if option in keywords
                or (entry.get("fields") and option in splat)
                or (index is not None and index < n_pos)
            ]
            if entry.get("fields"):
                setters += replaced.get(option, [])
            label = (entry["file"], entry["label"], option)
            if not setters:
                unset.append(label)
            elif all(rel.startswith("tests/") for rel in setters):
                test_only.append(label)
    return unset, test_only


def public_names(package: Path) -> list[tuple[str, str]]:
    """``(file, name)`` for each entry of a module's ``__all__`` and each
    name ``__init__.py`` imports."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                found += [(path.name, elt.value) for elt in node.value.elts]
            elif path.name == "__init__.py" and isinstance(node, ast.ImportFrom):
                found += [(path.name, alias.asname or alias.name) for alias in node.names]
    return found


def reached_names(root: Path) -> set[str]:
    """Every name read, as a name, an attribute or an import, by the code in
    ``USER_DIRS`` other than the package's ``__init__.py``."""
    init = root / "src" / "dosedid" / "__init__.py"
    reached = set()
    for folder in USER_DIRS:
        for path in sorted((root / folder).rglob("*.py")):
            if path == init:
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    reached.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    reached.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    reached.update(alias.name for alias in node.names)
    return reached


def members(package: Path) -> list[tuple[str, str, str]]:
    """``(file, class, member)`` for each method, property and dataclass
    field of the package's classes, dunder methods excepted."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    name = item.name
                elif _is_dataclass(node) and isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    name = item.target.id
                else:
                    continue
                if not (name.startswith("__") and name.endswith("__")):
                    found.append((path.name, node.name, name))
    return found


def read_members(root: Path) -> tuple[set[str], set[str]]:
    """Every attribute name that the code in ``USER_DIRS`` loads, and every
    string it holds, other than this script's own tables; and the class
    names whose ``fields`` it lists."""
    read, listed = set(), set()
    for folder in USER_DIRS:
        for path in sorted((root / folder).rglob("*.py")):
            if path.name == Path(__file__).name:
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    read.add(node.value)
                elif isinstance(node, ast.Call) and _name(node.func) == "fields" and node.args:
                    listed.add(_name(node.args[0]))
    return read, listed


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1]
    unset, test_only = audit(root)
    unexplained = 0
    for title, found in (("no call sets", unset), ("only tests set", test_only)):
        print(f"Defaulted options that {title}:")
        for file, name, option in found:
            reason = KEPT.get((name.rsplit(".", 1)[-1], option))
            unexplained += reason is None
            print(f"  {file}: {name}({option})" + (f"  -- kept: {reason}" if reason else ""))
    if unexplained:
        print(f"{unexplained} option(s) that no call or only tests set and no entry of KEPT explains")
    reached = reached_names(root)
    unreached = 0
    print("Public names that no code in " + ", ".join(USER_DIRS) + " reaches:")
    for file, name in public_names(root / "src" / "dosedid"):
        if name in reached:
            continue
        reason = KEPT_PUBLIC.get(name)
        unreached += reason is None
        print(f"  {file}: {name}" + (f"  -- kept: {reason}" if reason else ""))
    if unreached:
        print(f"{unreached} public name(s) that nothing outside the tests reaches and no entry of KEPT_PUBLIC explains")
    read, listed = read_members(root)
    unread = 0
    print("Members that no code in " + ", ".join(USER_DIRS) + " reads:")
    for file, cls, name in members(root / "src" / "dosedid"):
        if name in read or cls in listed:
            continue
        reason = KEPT_MEMBERS.get((cls, name))
        unread += reason is None
        print(f"  {file}: {cls}.{name}" + (f"  -- kept: {reason}" if reason else ""))
    if unread:
        print(f"{unread} member(s) that nothing outside the tests reads and no entry of KEPT_MEMBERS explains")
    return 1 if unexplained or unreached or unread else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
