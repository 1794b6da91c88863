#!/usr/bin/env python
"""Docstring-presence lint for the shared runtime layers.

The data, history, serving and obs layers are the repository's
shared infrastructure — other layers program against their surfaces, so every
*public* module, class, function and method there must say what it
does.  This checker walks the AST (no imports, so it runs anywhere)
and fails listing each undocumented public definition.

Public means: name without a leading underscore, reachable without a
leading-underscore parent.  Dunder methods other than ``__init__`` are
exempt (their contracts are the language's); ``__init__`` may document
itself either directly or via its class docstring's parameter section,
so it is exempt too.  Trivial overrides whose body is a bare
``raise NotImplementedError`` or ``...`` still need the one line saying
what subclasses must do — no exemption.
"""

from __future__ import annotations

import ast
import os
import sys
from typing import List

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CHECKED_PACKAGES = ("src/repro/data", "src/repro/history",
                    "src/repro/serving", "src/repro/obs")


def _is_public(name: str) -> bool:
    return not name.startswith("_") or name == "__init__"


def _missing_in_file(path: str) -> List[str]:
    rel = os.path.relpath(path, REPO_ROOT)
    tree = ast.parse(open(path, encoding="utf-8").read(), filename=rel)
    missing: List[str] = []
    if ast.get_docstring(tree) is None:
        missing.append(f"{rel}:1 module")

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                continue
            name = child.name
            if name.startswith("__") and name.endswith("__"):
                continue                      # dunders: contract is the language's
            if not _is_public(name):
                continue
            qualified = f"{prefix}{name}"
            if ast.get_docstring(child) is None:
                kind = ("class" if isinstance(child, ast.ClassDef)
                        else "def")
                missing.append(f"{rel}:{child.lineno} {kind} {qualified}")
            if isinstance(child, ast.ClassDef):
                visit(child, f"{qualified}.")

    visit(tree, "")
    return missing


def main() -> int:
    missing: List[str] = []
    for package in CHECKED_PACKAGES:
        root = os.path.join(REPO_ROOT, package)
        for dirpath, _, filenames in os.walk(root):
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    missing.extend(
                        _missing_in_file(os.path.join(dirpath, filename)))
    if missing:
        print("undocumented public definitions "
              f"({len(missing)} — every public name in "
              f"{', '.join(p.split('/')[-1] for p in CHECKED_PACKAGES)} "
              "needs a docstring):", file=sys.stderr)
        for entry in sorted(missing):
            print(f"  {entry}", file=sys.stderr)
        return 1
    print("docstring lint: all public definitions documented in "
          + ", ".join(p.replace("src/", "").replace("/", ".")
                      for p in CHECKED_PACKAGES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
