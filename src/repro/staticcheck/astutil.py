"""Small AST helpers shared by the rules and the facts extractor."""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple

FunctionNode = (ast.FunctionDef, ast.AsyncFunctionDef)


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for Name/Attribute chains, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def self_attr(node: ast.AST) -> Optional[str]:
    """``X`` for ``self.X`` nodes, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def iter_functions(
    class_node: ast.ClassDef,
) -> Iterator[Tuple[str, ast.AST]]:
    """Top-level methods of a class, as (name, node)."""
    for stmt in class_node.body:
        if isinstance(stmt, FunctionNode):
            yield stmt.name, stmt


def call_name(node: ast.Call) -> Optional[str]:
    return dotted_name(node.func)

