"""``import_time_digest`` strips bodies on shallow copies.

The reference below is the deep-copy implementation it replaced: copy
the whole module, replace the bodies in place, hash the dump.  The
shallow version must give the same digest on every module, and must
leave the shared tree it was handed exactly as it found it.
"""

from __future__ import annotations

import ast
import copy
import hashlib
import textwrap
from pathlib import Path

import pytest

import repro
from repro.devtools.analyze.project import ModuleInfo, Project
from repro.devtools.analyze.symbols import has_opaque_decorator, import_time_digest


def deep_copy_reference(info: ModuleInfo) -> str:
    tree = copy.deepcopy(info.tree)
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stmt.body = [ast.Pass()]
        elif isinstance(stmt, ast.ClassDef) and not has_opaque_decorator(stmt):
            for inner in stmt.body:
                if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    inner.body = [ast.Pass()]
    dump = ast.dump(tree, include_attributes=False)
    return hashlib.sha256(dump.encode("utf-8")).hexdigest()


def assert_matches_reference(info: ModuleInfo) -> None:
    before = ast.dump(info.tree, include_attributes=True)
    assert import_time_digest(info) == deep_copy_reference(info), info.name
    assert ast.dump(info.tree, include_attributes=True) == before, info.name


FIXTURE = '''
"""A module exercising every branch of the stripping."""
import functools
from dataclasses import dataclass, field

LIMIT = 3


def plain(x: int = LIMIT) -> int:
    return x + 1


async def fetch(delay: float = 0.5) -> None:
    await something(delay)


@functools.lru_cache(maxsize=None)
def cached(n):
    return n * 2


@dataclass(frozen=True)
class Point:
    x: int = 0
    ys: list = field(default_factory=list)

    def norm(self) -> int:
        return abs(self.x)

    async def later(self):
        return self.x


def register(cls):
    cls().norm()
    return cls


@register
class Registered:
    def norm(self):
        return 7


class Outer:
    SCALE = 2

    class Inner:
        def depth(self):
            return 1

    def scaled(self, v):
        return v * self.SCALE


class Marker:
    """No methods at all."""

    tag = "marker"


if LIMIT > 2:
    def conditional():
        return LIMIT
'''


@pytest.fixture
def fixture_info(tmp_path):
    path = tmp_path / "fixture_mod.py"
    source = textwrap.dedent(FIXTURE)
    path.write_text(source, encoding="utf-8")
    return ModuleInfo(
        name="fixture_mod", path=path, source=source, tree=ast.parse(source)
    )


def test_fixture_module_matches_deep_copy_reference(fixture_info):
    assert_matches_reference(fixture_info)


def test_fixture_digest_ignores_bodies_but_not_surface(fixture_info):
    digest = import_time_digest(fixture_info)
    body_edit = fixture_info.source.replace("return x + 1", "return x + 2")
    surface_edit = fixture_info.source.replace("LIMIT = 3", "LIMIT = 4")
    opaque_edit = fixture_info.source.replace("return 7", "return 8")

    def digest_of(source: str) -> str:
        return import_time_digest(
            ModuleInfo(
                name="fixture_mod",
                path=fixture_info.path,
                source=source,
                tree=ast.parse(source),
            )
        )

    assert digest_of(body_edit) == digest
    assert digest_of(surface_edit) != digest
    # an opaquely decorated class stays whole: its bodies may run at import
    assert digest_of(opaque_edit) != digest


def test_every_module_of_the_real_tree_matches_reference():
    src = Path(repro.__file__).resolve().parent
    project, modules = Project.from_paths([src])
    assert len(modules) > 100
    for name in modules:
        info = project.get(name)
        assert info is not None
        assert_matches_reference(info)
