import ast
import types
from pathlib import Path

import warppoly

ROOT = Path(__file__).resolve().parent.parent


def test_all_lists_every_public_name():
    bound = {
        name
        for name, value in vars(warppoly).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(warppoly.__all__) == sorted(bound)


def test_sources_parse_as_python_3_10():
    # the package declares requires-python >= 3.10; this checks the grammar
    # only, not the standard library calls
    sources = [
        path for folder in ("src", "scripts", "perfbench", "tests")
        for path in sorted((ROOT / folder).rglob("*.py"))
    ]
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
