"""Every absolute ``repro.*`` Sphinx cross-reference in ``src`` resolves.

Docstrings point readers at functions, classes, methods, modules and
attributes by dotted path (``:func:`repro.x.y```, ``:class:`~repro.x.Y```,
``:meth:`text <repro.x.Y.z>```).  A rename or deletion that leaves such a
pointer behind sends the reader to a name that does not exist; this test
imports the target of each one.
"""

import importlib
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: ``:role:`target``` or ``:role:`title <target>``` for the roles checked.
REFERENCE = re.compile(r":(?:func|class|meth|mod|attr):`([^`]+)`")


def references():
    """``(file:line, dotted target)`` of every absolute ``repro.*`` reference."""
    found = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        text = path.read_text()
        for match in REFERENCE.finditer(text):
            target = match.group(1)
            if "<" in target:
                target = target[target.index("<") + 1 : target.rindex(">")]
            target = target.lstrip("~").strip()
            if target.startswith("repro."):
                line = text.count("\n", 0, match.start()) + 1
                found.append((f"{path.relative_to(SRC)}:{line}", target))
    return found


def resolve(target):
    """Import the longest module prefix of ``target`` and walk the rest."""
    parts = target.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for name in parts[split:]:
            fields = getattr(obj, "__dataclass_fields__", {})
            if hasattr(obj, name):
                obj = getattr(obj, name)
            elif name in fields or name in getattr(obj, "__annotations__", {}):
                obj = None  # a dataclass field or annotated attribute
            else:
                raise AttributeError(f"{'.'.join(parts[:split])} has no {name!r}")
        return obj
    raise ModuleNotFoundError(target)


REFERENCES = references()

#: Each distinct target once, with every place that names it.
TARGETS = {}
for _where, _target in REFERENCES:
    TARGETS.setdefault(_target, []).append(_where)


def test_references_are_found():
    # The scan itself works: src cross-references its modules heavily.
    assert len(REFERENCES) > 100


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_reference_resolves(target):
    try:
        resolve(target)
    except (AttributeError, ImportError) as exc:
        pytest.fail(f"{target} (named at {', '.join(TARGETS[target])}) does not resolve: {exc}")
