"""The benchmark tracer's targets exist in the package.

perfbench/tracing.py wraps the public functions named in its TARGETS.  A
target that no longer exists is recorded as missing and every metric
that reads it is dropped without an error, a layer total such as
rewrite.self_s included.  TARGETS is only read here: tracing.install
rewraps package functions globally.
"""

import importlib.util
from pathlib import Path

import freehopf

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(path):
    # as tracing.install resolves it: a method found in the __mro__ of the
    # package's public class, or a callable package attribute
    owner, _, attr = path.rpartition(".")
    if not owner:
        return callable(getattr(freehopf, attr, None))
    for klass in getattr(getattr(freehopf, owner, None), "__mro__", ()):
        if attr in vars(klass):
            raw = vars(klass)[attr]
            return isinstance(raw, (staticmethod, classmethod)) or callable(raw)
    return False


def test_every_tracer_target_exists():
    targets = [path for path, _, _ in _tracing().TARGETS]
    assert targets
    assert [path for path in targets if not _resolves(path)] == []
