"""The benchmark's tracer (perfbench/tracing.py) wraps named functions of
nhcreutz; a rename or deletion there would break every traced run. The
tracer's tables are read from its source without importing or running it.
"""

import ast
from pathlib import Path

import nhcreutz
import nhcreutz.cli  # noqa: F401  (the tracer's run imports it too)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def tracer_tables():
    """The literal LAYERS and TRACED assignments of the tracer module."""
    tables = {}
    for node in ast.parse(TRACING.read_text(), str(TRACING)).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("LAYERS", "TRACED"):
                tables[name] = ast.literal_eval(node.value)
    return tables["LAYERS"], tables["TRACED"]


def test_every_traced_name_resolves():
    # Tracer.install looks each name up as getattr(nhcreutz.<layer>, name)
    layers, traced = tracer_tables()
    assert set(traced) <= set(layers)
    modules = {layer: getattr(nhcreutz, layer) for layer in layers}
    missing = [f"{layer}.{name}" for layer, names in traced.items()
               for name in names
               if not callable(getattr(modules[layer], name, None))]
    assert not missing
    assert sum(len(names) for names in traced.values()) >= 10
