"""The benchmark's outside-in tracer (bench/tracer.py) patches freqalloc
names at run time, so a rename under src/ would break it only when the
benchmark runs.  This installs it in a child process, where its patches
cannot reach this one."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHILD = """
import sys
sys.path[:0] = [{bench!r}, {src!r}]
from tracer import SPANS, Tracer, _resolve
from freqalloc import (allocation, checker, cli, frequencies, golden,
                       harness, plugin, systems)
from freqalloc.frequencies import Side

modules = {{m.__name__.rsplit(".", 1)[1]: m for m in (
    allocation, checker, cli, frequencies, golden, harness, plugin, systems)}}
missing = []
for sites in SPANS.values():
    for where, attr in sites:
        try:
            owner, name = _resolve(modules, where, attr)
        except AttributeError:
            missing.append(f"{{where}}.{{attr}}")
            continue
        if not hasattr(owner, name):
            missing.append(f"{{where}}.{{attr}}")
assert not missing, f"tracer sites that do not resolve: {{missing}}"

tracer = Tracer()
tracer.install()
for key, factory in systems.BUILTIN_SYSTEMS.items():
    assert getattr(systems, factory.__name__) is factory, key
    spec = factory()
    spec.sets(Side.A, 3, 2)
    spec.sets(Side.A, 3, 2)
assert len(tracer.generators) == len(systems.BUILTIN_SYSTEMS)
metrics = tracer.layer_metrics()
assert metrics["systems.sets.calls"] == 2 * len(systems.BUILTIN_SYSTEMS)
assert metrics["systems.gen_cache.hit_ratio"] == 0.5, metrics
print("ok")
"""


def test_tracer_installs_on_current_names():
    code = CHILD.format(bench=str(ROOT / "bench"), src=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
