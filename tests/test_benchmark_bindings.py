"""The benchmark's tracer (perfbench/tracer.py) wraps library functions and
methods by name. This checks, in a fresh interpreter, that every name it
wraps still exists and is wrapped wherever an irvsim module binds it, so a
change that deletes or renames one fails here."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracer
# Decorated methods carry __wrapped__ already, so each must also be a new object.
originals = {(cls, attr): cls.__dict__[attr] for cls, attr, _, _ in tracer._method_targets()}
tracer.install(tracer.Tracer())
from irvsim import asymptotics, cli, experiments, zones

def wrapped(fn):
    return hasattr(fn, "__wrapped__")

missing = [name for module, attr, name, _ in tracer._function_targets()
           if not wrapped(getattr(module, attr))]
missing += [name for cls, attr, name, _ in tracer._method_targets()
            if not wrapped(cls.__dict__[attr]) or cls.__dict__[attr] is originals[cls, attr]]
# Names bound with `from ... import` are rebound too.
rebound = {"experiments._map_chunks": experiments._map_chunks,
           "asymptotics.irv_batch": asymptotics.irv_batch,
           "asymptotics.plurality_batch": asymptotics.plurality_batch,
           "asymptotics.shares_batch": asymptotics.shares_batch,
           "cli.write_csv": cli.write_csv,
           "zones.vote_shares": zones.vote_shares}
missing += [name for name, fn in rebound.items() if not wrapped(fn)]
print(json.dumps(missing))
"""


def test_tracer_wraps_every_target():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _PROBE, str(ROOT / "perfbench")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
