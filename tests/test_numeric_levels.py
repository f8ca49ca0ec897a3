"""The byte pins at the lower numeric levels this host can emulate.

numpy's ``NPY_DISABLE_CPU_FEATURES`` and OpenBLAS's ``OPENBLAS_CORETYPE``
are read when a process starts, so each level runs a small pin set in a
child process of its own: ``normal_fill`` at the default parameter
count, the model pins, a default-width forward over more rows than one
evaluation block, the two kernel pins, and a ``vical run`` on
``SMALL_INI``. At a lower level ``log``, ``exp``, ``tanh`` and GEMMs round
differently, so some of these bytes move. Each level's hashes were
recorded on an AVX-512 host whose own level is numpy 2.4.6 dispatching
up to X86_V4 with OpenBLAS's SkylakeX core. The kernel pins and
``report.txt``, the numbers a reader sees, must be the same at every
level.
"""

import json
import os
import subprocess
import sys

import pytest

from conftest import dispatch_targets, host_fingerprint, openblas_core
from test_model import MODEL_PINS
from test_optim import ADAMW_PIN, IVON_PIN
from test_rng import NORMAL_FILL_PIN
from vical import cli

# prints one JSON line: the child's numerics and the pin set's sha256s
CHILD = """
import contextlib, hashlib, json, os, sys
import conftest, test_model, test_optim, test_rng
from test_harness import SMALL_INI
from vical import cli

work = sys.argv[1]
ini = os.path.join(work, "exp.ini")
with open(ini, "w", encoding="utf-8") as fh:
    fh.write(SMALL_INI)
with contextlib.redirect_stdout(sys.stderr):  # the run prints its table
    code = cli.run_cli(["run", "--config", ini, "--out", work])
pins = {"exit": code, "targets": conftest.dispatch_targets(), "core": conftest.openblas_core(),
        "normal_fill": test_rng.normal_fill_digest(),
        "adamw_core": test_optim.adamw_core_digest(), "ivon_core": test_optim.ivon_core_digest()}
pins["forward (16, 768, 4) 1235 rows"] = test_model.long_forward_digest()
for sizes in test_model.MODEL_PINS:
    for part, digest in test_model._pin_case(sizes).items():
        pins[f"model {sizes} {part}"] = digest
for name in ("report.csv", "report.txt"):
    with open(os.path.join(work, name), "rb") as fh:
        pins[name] = hashlib.sha256(fh.read()).hexdigest()
print(json.dumps(pins))
"""

# the pins at this host's own level
NATIVE = {
    "normal_fill": NORMAL_FILL_PIN,
    "adamw_core": ADAMW_PIN,
    "ivon_core": IVON_PIN,
    **{f"model {sizes} {part}": digest
       for sizes, parts in MODEL_PINS.items() for part, digest in parts.items()},
    # three evaluation blocks' worth of rows, recorded when the forward took
    # them in one GEMM; after `vical run` has set OpenBLAS to one thread
    "forward (16, 768, 4) 1235 rows": "243d29cb0afdaf97b7e390af547c744cacce319d8b1a464784c2288e53316f82",
    # `vical run` on SMALL_INI
    "report.csv": "49236718fbc514da09ae051b71fd4fe44727eea2951900b88d1f1b1a024c4431",
    "report.txt": "f9277c6e158b73721ba4a30d263142f5cacae553c13d75392fdc2185f95ba4ce",
}

# each level's environment, and the pins that differ there from NATIVE
LEVELS = {
    "native": ({}, {}),
    "X86_V4 off": ({"NPY_DISABLE_CPU_FEATURES": "X86_V4"}, {
        "normal_fill": "479d3f76446ad160cab2bf969d9ba148aae56f17837b09d88e6545c45a7e5e1e",
        "model (5, 3) mlp": "5f63ee2b186b777aefc081ffcd7d6f7c41fe9237088c6967b54b730f13e1fa03",
        "model (5, 3) lora": "da32ac26c521c70a811f4456c522427d6e33fc51449d8534c39b714460480da2",
        "model (5, 6, 4, 3) mlp": "b784ece301330c17b8423e4666e0c80e628d67040362e82dcd1c491de1bf4694",
        "model (5, 6, 4, 3) lora": "8f79c0c796a555f91c41a778027e8f83cb5439e7a4acffce3820ec79db9b1b75",
        "model (16, 768, 4) mlp": "ae14d3e7edd539c47f827841e59945db6fb763fec3336db74a5c4933c5eb4a81",
        "model (16, 768, 4) lora": "e6caf88177c4fab224dddc5350867cb5321a1bdee307d15be3cde93cbdbbb87e",
        "forward (16, 768, 4) 1235 rows": "67b767208f08b5c182fd2f12eec534136dfafc6c8fea5ac1f30217ac60163702",
    }),
    "X86_V4 and X86_V3 off": ({"NPY_DISABLE_CPU_FEATURES": "X86_V4,X86_V3"}, {
        "normal_fill": "479d3f76446ad160cab2bf969d9ba148aae56f17837b09d88e6545c45a7e5e1e",
        "model (5, 3) mlp": "5f63ee2b186b777aefc081ffcd7d6f7c41fe9237088c6967b54b730f13e1fa03",
        "model (5, 3) lora": "da32ac26c521c70a811f4456c522427d6e33fc51449d8534c39b714460480da2",
        "model (5, 6, 4, 3) mlp": "bc3843d60b0163163a4d4bbae58b52030989ca209faa525facfc6a0165a82d84",
        "model (5, 6, 4, 3) lora": "8a835eec75ffba77dc1ee77e43750f7aabfd1991ef6c53735a453a6b94cbf3f5",
        "model (16, 768, 4) mlp": "1cd413580062b5658606fa6176a29b5aa2eee3470e46d1c26f7708feb1885956",
        "model (16, 768, 4) lora": "56881e7853efb309850ea78eee5fc721eeaed6228a77524f7999e944a52716f5",
        "forward (16, 768, 4) 1235 rows": "2b7d83b0b53460450a193cb9bc5337975045cbe5738d8a1f8d08bedac591493f",
        "report.csv": "4e112c8b54727c4e0f2339f359aa60ebae91b14182373c93a71d0e0b7882bc27",
    }),
    "X86_V4 off, Haswell core": ({"NPY_DISABLE_CPU_FEATURES": "X86_V4",
                                  "OPENBLAS_CORETYPE": "Haswell"}, {
        "normal_fill": "479d3f76446ad160cab2bf969d9ba148aae56f17837b09d88e6545c45a7e5e1e",
        "model (5, 3) mlp": "5f63ee2b186b777aefc081ffcd7d6f7c41fe9237088c6967b54b730f13e1fa03",
        "model (5, 3) lora": "da32ac26c521c70a811f4456c522427d6e33fc51449d8534c39b714460480da2",
        "model (5, 6, 4, 3) mlp": "509675ec71274f62bdc4d1302b0aea9f350b729b2268877de921b82617cece34",
        "model (5, 6, 4, 3) lora": "63106c79279288b773dcea96f10ece169574307a45438725c598d43f7e34a42f",
        "model (16, 768, 4) mlp": "055dd30d079a9d80449ea927c17e8223fc138a706b343cc19d642f76769de0dd",
        "model (16, 768, 4) lora": "93051e91b420ffe67d4f7797a27750e72b798394881b1ac5ecca8cc8f588da15",
        "forward (16, 768, 4) 1235 rows": "07fdef7e3d9dd21f6eabc9b6049d74191b9b77fe3c7bfdfa1753b3a116ef4457",
    }),
}

_LEVEL_VARS = ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")


def _run_levels(tmp_path):
    """{level: the child's JSON line} for every level, all children at once."""
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    base = {k: v for k, v in os.environ.items() if k not in _LEVEL_VARS}
    base.update(PYTHONPATH=os.pathsep.join([src_dir, tests_dir]), PYTHONDONTWRITEBYTECODE="1")
    procs = {}
    for name in LEVELS:
        work = tmp_path / name.replace(" ", "_")
        work.mkdir()
        procs[name] = subprocess.Popen(
            [sys.executable, "-c", CHILD, str(work)], env={**base, **LEVELS[name][0]},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    results = {}
    try:
        for name, proc in procs.items():
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, f"{name}: {err}"
            results[name] = json.loads(out.splitlines()[-1])
    finally:  # a failed or hung child leaves none of its siblings running
        for proc in procs.values():
            proc.kill()
            proc.wait()
    return results


def test_pins_at_every_emulated_level(tmp_path):
    lacking = {"X86_V4", "X86_V3"} - set(dispatch_targets())
    if lacking:
        pytest.skip(f"numpy cannot dispatch to {sorted(lacking)} here, so no lower "
                    f"level can be emulated; {host_fingerprint()}")
    results = _run_levels(tmp_path)
    for name, got in results.items():
        env, moved = LEVELS[name]
        off = set(env.get("NPY_DISABLE_CPU_FEATURES", "").split(",")) - {""}
        assert not off & set(got.pop("targets")), f"{name}: the level did not take effect"
        assert got.pop("core") == env.get("OPENBLAS_CORETYPE", openblas_core()), name
        assert got.pop("exit") == 0, name
        assert got == {**NATIVE, **moved}, name
    assert len({got["report.txt"] for got in results.values()}) == 1
