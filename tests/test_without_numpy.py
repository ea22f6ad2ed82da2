"""The package works without numpy.

numpy is optional: tables shorter than the kernel threshold always run
the pure-python kernels, and a numpy-less install runs them everywhere.
This runs a fresh interpreter in which ``import numpy`` fails (a
``sys.meta_path`` finder refuses it), so the check holds on an install
that does have numpy too.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import textwrap

import repro

SCRIPT = textwrap.dedent(
    """
    import sys

    class RefuseNumpy:
        def find_spec(self, name, path=None, target=None):
            if name == "numpy" or name.startswith("numpy."):
                raise ImportError(f"{name} is blocked")
            return None

    sys.meta_path.insert(0, RefuseNumpy())

    import repro
    from repro.mediator.session import Mediator
    from repro.relational import columnar
    from repro.sources.generators import dmv_fig1
    from repro.sources.sampling import calibrate_federation

    assert not columnar.numpy_available()
    for backend in ("sequential", "runtime"):
        federation, query = dmv_fig1()
        items = Mediator(federation, backend=backend).answer(query).items
        assert items == {"J55", "T21"}, (backend, items)
    federation, query = dmv_fig1()
    fitted = calibrate_federation(federation, list(query.conditions))
    assert sorted(fitted) == sorted(federation.source_names)
    assert "numpy" not in sys.modules
    print("ok")
    """
)


def test_import_answer_and_calibrate_without_numpy():
    src = str(pathlib.Path(repro.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
