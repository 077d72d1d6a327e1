"""Start-up hook for the traced run's shard processes.

The traced run's server puts this directory on ``PYTHONPATH`` and sets
``CDASBENCH_TRACE_DIR`` before the shard router spawns its workers, so
every shard interpreter loads this module at start-up.  It installs the
benchmark's span wrappers (:mod:`layers`, role ``shard``) and writes the
process's spans to ``$CDASBENCH_TRACE_DIR/shard-<pid>.json`` when it
receives ``SIGUSR1``.  Without ``CDASBENCH_TRACE_DIR`` it does nothing.
"""

import os
import signal
import sys


def _install() -> None:
    trace_dir = os.environ.get("CDASBENCH_TRACE_DIR")
    if not trace_dir:
        return
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import layers
    from spans import Tracer

    tracer = Tracer()
    layers.install(tracer, role="shard")
    path = os.path.join(trace_dir, f"shard-{os.getpid()}.json")

    def write_spans(_signum, _frame) -> None:
        partial = path + ".part"
        layers.dump(tracer, partial)
        os.replace(partial, path)

    signal.signal(signal.SIGUSR1, write_spans)


_install()
