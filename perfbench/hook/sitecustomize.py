"""Install the benchmark's span wrappers in every traced daemon process.

The benchmark puts this directory on ``PYTHONPATH`` only for a traced
run, together with ``PERFBENCH_SPANS=<dir>``.  Python imports
``sitecustomize`` at start-up, so the ``serve``/``fleet`` process and
every shard the fleet supervisor spawns wrap the layer functions before
any solver pool forks its workers.
"""

import os
import sys

if os.environ.get("PERFBENCH_SPANS"):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import spans

    spans.install()
