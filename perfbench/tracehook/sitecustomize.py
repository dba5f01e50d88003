"""Arms the benchmark's span recorder in traced server processes.

The traced run puts this directory on the children's ``PYTHONPATH``
and names a trace directory in ``PERFBENCH_TRACE_DIR``; Python imports
``sitecustomize`` at start-up, before ``wolves serve`` or ``wolves
cluster`` imports anything, so the wrappers are in place before the
first job.  Without the variable this module does nothing.
"""

import pbtrace

pbtrace.install_from_env()
