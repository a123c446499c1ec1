"""One module per workload.  Each exposes ``setup(root, seed, seconds)``
(untimed preparation; returns the prepared state with ``setup_s``),
``run(prepared, tracer=None)`` (the timed section; returns an
:class:`~perfbench.common.Outcome`), ``check(prepared, outcome)``
(correctness checks made after the timed section, with tracing off)
and ``teardown(prepared)``."""
