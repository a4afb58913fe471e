"""Shared test configuration.

The threaded serve/adaptation suites coordinate client threads, a drain
thread, a feedback worker and an adaptation worker; a deadlock there
would hang CI until the job-level timeout with no diagnostics.
``pytest-timeout`` is not a baked-in dependency, so the guard is the
stdlib equivalent: tests marked ``threaded`` arm
``faulthandler.dump_traceback_later``, which dumps every thread's stack
and kills the process if a single test exceeds the watchdog budget —
failing fast with the evidence instead of hanging.
"""

import faulthandler
import os
import threading
import traceback

import pytest

# Generous per-test budget: the slowest threaded test (16-client stress
# across a retrain cycle) runs in seconds; only a genuine deadlock or a
# pathologically overloaded runner reaches this.
WATCHDOG_S = float(os.environ.get("REPRO_TEST_WATCHDOG_S", "300"))


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "threaded: drives background threads; armed with a faulthandler "
        f"watchdog that dumps all stacks and aborts after {WATCHDOG_S:.0f}s "
        "(override via REPRO_TEST_WATCHDOG_S)",
    )


@pytest.fixture(autouse=True)
def _fail_on_thread_exceptions():
    """Fail a test loudly when a background thread dies on an exception.

    ``threading.excepthook`` only prints to stderr by default, so an
    uncaught exception in a worker (drain loop, feedback collector,
    federation harvest thread) would pass the test and surface — maybe —
    as a hang or a missing counter much later.  Every repo worker loop
    is written to survive exceptions; anything reaching the hook is a
    bug by definition.  SystemExit is exempt (the normal way to end a
    thread early).
    """
    failures: list[threading.ExceptHookArgs] = []
    previous = threading.excepthook

    def record(args: threading.ExceptHookArgs) -> None:
        if args.exc_type is SystemExit:
            return
        failures.append(args)
        previous(args)

    threading.excepthook = record
    try:
        yield
    finally:
        threading.excepthook = previous
    if failures:
        rendered = "\n\n".join(
            f"in thread {args.thread.name if args.thread else '?'}:\n"
            + "".join(traceback.format_exception(args.exc_type, args.exc_value, args.exc_traceback))
            for args in failures
        )
        pytest.fail(f"uncaught exception(s) in background thread(s):\n{rendered}")


@pytest.fixture(autouse=True)
def _thread_watchdog(request):
    if request.node.get_closest_marker("threaded") is None:
        yield
        return
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


@pytest.fixture(scope="module")
def shape_contracts():
    """Opt-in (``pytestmark = pytest.mark.usefixtures("shape_contracts")``):
    every ``@shape_spec`` call the module's tests make is checked against
    its declaration.  Module-scoped because enforcing session-wide costs
    ~12 s of tier-1 and reaches no further declaration."""
    from shape_contract import enforce  # imports repro.nn/core: only where opted in

    with enforce() as calls:
        yield calls
