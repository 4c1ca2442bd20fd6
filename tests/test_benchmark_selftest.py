"""The benchmark's self-test passes with no failed operation.

``perfbench/selftest.py`` requires each output check to be evaluated, not to
pass, so it also passes when a workload's operations raise; and
``tests/test_signatures.py`` binds call forms only. A change to what the
library returns (what ``generate_exchanges`` returns, say) could then break
the conformal or returner workload with every other test green. This test
runs the self-test (a few seconds) and requires every run without an
injected failure to report 0 failed operations.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent


def test_the_benchmark_selftest_passes_with_no_failed_operation():
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          capture_output=True, text=True, cwd=ROOT, timeout=600)
    report = done.stdout + done.stderr
    assert done.returncode == 0, report
    # One line per run: "<workload> trace=<0|1>: ... <n> failed; <checks>", and
    # "<workload> with <module.function> raising: ..." for the injected failures.
    runs = [line for line in done.stdout.splitlines() if " trace=" in line and " ops, " in line]
    assert runs, report
    failed = [line for line in runs if " 0 failed;" not in line]
    assert not failed, report
