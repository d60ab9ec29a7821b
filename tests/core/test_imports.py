"""What analyzing a program loads: no more than the analysis needs."""

import os
import subprocess
import sys
import textwrap

import repro


def test_analysis_paths_never_import_hashlib():
    # hashlib loads libcrypto (several MB of RSS); only certificate-cache
    # digests need it, and a plain analysis installs no cache.
    script = textwrap.dedent(
        """
        import sys
        import repro, repro.core, repro.methods
        from repro.core import AnalyzerSettings
        from repro.corpus import get_program
        from repro.lp.program import Program
        from repro.methods import MethodRunner

        entry = get_program("append_bbf")
        for method in ("argsize", "portfolio"):
            result = MethodRunner(AnalyzerSettings(method=method)).analyze(
                Program.from_text(entry.source), tuple(entry.root),
                entry.mode,
            )
            assert result.status == "PROVED", result.status
        assert "hashlib" not in sys.modules
        """
    )
    source_root = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (source_root, env.get("PYTHONPATH")))
    )
    completed = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=env, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
