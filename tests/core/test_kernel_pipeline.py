"""Kernel selection through the analyzer: settings, the per-SCC stage
trace, and kernel-independent certificate fingerprints.

``fm_kernel="array"`` is a pure accelerator — every verdict,
certificate, and stage count must match the ``"int"`` run.
Certificates are keyed without the kernel, so a cache warmed under one
kernel serves the others.
"""

import pytest

from repro.errors import AnalysisError
from repro.lp import parse_program
from repro.core import (
    AnalyzerSettings,
    MemoryCertificateCache,
    TerminationAnalyzer,
    clear_caches,
)
from repro.core.pipeline import resolve_settings

PERM = """
perm([], []).
perm(P, [X|L]) :- append(E, [X|F], P), append(E, F, P1), perm(P1, L).
append([], Ys, Ys).
append([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).
"""


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


def _analyze(kernel, **kwargs):
    return TerminationAnalyzer(
        parse_program(PERM),
        AnalyzerSettings(fm_kernel=kernel, **kwargs),
    ).analyze(("perm", 2), "bf")


def _certificate_view(result):
    return [
        (
            tuple(str(m) for m in scc.members),
            scc.status,
            scc.reason,
            None if scc.proof is None
            else (repr(scc.proof.lambdas), repr(scc.proof.thetas)),
        )
        for scc in result.scc_results
    ]


class TestSettings:
    def test_array_kernel_accepted(self):
        settings = AnalyzerSettings(fm_kernel="array")
        norm, backend = resolve_settings(settings)
        assert backend.options["kernel"] == "array"

    def test_unknown_kernel_rejected_eagerly(self):
        with pytest.raises(AnalysisError, match="unknown fm_kernel"):
            TerminationAnalyzer(
                parse_program(PERM), AnalyzerSettings(fm_kernel="simd")
            )


class TestKernelEquivalence:
    @pytest.mark.parametrize("feasibility", ["simplex", "fm"])
    def test_array_matches_int(self, feasibility):
        from_int = _analyze("int", feasibility=feasibility)
        clear_caches()
        from_array = _analyze("array", feasibility=feasibility)
        assert from_array.status == from_int.status
        assert _certificate_view(from_array) == _certificate_view(from_int)

    def test_stage_totals_match(self):
        """The array kernel must not change what the stages did:
        same calls, same rows, same pivot totals."""
        structural = ("calls", "rows_in", "rows_out", "pivots",
                      "eliminations")
        from_int = _analyze("int")
        clear_caches()
        from_array = _analyze("array")
        for name in ("rule_systems", "dualize", "theta", "solve",
                     "certify"):
            got = from_array.trace.stage(name)
            want = from_int.trace.stage(name)
            for field in structural:
                assert getattr(got, field) == getattr(want, field), (
                    name, field)


class TestSCCTrace:
    def test_each_scc_span_holds_its_solve_and_certify(self):
        """Every recursive SCC runs its own stages inside its ``scc``
        span; no solve or certify stage sits directly under
        ``analyze``."""
        result = _analyze("int")
        (analyze,) = result.trace.roots
        sccs = [child for child in analyze.children if child.name == "scc"]
        assert len(sccs) == 3
        for scc in sccs:
            names = [child.name for child in scc.children]
            assert names.count("stage.solve") == 1
            assert names.count("stage.certify") == 1
        top = [child.name for child in analyze.children]
        assert "stage.solve" not in top
        assert "stage.certify" not in top


class TestFingerprintKernelIndependence:
    def test_certificates_shared_across_kernels(self):
        """The certificate fingerprint excludes ``fm_kernel`` by
        design — byte-identical kernels may share certificates.  A
        cache warmed under "int" must serve the "array" run."""
        cache = MemoryCertificateCache()
        program = parse_program(PERM)
        warm = TerminationAnalyzer(
            program, AnalyzerSettings(fm_kernel="int"),
            certificate_cache=cache,
        ).analyze(("perm", 2), "bf")
        assert warm.proved
        clear_caches()
        reuse = TerminationAnalyzer(
            program, AnalyzerSettings(fm_kernel="array"),
            certificate_cache=cache,
        ).analyze(("perm", 2), "bf")
        assert reuse.proved
        assert reuse.trace.stage("fingerprint").cache_hits > 0
        assert reuse.trace.stage("solve").calls == 0
