"""Tests of the benchmark's own logic (no program run needed).

Run from the root of a checkout::

    python3 -m pytest -q perfbench/tests
"""

import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from inputs import JobSpec, check_outcome, side0_digest  # noqa: E402
from stats import failed_frac, tail  # noqa: E402
from tracing import Span, Tracer, covered, self_times  # noqa: E402
from workloads import Context  # noqa: E402


# -- tail percentile ------------------------------------------------------------------


def test_tail_needs_ten_samples_beyond_it():
    assert tail(range(10)) is None
    value, percentile, n = tail(range(11))
    assert (value, n) == (0, 11)
    assert percentile == pytest.approx(100 / 11)


def test_tail_of_a_hundred_samples_is_p90():
    samples = list(range(1, 101))[::-1]  # order must not matter
    value, percentile, n = tail(samples)
    assert (value, percentile, n) == (90, 90.0, 100)
    assert sum(1 for s in samples if s > value) == 10


def test_tail_keeps_exactly_ten_beyond_for_any_size():
    for n in (11, 25, 57, 1000):
        value, _, _ = tail(range(n))
        assert sum(1 for s in range(n) if s > value) == 10


# -- failed_frac ----------------------------------------------------------------------


def test_failed_frac():
    assert failed_frac(100, 0) == 0.0
    assert failed_frac(200, 3) == pytest.approx(0.015)


def test_failed_frac_of_nothing_attempted_is_total_failure():
    assert failed_frac(0, 0) == 1.0


# -- self time ------------------------------------------------------------------------


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered([(1, 4), (3, 6), (8, 12)], 0, 10) == pytest.approx(7)
    assert covered([], 0, 10) == 0


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span(1, None, "engine.run", 0.0, 10.0),
        Span(2, 1, "partition.kl", 1.0, 4.0),
        Span(3, 1, "partition.kl", 3.0, 6.0),  # overlaps its sibling
        Span(4, 1, "kernels.cut_weight", 8.0, 12.0),  # ends after its parent
        Span(5, 2, "kernels.move_gains", 1.5, 2.5),
    ]
    own = self_times(spans)
    assert own["engine"] == pytest.approx(10 - 7)
    assert own["partition"] == pytest.approx((3 - 1) + 3)
    assert own["kernels"] == pytest.approx(4 + 1)


def test_tracer_links_parents_per_thread():
    tracer = Tracer("t", enabled=True)
    with tracer.span("service.request"):
        with tracer.span("service.submit"):
            pass

        def poll():
            with tracer.span("service.poll"):
                pass

        worker = threading.Thread(target=poll)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    by_name = {s.name: s for s in tracer.spans}
    request = by_name["service.request"]
    assert by_name["service.submit"].parent == request.span_id
    assert request.parent is None
    # Another thread's span is not a child of this thread's open span.
    assert by_name["service.poll"].parent is None


def test_disabled_tracer_records_nothing():
    tracer = Tracer("t")
    with tracer.span("engine.run") as span:
        assert span is None
    assert tracer.spans == []


# -- references -----------------------------------------------------------------------


JOB = JobSpec("gbreg500", "kl", 7)
SIDE0 = ["3", "1", "2"]
REFERENCES = {JOB.ident: f"12:{side0_digest(SIDE0)}"}


def test_matching_outcome_passes():
    assert check_outcome(REFERENCES, JOB, 12, reversed(SIDE0)) is None


def test_wrong_reference_cut_is_reported_as_a_failure():
    problem = check_outcome({JOB.ident: f"11:{side0_digest(SIDE0)}"}, JOB, 12, SIDE0)
    assert "cut 12 != reference 11" in problem
    ctx = Context(root=Path("."), work=Path("."), workload="small-batch", instance=0,
                  seconds=1, workers=1, tracer=Tracer("t"), jobs=None, references={})
    assert ctx.account(1, [problem]) == 0
    assert (ctx.attempted, ctx.failed) == (1, 1)
    assert failed_frac(ctx.attempted, ctx.failed) == 1.0


def test_wrong_side0_and_missing_reference_fail():
    assert "digest" in check_outcome(REFERENCES, JOB, 12, ["1", "2", "4"])
    assert "no reference" in check_outcome({}, JOB, 12, SIDE0)
    assert check_outcome(REFERENCES, JOB, None, SIDE0) is not None
