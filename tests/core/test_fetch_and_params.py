"""Unit tests for fetch planning and the §3.2 parameter selection."""

import pytest

from repro.core import (
    RESPONSE_HEADER_BYTES,
    derive_retry_bound,
    derive_size_bounds,
    plan_fetch,
    reads_required,
    select_parameters,
)
from repro.core.fetch import needs_remainder
from repro.core.params import fetch_size_grid
from repro.errors import ProtocolError
from repro.hw import CONNECTX3, pipeline_service_time


class TestFetchPlanning:
    def test_small_response_needs_one_read(self):
        plan = plan_fetch(total_payload=32, fetch_size=256)
        assert plan.complete_after_first
        assert plan.first_covers == 32
        assert reads_required(32, 256) == 1

    def test_exact_fit_needs_one_read(self):
        capacity = 256 - RESPONSE_HEADER_BYTES
        assert reads_required(capacity, 256) == 1

    def test_one_byte_over_needs_second_read(self):
        capacity = 256 - RESPONSE_HEADER_BYTES
        plan = plan_fetch(capacity + 1, 256)
        assert not plan.complete_after_first
        assert plan.remainder_bytes == 1
        assert plan.remainder_offset == 256

    def test_large_response_remainder_geometry(self):
        plan = plan_fetch(total_payload=1000, fetch_size=256)
        assert plan.first_covers == 256 - RESPONSE_HEADER_BYTES
        assert plan.remainder_offset == 256
        assert plan.remainder_bytes == 1000 - plan.first_covers
        # Ranges tile the response exactly.
        assert plan.first_covers + plan.remainder_bytes == 1000

    def test_empty_response(self):
        assert reads_required(0, 256) == 1

    def test_negative_size_rejected(self):
        for check in (plan_fetch, needs_remainder, reads_required):
            with pytest.raises(ProtocolError, match="negative payload size"):
                check(-1, 256)


def inbound_iops(size):
    """The model's in-bound IOPS-vs-size curve (Fig. 5)."""
    return 1.0 / pipeline_service_time(
        CONNECTX3.inbound_base_us,
        size,
        CONNECTX3.effective_bandwidth_bytes_per_us,
        CONNECTX3.softmax_order,
    )


SIZES = [32, 64, 128, 192, 256, 384, 512, 640, 768, 1024, 2048, 4096, 8192]


class TestSizeBounds:
    def test_paper_bounds_recovered_from_model_curve(self):
        """The paper derived L=256, H=1024 for the testbed NIC."""
        lower, upper = derive_size_bounds(SIZES, [inbound_iops(s) for s in SIZES])
        assert lower == 256
        assert upper == 1024

    def test_bounds_ordered(self):
        lower, upper = derive_size_bounds(SIZES, [inbound_iops(s) for s in SIZES])
        assert lower <= upper

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ProtocolError):
            derive_size_bounds([1, 2, 3], [1.0, 2.0])

    def test_unsorted_sizes_rejected(self):
        with pytest.raises(ProtocolError):
            derive_size_bounds([64, 32, 128], [1.0, 1.0, 1.0])


class TestRetryBound:
    def test_paper_retry_bound_from_crossover(self):
        """Fig. 9: fetching gains <10% past P=7 us; one fetch RTT ~1.4 us
        => N = 5, exactly the paper's choice."""
        process_times = list(range(1, 16))
        reply = [2.1] * len(process_times)
        # Synthetic Fig. 9 shape: fetching dominated by max(P, fetch rate).
        fetch = [min(5.6, 16.0 / p) for p in process_times]
        retry_bound, crossover = derive_retry_bound(
            process_times, fetch, reply, fetch_round_trip_us=1.4
        )
        assert crossover == 7
        assert retry_bound == 5

    def test_no_crossover_uses_last_point(self):
        retry_bound, crossover = derive_retry_bound(
            [1, 2, 3], [10.0, 9.0, 8.0], [2.0, 2.0, 2.0], fetch_round_trip_us=1.0
        )
        assert crossover == 3
        assert retry_bound == 3

    def test_validation(self):
        with pytest.raises(ProtocolError):
            derive_retry_bound([1], [1.0, 2.0], [1.0], 1.0)
        with pytest.raises(ProtocolError):
            derive_retry_bound([1], [1.0], [1.0], 0.0)


class TestFetchSizeGrid:
    def test_grid_covers_bounds(self):
        grid = fetch_size_grid(256, 1024, step=64)
        assert grid[0] == 256
        assert grid[-1] == 1024
        assert all(b - a == 64 for a, b in zip(grid, grid[1:]))

    def test_unaligned_upper_included(self):
        grid = fetch_size_grid(256, 1000, step=64)
        assert grid[-1] == 1000

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ProtocolError):
            fetch_size_grid(1024, 256)
        with pytest.raises(ProtocolError):
            fetch_size_grid(256, 1024, step=0)


class TestSelectParameters:
    def iops_at(self, retry, fetch):
        return inbound_iops(fetch)

    def test_small_results_pick_smallest_fetch(self):
        """32 B values (paper §4.2): selection lands on F=256."""
        choice = select_parameters(
            result_sizes=[32 + 9] * 100,  # value + kv response framing
            iops_at=self.iops_at,
            retry_upper_bound=5,
            size_lower_bound=256,
            size_upper_bound=1024,
        )
        assert choice.fetch_size == 256
        assert choice.retry_bound == 5

    def test_middle_sizes_pick_covering_fetch(self):
        """Responses of ~560 B: Eq. 2 grows F to cover them in one read
        (half IOPS at F=256 loses to full IOPS at F=576)."""
        sizes = [560] * 100
        choice = select_parameters(
            result_sizes=sizes,
            iops_at=self.iops_at,
            retry_upper_bound=5,
            size_lower_bound=256,
            size_upper_bound=1024,
            size_step=64,
        )
        assert choice.fetch_size >= 560 + 8
        assert choice.fetch_size <= 640

    def test_bimodal_mix_keeps_small_fetch(self):
        """Eq. 2 as published: covering half the results at full IOPS can
        beat covering all of them at a lower IOPS, so a 40/600 B mix
        keeps F = 256 (see EXPERIMENTS.md discussion of Fig. 18)."""
        sizes = [40] * 50 + [600] * 50
        choice = select_parameters(
            result_sizes=sizes,
            iops_at=self.iops_at,
            retry_upper_bound=5,
            size_lower_bound=256,
            size_upper_bound=1024,
            size_step=64,
        )
        assert choice.fetch_size == 256

    def test_uncovered_results_score_half(self):
        constant = lambda r, f: 10.0
        choice = select_parameters(
            result_sizes=[10_000],  # never covered by F in [256, 1024]
            iops_at=constant,
            retry_upper_bound=2,
            size_lower_bound=256,
            size_upper_bound=512,
            size_step=256,
        )
        assert choice.expected_mops == pytest.approx(5.0)

    def test_tie_breaks_prefer_larger_retry_smaller_fetch(self):
        constant = lambda r, f: 10.0
        choice = select_parameters(
            result_sizes=[16],
            iops_at=constant,
            retry_upper_bound=3,
            size_lower_bound=256,
            size_upper_bound=512,
            size_step=128,
        )
        assert choice.retry_bound == 3
        assert choice.fetch_size == 256

    def test_scores_table_is_exhaustive(self):
        choice = select_parameters(
            result_sizes=[32],
            iops_at=self.iops_at,
            retry_upper_bound=2,
            size_lower_bound=256,
            size_upper_bound=512,
            size_step=128,
        )
        assert set(choice.scores) == {
            (r, f) for r in (1, 2) for f in (256, 384, 512)
        }

    def test_empty_sizes_rejected(self):
        with pytest.raises(ProtocolError):
            select_parameters([], self.iops_at, 5, 256, 1024)


class TestResultSampler:
    def test_keeps_everything_under_capacity(self):
        from repro.core import ResultSampler

        sampler = ResultSampler(capacity=100)
        sampler.observe_many(range(50))
        assert sorted(sampler.sizes()) == list(range(50))
        assert sampler.seen == 50

    def test_reservoir_bounded(self):
        from repro.core import ResultSampler

        sampler = ResultSampler(capacity=64)
        sampler.observe_many([7] * 10_000)
        assert len(sampler.sizes()) == 64
        assert sampler.seen == 10_000

    def test_reservoir_is_representative(self):
        from repro.core import ResultSampler

        sampler = ResultSampler(capacity=500, seed=1)
        sampler.observe_many([100] * 5000)
        sampler.observe_many([900] * 5000)
        share = sum(1 for s in sampler.sizes() if s == 900) / 500
        assert 0.4 < share < 0.6

    def test_percentile(self):
        from repro.core import ResultSampler

        sampler = ResultSampler()
        sampler.observe_many(range(101))
        assert sampler.percentile(50) == pytest.approx(50.0)

    def test_empty_sampler_rejects_reads(self):
        from repro.core import ResultSampler

        with pytest.raises(ProtocolError):
            ResultSampler().sizes()

    def test_negative_size_rejected(self):
        from repro.core import ResultSampler

        with pytest.raises(ProtocolError):
            ResultSampler().observe(-1)
